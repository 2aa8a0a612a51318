"""Scenario runners: telemetry compression, predictive VNF sizing, and the
two-loop conflict demonstration.

Every run is driven by one ScenarioConfig and one master seed; all internal
randomness (workload, catalog, model init, training, planted noise) derives
from that seed, so a rerun with the same config produces bit-identical
output files. Wall-clock duration is reported on stdout only, never written
into output files.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from . import engines, metrics, sdi
from .chain import (ActionCatalog, CatalogEntry, LoopChain, LoopStep, QosRequirements,
                    StepKind, load_chain)
from .control import Orchestrator, count_reversals, write_csv
from .steps import TrafficFeed

SCENARIOS = ("compress", "adaptive-vnf", "conflict-demo")
OUT_DIR_ENV = "LOOPSIM_OUT"


@dataclass
class ScenarioConfig:
    scenario: str
    seed: int
    topology: str = "testbed"
    out_dir: str = "out"
    workload: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; known: {SCENARIOS}")


@dataclass
class RunReport:
    scenario: str
    seed: int
    metrics: dict
    checks: dict  # threshold checks backing --strict
    files: dict  # name -> {path, rows}
    wall_clock_s: float  # console-only; excluded from written reports

    @property
    def strict_ok(self) -> bool:
        return all(self.checks.values())


def _number(doc: dict, section: str, key: str, default, kind=float):
    """doc[key], or default when absent, as kind (float or int); a value that
    is not a number raises ConfigError naming the section and key."""
    value = doc.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError):
        where = f"{section}.{key}" if section else key
        raise ConfigError(f"{where} must be a number, got {value!r}") from None


def load_scenario_config(path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: scenario config must be a mapping")
    if "seed" not in doc:
        raise ConfigError(f"{path}: seed is mandatory")
    if "scenario" not in doc:
        raise ConfigError(f"{path}: scenario is mandatory")
    cfg = ScenarioConfig(
        scenario=str(doc["scenario"]),
        seed=_number(doc, "", "seed", None, int),
        topology=str(doc.get("topology", "testbed")),
        out_dir=str(doc.get("out_dir", "out")),
        workload=dict(doc.get("workload", {}) or {}),
        train=dict(doc.get("train", {}) or {}),
        params=dict(doc.get("params", {}) or {}),
    )
    # Resolve referenced files relative to the config file.
    for key in ("chain_file", "booster_chain_file", "saver_chain_file"):
        if key in cfg.params:
            ref = (path.parent / cfg.params[key]).resolve()
            if not ref.exists():
                raise ConfigError(f"{path}: referenced file {cfg.params[key]!r} does not exist")
            cfg.params[key] = str(ref)
    if cfg.topology not in sdi.TOPOLOGY_PRESETS:
        topo_path = (path.parent / cfg.topology).resolve()
        if not topo_path.exists():
            raise ConfigError(
                f"{path}: topology {cfg.topology!r} is neither a preset nor an existing file")
        cfg.topology = str(topo_path)
    return cfg


def _seeds(master: int, n: int = 6) -> list[int]:
    """Derived sub-seeds, one per randomness consumer, in a documented order:
    workload, metric catalog, model init, training, planted noise, spare."""
    children = np.random.SeedSequence(master).spawn(n)
    return [int(c.generate_state(1)[0]) for c in children]


def _build_state(cfg: ScenarioConfig) -> sdi.Topology:
    if cfg.topology in sdi.TOPOLOGY_PRESETS:
        return sdi.build_topology(cfg.topology)
    return sdi.load_topology(cfg.topology)


def _workload_profile(cfg: ScenarioConfig, default_preset: str, seed: int) -> metrics.WorkloadProfile:
    doc = cfg.workload
    if not doc or "preset" in doc:
        return metrics.preset_workload(doc.get("preset", default_preset) if doc else default_preset,
                                       seed)
    segments = tuple(
        metrics.WorkloadSegment(float(s["start"]), float(s["end"]), str(s["shape"]),
                                float(s["amplitude"]))
        for s in doc.get("segments", ())
    )
    return metrics.WorkloadProfile(
        name=str(doc.get("name", "custom")),
        duration=_number(doc, "workload", "duration", 1800.0),
        base_rate=_number(doc, "workload", "base_rate", 0.0),
        segments=segments,
        noise=_number(doc, "workload", "noise", 0.0),
        seed=seed,
    )


def _param(cfg: ScenarioConfig, key: str, default, kind=float):
    return _number(cfg.params, "params", key, default, kind)


def _train_config(cfg: ScenarioConfig, seed: int, **defaults) -> engines.TrainConfig:
    doc = dict(defaults)
    doc.update(cfg.train)
    return engines.TrainConfig(
        learning_rate=_number(doc, "train", "learning_rate", 1e-3),
        epochs=_number(doc, "train", "epochs", 100, int),
        batch_size=_number(doc, "train", "batch_size", 32, int),
        seed=seed,
        optimizer=str(doc.get("optimizer", "adam")),
        shuffle=bool(doc.get("shuffle", True)),
    )


def _artifact(out: Path, name: str, write, *args) -> dict:
    """Write out/name with write(path, *args), which returns the number of
    data rows; returns the file's manifest entry."""
    return {"path": name, "rows": write(out / name, *args)}


def _write_report(report: RunReport, out: Path) -> None:
    doc = {
        "scenario": report.scenario,
        "seed": report.seed,
        "metrics": report.metrics,
        "checks": report.checks,
        "files": report.files,
    }
    with open(out / "report.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    lines = [f"scenario: {report.scenario}", f"seed: {report.seed}", "", "metrics:"]
    for key in sorted(report.metrics):
        lines.append(f"  {key}: {report.metrics[key]}")
    lines.append("")
    lines.append("checks:")
    for key in sorted(report.checks):
        lines.append(f"  {key}: {'pass' if report.checks[key] else 'FAIL'}")
    lines.append("")
    lines.append("files:")
    for key in sorted(report.files):
        entry = report.files[key]
        lines.append(f"  {entry['path']} ({entry['rows']} rows)")
    with open(out / "summary.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _out_dir(cfg: ScenarioConfig) -> Path:
    out = Path(os.environ.get(OUT_DIR_ENV, cfg.out_dir))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Scenario 1: telemetry compression
# ---------------------------------------------------------------------------

def _compress_chain(cfg: ScenarioConfig) -> LoopChain:
    if "chain_file" in cfg.params:
        return load_chain(cfg.params["chain_file"])
    region = str(cfg.params.get("region", "waterloo"))
    return LoopChain(
        id="telemetry-compressor",
        steps=[
            LoopStep("collect", StepKind.MONITOR, "monitor.scrape_frame",
                     QosRequirements(max_latency_ms=50.0, min_bandwidth=20, cpu=500,
                                     storage=1024, min_reliability=0.95,
                                     coverage=frozenset({region}))),
            LoopStep("compress", StepKind.ANALYZE, "analyze.encode_frame",
                     QosRequirements(max_latency_ms=20.0, min_bandwidth=50, cpu=1000,
                                     storage=512, min_reliability=0.95)),
            LoopStep("archive", StepKind.KNOWLEDGE, "knowledge.store",
                     QosRequirements(max_latency_ms=100.0, min_bandwidth=10, cpu=100,
                                     storage=8192)),
        ],
        edges=[("collect", "compress"), ("compress", "archive")],
        source_domain=frozenset({region}),
        priority=5,
        tick_period_ms=1000,
    )


def run_compress(cfg: ScenarioConfig, out: Path) -> tuple[dict, dict, dict]:
    """Scrape a correlated dataset from the modeled testbed, train the
    compressor, measure reconstruction fidelity on the validation split, then
    serve the model inside a monitor->compress->archive loop."""
    seed_wl, seed_cat, seed_model, seed_train, _, _ = _seeds(cfg.seed)
    state = _build_state(cfg)
    catalog = metrics.build_metric_catalog(state, seed_cat)
    profile = _workload_profile(cfg, "bursty30min", seed_wl)
    workload = metrics.generate_workload(profile)
    dataset = metrics.scrape_series(state, workload, catalog)

    train, val = metrics.split_chronological(dataset, _param(cfg, "train_frac", 0.8))
    train01, scaler = metrics.normalize_minmax(train)
    val01_values = scaler.transform(val.values)

    train_cfg = _train_config(cfg, seed_train, epochs=150)
    if dataset.width == engines.COMPRESSOR_WIDTHS[0]:
        net = engines.ae_init(seed_model)
    else:
        # Non-testbed topologies have other widths; keep the canonical
        # width ratios (90/111, 85/111, 75/111) around the custom width.
        w = dataset.width
        a, b, c = (max(2, int(round(f * w))) for f in (90 / 111, 85 / 111, 75 / 111))
        net = engines.net_init((w, a, b, c, a, w), engines.COMPRESSOR_ACTIVATIONS, seed_model)
    net, losses = engines.ae_train(net, train01.values, train_cfg)

    recon01 = engines.ae_forward(net, val01_values)
    recon = scaler.inverse(recon01)
    threshold = _param(cfg, "error_threshold", 0.1)
    cpu_metric = str(cfg.params.get("cpu_metric", "node.cpu@waterloo-vm6"))
    dist = engines.relative_error_distribution(val.column(cpu_metric),
                                               recon[:, dataset.names.index(cpu_metric)],
                                               threshold)
    val_mse = float(np.mean((recon01 - val01_values) ** 2))
    ratio = net.code_width / net.input_width

    # Serve the trained model inside a running loop for a short window.
    chain = _compress_chain(cfg)
    orch = Orchestrator(state)
    orch.instantiate(chain, services={
        "metric_catalog": catalog, "workload": workload,
        "compressor": net, "scaler": scaler,
    })
    loop_ticks = _param(cfg, "loop_ticks", 60, int)
    orch.run(duration_ms=loop_ticks * (chain.tick_period_ms or 1000))
    instance = orch.instances[chain.id]
    codes = []
    for rec in instance.knowledge:
        for value in rec["inputs"].values():
            if isinstance(value, np.ndarray):
                codes.append(value)
                break

    recon_ds = metrics.Dataset(dataset.names, val.t, recon, split="validation")
    files = {
        "dataset": _artifact(out, "dataset.csv", lambda path: metrics.export_csv(dataset, path)),
        "reconstruction": _artifact(out, "reconstruction_val.csv",
                                    lambda path: metrics.export_csv(recon_ds, path)),
        "loss_history": _artifact(out, "loss_history.csv", write_csv, ("epoch", "train_mse"),
                                  enumerate(losses)),
        "error_histogram": _artifact(out, "error_histogram.csv", write_csv,
                                     ("bin_lo", "bin_hi", "count"),
                                     zip(dist.bin_edges, dist.bin_edges[1:], dist.histogram)),
        "codes": _artifact(out, "codes.csv", write_csv,
                           [f"code_{i}" for i in range(net.code_width)], codes),
        "model": {"path": "compressor.json", "rows": len(net.layers)},
        "trace": _artifact(out, "trace.csv", orch.trace.to_csv),
        "fcaps": _artifact(out, "fcaps.csv", orch.export_fcaps_csv),
    }
    engines.save_model(net, out / "compressor.json", train_cfg)

    fraction_target = _param(cfg, "min_fraction_below", 0.80)
    run_metrics = {
        "fraction_eta_below_threshold": dist.fraction_below,
        "eta_threshold": threshold,
        "eta_excluded_samples": dist.excluded,
        "validation_mse_normalized": val_mse,
        "final_train_mse": losses[-1],
        "compression_ratio": ratio,
        "storage_reduction": 1.0 - ratio,
        "code_width": net.code_width,
        "input_width": net.input_width,
        "loop_codes_emitted": len(codes),
        "cpu_metric": cpu_metric,
    }
    checks = {
        "fraction_below_threshold": dist.fraction_below >= fraction_target,
        "compression_ratio_exact": ratio == net.code_width / net.input_width,
    }
    return run_metrics, checks, files


# ---------------------------------------------------------------------------
# Scenario 2: traffic-predictive VNF sizing
# ---------------------------------------------------------------------------

def _adaptive_chain(cfg: ScenarioConfig, region: str, firewall: str, window: int) -> LoopChain:
    if "chain_file" in cfg.params:
        return load_chain(cfg.params["chain_file"])
    return LoopChain(
        id="vnf-autoscaler",
        steps=[
            LoopStep("watch-traffic", StepKind.MONITOR, "monitor.traffic_window",
                     QosRequirements(max_latency_ms=50.0, min_bandwidth=10, cpu=200,
                                     storage=512, coverage=frozenset({region})),
                     params={"window": window}),
            LoopStep("forecast", StepKind.ANALYZE, "analyze.forecast_traffic",
                     QosRequirements(max_latency_ms=50.0, min_bandwidth=10, cpu=500,
                                     storage=256),
                     params={"kind": "traffic.forecast", "aggregate": "max"}),
            LoopStep("plan-cpu", StepKind.PLAN, "plan.catalog_translate",
                     QosRequirements(max_latency_ms=50.0, min_bandwidth=5, cpu=100,
                                     storage=64)),
            LoopStep("resize", StepKind.EXECUTE, "execute.apply",
                     QosRequirements(max_latency_ms=100.0, min_bandwidth=5, cpu=100,
                                     storage=64)),
            LoopStep("memory", StepKind.KNOWLEDGE, "knowledge.store",
                     QosRequirements(cpu=50, storage=2048)),
        ],
        edges=[("watch-traffic", "forecast"), ("forecast", "plan-cpu"),
               ("plan-cpu", "resize"), ("forecast", "memory"), ("plan-cpu", "memory")],
        source_domain=frozenset({region}),
        destination_domain=frozenset({firewall}),
        priority=3,
        tick_period_ms=600_000,  # resize every 10 simulated minutes
    )


def _knob_levels(applies, minutes: int) -> np.ndarray:
    """Knob level at the start of each minute, rebuilt from the apply events:
    the running sum, in trace order, of the deltas applied up to then."""
    levels = np.cumsum([0.0] + [e.delta for e in applies])
    return levels[np.searchsorted([e.t_ms for e in applies], np.arange(minutes) * 60_000,
                                  side="right")]


def run_adaptive_vnf(cfg: ScenarioConfig, out: Path) -> tuple[dict, dict, dict]:
    """Three phases: fit the planted traffic->CPU law, train the traffic
    forecaster, then run the loop that resizes the firewall's CPU knob ten
    minutes ahead of predicted traffic."""
    seed_wl, _, seed_model, seed_train, seed_noise, _ = _seeds(cfg.seed)
    state = _build_state(cfg)
    region = str(cfg.params.get("region", "waterloo"))
    firewall = str(cfg.params.get("firewall_node", f"{region}-vm4"))
    if firewall not in state.nodes:
        raise ConfigError(f"firewall node {firewall!r} not in topology")

    profile = _workload_profile(cfg, "periodic6h", seed_wl)
    workload = metrics.generate_workload(profile)
    per_min = metrics.resample_mean(workload, 60.0)
    series = per_min.values
    window = _param(cfg, "window", 30, int)
    horizon = _param(cfg, "horizon", 10, int)
    train_frac = _param(cfg, "train_frac", 0.75)
    cut = int(round(len(series) * train_frac))
    if cut <= window + horizon or len(series) - cut < window + horizon:
        raise ConfigError("traffic series too short for the window/horizon/split")

    # Phase 1: planted linear CPU law in normalized space, observed with noise.
    slope_true = _param(cfg, "planted_slope", 0.7)
    intercept_true = _param(cfg, "planted_intercept", 0.1)
    sigma = _param(cfg, "planted_noise", 1e-3)
    cpu_scale = _param(cfg, "cpu_scale", 4000.0)
    lo, hi = float(series[:cut].min()), float(series[:cut].max())
    span = (hi - lo) or 1.0
    x01 = (series - lo) / span
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed_noise)))
    y01_obs = slope_true * x01 + intercept_true + rng.normal(0.0, sigma, size=len(x01))
    fit = engines.linfit(x01[:cut], y01_obs[:cut])
    slope_rel_err = abs(fit.slope - slope_true) / abs(slope_true)

    # Phase 2: traffic forecaster vs last-value persistence on held-out windows.
    train_cfg = _train_config(cfg, seed_train, epochs=300, learning_rate=5e-3)
    predictor = engines.rnn_train(series[:cut], window, horizon, train_cfg,
                                  hidden_size=_param(cfg, "hidden_size", 16, int))
    x_all, y_all = engines.make_windows(series, window, horizon)
    test_idx = [i for i in range(len(x_all)) if i + window >= cut]
    pred_sse = 0.0
    persist_sse = 0.0
    eval_rows = []
    for i in test_idx:
        pred = engines.rnn_predict(predictor, x_all[i])
        persist = np.full(horizon, x_all[i][-1])
        pe = float(np.mean((pred - y_all[i]) ** 2))
        be = float(np.mean((persist - y_all[i]) ** 2))
        pred_sse += pe
        persist_sse += be
        eval_rows.append((i, pe, be))
    pred_mse = pred_sse / len(test_idx)
    persist_mse = persist_sse / len(test_idx)
    mse_ratio = pred_mse / persist_mse if persist_mse > 0 else math.inf

    # Phase 3: the closed loop. The catalog folds the fitted law, the input
    # normalization and a headroom factor into one affine map Mb/s -> mc.
    headroom = _param(cfg, "headroom", 1.05)
    knob_lo = _param(cfg, "knob_min", 200.0)
    knob_hi = _param(cfg, "knob_max", 6000.0)
    scale = headroom * cpu_scale * fit.slope / span
    offset = headroom * cpu_scale * (fit.intercept - fit.slope * lo / span)
    catalog = ActionCatalog(entries=(CatalogEntry(
        kind="traffic.forecast", target_role="firewall",
        parameter="vnf.cpu.millicores", scale=scale, offset=offset,
        lo=knob_lo, hi=knob_hi),))

    chain = _adaptive_chain(cfg, region, firewall, window)
    feed = TrafficFeed(series, offset=cut)
    orch = Orchestrator(state)
    orch.instantiate(chain, services={
        "traffic_feed": feed, "predictor": predictor, "action_catalog": catalog,
    })
    eval_minutes = len(series) - cut
    orch.run(duration_ms=eval_minutes * 60_000)

    applies = [e for e in orch.trace.events if e.kind == "apply"]
    level_series = _knob_levels(applies, eval_minutes)
    need = cpu_scale * (slope_true * x01[cut:] + intercept_true)
    adaptive_mean = float(level_series.mean())
    static_peak = float(min(max(scale * series.max() + offset, knob_lo), knob_hi))
    adaptive_over = float(np.mean(level_series - need))
    static_over = float(np.mean(static_peak - need))
    under_frac = float(np.mean(level_series < need))

    files = {
        "traffic": _artifact(out, "traffic_minutes.csv", write_csv,
                             ("minute", "traffic", "traffic01", "cpu01_observed", "split"),
                             ((m, v, x, y, "training" if m < cut else "validation")
                              for m, (v, x, y) in enumerate(zip(series, x01, y01_obs)))),
        "cpu_fit": _artifact(out, "cpu_fit.csv", write_csv,
                             ("traffic01", "cpu01_observed", "cpu01_fit"),
                             ((x, y, fit.slope * x + fit.intercept)
                              for x, y in zip(x01[:cut], y01_obs[:cut]))),
        "forecast_eval": _artifact(out, "forecast_eval.csv", write_csv,
                                   ("window_index", "predictor_mse", "persistence_mse"),
                                   eval_rows),
        "allocation": _artifact(out, "allocation.csv", write_csv,
                                ("minute", "traffic", "cpu_allocated", "cpu_needed",
                                 "static_peak"),
                                ((cut + m, series[cut + m], level_series[m], need[m], static_peak)
                                 for m in range(eval_minutes))),
        "predictor": {"path": "predictor.json", "rows": 1},
        "linear_model": {"path": "linear_model.json", "rows": 1},
        "trace": _artifact(out, "trace.csv", orch.trace.to_csv),
        "fcaps": _artifact(out, "fcaps.csv", orch.export_fcaps_csv),
    }
    engines.save_model(predictor, out / "predictor.json", train_cfg)
    engines.save_model(fit, out / "linear_model.json")

    run_metrics = {
        "fit_slope": fit.slope,
        "planted_slope": slope_true,
        "fit_slope_rel_err": slope_rel_err,
        "fit_mse": fit.fit_mse,
        "predictor_mse": pred_mse,
        "persistence_mse": persist_mse,
        "predictor_vs_persistence_ratio": mse_ratio,
        "adaptive_mean_cpu_mc": adaptive_mean,
        "static_peak_cpu_mc": static_peak,
        "adaptive_mean_overprovision_mc": adaptive_over,
        "static_mean_overprovision_mc": static_over,
        "underprovisioned_minute_fraction": under_frac,
        "ticks": len(applies),
        "horizon_minutes": horizon,
    }
    checks = {
        "fit_slope_within_1pct": slope_rel_err < 0.01,
        "fit_mse_below_1e5": fit.fit_mse < 1e-5,
        "predictor_beats_persistence": mse_ratio < 0.8,
        "adaptive_below_static_peak": adaptive_mean < static_peak,
    }
    return run_metrics, checks, files


# ---------------------------------------------------------------------------
# Scenario 3: conflict demonstration
# ---------------------------------------------------------------------------

def _setpoint_chain(chain_id: str, priority: int, region: str, node: str,
                    parameter: str, value: float) -> LoopChain:
    return LoopChain(
        id=chain_id,
        steps=[
            LoopStep("watch", StepKind.MONITOR, "monitor.knob_value",
                     QosRequirements(cpu=100, storage=64, coverage=frozenset({region})),
                     params={"node": node, "parameter": parameter}),
            LoopStep("push", StepKind.PLAN, "plan.knob_setpoint",
                     QosRequirements(cpu=100, storage=64),
                     params={"node": node, "parameter": parameter, "value": value}),
            LoopStep("record", StepKind.KNOWLEDGE, "knowledge.store",
                     QosRequirements(cpu=50, storage=256)),
        ],
        edges=[("watch", "push"), ("push", "record")],
        source_domain=frozenset({region}),
        destination_domain=frozenset({node}),
        priority=priority,
        tick_period_ms=1000,
    )


def _conflict_run(cfg: ScenarioConfig, arbitration: bool):
    state = _build_state(cfg)
    region = str(cfg.params.get("region", "waterloo"))
    node = str(cfg.params.get("node", f"{region}-vm4"))
    parameter = str(cfg.params.get("parameter", "vnf.cpu.millicores"))
    initial = _param(cfg, "initial", 2000.0)
    if node not in state.nodes:
        raise ConfigError(f"conflict-demo node {node!r} not in topology")
    try:
        sdi.set_knob(state, node, parameter, initial)
    except sdi.CapacityError as exc:
        raise ConfigError(f"initial knob value does not fit on {node}: {exc}") from None
    ticks = _param(cfg, "ticks", 100, int)
    period = _param(cfg, "tick_period_ms", 1000, int)
    single = bool(cfg.params.get("single_chain", False))

    if "booster_chain_file" in cfg.params:
        booster = load_chain(cfg.params["booster_chain_file"])
    else:
        booster = _setpoint_chain("cpu-booster", 1, region, node, parameter,
                                  _param(cfg, "setpoint_high", 3000.0))
    booster.tick_period_ms = period
    orch = Orchestrator(state, arbitration=arbitration, sandbox=arbitration)
    orch.instantiate(booster)
    if not single:
        if "saver_chain_file" in cfg.params:
            saver = load_chain(cfg.params["saver_chain_file"])
        else:
            saver = _setpoint_chain("cpu-saver", 2, region, node, parameter,
                                    _param(cfg, "setpoint_low", 1000.0))
        saver.tick_period_ms = period
        orch.instantiate(saver)
    orch.run(duration_ms=ticks * period)
    return orch


def run_conflict_demo(cfg: ScenarioConfig, out: Path) -> tuple[dict, dict, dict]:
    """Two chains push opposing set-points onto one knob. Pass one runs with
    arbitration and the dry-run gate off (the knob thrashes); pass two turns
    both on (the interference is caught and suppressed)."""
    off = _conflict_run(cfg, arbitration=False)
    on = _conflict_run(cfg, arbitration=True)

    reversals_off = sum(count_reversals(changes)
                        for changes in off.trace.applied_knob_deltas().values())
    decisions = [e for e in on.trace.events if e.kind == "arbitration"]
    first_decision_ms = decisions[0].t_ms if decisions else None
    applied_after = []
    if first_decision_ms is not None:
        for e in on.trace.events:
            if e.kind == "apply" and e.t_ms > first_decision_ms:
                applied_after.append((e.chain, e.delta))
    reversals_after = count_reversals(applied_after)
    conflicts_off = sum(1 for e in off.trace.events if e.kind == "conflict")
    conflicts_on = sum(1 for e in on.trace.events if e.kind == "conflict")
    withheld = sum(1 for e in on.trace.events if e.kind == "withhold")

    files = {
        "trace_unarbitrated": _artifact(out, "trace_unarbitrated.csv", off.trace.to_csv),
        "trace_arbitrated": _artifact(out, "trace_arbitrated.csv", on.trace.to_csv),
        "fcaps_unarbitrated": _artifact(out, "fcaps_unarbitrated.csv", off.export_fcaps_csv),
        "fcaps_arbitrated": _artifact(out, "fcaps_arbitrated.csv", on.export_fcaps_csv),
    }

    single = bool(cfg.params.get("single_chain", False))
    run_metrics = {
        "reversals_unarbitrated": reversals_off,
        "reversals_after_first_decision": reversals_after,
        "conflicts_detected_unarbitrated": conflicts_off,
        "conflicts_detected_arbitrated": conflicts_on,
        "arbitration_decisions": len(decisions),
        "proposals_withheld_by_sandbox": withheld,
        "first_decision_ms": -1 if first_decision_ms is None else first_decision_ms,
        "single_chain": single,
    }
    checks = (
        {"no_conflicts_single_chain": conflicts_off == 0 and conflicts_on == 0}
        if single else
        {
            "unarbitrated_thrashes": reversals_off >= 10,
            "arbitrated_settles": reversals_after == 0,
            "conflicts_detected": conflicts_off >= 1 and conflicts_on >= 1,
        }
    )
    return run_metrics, checks, files


RUNNERS = {
    "compress": run_compress,
    "adaptive-vnf": run_adaptive_vnf,
    "conflict-demo": run_conflict_demo,
}


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Run one scenario into its output directory: the runner writes its files
    and returns (metrics, checks, files); report.json and summary.txt follow."""
    t0 = time.perf_counter()
    out = _out_dir(cfg)
    run_metrics, checks, files = RUNNERS[cfg.scenario](cfg, out)
    report = RunReport(cfg.scenario, cfg.seed, run_metrics, checks, files,
                       wall_clock_s=time.perf_counter() - t0)
    _write_report(report, out)
    return report
