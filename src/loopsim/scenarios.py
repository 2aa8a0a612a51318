"""Scenario runners: telemetry compression, predictive VNF sizing, and the
two-loop conflict demonstration.

Every run is driven by one ScenarioConfig and one master seed; all internal
randomness (workload, catalog, model init, training, planted noise) derives
from that seed, so a rerun with the same config produces bit-identical
output files. Wall-clock duration is reported on stdout only, never written
into output files.

The ML plane (numpy, engines, metrics and the traffic feed) is imported
only by the code that learns or scrapes: the compress and adaptive-vnf
runners, their seeds, knob levels and workload profile, and check_inputs
for a scenario that trains. The conflict demo and every loop builder run
without it.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from .config import load_yaml, section
from .errors import ConfigError
from . import sdi
from .chain import (ActionCatalog, CatalogEntry, EmbeddingError, LoopChain, LoopStep,
                    QosRequirements, StepKind, load_chain)
from .control import LoopInstance, Orchestrator, count_reversals, write_csv

if TYPE_CHECKING:
    import numpy as np

    from .engines import TrainConfig
    from .metrics import WorkloadProfile

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
            raise ConfigError(f"unknown scenario {self.scenario!r}; known: {list(SCENARIOS)}")


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


class Scenario(NamedTuple):
    """A runner, the builder of its loops (loops(orch, params, chain)
    instantiates them on orch, untrained and unticked, chain being the parsed
    chain file or None for the built-in loop; the runner builds them with it too)
    and its tables: each params key with its default, its TrainConfig
    overrides and its default workload preset (both None: it trains nothing,
    reads neither section and loads no ML plane)."""
    run: Callable
    loops: Callable
    params: dict
    train: dict | None = None
    preset: str | None = None


class Inputs(NamedTuple):  # a config's values; a runner seeds train and workload
    params: dict
    train: TrainConfig | None
    workload: WorkloadProfile | None


_CONFIG = {"scenario": str, "seed": int, "topology": "testbed", "out_dir": "out",
           "workload": {}, "train": {}, "params": {}}


def check_inputs(cfg: ScenarioConfig, known_only: bool = False) -> Inputs:
    """cfg read by its scenario's tables; builds the TrainConfig and workload
    profile so their checks run too. known_only (a loaded file) refuses keys
    outside the tables; run_scenario ignores them, so code may set others.
    Only a scenario that trains loads the ML plane here."""
    scenario = SCENARIOS[cfg.scenario]
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if scenario.train is None:
        section(cfg.train, "train", {}, known_only)
        section(cfg.workload, "workload", {}, known_only)
        return Inputs(section(cfg.params, "params", scenario.params, known_only), None, None)
    from .engines import TRAIN_TABLE, TrainConfig
    from .metrics import WORKLOAD_TABLE

    train = section(cfg.train, "train", {**TRAIN_TABLE, **scenario.train}, known_only)
    w = section(cfg.workload, "workload", WORKLOAD_TABLE, known_only)
    return Inputs(section(cfg.params, "params", scenario.params, known_only),
                  TrainConfig(**train), _workload_profile(cfg.workload, w, scenario.preset))


def load_scenario_config(path) -> ScenarioConfig:
    return read_scenario_config(path)[0]


def read_scenario_config(path) -> tuple[ScenarioConfig, Inputs]:
    """The config at path and its inputs, checked once, keys outside the
    tables refused; a chain or topology file it names is resolved relative
    to it."""
    path = Path(path)
    cfg = ScenarioConfig(**section(load_yaml(path), "", _CONFIG))
    inputs = check_inputs(cfg, known_only=True)
    if inputs.params.get("chain_file") is not None:
        cfg.params["chain_file"] = inputs.params["chain_file"] = str(
            (path.parent / inputs.params["chain_file"]).resolve())
    if cfg.topology not in sdi.TOPOLOGY_PRESETS:
        topo_path = (path.parent / cfg.topology).resolve()
        if not topo_path.exists():
            raise ConfigError(
                f"{path}: topology {cfg.topology!r} is neither a preset nor an existing file")
        cfg.topology = str(topo_path)
    return cfg, inputs


def file_chain(params: dict) -> LoopChain | None:
    """The chain file that params name, parsed; None if they name none."""
    path = params.get("chain_file")
    return None if path is None else load_chain(path)


def _seeds(master: int, n: int = 6) -> list[int]:
    """Derived sub-seeds, one per randomness consumer, in a documented order:
    workload, metric catalog, model init, training, planted noise, spare."""
    import numpy as np

    children = np.random.SeedSequence(master).spawn(n)
    return [int(c.generate_state(1)[0]) for c in children]


def _workload_profile(doc: dict, w: dict, default_preset: str) -> WorkloadProfile:
    """The profile that workload doc, read as w, names or spells out."""
    from . import metrics

    preset = w.pop("preset")
    if "preset" in doc and len(doc) > 1:
        raise ConfigError("workload.preset names a whole profile; other keys: "
                          + ", ".join(key for key in doc if key != "preset"))
    if "preset" in doc or not doc:
        return metrics.preset_workload(default_preset if preset is None else preset, 0)
    segments = tuple(metrics.WorkloadSegment(**s) for s in w.pop("segments"))
    return metrics.WorkloadProfile(**w, segments=segments)


def _artifact(out: Path, name: str, write, *args) -> dict:
    """Write out/name with write(path, *args), which returns the number of
    data rows; returns the file's manifest entry. out is made by the first
    artifact, so a run refused before it writes leaves no directory."""
    out.mkdir(parents=True, exist_ok=True)
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


def _instantiate(orch: Orchestrator, chain: LoopChain) -> LoopInstance:
    """orch.instantiate(chain), a chain that cannot be placed refused as a
    config error."""
    try:
        return orch.instantiate(chain)
    except EmbeddingError as exc:
        raise ConfigError(str(exc)) from None


def _node(p: dict, key: str) -> str:
    """The node that params key names, by default the region's vm4."""
    return p[key] or f"{p['region']}-vm4"


# ---------------------------------------------------------------------------
# Scenario 1: telemetry compression
# ---------------------------------------------------------------------------

def _compress_loop(orch: Orchestrator, p: dict, chain: LoopChain | None) -> LoopInstance:
    if chain is not None:
        return _instantiate(orch, chain)
    region = p["region"]
    return _instantiate(orch, LoopChain(
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
    ))


def run_compress(cfg: ScenarioConfig, inputs: Inputs, out: Path) -> tuple[dict, dict, dict]:
    """Scrape a correlated dataset from the modeled testbed, train the
    compressor, measure reconstruction fidelity on the validation split, then
    serve the model inside a monitor->compress->archive loop."""
    import numpy as np

    from . import engines, metrics

    seed_wl, seed_cat, seed_model, seed_train, _, _ = _seeds(cfg.seed)
    p, train_cfg = inputs.params, replace(inputs.train, seed=seed_train)
    state = sdi.load_topology(cfg.topology)
    catalog = metrics.build_metric_catalog(state, seed_cat)
    workload = metrics.generate_workload(replace(inputs.workload, seed=seed_wl))
    dataset = metrics.scrape_series(state, workload, catalog)
    # The loop is placed after the scrape, which reads the state's
    # reservations, and before training, so a config that cannot place it
    # is refused first.
    orch = Orchestrator(state)
    instance = _compress_loop(orch, p, file_chain(p))

    train, val = metrics.split_chronological(dataset, p["train_frac"])
    train01, scaler = metrics.normalize_minmax(train)
    val01_values = scaler.transform(val.values)

    # Keep the canonical width ratios (90/111, 85/111, 75/111) around the
    # dataset's width; at the testbed's 111 they give COMPRESSOR_WIDTHS.
    w = dataset.width
    a, b, c = (max(2, int(round(f * w))) for f in (90 / 111, 85 / 111, 75 / 111))
    net = engines.net_init((w, a, b, c, a, w), engines.COMPRESSOR_ACTIVATIONS, seed_model)
    net, losses = engines.ae_train(net, train01.values, train_cfg)

    recon01 = engines.ae_forward(net, val01_values)
    recon = scaler.inverse(recon01)
    threshold = p["error_threshold"]
    cpu_metric = p["cpu_metric"]
    dist = engines.relative_error_distribution(val.column(cpu_metric),
                                               recon[:, dataset.names.index(cpu_metric)],
                                               threshold)
    val_mse = float(np.mean((recon01 - val01_values) ** 2))
    ratio = net.code_width / net.input_width

    # Serve the trained model inside the running loop for a short window.
    instance.services.update(metric_catalog=catalog, workload=workload,
                             compressor=net, scaler=scaler)
    # The store keeps a fixed window, so each tick's code is read as it is
    # stored: one run call per tick gives the slots of one long call. A
    # faulted tick stores no record and emits no code.
    codes = []
    period = instance.tick_period_ms
    for t in range(0, p["loop_ticks"] * period, period):
        orch.run(duration_ms=period, start_ms=t)
        if instance.knowledge and instance.knowledge[-1]["t_ms"] == t:
            arrays = [v for v in instance.knowledge[-1]["inputs"].values()
                      if isinstance(v, np.ndarray)]
            codes.extend(arrays[:1])

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
        "fraction_below_threshold": dist.fraction_below >= p["min_fraction_below"],
        "compression_ratio_exact": ratio == net.code_width / net.input_width,
    }
    return run_metrics, checks, files


# ---------------------------------------------------------------------------
# Scenario 2: traffic-predictive VNF sizing
# ---------------------------------------------------------------------------

def _adaptive_loop(orch: Orchestrator, p: dict, chain: LoopChain | None) -> LoopInstance:
    firewall = _node(p, "firewall_node")
    if firewall not in orch.state.nodes:
        raise ConfigError(f"firewall node {firewall!r} not in topology")
    if chain is not None:
        return _instantiate(orch, chain)
    return _instantiate(orch, LoopChain(
        id="vnf-autoscaler",
        steps=[
            LoopStep("watch-traffic", StepKind.MONITOR, "monitor.traffic_window",
                     QosRequirements(max_latency_ms=50.0, min_bandwidth=10, cpu=200,
                                     storage=512, coverage=frozenset({p["region"]})),
                     params={"window": p["window"]}),
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
        source_domain=frozenset({p["region"]}),
        destination_domain=frozenset({firewall}),
        priority=3,
        tick_period_ms=600_000,  # resize every 10 simulated minutes
    ))


def _knob_levels(applies, minutes: int) -> np.ndarray:
    """Knob level at the start of each minute, rebuilt from the apply events:
    the running sum, in trace order, of the deltas applied up to then."""
    import numpy as np

    levels = np.cumsum([0.0] + [e.delta for e in applies])
    return levels[np.searchsorted([e.t_ms for e in applies], np.arange(minutes) * 60_000,
                                  side="right")]


def run_adaptive_vnf(cfg: ScenarioConfig, inputs: Inputs, out: Path) -> tuple[dict, dict, dict]:
    """Three phases: fit the planted traffic->CPU law, train the traffic
    forecaster, then run the loop that resizes the firewall's CPU knob ten
    minutes ahead of predicted traffic."""
    import numpy as np

    from . import engines, metrics
    from .steps import TrafficFeed

    seed_wl, _, _, seed_train, seed_noise, _ = _seeds(cfg.seed)
    p, train_cfg = inputs.params, replace(inputs.train, seed=seed_train)
    orch = Orchestrator(sdi.load_topology(cfg.topology))
    # Placed before training, so a bad config fails first.
    instance = _adaptive_loop(orch, p, file_chain(p))

    workload = metrics.generate_workload(replace(inputs.workload, seed=seed_wl))
    per_min = metrics.resample_mean(workload, 60.0)
    series = per_min.values
    window, horizon = p["window"], p["horizon"]
    cut = int(round(len(series) * p["train_frac"]))
    if cut <= window + horizon or len(series) - cut < window + horizon:
        raise ConfigError("traffic series too short for the window/horizon/split")

    # Phase 1: planted linear CPU law in normalized space, observed with noise.
    slope_true, intercept_true = p["planted_slope"], p["planted_intercept"]
    sigma, cpu_scale = p["planted_noise"], p["cpu_scale"]
    lo, hi = float(series[:cut].min()), float(series[:cut].max())
    span = (hi - lo) or 1.0
    x01 = (series - lo) / span
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed_noise)))
    y01_obs = slope_true * x01 + intercept_true + rng.normal(0.0, sigma, size=len(x01))
    fit = engines.linfit(x01[:cut], y01_obs[:cut])
    slope_rel_err = abs(fit.slope - slope_true) / abs(slope_true)

    # Phase 2: traffic forecaster vs last-value persistence on held-out windows.
    predictor = engines.rnn_train(series[:cut], window, horizon, train_cfg,
                                  hidden_size=p["hidden_size"])
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
    headroom, knob_lo, knob_hi = p["headroom"], p["knob_min"], p["knob_max"]
    scale = headroom * cpu_scale * fit.slope / span
    offset = headroom * cpu_scale * (fit.intercept - fit.slope * lo / span)
    catalog = ActionCatalog(entries=(CatalogEntry(
        kind="traffic.forecast", target_role="firewall",
        parameter="vnf.cpu.millicores", scale=scale, offset=offset,
        lo=knob_lo, hi=knob_hi),))

    instance.services.update(traffic_feed=TrafficFeed(series, offset=cut),
                             predictor=predictor, action_catalog=catalog)
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
        # Starving the VNF must not buy the saving: it may run short for at
        # most one resize period.
        "underprovisioned_within_one_period":
            under_frac * eval_minutes <= instance.tick_period_ms / 60_000,
    }
    return run_metrics, checks, files


# ---------------------------------------------------------------------------
# Scenario 3: conflict demonstration
# ---------------------------------------------------------------------------

def setpoint_chain(chain_id: str, priority: int, region: str, node: str,
                   parameter: str, value: float, period: int) -> LoopChain:
    """A set-point loop: it watches node's knob parameter from region and
    pushes it to value every period ms."""
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
        tick_period_ms=period,
    )


def opposing_pair(orch: Orchestrator, region: str, node: str, parameter: str,
                  initial: float, high: float, low: float | None, period: int,
                  ids: tuple[str, str]) -> None:
    """Sets node's knob parameter to initial and instantiates two set-point
    loops on it from region: ids[0] pushes high at priority 1 and, unless
    low is None, ids[1] pushes low at priority 2. An unknown node, an initial
    value the node cannot back or a loop that cannot be placed is a ConfigError."""
    if node not in orch.state.nodes:
        raise ConfigError(f"conflict-demo node {node!r} not in topology")
    try:
        sdi.set_knob(orch.state, node, parameter, initial)
    except sdi.CapacityError as exc:
        raise ConfigError(f"initial knob value does not fit on {node}: {exc}") from None
    for chain_id, priority, value in zip(ids, (1, 2), (high, low)):
        if value is not None:
            _instantiate(orch, setpoint_chain(chain_id, priority, region, node, parameter,
                                              value, period))


def _conflict_loops(orch: Orchestrator, p: dict, chain: None = None) -> None:
    """The demo's opposing pair; its params name no chain file, so chain is None."""
    opposing_pair(orch, p["region"], _node(p, "node"), p["parameter"], p["initial"],
                  p["setpoint_high"], None if p["single_chain"] else p["setpoint_low"],
                  p["tick_period_ms"], ("cpu-booster", "cpu-saver"))


def _conflict_run(topology: str, p: dict, arbitration: bool) -> Orchestrator:
    """One pass of the demo."""
    orch = Orchestrator(sdi.load_topology(topology), arbitration=arbitration, sandbox=arbitration)
    _conflict_loops(orch, p)
    orch.run(duration_ms=p["ticks"] * p["tick_period_ms"])
    return orch


def run_conflict_demo(cfg: ScenarioConfig, inputs: Inputs, out: Path) -> tuple[dict, dict, dict]:
    """Two chains push opposing set-points onto one knob. Pass one runs with
    arbitration and the dry-run gate off (the knob thrashes); pass two turns
    both on: the priority-1 chain wins the conflict, its set-point passes the
    dry-run and lands, and it holds the knob, so the other chain's later
    proposals are rejected as held."""
    p = inputs.params
    off, on = (_conflict_run(cfg.topology, p, arbitration) for arbitration in (False, True))

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
    kinds_off = Counter(e.kind for e in off.trace.events)
    kinds_on = Counter(e.kind for e in on.trace.events)
    conflicts_off, conflicts_on = kinds_off["conflict"], kinds_on["conflict"]
    withheld = kinds_on["withhold"]
    # The knob moves only by applies, so it sits at the high set-point from
    # the first apply on when every apply sets it there.
    applies = [e for e in on.trace.events if e.kind == "apply"]
    final_knob = sdi.get_knob(on.state, _node(p, "node"), p["parameter"])
    high = p["setpoint_high"]
    winner_holds = (bool(applies) and final_knob == high
                    and all(e.proposal.value == high for e in applies))

    files = {
        "trace_unarbitrated": _artifact(out, "trace_unarbitrated.csv", off.trace.to_csv),
        "trace_arbitrated": _artifact(out, "trace_arbitrated.csv", on.trace.to_csv),
        "fcaps_unarbitrated": _artifact(out, "fcaps_unarbitrated.csv", off.export_fcaps_csv),
        "fcaps_arbitrated": _artifact(out, "fcaps_arbitrated.csv", on.export_fcaps_csv),
    }

    run_metrics = {
        "reversals_unarbitrated": reversals_off,
        "reversals_after_first_decision": reversals_after,
        "conflicts_detected_unarbitrated": conflicts_off,
        "conflicts_detected_arbitrated": conflicts_on,
        "arbitration_decisions": len(decisions),
        "proposals_withheld_by_sandbox": withheld,
        "arbitrated_applies": len(applies),
        "arbitrated_final_knob": final_knob,
        "first_decision_ms": -1 if first_decision_ms is None else first_decision_ms,
        "single_chain": p["single_chain"],
    }
    checks = (
        {"no_conflicts_single_chain": conflicts_off == 0 and conflicts_on == 0}
        if p["single_chain"] else
        {
            "unarbitrated_thrashes": reversals_off >= 10,
            "arbitrated_settles": reversals_after == 0,
            "conflicts_detected": conflicts_off >= 1 and conflicts_on >= 1,
            "winner_holds_knob": winner_holds,
        }
    )
    return run_metrics, checks, files


SCENARIOS = {
    "compress": Scenario(run_compress, _compress_loop, dict(
        region="waterloo", chain_file=str | None, train_frac=0.8, error_threshold=0.1,
        cpu_metric="node.cpu@waterloo-vm6", loop_ticks=60, min_fraction_below=0.80),
        train=dict(epochs=150), preset="bursty30min"),
    "adaptive-vnf": Scenario(run_adaptive_vnf, _adaptive_loop, dict(
        region="waterloo", firewall_node=str | None, chain_file=str | None, window=30,
        horizon=10, train_frac=0.75, planted_slope=0.7, planted_intercept=0.1, planted_noise=1e-3,
        cpu_scale=4000.0, hidden_size=16, headroom=1.05, knob_min=200.0, knob_max=6000.0),
        train=dict(epochs=300, learning_rate=5e-3), preset="periodic6h"),
    "conflict-demo": Scenario(run_conflict_demo, _conflict_loops, dict(
        region="waterloo", node=str | None, parameter="vnf.cpu.millicores", initial=2000.0,
        ticks=100, tick_period_ms=1000, setpoint_high=3000.0, setpoint_low=1000.0,
        single_chain=False)),
}


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Run one scenario into its output directory: the runner writes its files
    and returns (metrics, checks, files); report.json and summary.txt follow."""
    t0 = time.perf_counter()
    inputs = check_inputs(cfg)
    out = Path(os.environ.get(OUT_DIR_ENV) or cfg.out_dir)  # set but empty counts as unset
    run_metrics, checks, files = SCENARIOS[cfg.scenario].run(cfg, inputs, out)
    report = RunReport(cfg.scenario, cfg.seed, run_metrics, checks, files,
                       wall_clock_s=time.perf_counter() - t0)
    _write_report(report, out)
    return report


def check_loops(cfg: ScenarioConfig, params: dict, chain: LoopChain | None) -> None:
    """Instantiates cfg's loops on its topology, untrained and unticked, with
    the scenario's own builder, from its checked params and parsed chain
    file: what validate checks beyond the tables."""
    SCENARIOS[cfg.scenario].loops(Orchestrator(sdi.load_topology(cfg.topology)), params, chain)
