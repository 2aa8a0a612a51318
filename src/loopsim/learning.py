"""The ML plane's scenarios, telemetry compression and predictive VNF sizing:
their runners, loop builders, seeds and workload, and the traffic feed.
scenarios imports this module through scenarios._ml only. engines and metrics
are called through their modules, where the benchmark's tracer patches them.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import engines, metrics, sdi
from .chain import (ActionCatalog, CatalogEntry, LoopChain, LoopStep, QosRequirements,
                    StepKind)
from .config import section
from .control import LoopInstance, Orchestrator, write_csv
from .errors import ConfigError
from .scenarios import Inputs, Scenario, ScenarioConfig, _artifact, _instantiate, _node, file_chain


class TrafficFeed:
    """Per-minute traffic means plus how far the simulation clock has
    advanced into them. t=0 corresponds to minute index `offset`."""

    def __init__(self, values, offset: int = 0):
        self.values = np.asarray(values, dtype=float)
        self.offset = offset

    def window_at(self, t_ms: int, window: int) -> np.ndarray:
        end = min(self.offset + t_ms // 60_000, len(self.values))
        if end < window:
            raise ConfigError(f"feed has only {end} minutes, need a window of {window}")
        return self.values[end - window:end]


def check_inputs(cfg: ScenarioConfig, scenario: Scenario, known_only: bool) -> Inputs:
    """scenarios.check_inputs for a scenario that trains; it builds the
    TrainConfig and workload profile too, so their checks run."""
    train = section(cfg.train, "train", {**engines.TRAIN_TABLE, **scenario.train}, known_only)
    w = section(cfg.workload, "workload", metrics.WORKLOAD_TABLE, known_only)
    p = section(cfg.params, "params", scenario.params, known_only)
    if "knob_min" in p and p["knob_min"] > p["knob_max"]:
        raise ConfigError(f"params.knob_min {p['knob_min']} > params.knob_max {p['knob_max']}")
    return Inputs(p, engines.TrainConfig(**train),
                  _workload_profile(cfg.workload, w, scenario.preset))


def check_split(p: dict, profile: metrics.WorkloadProfile) -> None:
    """Refuses a train_frac that leaves a part of the run's split too short,
    from the profile's length alone: compress's frames, neither part empty, or
    adaptive-vnf's minutes (it has a window), more than window + horizon of
    them before the cut and that many after."""
    n, unit, need = metrics.frame_count(profile.duration), "frames", 0
    if "window" in p:
        n, unit, need = n // metrics.frame_count(60.0), "minutes", p["window"] + p["horizon"]
    cut = metrics.chronological_cut(n, p["train_frac"])
    if cut <= need or n - cut < max(need, 1):
        rule = (f"params.window + params.horizon = {need} needs more than {need} before the "
                f"cut and {need} after it" if need else "neither part may be empty")
        raise ConfigError(f"params.train_frac {p['train_frac']} splits the {n} {unit} "
                          f"into {cut} and {n - cut}; {rule}")


def _seeds(master: int, n: int = 6) -> list[int]:
    """Derived sub-seeds, one per randomness consumer, in a documented order:
    workload, metric catalog, model init, training, planted noise, spare."""
    children = np.random.SeedSequence(master).spawn(n)
    return [int(c.generate_state(1)[0]) for c in children]


def _workload_profile(doc: dict, w: dict, default_preset: str) -> metrics.WorkloadProfile:
    """The profile that workload doc, read as w, names or spells out."""
    preset = w.pop("preset")
    if "preset" in doc and len(doc) > 1:
        raise ConfigError("workload.preset names a whole profile; other keys: "
                          + ", ".join(key for key in doc if key != "preset"))
    if "preset" in doc or not doc:
        return metrics.preset_workload(default_preset if preset is None else preset, 0)
    segments = tuple(metrics.WorkloadSegment(**s) for s in w.pop("segments"))
    return metrics.WorkloadProfile(**w, segments=segments)


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
    seed_wl, seed_cat, seed_model, seed_train, _, _ = _seeds(cfg.seed)
    p, train_cfg = inputs.params, replace(inputs.train, seed=seed_train)
    chain = file_chain(p)
    state = sdi.load_topology(cfg.topology)
    catalog = metrics.build_metric_catalog(state, seed_cat)
    workload = metrics.generate_workload(replace(inputs.workload, seed=seed_wl))
    dataset = metrics.scrape_series(state, workload, catalog)
    # The loop is placed after the scrape, which reads the state's
    # reservations, and before training, so a config that cannot place it
    # is refused first.
    orch = Orchestrator(state)
    instance = _compress_loop(orch, p, chain)

    train, val = metrics.split_chronological(dataset, p["train_frac"])
    # The training rows are a view into the dataset, so it is written as
    # scraped before they are scaled in place.
    files = {"dataset": _artifact(out, "dataset.csv",
                                  lambda path: metrics.export_csv(dataset, path))}
    scaler = metrics.normalize_minmax(train)
    val01_values = scaler.transform(val.values)

    net = engines.ae_init(seed_model, dataset.width)
    net, losses = engines.ae_train(net, train.values, train_cfg)

    recon01 = engines.ae_forward(net, val01_values)
    recon = scaler.inverse(recon01)
    threshold = p["error_threshold"]
    cpu_metric = p["cpu_metric"]
    dist = engines.relative_error_distribution(val.column(cpu_metric),
                                               recon[:, dataset.names.index(cpu_metric)],
                                               threshold)
    sq_err = recon01 - val01_values
    sq_err **= 2
    val_mse = float(np.mean(sq_err))
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

    recon_ds = metrics.Dataset(dataset.names, val.t, recon)
    files.update({
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
    })
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
    levels = np.cumsum([0.0] + [e.delta for e in applies])
    return levels[np.searchsorted([e.t_ms for e in applies], np.arange(minutes) * 60_000,
                                  side="right")]


def run_adaptive_vnf(cfg: ScenarioConfig, inputs: Inputs, out: Path) -> tuple[dict, dict, dict]:
    """Three phases: fit the planted traffic->CPU law, train the traffic
    forecaster, then run the loop that resizes the firewall's CPU knob ten
    minutes ahead of predicted traffic."""
    seed_wl, _, _, seed_train, seed_noise, _ = _seeds(cfg.seed)
    p, train_cfg = inputs.params, replace(inputs.train, seed=seed_train)
    orch = Orchestrator(sdi.load_topology(cfg.topology))
    # Placed before training, so a bad config fails first.
    instance = _adaptive_loop(orch, p, file_chain(p))

    workload = metrics.generate_workload(replace(inputs.workload, seed=seed_wl))
    series = metrics.resample_mean(workload, 60.0)
    window, horizon = p["window"], p["horizon"]
    cut = metrics.chronological_cut(len(series), p["train_frac"])

    # Phase 1: planted linear CPU law in normalized space, observed with noise.
    slope_true, intercept_true = p["planted_slope"], p["planted_intercept"]
    sigma, cpu_scale = p["planted_noise"], p["cpu_scale"]
    lo, hi = float(series[:cut].min()), float(series[:cut].max())
    if hi == lo:
        raise ConfigError(f"workload traffic is constant ({lo:g}) over the {cut} training "
                          "minutes, so the CPU law has nothing to fit")
    span = hi - lo
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
    entry = CatalogEntry(kind="traffic.forecast", target_role="firewall",
                         parameter="vnf.cpu.millicores", scale=scale, offset=offset,
                         lo=knob_lo, hi=knob_hi)
    catalog = ActionCatalog(entries=(entry,))

    instance.services.update(traffic_feed=TrafficFeed(series, offset=cut),
                             predictor=predictor, action_catalog=catalog)
    eval_minutes = len(series) - cut
    orch.run(duration_ms=eval_minutes * 60_000)

    applies = [e for e in orch.trace.events if e.kind == "apply"]
    level_series = _knob_levels(applies, eval_minutes)
    need = cpu_scale * (slope_true * x01[cut:] + intercept_true)
    adaptive_mean = float(level_series.mean())
    static_peak = float(entry.value(series.max()))
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
