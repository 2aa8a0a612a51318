"""Scenarios: their config tables, the two-loop conflict demonstration and
run_scenario. The compress and adaptive-vnf runners train, so they live in
the ML plane (learning), which this module reaches through _ml only.

Every run is driven by one ScenarioConfig and one master seed; all internal
randomness (workload, catalog, model init, training, planted noise) derives
from that seed, so a rerun with the same config produces bit-identical
output files. Wall-clock duration is reported on stdout only, never written
into output files.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

from .config import load_yaml, section
from .errors import ConfigError
from . import sdi
from .chain import (EmbeddingError, LoopChain, LoopStep, QosRequirements, StepKind,
                    load_chain, validate_chain)
from .control import LoopInstance, Orchestrator, count_reversals


class ScenarioConfig:
    def __init__(self, scenario: str, seed: int, topology: str = "testbed",
                 out_dir: str = "out", workload: dict | None = None, train: dict | None = None,
                 params: dict | None = None):
        if scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {scenario!r}; known: {list(SCENARIOS)}")
        self.scenario = scenario
        self.seed = seed
        self.topology = topology
        self.out_dir = out_dir
        self.workload = {} if workload is None else workload
        self.train = {} if train is None else train
        self.params = {} if params is None else params


class RunReport:
    def __init__(self, scenario: str, seed: int, metrics: dict, checks: dict, files: dict,
                 wall_clock_s: float):
        self.scenario = scenario
        self.seed = seed
        self.metrics = metrics
        self.checks = checks  # threshold checks backing --strict
        self.files = files  # name -> {path, rows}
        self.wall_clock_s = wall_clock_s  # console-only; excluded from written reports

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
    train: object  # an engines.TrainConfig; None unless the scenario trains
    workload: object  # a metrics.WorkloadProfile; None unless the scenario trains


# Params that count ticks, minutes or units, each of which must be at least 1.
_COUNTS = ("ticks", "loop_ticks", "window", "horizon", "hidden_size")

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
    if scenario.train is not None:
        inputs = _ml("check_inputs")(cfg, scenario, known_only)
    else:
        section(cfg.train, "train", {}, known_only)
        section(cfg.workload, "workload", {}, known_only)
        inputs = Inputs(section(cfg.params, "params", scenario.params, known_only), None, None)
    for key in _COUNTS:
        if inputs.params.get(key, 1) < 1:
            raise ConfigError(f"params.{key} must be >= 1, got {inputs.params[key]}")
    if not 0 < inputs.params.get("train_frac", 0.5) < 1:
        raise ConfigError(f"params.train_frac must be in (0, 1), got {inputs.params['train_frac']}")
    if scenario.train is not None:
        _ml("check_split")(inputs.params, inputs.workload)
    return inputs


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
    """The chain file that params name, parsed and validated; None if they
    name none. A structural error is a ConfigError naming the file."""
    path = params.get("chain_file")
    if path is None:
        return None
    chain = load_chain(path)
    report = validate_chain(chain)
    if not report.ok:
        raise ConfigError(f"{path}: " + "; ".join(report.errors))
    return chain


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
    value the node cannot back, a set-point the knob refuses or a loop that
    cannot be placed is a ConfigError."""
    if node not in orch.state.nodes:
        raise ConfigError(f"conflict-demo node {node!r} not in topology")
    try:
        sdi.set_knob(orch.state, node, parameter, initial)
    except sdi.CapacityError as exc:
        raise ConfigError(f"initial knob value does not fit on {node}: {exc}") from None
    for chain_id, priority, value in zip(ids, (1, 2), (high, low)):
        if value is not None:
            sdi.check_knob_value(parameter, value)
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
    first_decision_ms = decisions[0].t_ms if decisions else -1
    applies = [e for e in on.trace.events if e.kind == "apply"]
    reversals_after = count_reversals((e.chain, e.delta) for e in applies
                                      if decisions and e.t_ms > first_decision_ms)
    kinds_off = Counter(e.kind for e in off.trace.events)
    kinds_on = Counter(e.kind for e in on.trace.events)
    conflicts_off, conflicts_on = kinds_off["conflict"], kinds_on["conflict"]
    withheld = kinds_on["withhold"]
    # The knob moves only by applies, so it sits at the high set-point from
    # the first apply on when every apply sets it there.
    final_knob = sdi.get_knob(on.state, _node(p, "node"), p["parameter"])
    high = p["setpoint_high"]
    winner_holds = (bool(applies) and final_knob == high
                    and all(e.value == high for e in applies))

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
        "first_decision_ms": first_decision_ms,
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


def _ml(name: str) -> Callable:
    """learning.<name>, for a scenario that trains: the one crossing into the
    ML plane, which is imported (with numpy) on the first call."""
    def call(*args):
        from . import learning
        return getattr(learning, name)(*args)
    return call


SCENARIOS = {
    "compress": Scenario(_ml("run_compress"), _ml("_compress_loop"), dict(
        region="waterloo", chain_file=str | None, train_frac=0.8, error_threshold=0.1,
        cpu_metric="node.cpu@waterloo-vm6", loop_ticks=60, min_fraction_below=0.80),
        train=dict(epochs=150), preset="bursty30min"),
    "adaptive-vnf": Scenario(_ml("run_adaptive_vnf"), _ml("_adaptive_loop"), dict(
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
    out = Path(cfg.out_dir)
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
