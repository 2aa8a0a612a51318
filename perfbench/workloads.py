"""The benchmark's workloads, driven through loopsim's public API.

`prepare()` does the set-up (the loopsim import happens when this module is
imported; then the config load and, for conflict-scale, the topology and
loop specs). It returns `run`, the work the worker times, and `finish`,
which turns what `run` returned into a `Result` outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from loopsim import scenarios, sdi
from loopsim.chain import LoopChain, LoopStep, QosRequirements, StepKind
from loopsim.control import Orchestrator

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = {"compress": "compress.yaml", "adaptive-vnf": "adaptive_vnf.yaml"}

# conflict-scale size: regions x VMs, opposing loop pairs, ticks of each
# pass. The un-arbitrated pass runs as many ticks as the arbitrated pass
# replays in its sandbox (horizon 10 per live tick), so the apply-heavy and
# the clone-heavy pass both take a visible share of the run.
FULL_SCALE = {"regions": 8, "vms": 8, "pairs": 16, "unarbitrated_ticks": 500,
              "arbitrated_ticks": 50}
TINY_SCALE = {"regions": 2, "vms": 3, "pairs": 2, "unarbitrated_ticks": 12,
              "arbitrated_ticks": 6}
TICK_MS = 1000
KNOB_INITIAL = 2000.0


@dataclass
class Result:
    checks: dict[str, bool]
    outcome: dict[str, float]
    work: int  # training samples, or live loop ticks for conflict-scale
    out_dir: Path


def tree_digest(out_dir: Path) -> str:
    """sha256 over every file under out_dir: relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def prepare(workload: str, seed: int, out_dir: Path, tiny: bool = False, span=None):
    """Set up one workload; returns (run, finish). `span(name)` opens a
    benchmark span around a phase (tracing only)."""
    span = span or (lambda name: contextlib.nullcontext())
    if workload in CONFIGS:
        return _prepare_scenario(workload, seed, out_dir, tiny)
    if workload == "conflict-scale":
        return _prepare_conflict_scale(seed, out_dir, TINY_SCALE if tiny else FULL_SCALE, span)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# compress and adaptive-vnf: the shipped configs through run_scenario
# ---------------------------------------------------------------------------

def _prepare_scenario(workload: str, seed: int, out_dir: Path, tiny: bool):
    cfg = scenarios.load_scenario_config(ROOT / "configs" / CONFIGS[workload])
    cfg.seed = seed
    cfg.out_dir = str(out_dir)
    if tiny:
        cfg.train["epochs"] = 2
        cfg.params["loop_ticks"] = 3
    summarize = _compress_result if workload == "compress" else _adaptive_result

    def run():
        return scenarios.run_scenario(cfg)

    return run, lambda report: summarize(cfg, report, out_dir)


def _compress_result(cfg, report, out_dir: Path) -> Result:
    files = report.files
    train_rows = files["dataset"]["rows"] - files["reconstruction"]["rows"]
    epochs = files["loss_history"]["rows"]
    return Result(
        checks=dict(report.checks),
        outcome={"eta_fraction_below": report.metrics["fraction_eta_below_threshold"]},
        work=epochs * train_rows, out_dir=out_dir)


def _adaptive_result(cfg, report, out_dir: Path) -> Result:
    split = [row.rsplit(",", 1)[1] for row in _read_rows(out_dir / "traffic_minutes.csv")]
    cut = split.count("training")
    window = int(cfg.params.get("window", 30))
    horizon = int(cfg.params.get("horizon", 10))
    epochs = int(cfg.train.get("epochs", 300))
    windows = cut - window - horizon + 1
    m = report.metrics
    return Result(
        checks=dict(report.checks),
        outcome={
            "forecast_vs_persistence": m["predictor_vs_persistence_ratio"],
            "cpu_vs_static_peak": m["adaptive_mean_cpu_mc"] / m["static_peak_cpu_mc"],
            "underprovisioned_frac": m["underprovisioned_minute_fraction"],
        },
        work=epochs * windows, out_dir=out_dir)


def _read_rows(path: Path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()[1:]


# ---------------------------------------------------------------------------
# conflict-scale: K opposing set-point pairs on a generated R x V topology
# ---------------------------------------------------------------------------

@dataclass
class KnobPair:
    region: str
    node: str
    parameter: str
    winner: str  # chain id of the priority-1 loop
    setpoints: dict  # chain id -> set-point


def _topology_spec(rng: random.Random, regions: int, vms: int) -> dict:
    """One switch per region with its VMs hanging off it; region switches
    sit on a ring around a core switch, with seeded WAN latencies."""
    nodes, switches, links = [], [{"id": "core-sw", "region": "core", "tier": "core"}], []
    for r in range(regions):
        sw = f"r{r}-sw"
        switches.append({"id": sw, "region": f"r{r}", "tier": "edge"})
        links.append({"a": sw, "b": "core-sw", "bandwidth": 10000,
                      "latency": float(rng.randint(2, 30)), "reliability": 0.998})
        if regions > 2:
            links.append({"a": sw, "b": f"r{(r + 1) % regions}-sw", "bandwidth": 10000,
                          "latency": float(rng.randint(5, 40)), "reliability": 0.998})
        for v in range(vms):
            vm = f"r{r}-vm{v}"
            nodes.append({"id": vm, "region": f"r{r}", "tier": "edge", "cpu": 16000,
                          "mem": 32768, "storage": 102400, "reliability": 0.999,
                          "roles": ["firewall"]})
            links.append({"a": vm, "b": sw, "bandwidth": 1000,
                          "latency": float(rng.randint(1, 3)), "reliability": 0.999})
    return {"nodes": nodes, "switches": switches, "links": links}


def _pairs(rng: random.Random, spec: dict, count: int) -> list[KnobPair]:
    """Each pair gets its own CPU knob on its own VM, so pairs never contend
    for one node's capacity and no apply is refused."""
    vms = spec["nodes"]
    if count > len(vms):
        raise ValueError(f"{count} knob pairs need {count} VMs, topology has {len(vms)}")
    pairs = []
    for k, node in enumerate(rng.sample(vms, count)):
        high, low = f"pair{k}-boost", f"pair{k}-save"
        pairs.append(KnobPair(
            region=node["region"], node=node["id"], parameter=f"vnf{k}.cpu.millicores",
            winner=rng.choice((high, low)),
            setpoints={high: float(rng.randrange(2500, 3600, 100)),
                       low: float(rng.randrange(500, 1600, 100))}))
    return pairs


def _setpoint_chain(chain_id: str, priority: int, pair: KnobPair) -> LoopChain:
    knob = {"node": pair.node, "parameter": pair.parameter}
    return LoopChain(
        id=chain_id,
        steps=[
            LoopStep("watch", StepKind.MONITOR, "monitor.knob_value",
                     QosRequirements(cpu=100, storage=64, coverage=frozenset({pair.region})),
                     params=dict(knob)),
            LoopStep("push", StepKind.PLAN, "plan.knob_setpoint",
                     QosRequirements(cpu=100, storage=64),
                     params={**knob, "value": pair.setpoints[chain_id]}),
            LoopStep("record", StepKind.KNOWLEDGE, "knowledge.store",
                     QosRequirements(cpu=50, storage=256)),
        ],
        edges=[("watch", "push"), ("push", "record")],
        source_domain=frozenset({pair.region}),
        destination_domain=frozenset({pair.node}),
        priority=priority,
        tick_period_ms=TICK_MS,
    )


def _chains(pairs: list[KnobPair]) -> list[LoopChain]:
    return [_setpoint_chain(cid, 1 if cid == pair.winner else 2, pair)
            for pair in pairs for cid in sorted(pair.setpoints)]


def count_reversals(values: list[float]) -> int:
    """Direction changes in a sequence of knob readings."""
    signs = [1 if b > a else -1 for a, b in zip(values, values[1:]) if b != a]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _prepare_conflict_scale(seed: int, out_dir: Path, scale: dict, span):
    rng = random.Random(seed)
    spec = _topology_spec(rng, scale["regions"], scale["vms"])
    pairs = _pairs(rng, spec, scale["pairs"])
    spec["knobs"] = [{"node": p.node, "parameter": p.parameter, "value": KNOB_INITIAL}
                     for p in pairs]
    # A fresh world and fresh loop specs for each pass.
    worlds = {arbitrated: (sdi.build_topology(spec), _chains(pairs))
              for arbitrated in (False, True)}
    def one_pass(arbitrated: bool):
        state, chains = worlds[arbitrated]
        ticks = scale["arbitrated_ticks" if arbitrated else "unarbitrated_ticks"]
        orch = Orchestrator(state, arbitration=arbitrated, sandbox=arbitrated)
        with span("workload.instantiate"):
            for chain in chains:
                orch.instantiate(chain)
        readings = [[sdi.get_knob(state, p.node, p.parameter)] for p in pairs]
        with span("workload.arbitrated_pass" if arbitrated else "workload.unarbitrated_pass"):
            for i in range(ticks):
                orch.run(duration_ms=TICK_MS, start_ms=i * TICK_MS)
                for p, seq in zip(pairs, readings):
                    seq.append(sdi.get_knob(state, p.node, p.parameter))
        orch.assert_capacity_invariant()
        label = "arbitrated" if arbitrated else "unarbitrated"
        orch.trace.to_csv(out_dir / f"trace_{label}.csv")
        orch.export_fcaps_csv(out_dir / f"fcaps_{label}.csv")
        return orch, readings

    def run():
        return one_pass(False)[1], one_pass(True)

    def finish(passes) -> Result:
        off, (on_orch, on) = passes
        decisions = [e.t_ms for e in on_orch.trace.events if e.kind == "arbitration"]
        # readings[i + 1] is the value after tick i; count only the changes
        # made after the tick of the first decision.
        first = decisions[0] // TICK_MS + 1 if decisions else len(on[0])
        at_winner = sum(1 for p, seq in zip(pairs, on) if seq[-1] == p.setpoints[p.winner])
        thrash = min(count_reversals(seq) for seq in off)
        with open(out_dir / "knobs.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("pass,node,parameter,tick,value\n")
            for label, readings in (("unarbitrated", off), ("arbitrated", on)):
                for p, seq in zip(pairs, readings):
                    for i, value in enumerate(seq):
                        fh.write(f"{label},{p.node},{p.parameter},{i},{value!r}\n")
        return Result(
            checks={"unarbitrated_thrashes": thrash >= scale["unarbitrated_ticks"] // 2},
            outcome={
                "winner_setpoint_frac": at_winner / len(pairs),
                "reversals_after_decision": sum(count_reversals(seq[first:]) for seq in on),
                "reversals_unarbitrated": sum(count_reversals(seq) for seq in off),
                "arbitration_decisions": len(decisions),
            },
            work=(len(off[0]) + len(on[0]) - 2) * 2 * len(pairs), out_dir=out_dir)

    return run, finish
