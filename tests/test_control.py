"""Orchestrator: lifecycle, ticking, conflicts, arbitration, sandbox, runs."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsim import sdi
from loopsim.chain import (ActionCatalog, ActionProposal, AnalysisOutput, CatalogEntry,
                           InfeasibleError, LoopChain, LoopStep, QosRequirements,
                           StepKind)
from loopsim.control import (SANDBOX_HORIZON_TICKS, ConflictKind, InstanceState,
                             LifecycleError, Orchestrator, TickAlignmentError, arbitrate,
                             count_reversals, detect_conflicts)
from loopsim.engines import linfit
from loopsim.sdi import ResourceVector, Tier, build_topology, serialize_state
from loopsim.steps import TrafficFeed, build_default_registry


def spec_3nodes():
    return {
        "nodes": [
            {"id": "n1", "region": "west", "tier": "edge", "cpu": 4000, "storage": 8192,
             "roles": ["firewall"]},
            {"id": "n2", "region": "west", "tier": "edge", "cpu": 4000, "storage": 8192},
            {"id": "n3", "region": "east", "tier": "core", "cpu": 8000, "storage": 16384},
        ],
        "links": [
            {"a": "n1", "b": "n2", "bandwidth": 1000, "latency": 1.0, "reliability": 0.999},
            {"a": "n2", "b": "n3", "bandwidth": 1000, "latency": 5.0, "reliability": 0.999},
        ],
    }


def analysis_chain(chain_id="watcher", period=1000):
    return LoopChain(
        id=chain_id,
        steps=[
            LoopStep("watch", StepKind.MONITOR, "monitor.knob_value",
                     QosRequirements(cpu=100),
                     params={"node": "n1", "parameter": "vnf.cpu.millicores"}),
            LoopStep("think", StepKind.ANALYZE, "analyze.passthrough",
                     QosRequirements(cpu=100)),
            LoopStep("remember", StepKind.KNOWLEDGE, "knowledge.store",
                     QosRequirements(storage=128)),
        ],
        edges=[("watch", "think"), ("think", "remember")],
        tick_period_ms=period,
    )


def setpoint_chain(chain_id, priority, value, period=1000):
    return LoopChain(
        id=chain_id,
        steps=[
            LoopStep("watch", StepKind.MONITOR, "monitor.knob_value",
                     QosRequirements(cpu=50),
                     params={"node": "n1", "parameter": "vnf.cpu.millicores"}),
            LoopStep("push", StepKind.PLAN, "plan.knob_setpoint",
                     QosRequirements(cpu=50),
                     params={"node": "n1", "parameter": "vnf.cpu.millicores",
                             "value": value}),
            LoopStep("record", StepKind.KNOWLEDGE, "knowledge.store",
                     QosRequirements(storage=64)),
        ],
        edges=[("watch", "push"), ("push", "record")],
        priority=priority,
        tick_period_ms=period,
    )


def registry_with_passthrough():
    registry = build_default_registry()
    registry.register("analyze.passthrough", lambda ctx: next(iter(ctx.inputs.values())))
    return registry


def make_orchestrator(arbitration=True, sandbox=True, state=None):
    state = state or build_topology(spec_3nodes())
    return Orchestrator(state, registry=registry_with_passthrough(),
                        arbitration=arbitration, sandbox=sandbox)


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------

def test_instantiate_runs_and_reserves():
    orch = make_orchestrator()
    instance = orch.instantiate(analysis_chain())
    assert instance.state == InstanceState.RUNNING
    used = sum((orch.state.nodes[n].capacity - orch.state.node_residual(n)).cpu
               for n in orch.state.nodes)
    assert used == 200


def test_terminate_then_scale_is_illegal():
    orch = make_orchestrator()
    orch.instantiate(analysis_chain())
    orch.terminate("watcher")
    with pytest.raises(LifecycleError):
        orch.scale("watcher", 2.0)


def test_instantiate_terminate_restores_state_bitwise():
    orch = make_orchestrator()
    before = serialize_state(orch.state)
    orch.instantiate(analysis_chain())
    assert serialize_state(orch.state) != before
    orch.terminate("watcher")
    assert serialize_state(orch.state) == before


def test_double_instantiate_rejected_until_terminated():
    orch = make_orchestrator()
    orch.instantiate(analysis_chain())
    with pytest.raises(LifecycleError):
        orch.instantiate(analysis_chain())
    orch.terminate("watcher")
    orch.instantiate(analysis_chain())  # allowed again


def test_query_snapshot():
    orch = make_orchestrator()
    orch.instantiate(analysis_chain())
    snap = orch.query("watcher")
    assert snap.state == InstanceState.RUNNING
    assert snap.tick_period_ms == 1000
    assert set(snap.assignment) == {"watch", "think", "remember"}
    assert snap.fcaps.config == 1


def test_update_priority_and_period():
    orch = make_orchestrator()
    orch.instantiate(analysis_chain())
    orch.update("watcher", priority=1, tick_period_ms=500)
    snap = orch.query("watcher")
    assert snap.priority == 1 and snap.tick_period_ms == 500
    assert snap.fcaps.config == 2


def test_scale_in_place():
    orch = make_orchestrator()
    orch.instantiate(analysis_chain())
    node = orch.query("watcher").assignment["think"]
    before = orch.state.node_residual(node).cpu
    orch.scale("watcher", 3.0)
    assert orch.query("watcher").state == InstanceState.RUNNING
    assert orch.state.node_residual(node).cpu == before - 200  # 100 -> 300


def test_scale_infeasible_restores_and_raises():
    orch = make_orchestrator()
    orch.instantiate(analysis_chain())
    before = serialize_state(orch.state)
    with pytest.raises(InfeasibleError):
        orch.scale("watcher", 10_000.0)
    assert orch.query("watcher").state == InstanceState.RUNNING
    assert serialize_state(orch.state) == before
    orch.terminate("watcher")  # stale allocation ids would break here


# ---------------------------------------------------------------------------
# tick
# ---------------------------------------------------------------------------

def test_tick_analysis_only_updates_knowledge():
    orch = make_orchestrator()
    orch.instantiate(analysis_chain())
    proposals = orch.tick("watcher", 0)
    assert proposals == []
    instance = orch.instances["watcher"]
    assert len(instance.knowledge) == 1
    assert instance.fcaps.accounting == 1


def test_tick_under_rising_traffic_raises_cpu_knob():
    # The planted relation has a positive slope, so a rising forecast must
    # propose more millicores than the knob currently holds.
    orch = make_orchestrator()
    registry = orch.registry

    def forecast_next(ctx):
        window = next(iter(ctx.inputs.values()))
        fit = linfit(np.arange(len(window), dtype=float), window)
        return AnalysisOutput("traffic.forecast",
                              fit.slope * len(window) + fit.intercept)

    registry.register("analyze.lintrend", forecast_next)
    chain = LoopChain(
        id="scaler",
        steps=[
            LoopStep("watch", StepKind.MONITOR, "monitor.traffic_window",
                     QosRequirements(cpu=50), params={"window": 10}),
            LoopStep("trend", StepKind.ANALYZE, "analyze.lintrend",
                     QosRequirements(cpu=50)),
            LoopStep("plan", StepKind.PLAN, "plan.catalog_translate",
                     QosRequirements(cpu=50)),
            LoopStep("store", StepKind.KNOWLEDGE, "knowledge.store",
                     QosRequirements(storage=64)),
        ],
        edges=[("watch", "trend"), ("trend", "plan"), ("trend", "store"),
               ("plan", "store")],
        destination_domain=frozenset({"n1"}),
        tick_period_ms=60_000,
    )
    rising = np.linspace(10.0, 100.0, 40)
    catalog = ActionCatalog(entries=(CatalogEntry(
        kind="traffic.forecast", target_role="firewall",
        parameter="vnf.cpu.millicores", scale=10.0, offset=100.0, lo=0.0, hi=4000.0),))
    sdi.set_knob(orch.state, "n1", "vnf.cpu.millicores", 500.0)
    orch.instantiate(chain, services={
        "traffic_feed": TrafficFeed(rising, offset=20), "action_catalog": catalog,
    })
    proposals = orch.tick("scaler", 0)
    assert len(proposals) == 1
    assert proposals[0].parameter == "vnf.cpu.millicores"
    assert proposals[0].value > 500.0
    assert proposals[0].direction == 1


def test_tick_fault_counts_and_yields_nothing():
    orch = make_orchestrator()
    orch.registry.register("monitor.boom", lambda ctx: 1 / 0)
    chain = analysis_chain()
    chain.steps[0] = LoopStep("watch", StepKind.MONITOR, "monitor.boom",
                              QosRequirements(cpu=100))
    orch.instantiate(chain)
    proposals = orch.tick("watcher", 0)
    assert proposals == []
    assert orch.instances["watcher"].fcaps.fault == 1
    assert orch.instances["watcher"].knowledge == []


def test_tick_fault_traces_exception_type():
    orch = make_orchestrator()
    orch.registry.register("plan.broken", lambda ctx: ctx.params["node"])
    chain = setpoint_chain("up", 1, 3000.0)
    chain.steps[1] = LoopStep("push", StepKind.PLAN, "plan.broken", QosRequirements(cpu=50))
    orch.instantiate(chain)
    assert orch.tick("up", 0) == []
    faults = [(e.summary, e.verdict) for e in orch.trace.events if e.kind == "fault"]
    assert faults == [("step push failed: KeyError: 'node'", "fault")]
    assert orch.instances["up"].fcaps.fault == 1


def test_tick_alignment_enforced():
    orch = make_orchestrator()
    orch.instantiate(analysis_chain(period=1000))
    with pytest.raises(TickAlignmentError):
        orch.tick("watcher", 1500)


def test_tick_requires_running():
    orch = make_orchestrator()
    orch.instantiate(analysis_chain())
    orch.terminate("watcher")
    with pytest.raises(LifecycleError):
        orch.tick("watcher", 0)


# ---------------------------------------------------------------------------
# Conflicts
# ---------------------------------------------------------------------------

def proposal(chain_id, target="n1", parameter="vnf.cpu.millicores", value=1000.0,
             direction=1, t=0):
    return ActionProposal(target=target, parameter=parameter, value=value,
                          direction=direction, issued_by=chain_id, timestamp=t)


def test_opposing_directions_same_knob_conflict():
    state = build_topology(spec_3nodes())
    report = detect_conflicts([proposal("a", direction=1, value=2500.0),
                               proposal("b", direction=-1, value=2200.0)], 1000, state)
    assert len(report.pairs) == 1
    assert report.pairs[0].kind == ConflictKind.SAME_KNOB_OPPOSING


def test_disjoint_knobs_no_conflict():
    state = build_topology(spec_3nodes())
    report = detect_conflicts([proposal("a", target="n1", value=100.0),
                               proposal("b", target="n2", value=100.0)], 1000, state)
    assert report.empty


def test_same_chain_never_conflicts():
    state = build_topology(spec_3nodes())
    report = detect_conflicts([proposal("a", direction=1), proposal("a", direction=-1)],
                              1000, state)
    assert report.empty


def test_window_filters_pairs():
    state = build_topology(spec_3nodes())
    pair = [proposal("a", direction=1, t=0), proposal("b", direction=-1, t=5000)]
    assert detect_conflicts(pair, 1000, state).empty
    assert len(detect_conflicts(pair, 10_000, state).pairs) == 1


def test_joint_oversubscription_detected():
    state = build_topology(spec_3nodes())  # n1 cpu capacity 4000
    report = detect_conflicts([proposal("a", value=2500.0, direction=1),
                               proposal("b", value=2000.0, direction=1)], 1000, state)
    assert len(report.pairs) == 1
    assert report.pairs[0].kind == ConflictKind.SHARED_RESOURCE_OVERSUBSCRIPTION


def oracle_pairwise_conflicts(proposals, window, state):
    """Independent O(n^2) recheck of the conflict predicate."""
    found = set()
    for i, a in enumerate(proposals):
        for j, b in enumerate(proposals):
            if j <= i or a.issued_by == b.issued_by:
                continue
            if abs(a.timestamp - b.timestamp) > window:
                continue
            if (a.target == b.target and a.parameter == b.parameter
                    and a.direction * b.direction < 0):
                found.add((i, j, "same-knob-opposing"))
                continue
            if a.target == b.target and a.target in state.nodes:
                backed = (a.parameter.endswith(".cpu.millicores")
                          and b.parameter.endswith(".cpu.millicores"))
                if backed:
                    cap = state.nodes[a.target].cpu_capacity
                    if int(np.ceil(a.value)) + int(np.ceil(b.value)) > cap:
                        found.add((i, j, "shared-resource-oversubscription"))
    return found


def test_conflict_report_matches_pairwise_oracle_on_random_sets():
    state = build_topology(spec_3nodes())
    rng = np.random.Generator(np.random.PCG64(77))
    for trial in range(100):
        n = int(rng.integers(2, 10))
        proposals = []
        for k in range(n):
            proposals.append(ActionProposal(
                target=str(rng.choice(["n1", "n2", "n3"])),
                parameter=str(rng.choice(["vnf.cpu.millicores", "firewall.mode"])),
                value=float(rng.integers(0, 5000)),
                direction=int(rng.choice([-1, 0, 1])),
                issued_by=str(rng.choice(["c1", "c2", "c3"])),
                timestamp=int(rng.integers(0, 3)) * 1000,
            ))
        window = int(rng.choice([0, 1000, 5000]))
        report = detect_conflicts(proposals, window, state)
        index = {id(p): i for i, p in enumerate(proposals)}
        got = {(min(index[id(p.a)], index[id(p.b)]),
                max(index[id(p.a)], index[id(p.b)]), p.kind.value)
               for p in report.pairs}
        assert got == oracle_pairwise_conflicts(proposals, window, state), trial


# ---------------------------------------------------------------------------
# Arbitration
# ---------------------------------------------------------------------------

def test_arbitrate_priority_wins():
    state = build_topology(spec_3nodes())
    pool = [proposal("hi", direction=1), proposal("lo", direction=-1)]
    report = detect_conflicts(pool, 1000, state)
    outcome = arbitrate(report, pool, {"hi": 1, "lo": 2})
    assert [p.issued_by for p in outcome.approved] == ["hi"]
    assert outcome.rejected[0][0].issued_by == "lo"
    assert "hi" in outcome.rejected[0][1]


def test_arbitrate_tie_breaks_lexicographically():
    state = build_topology(spec_3nodes())
    pool = [proposal("zeta", direction=1), proposal("alpha", direction=-1)]
    report = detect_conflicts(pool, 1000, state)
    outcome = arbitrate(report, pool, {"zeta": 5, "alpha": 5})
    assert [p.issued_by for p in outcome.approved] == ["alpha"]
    assert any("tie-break" in d for d in outcome.decisions)


def test_arbitrate_without_conflicts_approves_all():
    state = build_topology(spec_3nodes())
    pool = [proposal("a", target="n1"), proposal("b", target="n2")]
    report = detect_conflicts(pool, 1000, state)
    outcome = arbitrate(report, pool, {"a": 1, "b": 2})
    assert len(outcome.approved) == 2
    assert outcome.rejected == ()


# ---------------------------------------------------------------------------
# Sandbox dry-runs
# ---------------------------------------------------------------------------

def test_sandbox_single_loop_constant_target_stable():
    orch = make_orchestrator()
    sdi.set_knob(orch.state, "n1", "vnf.cpu.millicores", 1000.0)
    orch.instantiate(setpoint_chain("steady", 1, 1800.0))
    result = orch.sandbox_dryrun([proposal("steady", value=1800.0, direction=1)])
    assert result.verdict == "stable"
    assert result.max_oscillation == 0


def test_sandbox_single_loop_alternating_setpoint_stable():
    """One loop that reverses its own knob every tick is tracking, not
    interfering: its reversals do not count against the dry-run."""
    orch = make_orchestrator()
    sdi.set_knob(orch.state, "n1", "vnf.cpu.millicores", 1000.0)

    def flip(ctx):
        current = sdi.get_knob(ctx.state, "n1", "vnf.cpu.millicores")
        value = 1000.0 if current > 1500.0 else 2000.0
        return [ActionProposal("n1", "vnf.cpu.millicores", value,
                               1 if value > current else -1, "", ctx.t_ms)]

    orch.registry.register("plan.flip", flip)
    tracker = setpoint_chain("tracker", 1, 0.0)
    tracker.steps[1] = LoopStep("push", StepKind.PLAN, "plan.flip", QosRequirements(cpu=50))
    orch.instantiate(tracker)
    result = orch.sandbox_dryrun([proposal("tracker", value=2000.0, direction=1)])
    assert result.verdict == "stable"
    assert result.max_oscillation == 0
    # Live, with the gate on, every reversal the loop asks for is applied.
    trace = orch.run(duration_ms=4000)
    deltas = [d for _, d in trace.applied_knob_deltas()[("n1", "vnf.cpu.millicores")]]
    assert deltas == [1000.0, -1000.0, 1000.0, -1000.0]
    assert [e.verdict for e in trace.events if e.kind == "sandbox"] == ["stable"] * 4


def test_sandbox_opposing_loops_unstable():
    orch = make_orchestrator(arbitration=False, sandbox=False)
    sdi.set_knob(orch.state, "n1", "vnf.cpu.millicores", 2000.0)
    orch.instantiate(setpoint_chain("up", 1, 3000.0))
    orch.instantiate(setpoint_chain("down", 2, 1000.0))
    result = orch.sandbox_dryrun(
        [proposal("up", value=3000.0, direction=1),
         proposal("down", value=1000.0, direction=-1)])
    assert result.verdict == "unstable"
    assert result.max_oscillation >= SANDBOX_HORIZON_TICKS / 2


def test_sandbox_leaves_live_state_bitwise_identical():
    orch = make_orchestrator()
    sdi.set_knob(orch.state, "n1", "vnf.cpu.millicores", 2000.0)
    orch.instantiate(setpoint_chain("up", 1, 3000.0))
    orch.instantiate(setpoint_chain("down", 2, 1000.0))
    before = serialize_state(orch.state)
    orch.sandbox_dryrun([proposal("up", value=3000.0, direction=1)])
    assert serialize_state(orch.state) == before


def test_sandbox_empty_proposals_stable():
    orch = make_orchestrator()
    before = serialize_state(orch.state)
    result = orch.sandbox_dryrun([])
    assert result.verdict == "stable"
    assert serialize_state(orch.state) == before


def test_count_reversals():
    assert count_reversals([("a", 1), ("b", -1), ("a", 1), ("b", -1)]) == 3
    assert count_reversals([("a", 1), ("b", 1), ("a", 1)]) == 0
    assert count_reversals([("a", 1), ("a", 0), ("b", 0), ("b", -1)]) == 1  # zeros skipped
    assert count_reversals([("a", 1), ("a", -1), ("a", 1), ("a", -1)]) == 0  # one loop
    assert count_reversals([("a", 1), ("a", -1), ("b", 1)]) == 1
    assert count_reversals([]) == 0


@given(changes=st.lists(st.tuples(st.sampled_from("abc"), st.floats(-10, 10, allow_nan=False)),
                        max_size=40))
def test_count_reversals_bounds(changes):
    nonzero = [(i, d) for i, d in changes if d != 0]
    reversals = count_reversals(changes)
    assert 0 <= reversals <= max(0, len(nonzero) - 1)
    assert count_reversals(nonzero) == reversals  # zeros never matter
    assert count_reversals([("a", d) for _, d in changes]) == 0  # one issuer never reverses
    assert reversals <= count_reversals([(str(k), d) for k, (_, d) in enumerate(nonzero)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_arbitrate_partitions_every_proposal(data):
    """Totality: arbitration approves or rejects each proposal exactly once,
    and never approves two opposing proposals on the same knob."""
    state = build_topology(spec_3nodes())
    n = data.draw(st.integers(2, 8))
    pool = []
    for k in range(n):
        pool.append(ActionProposal(
            target=data.draw(st.sampled_from(["n1", "n2"])),
            parameter="vnf.cpu.millicores",
            value=float(data.draw(st.integers(0, 3000))),
            direction=data.draw(st.sampled_from([-1, 0, 1])),
            issued_by=data.draw(st.sampled_from(["c1", "c2", "c3"])),
            timestamp=0))
    priorities = {"c1": 1, "c2": 2, "c3": 2}
    report = detect_conflicts(pool, 1000, state)
    outcome = arbitrate(report, pool, priorities)
    assert len(outcome.approved) + len(outcome.rejected) == n
    seen = {id(p) for p in outcome.approved} | {id(p[0]) for p in outcome.rejected}
    assert len(seen) == n
    for i, a in enumerate(outcome.approved):
        for b in outcome.approved[i + 1:]:
            if (a.target, a.parameter) == (b.target, b.parameter) \
                    and a.issued_by != b.issued_by:
                assert a.direction * b.direction >= 0


# ---------------------------------------------------------------------------
# Scheduler runs
# ---------------------------------------------------------------------------

def test_run_counts_ticks_per_period():
    orch = make_orchestrator(sandbox=False)
    orch.instantiate(analysis_chain("fast", period=10))
    orch.instantiate(analysis_chain("slow", period=100))
    trace = orch.run(duration_ms=1000)
    fast_ticks = sum(1 for e in trace.events if e.kind == "tick" and e.chain == "fast")
    slow_ticks = sum(1 for e in trace.events if e.kind == "tick" and e.chain == "slow")
    assert fast_ticks == 100
    assert slow_ticks == 10


def test_run_is_deterministic():
    def one_run():
        orch = make_orchestrator(arbitration=False, sandbox=False)
        sdi.set_knob(orch.state, "n1", "vnf.cpu.millicores", 2000.0)
        orch.instantiate(setpoint_chain("up", 1, 3000.0, period=10))
        orch.instantiate(setpoint_chain("down", 2, 1000.0, period=20))
        return orch.run(duration_ms=200).events

    assert one_run() == one_run()


def test_run_orders_deeper_tiers_first():
    state = build_topology(spec_3nodes())
    orch = make_orchestrator(sandbox=False, state=state)
    core = analysis_chain("core-loop", period=100)
    core.steps[0] = LoopStep("watch", StepKind.MONITOR, "monitor.knob_value",
                             QosRequirements(cpu=100, coverage=frozenset({"east"})),
                             params={"node": "n1", "parameter": "x.y"})
    edge = analysis_chain("edge-loop", period=100)
    orch.instantiate(core)
    orch.instantiate(edge)
    assert orch.instances["core-loop"].tier == Tier.CORE
    assert orch.instances["edge-loop"].tier == Tier.EDGE
    trace = orch.run(duration_ms=100)
    ticks = [e.chain for e in trace.events if e.kind == "tick"]
    assert ticks == ["edge-loop", "core-loop"]  # deeper tier first


def test_run_withholds_on_unstable_sandbox():
    orch = make_orchestrator(arbitration=True, sandbox=True)
    sdi.set_knob(orch.state, "n1", "vnf.cpu.millicores", 2000.0)
    orch.instantiate(setpoint_chain("up", 1, 3000.0))
    orch.instantiate(setpoint_chain("down", 2, 1000.0))
    trace = orch.run(duration_ms=20_000)
    assert any(e.kind == "withhold" for e in trace.events)
    assert sdi.get_knob(orch.state, "n1", "vnf.cpu.millicores") == 2000.0
    applied = [e for e in trace.events if e.kind == "apply"]
    assert applied == []
    orch.assert_capacity_invariant()


def test_unarbitrated_opposing_loops_thrash():
    orch = make_orchestrator(arbitration=False, sandbox=False)
    sdi.set_knob(orch.state, "n1", "vnf.cpu.millicores", 2000.0)
    orch.instantiate(setpoint_chain("up", 1, 3000.0))
    orch.instantiate(setpoint_chain("down", 2, 1000.0))
    trace = orch.run(duration_ms=100_000)  # 100 ticks
    deltas = trace.applied_knob_deltas()[("n1", "vnf.cpu.millicores")]
    assert count_reversals(deltas) >= 10
    orch.assert_capacity_invariant()


def test_fcaps_export(tmp_path):
    orch = make_orchestrator(sandbox=False)
    orch.instantiate(analysis_chain())
    orch.run(duration_ms=5000)
    path = tmp_path / "fcaps.csv"
    orch.export_fcaps_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "instance,state,fault,config,accounting,performance"
    assert lines[1] == "watcher,running,0,1,5,0"


def test_fcaps_csv_quotes_ids(tmp_path):
    orch = make_orchestrator(sandbox=False)
    orch.instantiate(analysis_chain('saver, "eco"'))
    orch.run(duration_ms=5000)
    path = tmp_path / "fcaps.csv"
    written = orch.export_fcaps_csv(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["instance", "state", "fault", "config", "accounting", "performance"],
                    ['saver, "eco"', "running", "0", "1", "5", "0"]]
    assert written == 1


def test_trace_csv_roundtrip_shape(tmp_path):
    orch = make_orchestrator(sandbox=False)
    orch.instantiate(analysis_chain())
    orch.run(duration_ms=3000)
    path = tmp_path / "trace.csv"
    orch.trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time_ms,tier,chain,event,summary,verdict"
    assert len(lines) == len(orch.trace.events) + 1


def test_trace_csv_fields_read_back_exactly(tmp_path):
    orch = make_orchestrator(sandbox=False)
    orch.instantiate(analysis_chain())
    orch.run(duration_ms=3000)
    orch.trace.add(3000, "edge", "watcher", "reject", verdict='says "no", then stops',
                   proposal=ActionProposal("n1", "a,b", 1.5, 1, "watcher", 3000))
    assert any("," in e.summary for e in orch.trace.events[:-1])
    path = tmp_path / "trace.csv"
    orch.trace.to_csv(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time_ms", "tier", "chain", "event", "summary", "verdict"]
    assert rows[1:-1] == [[str(e.t_ms), e.tier, e.chain, e.kind, e.summary, e.verdict]
                          for e in orch.trace.events[:-1]]
    assert rows[-1] == ["3000", "edge", "watcher", "reject", "n1|a,b|1.5",
                        'says "no", then stops']


PINNED_TRACE = """\
time_ms,tier,chain,event,summary,verdict
0,edge,down,lifecycle,"instantiated on [('push', 'n1'), ('record', 'n1'), ('watch', 'n1')]",ok
0,edge,big,lifecycle,"instantiated on [('push', 'n1'), ('record', 'n1'), ('watch', 'n1')]",ok
0,edge,big,tick,1 proposal(s),ok
0,edge,down,tick,1 proposal(s),ok
0,-,big|down,conflict,same-knob-opposing on n1:vnf.cpu.millicores,
0,-,-,arbitration,"conflict set {big, down}: winner down priority=1",
0,edge,big,reject,n1|vnf.cpu.millicores|9000.0,conflict lost to down
0,edge,down,apply,n1|vnf.cpu.millicores|-1000.0,ok
1000,edge,down,lifecycle,terminated,ok
1000,edge,down,lifecycle,"instantiated on [('push', 'n1'), ('record', 'n1'), ('watch', 'n1')]",ok
1000,edge,big,tick,1 proposal(s),ok
1000,edge,down,fault,step push failed: KeyError: 'node',fault
1000,edge,down,tick,0 proposal(s),ok
1000,edge,big,reject,n1|vnf.cpu.millicores|9000.0,capacity:cpu
2000,edge,big,tick,1 proposal(s),ok
2000,edge,down,fault,step push failed: KeyError: 'node',fault
2000,edge,down,tick,0 proposal(s),ok
2000,-,-,sandbox,max_reversals=0 violations=11,unstable
2000,edge,big,withhold,n1|vnf.cpu.millicores|9000.0,withheld: sandbox unstable
"""


def test_trace_csv_text_of_a_two_loop_run_is_pinned(tmp_path):
    """Every event kind in one trace: an arbitrated apply and conflict-lost
    reject, then (sandbox off) a capacity reject of an oversized set-point
    next to a faulting loop, then (sandbox on) its withhold."""
    orch = make_orchestrator(arbitration=True, sandbox=False)
    sdi.set_knob(orch.state, "n1", "vnf.cpu.millicores", 2000.0)
    orch.registry.register("plan.broken", lambda ctx: ctx.params["node"])
    orch.instantiate(setpoint_chain("down", 1, 1000.0))
    orch.instantiate(setpoint_chain("big", 2, 9000.0))
    orch.run(duration_ms=1000)
    orch.terminate("down")
    broken = setpoint_chain("down", 1, 1000.0)
    broken.steps[1] = LoopStep("push", StepKind.PLAN, "plan.broken", QosRequirements(cpu=50))
    orch.instantiate(broken)
    orch.run(duration_ms=1000, start_ms=1000)
    orch.sandbox_enabled = True
    orch.run(duration_ms=1000, start_ms=2000)
    path = tmp_path / "trace.csv"
    orch.trace.to_csv(path)
    assert path.read_text(encoding="utf-8") == PINNED_TRACE
    big, down = orch.query("big"), orch.query("down")
    assert (big.actions_applied, big.actions_rejected) == (0, 3)
    assert (down.actions_applied, down.actions_rejected) == (0, 0)  # a new incarnation
