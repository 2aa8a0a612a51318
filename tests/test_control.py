"""Orchestrator: lifecycle, ticking, conflicts, arbitration, sandbox, runs."""

import collections.abc
import csv
import gc
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopsim import scenarios, sdi
from loopsim.chain import (ActionCatalog, ActionProposal, AnalysisOutput, CatalogEntry,
                           ChainValidationError, InfeasibleError, LoopChain, LoopStep, QosRequirements,
                           StepKind)
from loopsim.control import (KNOWLEDGE_WINDOW, SANDBOX_HORIZON_TICKS, ConflictKind, EventTrace,
                             InstanceState, LifecycleError, Orchestrator, SafetyViolationError,
                             TickAlignmentError, TraceEvent, arbitrate, count_reversals,
                             detect_conflicts, write_csv)
from loopsim.engines import linfit
from loopsim.errors import ConfigError
from loopsim.learning import TrafficFeed
from loopsim.sdi import TIER_DEPTH, ResourceVector, Tier, build_topology
from loopsim.steps import build_default_registry, plan_knob_setpoint

from conftest import snapshot


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


def setpoint_chain(chain_id, priority, value, period=1000, node="n1"):
    return scenarios.setpoint_chain(chain_id, priority, "west", node, "vnf.cpu.millicores",
                                    value, period)


def opposing_pair(orch, high=3000.0):
    """conflict-demo's pair on n1's CPU knob at 2000: up pushes high at
    priority 1, down pushes 1000 at priority 2."""
    scenarios.opposing_pair(orch, "west", "n1", "vnf.cpu.millicores", 2000.0, high, 1000.0,
                            1000, ("up", "down"))


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
    used = sum((orch.state.nodes[n].capacity - orch.state.residual(n)).cpu
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
    before = snapshot(orch.state)
    orch.instantiate(analysis_chain())
    assert snapshot(orch.state) != before
    orch.terminate("watcher")
    assert snapshot(orch.state) == before


def test_instantiate_refuses_an_unregistered_step_function_before_booking():
    orch = make_orchestrator()
    before = snapshot(orch.state)
    chain = analysis_chain()
    chain.steps[0] = chain.steps[0]._replace(function_ref="monitor.nope")
    with pytest.raises(ConfigError, match="monitor.nope"):
        orch.instantiate(chain)
    assert snapshot(orch.state) == before
    assert orch.instances == {} and orch.trace.events == []


@pytest.mark.parametrize("edges", [[("watch", "think"), ("think", "gone")],
                                   [("watch", "think"), ("think", "watch")]],
                         ids=["dangling-edge", "cycle"])
def test_instantiate_refuses_an_invalid_chain_before_booking(edges):
    orch = make_orchestrator()
    chain = analysis_chain()
    chain.edges = edges
    before = snapshot(orch.state)
    with pytest.raises(ChainValidationError):
        orch.instantiate(chain)
    assert snapshot(orch.state) == before
    assert orch.instances == {} and orch.trace.events == []


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


def test_update_refuses_a_period_that_is_not_an_integer():
    orch = make_orchestrator()
    orch.instantiate(analysis_chain())
    with pytest.raises(ConfigError, match="positive integer, got 1000.5"):
        orch.update("watcher", tick_period_ms=1000.5)
    assert orch.query("watcher").tick_period_ms == 1000
    orch.run(duration_ms=2000)  # the refused period never reaches the scheduler


def test_scale_in_place():
    orch = make_orchestrator()
    orch.instantiate(analysis_chain())
    node = orch.query("watcher").assignment["think"]
    before = orch.state.residual(node).cpu
    orch.scale("watcher", 3.0)
    assert orch.query("watcher").state == InstanceState.RUNNING
    assert orch.state.residual(node).cpu == before - 200  # 100 -> 300


def test_scale_infeasible_restores_and_raises():
    orch = make_orchestrator()
    orch.instantiate(analysis_chain())
    before = snapshot(orch.state)
    with pytest.raises(InfeasibleError):
        orch.scale("watcher", 10_000.0)
    assert orch.query("watcher").state == InstanceState.RUNNING
    assert snapshot(orch.state) == before
    orch.terminate("watcher")  # stale allocation ids would break here


def test_instance_ticks_with_the_functions_bound_at_instantiation():
    orch = make_orchestrator()
    orch.instantiate(setpoint_chain("early", 1, 3000.0))
    orch.registry.register("plan.knob_setpoint", lambda ctx: [])
    orch.instantiate(setpoint_chain("late", 2, 3000.0))
    assert [p.issued_by for p in orch.tick("early", 0)] == ["early"]
    assert orch.tick("late", 0) == []
    # scale changes reservations only, so it keeps the binding too
    orch.scale("early", 2.0)
    assert [p.issued_by for p in orch.tick("early", 1000)] == ["early"]


# ---------------------------------------------------------------------------
# tick
# ---------------------------------------------------------------------------

def test_tick_analysis_only_updates_knowledge():
    orch = make_orchestrator()
    orch.instantiate(analysis_chain())
    proposals = orch.tick("watcher", 0)
    assert proposals == []
    assert len(orch.instances["watcher"].knowledge) == 1
    assert orch.query("watcher").fcaps.accounting == 1


def test_direct_tick_is_traced_and_counted():
    """A tick outside run() writes its own tick event, after the fault event
    when a step fails, and query() counts both from the trace."""
    orch = make_orchestrator()
    orch.registry.register("plan.broken", lambda ctx: ctx.params["node"])
    orch.instantiate(setpoint_chain("up", 1, 3000.0))
    broken = setpoint_chain("down", 2, 1000.0)
    broken.steps[1] = LoopStep("push", StepKind.PLAN, "plan.broken", QosRequirements(cpu=50))
    orch.instantiate(broken)
    first = len(orch.trace.events)
    assert len(orch.tick("up", 0)) == 1
    assert orch.tick("down", 1000) == []
    assert [(e.t_ms, e.chain, e.kind, e.value, e.step, e.detail)
            for e in orch.trace.events[first:]] == [
        (0, "up", "tick", 1, "", ""),
        (1000, "down", "fault", None, "push", "KeyError: 'node'"),
        (1000, "down", "tick", 0, "", ""),
    ]
    assert orch.query("up").fcaps == (0, 1, 1, 0)  # fault, config, accounting, performance
    assert orch.query("down").fcaps == (1, 1, 1, 0)


def test_a_step_sees_the_state_of_the_orchestrator_that_ticks_it():
    """Live ticks read the live state and dry-run ticks the replica's, also
    after the live contexts have been bound by an earlier tick."""
    orch = make_orchestrator()
    seen = []
    orch.registry.register("monitor.record_state", lambda ctx: seen.append(ctx.state))
    chain = setpoint_chain("up", 1, 3000.0)
    chain.steps[0] = LoopStep("watch", StepKind.MONITOR, "monitor.record_state",
                              QosRequirements(cpu=50))
    orch.instantiate(chain)
    replicas = []
    clone = orch._clone_for_sandbox
    orch._clone_for_sandbox = lambda: replicas.append(clone()) or replicas[-1]
    orch.run(duration_ms=2000)
    # t=0 proposes 3000 and dry-runs it; by t=1000 it has been applied.
    [replica] = replicas
    assert len(seen) == 2 + SANDBOX_HORIZON_TICKS
    assert seen[0] is orch.state and seen[-1] is orch.state
    assert all(state is replica.state for state in seen[1:-1])


def test_knowledge_records_keep_each_ticks_own_inputs():
    orch = make_orchestrator()
    orch.instantiate(analysis_chain())
    for t, value in ((0, 1000.0), (1000, 2000.0)):
        sdi.set_knob(orch.state, "n1", "vnf.cpu.millicores", value)
        orch.tick("watcher", t)
    first, second = orch.instances["watcher"].knowledge
    assert first["inputs"] is not second["inputs"]
    assert (first["t_ms"], first["inputs"]) == (0, {"think": 1000.0})
    assert (second["t_ms"], second["inputs"]) == (1000, {"think": 2000.0})


def tracked_objects() -> int:
    """GC-tracked objects once full collections untrack no more: a pass
    untracks a tuple or dict only if it already found its items untracked,
    so nested ones take a few passes."""
    last = -1
    while True:
        gc.collect()
        if (count := len(gc.get_objects())) == last:
            return count
        last = count


def long_run() -> Orchestrator:
    """Two opposing set-point pairs, un-arbitrated, run past the window."""
    orch = make_orchestrator(arbitration=False, sandbox=False)
    for node in ("n1", "n2"):
        orch.instantiate(setpoint_chain(f"{node}-up", 1, 3000.0, node=node))
        orch.instantiate(setpoint_chain(f"{node}-down", 2, 1000.0, node=node))
    orch.run(duration_ms=500_000)
    return orch


def test_knowledge_store_stays_bounded_over_a_long_run():
    """Past the window, 4,500 more slots add no GC-tracked object: each new
    event's body is one the trace already holds, and each store holds its
    newest KNOWLEDGE_WINDOW records."""
    orch = long_run()
    before = tracked_objects()
    orch.run(duration_ms=4_500_000, start_ms=500_000)
    assert tracked_objects() - before == 0
    newest = list(range(5_000_000 - KNOWLEDGE_WINDOW * 1000, 5_000_000, 1000))
    for instance in orch.instances.values():
        assert len(instance.knowledge) == KNOWLEDGE_WINDOW
        assert [r["t_ms"] for r in instance.knowledge] == newest


def test_a_long_run_costs_the_trace_a_few_bytes_an_event():
    """Past the window, the trace's growth is its two list slots an event
    and the slot times those events share."""
    orch = long_run()
    seen = len(orch.trace.events)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        orch.run(duration_ms=4_500_000, start_ms=500_000)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    new = len(orch.trace.events) - seen
    assert new == 27_000
    assert grown <= 40 * new


def test_a_dry_run_leaves_no_garbage_cycle():
    """A replica's bound contexts refer back to their instances; dropped when
    the dry-run ends, they leave the cloned world to reference counting, not
    to wait for the collector."""
    orch = make_orchestrator()
    orch.instantiate(setpoint_chain("n1-up", 1, 3000.0))
    orch.instantiate(setpoint_chain("n1-down", 2, 1000.0))
    gc.collect()
    gc.disable()
    try:
        orch.sandbox_dryrun([ActionProposal("n1", "vnf.cpu.millicores", 3000.0, "n1-up")])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_sandbox_replica_copies_only_the_window():
    """A replica's store keeps the window as it replays; the live store is
    left as it was."""
    orch = make_orchestrator()
    orch.instantiate(analysis_chain())
    orch.run(duration_ms=(KNOWLEDGE_WINDOW + 3) * 1000)
    live = orch.instances["watcher"].knowledge
    records = list(live)
    replicas = []
    clone = orch._clone_for_sandbox
    orch._clone_for_sandbox = lambda: replicas.append(clone()) or replicas[-1]
    orch.sandbox_dryrun([ActionProposal("n1", "vnf.cpu.millicores", 1500.0, "watcher")])
    [replica] = replicas
    copied = replica.instances["watcher"].knowledge
    assert copied is not live
    assert (len(copied), copied.maxlen) == (KNOWLEDGE_WINDOW, KNOWLEDGE_WINDOW)
    assert copied[-1]["t_ms"] > records[-1]["t_ms"]  # the replay stored its own ticks
    assert all(a is b for a, b in zip(live, records, strict=True))


def test_a_reinstantiated_chain_ticks_with_fresh_contexts():
    orch = make_orchestrator()
    seen = []
    orch.registry.register("analyze.record_context",
                           lambda ctx: seen.append((ctx, ctx.instance)) or 0.0)
    chain = analysis_chain()
    chain.steps[1] = LoopStep("think", StepKind.ANALYZE, "analyze.record_context",
                              QosRequirements(cpu=100))
    old = orch.instantiate(chain)
    orch.tick("watcher", 0)
    orch.terminate("watcher")
    new = orch.instantiate(chain)
    orch.tick("watcher", 1000)
    (old_ctx, old_seen), (new_ctx, new_seen) = seen
    assert old_seen is old and new_seen is new and new_ctx is not old_ctx
    assert [r["t_ms"] for r in old.knowledge] == [0]
    assert [r["t_ms"] for r in new.knowledge] == [1000]


def test_tick_restamps_a_proposal_as_a_proposal():
    orch = make_orchestrator()
    orch.registry.register("plan.unsigned", lambda ctx: [
        ActionProposal("n1", "vnf.cpu.millicores", 1500.0)])
    chain = setpoint_chain("up", 1, 3000.0)
    chain.steps[1] = LoopStep("push", StepKind.PLAN, "plan.unsigned", QosRequirements(cpu=50))
    orch.instantiate(chain)
    [p] = orch.tick("up", 1000)
    assert type(p) is ActionProposal
    assert p == ActionProposal("n1", "vnf.cpu.millicores", 1500.0, "up")


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


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_infinite_forecast_is_a_traced_fault_not_a_clamped_proposal(value):
    orch = make_orchestrator()
    orch.registry.register("analyze.diverged",
                           lambda ctx: AnalysisOutput("traffic.forecast", value))
    chain = LoopChain(
        id="scaler",
        steps=[
            LoopStep("watch", StepKind.MONITOR, "monitor.knob_value", QosRequirements(cpu=50),
                     params={"node": "n1", "parameter": "vnf.cpu.millicores"}),
            LoopStep("forecast", StepKind.ANALYZE, "analyze.diverged", QosRequirements(cpu=50)),
            LoopStep("plan", StepKind.PLAN, "plan.catalog_translate", QosRequirements(cpu=50)),
            LoopStep("store", StepKind.KNOWLEDGE, "knowledge.store",
                     QosRequirements(storage=64)),
        ],
        edges=[("watch", "forecast"), ("forecast", "plan"), ("plan", "store")],
        destination_domain=frozenset({"n1"}),
    )
    catalog = ActionCatalog(entries=(CatalogEntry(
        kind="traffic.forecast", target_role="firewall",
        parameter="vnf.cpu.millicores", scale=12.0, offset=200.0, lo=200.0, hi=4000.0),))
    orch.instantiate(chain, services={"action_catalog": catalog})
    assert orch.tick("scaler", 0) == []
    faults = [(e.step, e.detail, e.verdict) for e in orch.trace.events if e.kind == "fault"]
    assert faults == [("forecast", "ConfigError: analysis output "
                       f"'traffic.forecast' must have a finite value, got {value!r}", "fault")]
    assert orch.query("scaler").fcaps.fault == 1


def test_tick_fault_counts_and_yields_nothing():
    orch = make_orchestrator()
    orch.registry.register("monitor.boom", lambda ctx: 1 / 0)
    chain = analysis_chain()
    chain.steps[0] = LoopStep("watch", StepKind.MONITOR, "monitor.boom",
                              QosRequirements(cpu=100))
    orch.instantiate(chain)
    proposals = orch.tick("watcher", 0)
    assert proposals == []
    assert orch.query("watcher").fcaps.fault == 1
    assert not orch.instances["watcher"].knowledge


def test_tick_fault_traces_exception_type():
    orch = make_orchestrator()
    orch.registry.register("plan.broken", lambda ctx: ctx.params["node"])
    chain = setpoint_chain("up", 1, 3000.0)
    chain.steps[1] = LoopStep("push", StepKind.PLAN, "plan.broken", QosRequirements(cpu=50))
    orch.instantiate(chain)
    assert orch.tick("up", 0) == []
    faults = [(e.step, e.detail, e.verdict) for e in orch.trace.events if e.kind == "fault"]
    assert faults == [("push", "KeyError: 'node'", "fault")]
    assert orch.query("up").fcaps.fault == 1


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

def proposal(chain_id, target="n1", parameter="vnf.cpu.millicores", value=1000.0):
    return ActionProposal(target=target, parameter=parameter, value=value, issued_by=chain_id)


def topology_with_knob(value, nodes=("n1",)):
    """spec_3nodes with the CPU knob of each of nodes at value."""
    state = build_topology(spec_3nodes())
    for node in nodes:
        sdi.set_knob(state, node, "vnf.cpu.millicores", value)
    return state


def test_opposing_directions_same_knob_conflict():
    state = topology_with_knob(2300.0)
    report = detect_conflicts([proposal("a", value=2500.0),
                               proposal("b", value=2200.0)], state)
    assert len(report.pairs) == 1
    assert report.pairs[0].kind == ConflictKind.SAME_KNOB_OPPOSING


def test_opposition_is_read_against_the_current_knob_value():
    """Two values oppose when one lies above the knob's current value and the
    other below it; two on one side, or one at the current value, do not."""
    state = build_topology(spec_3nodes())
    sdi.set_knob(state, "n1", "lb.weight", 20.0)  # unbacked: no capacity check

    def pairs(a, b):
        report = detect_conflicts([proposal("a", parameter="lb.weight", value=a),
                                   proposal("b", parameter="lb.weight", value=b)], state)
        return [pair.kind for pair in report.pairs]

    assert pairs(30.0, 10.0) == pairs(10.0, 30.0) == [ConflictKind.SAME_KNOB_OPPOSING]
    assert pairs(30.0, 25.0) == pairs(5.0, 10.0) == []
    assert pairs(20.0, 10.0) == pairs(30.0, 20.0) == pairs(20.0, 20.0) == []


def test_disjoint_knobs_no_conflict():
    state = build_topology(spec_3nodes())
    report = detect_conflicts([proposal("a", target="n1", value=100.0),
                               proposal("b", target="n2", value=100.0)], state)
    assert not report.pairs


def test_same_chain_never_conflicts():
    state = topology_with_knob(1500.0)
    report = detect_conflicts([proposal("a", value=2000.0), proposal("a", value=1000.0)], state)
    assert not report.pairs


def test_joint_oversubscription_detected():
    state = build_topology(spec_3nodes())  # n1 cpu capacity 4000
    report = detect_conflicts([proposal("a", value=2500.0),
                               proposal("b", value=2000.0)], state)
    assert len(report.pairs) == 1
    assert report.pairs[0].kind == ConflictKind.SHARED_RESOURCE_OVERSUBSCRIPTION


def oracle_pairwise_conflicts(proposals, state):
    """Independent O(n^2) recheck of the conflict predicate, as (i, j, kind)
    in the order of the double loop; each proposal's sign is read against
    the knob's value in state."""
    found = []
    for i, a in enumerate(proposals):
        for j, b in enumerate(proposals):
            if j <= i or a.issued_by == b.issued_by:
                continue
            current = state.knobs.get((a.target, a.parameter), 0.0)
            if (a.target == b.target and a.parameter == b.parameter
                    and np.sign(a.value - current) * np.sign(b.value - current) < 0):
                found.append((i, j, "same-knob-opposing"))
                continue
            if a.target == b.target and a.target in state.nodes:
                backed = (a.parameter.endswith(".cpu.millicores")
                          and b.parameter.endswith(".cpu.millicores"))
                if backed:
                    cap = state.nodes[a.target].cpu_capacity
                    if int(np.ceil(a.value)) + int(np.ceil(b.value)) > cap:
                        found.append((i, j, "shared-resource-oversubscription"))
    return found


def spec_6nodes():
    """spec_3nodes plus n4..n6 on a line behind n3, of growing CPU capacity."""
    spec = spec_3nodes()
    for k in (4, 5, 6):
        spec["nodes"].append({"id": f"n{k}", "region": "east", "tier": "edge",
                              "cpu": 1000 * k, "storage": 8192})
        spec["links"].append({"a": f"n{k - 1}", "b": f"n{k}", "bandwidth": 1000,
                              "latency": 1.0, "reliability": 0.999})
    return spec


def test_conflict_report_matches_pairwise_oracle_on_random_sets():
    # Pools of 2-9 on 3 nodes, then of 2-40 over 6 nodes and a target that
    # is no node, so that a target's group of proposals takes many sizes.
    # Each node's knobs start apart and values fall below, at or above them.
    # Conflicts are traced in report order, so the order is compared too.
    rng = np.random.Generator(np.random.PCG64(77))
    parameters = ["vnf.cpu.millicores", "firewall.mode"]
    for spec, targets, chains, max_pool in (
            (spec_3nodes(), ["n1", "n2", "n3"], ["c1", "c2", "c3"], 10),
            (spec_6nodes(), ["n1", "n2", "n3", "n4", "n5", "n6", "lb"],
             ["c1", "c2", "c3", "c4", "c5"], 41)):
        state = build_topology(spec)
        for node in state.nodes:
            for parameter in parameters:
                sdi.set_knob(state, node, parameter, float(rng.integers(0, 1000)))
        for trial in range(100):
            n = int(rng.integers(2, max_pool))
            proposals = []
            for k in range(n):
                target, parameter = str(rng.choice(targets)), str(rng.choice(parameters))
                offset = int(rng.choice([-1, 0, 1])) * int(rng.integers(1, 2500))
                proposals.append(ActionProposal(
                    target=target, parameter=parameter,
                    value=sdi.get_knob(state, target, parameter) + offset,
                    issued_by=str(rng.choice(chains)),
                ))
            report = detect_conflicts(proposals, state)
            index = {id(p): i for i, p in enumerate(proposals)}
            got = [(index[id(p.a)], index[id(p.b)], p.kind.value) for p in report.pairs]
            assert got == oracle_pairwise_conflicts(proposals, state), (len(spec["nodes"]), trial)


# ---------------------------------------------------------------------------
# Arbitration
# ---------------------------------------------------------------------------

def test_arbitrate_priority_wins():
    state = topology_with_knob(1500.0)
    pool = [proposal("hi", value=2000.0), proposal("lo", value=1000.0)]
    report = detect_conflicts(pool, state)
    outcome = arbitrate(report, pool, {"hi": 1, "lo": 2})
    assert [p.issued_by for p in outcome.approved] == ["hi"]
    assert outcome.rejected[0][0].issued_by == "lo"
    assert outcome.rejected[0][1:] == ("conflict-lost", "hi")


def test_arbitrate_tie_breaks_lexicographically():
    state = topology_with_knob(1500.0)
    pool = [proposal("zeta", value=2000.0), proposal("alpha", value=1000.0)]
    report = detect_conflicts(pool, state)
    outcome = arbitrate(report, pool, {"zeta": 5, "alpha": 5})
    assert [p.issued_by for p in outcome.approved] == ["alpha"]
    assert [(d.chain, d.value, d.loops, d.verdict) for d in outcome.decisions] == [
        ("alpha", 5, ("alpha", "zeta"), "tie-break")]


def test_arbitrate_without_conflicts_approves_all():
    state = build_topology(spec_3nodes())
    pool = [proposal("a", target="n1"), proposal("b", target="n2")]
    report = detect_conflicts(pool, state)
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
    result = orch.sandbox_dryrun([proposal("steady", value=1800.0)])
    assert result.verdict == "stable"
    assert result.max_reversals == 0


def test_sandbox_single_loop_alternating_setpoint_stable():
    """One loop that reverses its own knob every tick is tracking, not
    interfering: its reversals do not count against the dry-run."""
    orch = make_orchestrator()
    sdi.set_knob(orch.state, "n1", "vnf.cpu.millicores", 1000.0)

    def flip(ctx):
        current = sdi.get_knob(ctx.state, "n1", "vnf.cpu.millicores")
        value = 1000.0 if current > 1500.0 else 2000.0
        return [ActionProposal("n1", "vnf.cpu.millicores", value)]

    orch.registry.register("plan.flip", flip)
    tracker = setpoint_chain("tracker", 1, 0.0)
    tracker.steps[1] = LoopStep("push", StepKind.PLAN, "plan.flip", QosRequirements(cpu=50))
    orch.instantiate(tracker)
    result = orch.sandbox_dryrun([proposal("tracker", value=2000.0)])
    assert result.verdict == "stable"
    assert result.max_reversals == 0
    # Live, with the gate on, every reversal the loop asks for is applied.
    trace = orch.run(duration_ms=4000)
    deltas = [d for _, d in trace.applied_knob_deltas()[("n1", "vnf.cpu.millicores")]]
    assert deltas == [1000.0, -1000.0, 1000.0, -1000.0]
    assert [e.verdict for e in trace.events if e.kind == "sandbox"] == ["stable"] * 4


def test_sandbox_opposing_loops_unstable():
    orch = make_orchestrator(arbitration=False, sandbox=False)
    opposing_pair(orch)
    result = orch.sandbox_dryrun(
        [proposal("up", value=3000.0), proposal("down", value=1000.0)])
    assert result.verdict == "unstable"
    assert result.max_reversals >= SANDBOX_HORIZON_TICKS / 2


def test_sandbox_leaves_live_state_bitwise_identical():
    orch = make_orchestrator()
    opposing_pair(orch)
    before = snapshot(orch.state)
    orch.sandbox_dryrun([proposal("up", value=3000.0)])
    assert snapshot(orch.state) == before


def test_sandbox_empty_proposals_stable():
    orch = make_orchestrator()
    before = snapshot(orch.state)
    result = orch.sandbox_dryrun([])
    assert result.verdict == "stable"
    assert snapshot(orch.state) == before


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
    state = topology_with_knob(1500.0, nodes=("n1", "n2"))
    n = data.draw(st.integers(2, 8))
    pool = []
    for k in range(n):
        pool.append(ActionProposal(
            target=data.draw(st.sampled_from(["n1", "n2"])),
            parameter="vnf.cpu.millicores",
            value=float(data.draw(st.integers(0, 3000))),
            issued_by=data.draw(st.sampled_from(["c1", "c2", "c3"]))))
    priorities = {"c1": 1, "c2": 2, "c3": 2}
    report = detect_conflicts(pool, state)
    outcome = arbitrate(report, pool, priorities)
    assert len(outcome.approved) + len(outcome.rejected) == n
    seen = {id(p) for p in outcome.approved} | {id(p[0]) for p in outcome.rejected}
    assert len(seen) == n
    for i, a in enumerate(outcome.approved):
        for b in outcome.approved[i + 1:]:
            if (a.target, a.parameter) == (b.target, b.parameter) \
                    and a.issued_by != b.issued_by:
                current = sdi.get_knob(state, a.target, a.parameter)
                assert (a.value - current) * (b.value - current) >= 0


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
    # The tier as trace events carry it, read once per instance.
    assert [i.tier_label for i in orch.instances.values()] == ["edge", "core"]
    trace = orch.run(duration_ms=100)
    ticks = [e.chain for e in trace.events if e.kind == "tick"]
    assert ticks == ["edge-loop", "core-loop"]  # deeper tier first


def core_analysis_chain(chain_id, period=1000):
    """analysis_chain, monitored from the east region, so it runs on core n3."""
    chain = analysis_chain(chain_id, period)
    chain.steps[0] = chain.steps[0]._replace(
        qos=QosRequirements(cpu=100, coverage=frozenset({"east"})))
    return chain


def ticks_by_slot(trace) -> dict[int, list[tuple[int, str]]]:
    """Per slot, the (negated tier depth, chain id) of each tick, in trace order."""
    slots: dict[int, list[tuple[int, str]]] = {}
    for e in trace.events:
        if e.kind == "tick":
            slots.setdefault(e.t_ms, []).append((-TIER_DEPTH[Tier(e.tier)], e.chain))
    return slots


def test_run_keeps_tick_order_across_lifecycle_changes():
    """Instances made out of id order on two tiers, one re-made on the other
    tier, one added mid-run and one with a new period: every slot, live and
    in a sandbox replica, ticks deeper tiers first, then by chain id."""
    orch = make_orchestrator(sandbox=False)
    for chain in (analysis_chain("e-c"), core_analysis_chain("c-b"), analysis_chain("e-a"),
                  core_analysis_chain("c-d")):
        orch.instantiate(chain)
    orch.run(duration_ms=2000)
    orch.terminate("e-a")
    orch.instantiate(core_analysis_chain("e-a"))
    orch.instantiate(analysis_chain("e-0"))
    orch.update("c-d", tick_period_ms=500)
    orch.run(duration_ms=2000, start_ms=2000)
    replica = orch._clone_for_sandbox()
    replica.run(duration_ms=2000, start_ms=4000)
    live, replayed = ticks_by_slot(orch.trace), ticks_by_slot(replica.trace)
    assert [chain for _, chain in live[0]] == ["e-a", "e-c", "c-b", "c-d"]
    assert [chain for _, chain in live[3000]] == ["e-0", "e-c", "c-b", "c-d", "e-a"]
    assert live[3500] == [(0, "c-d")]
    assert replayed[5000] == live[3000]
    for slot in (*live.values(), *replayed.values()):
        assert slot == sorted(slot)


def test_run_withholds_on_unstable_sandbox():
    """The winner's set-point is past n1's 4000 mc, so every dry-run's seeded
    apply is a capacity refusal: the gate withholds it and nothing lands."""
    orch = make_orchestrator(arbitration=True, sandbox=True)
    opposing_pair(orch, high=9000.0)
    trace = orch.run(duration_ms=20_000)
    assert any(e.kind == "withhold" for e in trace.events)
    assert sdi.get_knob(orch.state, "n1", "vnf.cpu.millicores") == 2000.0
    applied = [e for e in trace.events if e.kind == "apply"]
    assert applied == []
    orch.assert_capacity_invariant()


def test_held_knob_rejects_lower_ranked_proposals_naming_the_holder():
    held = {("n1", "vnf.cpu.millicores"): "hi"}
    pool = [proposal("lo"), proposal("top")]
    outcome = arbitrate(detect_conflicts(pool, build_topology(spec_3nodes())), pool,
                        {"top": 0, "hi": 1, "lo": 2}, held)
    assert [p.issued_by for p in outcome.approved] == ["top"]
    assert [(p.issued_by, verdict, loop) for p, verdict, loop in outcome.rejected] == [
        ("lo", "held", "hi")]

    orch = make_orchestrator(arbitration=True, sandbox=False)
    opposing_pair(orch)
    trace = orch.run(duration_ms=3000)
    assert orch.holders == {("n1", "vnf.cpu.millicores"): "up"}
    assert [(e.t_ms, e.chain, e.verdict, e.loops) for e in trace.events
            if e.kind == "reject"] == [
        (0, "down", "conflict-lost", ("up",)),
        (1000, "down", "held", ("up",)), (2000, "down", "held", ("up",))]
    assert sdi.get_knob(orch.state, "n1", "vnf.cpu.millicores") == 3000.0


def test_a_plan_step_cannot_issue_for_another_loop():
    """A priority-9 loop whose plan step signs its proposals as the
    priority-1 loop is traced, arbitrated and held under its own id: it
    loses the first slot's conflict and cannot move the knob it lost."""
    orch = make_orchestrator(arbitration=True, sandbox=True)
    scenarios.opposing_pair(orch, "west", "n1", "vnf.cpu.millicores", 2000.0, 3000.0, None,
                            1000, ("up", "down"))
    orch.registry.register("plan.impersonate", lambda ctx: [
        p._replace(issued_by="up") for p in plan_knob_setpoint(ctx)])
    rogue = setpoint_chain("rogue", 9, 500.0)
    rogue.steps[1] = rogue.steps[1]._replace(function_ref="plan.impersonate")
    orch.instantiate(rogue)
    trace = orch.run(duration_ms=3000)
    actions = [(e.t_ms, e.kind, e.chain, e.value) for e in trace.events
               if e.kind in ("apply", "reject", "withhold")]
    assert actions == [(0, "reject", "rogue", 500.0), (0, "apply", "up", 3000.0),
                       (1000, "reject", "rogue", 500.0), (2000, "reject", "rogue", 500.0)]
    assert [(e.t_ms, e.loops) for e in trace.events if e.kind == "conflict"] == [
        (0, ("rogue", "up"))]
    assert [(e.chain, e.value, e.loops, e.verdict) for e in trace.events
            if e.kind == "arbitration"] == [("up", 1, ("rogue", "up"), "priority")]
    assert orch.holders == {("n1", "vnf.cpu.millicores"): "up"}
    assert sdi.get_knob(orch.state, "n1", "vnf.cpu.millicores") == 3000.0
    assert (orch.query("rogue").actions_rejected, orch.query("up").fcaps.performance) == (3, 1)


def test_terminate_releases_the_holders_knobs():
    orch = make_orchestrator(arbitration=True, sandbox=True)
    opposing_pair(orch)
    orch.run(duration_ms=2000)
    orch.terminate("up")
    assert orch.holders == {}
    trace = orch.run(duration_ms=1000, start_ms=2000)
    applies = [(e.chain, e.delta) for e in trace.events if e.kind == "apply"]
    assert applies == [("up", 1000.0), ("down", -2000.0)]
    assert orch.holders == {("n1", "vnf.cpu.millicores"): "down"}


def test_sandbox_seeded_apply_takes_the_hold():
    """The winner's set-point seeded into the replica holds the knob there,
    so the running loser cannot move it back during the replay."""
    orch = make_orchestrator(arbitration=True, sandbox=True)
    opposing_pair(orch)
    result = orch.sandbox_dryrun([proposal("up", value=3000.0)])
    assert (result.verdict, result.max_reversals, result.violation_count) == ("stable", 0, 0)
    assert orch.holders == {}  # the live table is untouched


def test_sandbox_counts_only_capacity_refusals_as_violations():
    """A seeded proposal for an unknown node is refused in the replica
    without a capacity component: the dry-run is stable, and the live apply
    rejects the proposal with its error verdict."""
    orch = make_orchestrator(arbitration=True, sandbox=True)
    ghost = setpoint_chain("ghost", 1, 1000.0)
    ghost.steps[1] = LoopStep("push", StepKind.PLAN, "plan.knob_setpoint",
                              QosRequirements(cpu=50),
                              params={"node": "n9", "parameter": "vnf.cpu.millicores",
                                      "value": 1000.0})
    orch.instantiate(ghost)
    result = orch.sandbox_dryrun([proposal("ghost", target="n9")])
    assert (result.verdict, result.violation_count) == ("stable", 0)
    trace = orch.run(duration_ms=1000)
    sandbox, reject = [e for e in trace.events if e.kind in ("sandbox", "reject")]
    assert sandbox.verdict == "stable"
    assert (reject.verdict, reject.detail) == ("error", "unknown node 'n9'")


def test_unarbitrated_opposing_loops_thrash():
    orch = make_orchestrator(arbitration=False, sandbox=False)
    opposing_pair(orch)
    trace = orch.run(duration_ms=100_000)  # 100 ticks
    deltas = trace.applied_knob_deltas()[("n1", "vnf.cpu.millicores")]
    assert count_reversals(deltas) >= 10
    orch.assert_capacity_invariant()


def test_capacity_invariant_counts_backed_knobs():
    """The invariant recomputes knob backings from the knob table, so a
    knob value past its node's capacity is caught even though the usage
    table never saw it."""
    orch = make_orchestrator()
    sdi.set_knob(orch.state, "n1", "vnf.cpu.millicores", 3000.0)
    sdi.set_knob(orch.state, "n1", "firewall.mode", 9e9)  # not backed
    orch.assert_capacity_invariant()
    orch.state.knobs[("n1", "vnf.cpu.millicores")] = 4000.5  # n1 holds 4000 mc
    with pytest.raises(SafetyViolationError, match="node n1 oversubscribed"):
        orch.assert_capacity_invariant()


def test_capacity_invariant_audits_links():
    orch = make_orchestrator()
    orch.state.allocations["alloc-999999"] = sdi.Allocation(
        "alloc-999999", "rogue", ResourceVector(bandwidth=1001), ("n1", "n2"))
    with pytest.raises(SafetyViolationError, match="link n1--n2 oversubscribed"):
        orch.assert_capacity_invariant()


def test_non_finite_setpoints_are_step_faults():
    """Two loops pushing NaN onto one backed knob fault at their plan step
    each tick; the run completes and the knob keeps its value."""
    orch = make_orchestrator()
    sdi.set_knob(orch.state, "n1", "vnf.cpu.millicores", 2000.0)
    orch.instantiate(setpoint_chain("up", 1, float("nan")))
    orch.instantiate(setpoint_chain("down", 2, float("nan")))
    trace = orch.run(duration_ms=5000)
    faults = [e for e in trace.events if e.kind == "fault"]
    assert len(faults) == 10
    assert all(e.step == "push" and e.detail.startswith("ConfigError: ") for e in faults)
    assert not any(e.kind in ("apply", "reject", "withhold") for e in trace.events)
    assert sdi.get_knob(orch.state, "n1", "vnf.cpu.millicores") == 2000.0
    assert orch.query("up").fcaps.fault == 5
    orch.assert_capacity_invariant()


def test_proposal_value_must_be_finite():
    with pytest.raises(ConfigError, match="finite"):
        ActionProposal("n1", "vnf.cpu.millicores", float("inf"), "up")
    with pytest.raises(ConfigError, match="finite"):
        ActionProposal(target="n1", parameter="p", value=math.nan, issued_by="up")
    restamped = ActionProposal("n1", "p", 1.0)._replace(issued_by="up")
    assert type(restamped) is ActionProposal and restamped.issued_by == "up"
    assert ActionProposal._fields == ("target", "parameter", "value", "issued_by")


def test_every_lifecycle_operation_is_traced():
    orch = make_orchestrator()
    orch.instantiate(analysis_chain())
    orch.update("watcher", priority=3, tick_period_ms=500)
    orch.scale("watcher", 2.0)
    rows = [e for e in orch.trace.events if e.kind == "lifecycle" and e.chain == "watcher"]
    assert len(rows) == orch.query("watcher").fcaps.config == 3
    assert [(e.verdict, e.value, e.period_ms) for e in rows] == [
        ("instantiated", None, None), ("updated", 3, 500), ("scaled", 2.0, None)]


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


TRACE_HEADER = ("time_ms", "tier", "chain", "event", "verdict", "value", "delta", "target",
                "parameter", "loops", "detail", "step", "placement", "period_ms", "max_reversals",
                "violation_count")


def nested_values(cell: str) -> list[str]:
    """The values of a cell that holds a nested CSV record."""
    return next(csv.reader([cell]), [])


def test_trace_csv_roundtrip_shape(tmp_path):
    orch = make_orchestrator(sandbox=False)
    orch.instantiate(analysis_chain())
    orch.run(duration_ms=3000)
    path = tmp_path / "trace.csv"
    orch.trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(TRACE_HEADER)
    assert len(lines) == len(orch.trace.events) + 1


def test_trace_csv_fields_read_back_exactly(tmp_path):
    orch = make_orchestrator(sandbox=False)
    orch.instantiate(analysis_chain())
    orch.run(duration_ms=3000)
    orch.trace.add(3000, "edge", "watcher", "reject", "error", 1.5, target="n1",
                   parameter="a,b", loops=('saver, "eco"', "two\nlines"),
                   detail='says "no", then stops')
    path = tmp_path / "trace.csv"
    orch.trace.to_csv(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(TRACE_HEADER)
    assert any("," in cell for row in rows[1:-1] for cell in row)
    for row, e in zip(rows[1:], orch.trace.events, strict=True):
        assert [tuple(nested_values(cell)) if isinstance(f, tuple) else cell
                for cell, f in zip(row, e, strict=True)] == [
            f if isinstance(f, tuple) else "" if f is None else str(f) for f in e]
    placement = nested_values(rows[1][TRACE_HEADER.index("placement")])
    assert dict(zip(placement[::2], placement[1::2])) == orch.query("watcher").assignment
    assert rows[-1] == ["3000", "edge", "watcher", "reject", "error", "1.5", "", "n1", "a,b",
                        '"saver, ""eco""","two\nlines"', 'says "no", then stops',
                        "", "", "", "", ""]


def test_a_carriage_return_in_a_cell_reads_back(tmp_path):
    """A cell holding a bare \\r is quoted as one holding \\n is, so the trace
    and the FCAPS file read back with one row per event or instance."""
    def broken(ctx):
        raise ValueError("one\rtwo")

    orch = make_orchestrator(sandbox=False)
    orch.registry.register("plan.broken", broken)
    chain = setpoint_chain("a\rb", 1, 3000.0)
    chain.steps[1] = LoopStep("push", StepKind.PLAN, "plan.broken", QosRequirements(cpu=50))
    orch.instantiate(chain)
    orch.run(duration_ms=3000)
    orch.trace.to_csv(tmp_path / "trace.csv")
    orch.export_fcaps_csv(tmp_path / "fcaps.csv")
    with open(tmp_path / "trace.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(TRACE_HEADER)
    assert [row[2] for row in rows[1:]] == ["a\rb"] * len(orch.trace.events) == ["a\rb"] * 7
    assert [row[10] for row in rows[1:] if row[3] == "fault"] == ["ValueError: one\rtwo"] * 3
    with open(tmp_path / "fcaps.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["instance", "state", "fault", "config", "accounting",
                                         "performance"], ["a\rb", "running", "3", "1", "3", "0"]]


def nested_record(values) -> str:
    """values as one cell: a nested CSV record with its row end cut off."""
    rendered = io.StringIO()
    csv.writer(rendered).writerow(values)
    return rendered.getvalue().removesuffix("\r\n")


def reference_trace_csv(events, path) -> int:
    """The trace rendered row by row through write_csv: the bytes to_csv
    must write."""
    def row(e: TraceEvent) -> tuple:
        return tuple(nested_record(f) if isinstance(f, tuple) else f for f in e)

    return write_csv(path, TRACE_HEADER, map(row, events))


csv_text = st.one_of(st.sampled_from(["", ",", '"', "\r", "\n", "\r\n", 'a,"b"', " x ", "é",
                                      "猫|犬"]),
                     st.text(max_size=6))


@st.composite
def trace_events(draw):
    """Events of every kind, each filling its kind's fields, drawn from a
    few texts and numbers, so that rows recur at different times and
    near-copies differ in one field."""
    words = st.sampled_from(draw(st.lists(csv_text, min_size=1, max_size=3)))
    loops = st.lists(st.sampled_from(["up", "a,b", 'say "x"', "two\nlines", ""]),
                     max_size=3).map(tuple)
    # -0.0 and 0.0, or 1 and 1.0, compare equal but print apart; the others
    # print long.
    floats = st.sampled_from([-0.0, 0.0, 1, 1.0, 5e-324, 1e22,
                              draw(st.floats(allow_nan=False, allow_infinity=False))])
    counts = st.integers(0, 2)
    action = dict(target=words, parameter=words, value=floats)
    shapes = [
        ("tick", dict(value=counts, verdict=st.just("ok"))),
        ("apply", dict(action, delta=floats, verdict=st.just("ok"))),
        ("reject", dict(action, loops=loops, verdict=words, detail=words)),
        ("withhold", dict(action, verdict=words)),
        ("conflict", dict(target=words, parameter=words, loops=loops, verdict=words)),
        ("arbitration", dict(value=counts | st.none(), loops=loops, verdict=words)),
        ("sandbox", dict(loops=loops, verdict=words, max_reversals=counts,
                         violation_count=counts)),
        ("lifecycle", dict(placement=loops, verdict=st.just("instantiated"))),
        ("lifecycle", dict(value=counts, period_ms=counts, verdict=st.just("updated"))),
        ("lifecycle", dict(value=floats, verdict=st.just("scaled"))),
        ("fault", dict(step=words, detail=words, verdict=st.just("fault"))),
    ]
    events = []
    for t_ms in draw(st.lists(st.integers(0, 10 ** 7), max_size=20)):
        kind, fields = draw(st.sampled_from(shapes))
        events.append(TraceEvent(t_ms, draw(words), draw(words), kind,
                                 **{name: draw(field) for name, field in fields.items()}))
    return events


@settings(max_examples=80, deadline=None)
@given(events=trace_events())
@example(events=[TraceEvent(t, "edge", "up", "apply", "ok", x, x, "n1", "p")
                 for t, x in enumerate([0.0, -0.0, 0.0])])
def test_trace_csv_bytes_equal_the_row_by_row_rendering(tmp_path_factory, events):
    trace, base = EventTrace(events), tmp_path_factory.mktemp("trace-csv")
    assert trace.to_csv(base / "fast.csv") == reference_trace_csv(events, base / "ref.csv")
    assert (base / "fast.csv").read_bytes() == (base / "ref.csv").read_bytes()


@settings(max_examples=80, deadline=None)
@given(events=trace_events())
@example(events=[TraceEvent(t, "edge", "up", "apply", "ok", x, x, "n1", "p")
                 for t, x in enumerate([0.0, -0.0, 0, 0.0])])
@example(events=[TraceEvent(t, "edge", "c", "lifecycle", "updated", x, period_ms=1000)
                 for t, x in enumerate([1, 1.0, True, 1])])
def test_a_trace_reads_back_the_events_it_holds(events):
    """Equal bodies are stored once, yet each event reads back as it was
    given: repr tells -0.0 from 0.0 (and 0 from both), and 1, 1.0 and True
    are kept apart."""
    trace = EventTrace(events)
    assert [repr(e) for e in trace.events] == [repr(e) for e in events]
    assert [repr(e) for e in trace.events[1::2]] == [repr(e) for e in events[1::2]]
    assert len(trace.events) == len(events) and trace.events == events


def test_a_trace_is_the_sequence_of_its_events():
    """No view object stands between a trace and its events: the trace is
    the read-only Sequence, and trace.events is the trace itself."""
    events = [TraceEvent(0, "edge", "a", "tick", "ok", 1),
              TraceEvent(5, "-", "-", "conflict", "same-knob-opposing", loops=("a", "b"))]
    trace = EventTrace(events)
    assert isinstance(trace, collections.abc.Sequence) and trace.events is trace
    assert list(trace) == events and trace[-1] == events[-1] and trace[::-1] == events[::-1]
    assert trace.index(events[1]) == 1 and events[0] in trace and not EventTrace()


PINNED_TRACE = """\
time_ms,tier,chain,event,verdict,value,delta,target,parameter,loops,detail,step,placement,period_ms,max_reversals,violation_count
0,edge,down,lifecycle,instantiated,,,,,,,,"push,n1,record,n1,watch,n1",,,
0,edge,big,lifecycle,instantiated,,,,,,,,"push,n1,record,n1,watch,n1",,,
0,edge,big,tick,ok,1,,,,,,,,,,
0,edge,down,tick,ok,1,,,,,,,,,,
0,-,-,conflict,same-knob-opposing,,,n1,vnf.cpu.millicores,"big,down",,,,,,
0,-,down,arbitration,priority,1,,,,"big,down",,,,,,
0,edge,big,reject,conflict-lost,9000.0,,n1,vnf.cpu.millicores,down,,,,,,
0,edge,down,apply,ok,1000.0,-1000.0,n1,vnf.cpu.millicores,,,,,,,
1000,edge,down,lifecycle,terminated,,,,,,,,,,,
1000,edge,down,lifecycle,instantiated,,,,,,,,"push,n1,record,n1,watch,n1",,,
1000,edge,big,tick,ok,1,,,,,,,,,,
1000,edge,down,fault,fault,,,,,,KeyError: 'node',push,,,,
1000,edge,down,tick,ok,0,,,,,,,,,,
1000,edge,big,reject,capacity,9000.0,,n1,vnf.cpu.millicores,,,,,,,
2000,edge,big,tick,ok,1,,,,,,,,,,
2000,edge,down,fault,fault,,,,,,KeyError: 'node',push,,,,
2000,edge,down,tick,ok,0,,,,,,,,,,
2000,-,-,sandbox,unstable,,,,,big,,,,,0,11
2000,edge,big,withhold,sandbox-unstable,9000.0,,n1,vnf.cpu.millicores,,,,,,,
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
    assert (big.fcaps.performance, big.actions_rejected) == (0, 3)
    assert (down.fcaps.performance, down.actions_rejected) == (0, 0)  # a new incarnation
