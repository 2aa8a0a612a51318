"""Random lifecycle sequences against the orchestrator's accounting.

A hypothesis state machine instantiates, scales, terminates and ticks
set-point loops, turns knobs and runs sandbox dry-runs on a small generated
topology. After every step it checks exact resource conservation
(allocations plus knob backings), the capacity invariant, that clones route
like a freshly built state, that dry-runs and failed scales leave the live
world untouched, that replaying a tick's applies from the trace reproduces
the live knobs, and that every instance's counters equal a plain one-pass
count of its incarnation's trace events. The checks compare the state's
value snapshot plus its usage table and allocation id counter.
"""

import copy
import math
from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule)

from loopsim import sdi
from loopsim.chain import (ActionProposal, EmbeddingError, LoopChain, LoopStep,
                           QosRequirements, StepKind)
from loopsim.control import InstanceState, Orchestrator
from loopsim.sdi import RESOURCE_COMPONENTS, CapacityError, knob_backing_component
from loopsim.steps import build_default_registry

from conftest import bits, snapshot

CHAIN_IDS = ("loop0", "loop1", "loop2", "loop3")
KNOB = "vnf.cpu.millicores"
TICK_MS = 1000
# 100 mc of Analyze cpu scaled this far exceeds every generated node.
FAILING_FACTOR = 10_000.0


def world(state) -> tuple:
    """The state's snapshot plus its usage table and allocation id counter."""
    return (*snapshot(state), dict(state._used), state._next_alloc)


@st.composite
def topology_specs(draw):
    """2-4 compute nodes, optionally behind one switch, on a random
    connected link set with small bandwidths, so link reservations bind."""
    n = draw(st.integers(2, 4))
    nodes = [{"id": f"n{i}", "region": "r", "tier": "edge",
              "cpu": draw(st.sampled_from([1000, 2000, 4000])),
              "mem": 1024, "storage": draw(st.sampled_from([512, 2048]))}
             for i in range(n)]
    names = [node["id"] for node in nodes]
    switches = []
    if draw(st.booleans()):
        switches.append({"id": "sw", "region": "r", "tier": "core"})
        names.append("sw")
    pairs = set()
    for i in range(1, len(names)):  # spanning tree, then extra links
        pairs.add(tuple(sorted((names[draw(st.integers(0, i - 1))], names[i]))))
    for a, b in draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                              max_size=3)):
        if a != b:
            pairs.add(tuple(sorted((a, b))))
    links = [{"a": a, "b": b, "bandwidth": draw(st.sampled_from([20, 40, 100])),
              "latency": draw(st.sampled_from([1.0, 2.0, 5.0])),
              "reliability": draw(st.sampled_from([0.99, 0.999]))}
             for a, b in sorted(pairs)]
    return {"nodes": nodes, "switches": switches, "links": links}


def incarnation_counts(orch) -> Counter:
    """(instance, kind) counts of each instance's trace events from its
    current incarnation's first event on, filtered event by event."""
    first = {iid: i.first_event for iid, i in orch.instances.items()}
    end = len(orch.trace.events)
    return Counter((e.chain, e.kind) for k, e in enumerate(orch.trace.events)
                   if k >= first.get(e.chain, end))


def setpoint_chain(chain_id, node, value, priority, bandwidth):
    knob = {"node": node, "parameter": KNOB}
    return LoopChain(
        id=chain_id,
        steps=[
            LoopStep("watch", StepKind.MONITOR, "monitor.knob_value",
                     QosRequirements(cpu=50), params=dict(knob)),
            LoopStep("think", StepKind.ANALYZE, "analyze.passthrough",
                     QosRequirements(cpu=100, storage=64, min_bandwidth=bandwidth)),
            LoopStep("push", StepKind.PLAN, "plan.knob_setpoint",
                     QosRequirements(cpu=50, min_bandwidth=bandwidth),
                     params={**knob, "value": value}),
            LoopStep("record", StepKind.KNOWLEDGE, "knowledge.store",
                     QosRequirements(storage=64)),
        ],
        edges=[("watch", "think"), ("think", "push"), ("push", "record")],
        priority=priority,
        tick_period_ms=TICK_MS,
    )


class LifecycleMachine(RuleBasedStateMachine):
    @initialize(spec=topology_specs())
    def build(self, spec):
        registry = build_default_registry()
        registry.register("analyze.passthrough", lambda ctx: next(iter(ctx.inputs.values())))
        self.spec = spec
        self.orch = Orchestrator(sdi.build_topology(spec), registry=registry)
        self.compute = self.orch.state.compute_nodes()

    def live_ids(self):
        return sorted(i for i, inst in self.orch.instances.items()
                      if inst.state == InstanceState.RUNNING)

    def snapshot(self):
        """Everything a dry-run or a failed scale must leave as it was."""
        return (world(self.orch.state), len(self.orch.trace.events),
                {i: (copy.deepcopy((vars(inst.chain), vars(inst.embedding), inst.knowledge)),
                     self.orch.query(i))
                 for i, inst in self.orch.instances.items()})

    # -- rules -------------------------------------------------------------

    @rule(chain_id=st.sampled_from(CHAIN_IDS), data=st.data(),
          value=st.sampled_from([0.0, 300.0, 900.0, 2500.0]),
          priority=st.integers(1, 3), bandwidth=st.sampled_from([0, 10, 30]))
    def instantiate(self, chain_id, data, value, priority, bandwidth):
        if chain_id in self.live_ids():
            return
        node = data.draw(st.sampled_from(self.compute))
        before = world(self.orch.state)
        try:
            self.orch.instantiate(setpoint_chain(chain_id, node, value, priority, bandwidth))
        except EmbeddingError:
            assert world(self.orch.state) == before

    @precondition(lambda self: self.live_ids())
    @rule(data=st.data(), factor=st.sampled_from([0.5, 2.0, FAILING_FACTOR]))
    def scale(self, data, factor):
        chain_id = data.draw(st.sampled_from(self.live_ids()))
        before = self.snapshot()
        try:
            self.orch.scale(chain_id, factor)
        except EmbeddingError:
            assert self.snapshot() == before
        else:
            assert factor != FAILING_FACTOR, "a scale past every node's capacity succeeded"

    @precondition(lambda self: self.live_ids())
    @rule(data=st.data())
    def terminate(self, data):
        self.orch.terminate(data.draw(st.sampled_from(self.live_ids())))

    @rule(data=st.data(), value=st.sampled_from([0.0, 150.0, 700.5, 1800.0, 5000.0]))
    def set_knob(self, data, value):
        node = data.draw(st.sampled_from(self.compute))
        before = world(self.orch.state)
        try:
            sdi.set_knob(self.orch.state, node, KNOB, value)
        except CapacityError:
            assert world(self.orch.state) == before

    @rule()
    def run_one_tick(self):
        start = self.orch.clock_ms
        knobs = dict(self.orch.state.knobs)
        first = len(self.orch.trace.events)
        self.orch.run(duration_ms=TICK_MS, start_ms=start)
        assert self.orch.clock_ms == start + TICK_MS
        # Replaying the tick's applies from the knobs before it reproduces
        # every recorded delta and the live knobs, bitwise.
        for event in self.orch.trace.events[first:]:
            if event.kind == "apply":
                key = (event.target, event.parameter)
                assert bits(event.delta) == bits(event.value - knobs.get(key, 0.0))
                knobs[key] = float(event.value)
        assert knobs.keys() == self.orch.state.knobs.keys()
        for (node, parameter), value in knobs.items():
            assert bits(sdi.get_knob(self.orch.state, node, parameter)) == bits(value)

    @rule(data=st.data())
    def sandbox_dryrun(self, data):
        proposals = []
        for chain_id in data.draw(st.lists(st.sampled_from(CHAIN_IDS), unique=True)):
            node = data.draw(st.sampled_from(self.compute))
            value = data.draw(st.sampled_from([0.0, 400.0, 3000.0]))
            proposals.append(ActionProposal(node, KNOB, value, chain_id))
        before = self.snapshot()
        self.orch.sandbox_dryrun(proposals)
        assert self.snapshot() == before

    # -- invariants ----------------------------------------------------------

    @invariant()
    def exact_conservation(self):
        state = self.orch.state
        for node_id, node in state.nodes.items():
            residual = state.residual(node_id)
            used = state._used.get(node_id)
            for c in RESOURCE_COMPONENTS:
                held = sum(getattr(a.resources, c) for a in state.allocations.values()
                           if a.target == node_id)
                held += sum(math.ceil(v) for (n, p), v in state.knobs.items()
                            if n == node_id and knob_backing_component(p) == c)
                assert held + getattr(residual, c) == getattr(node.capacity, c)
                assert held == (getattr(used, c) if used is not None else 0)
        for key, link in state.links.items():
            held = sum(a.resources.bandwidth for a in state.allocations.values()
                       if a.target == key)
            assert held + state.residual(key).bandwidth == link.bandwidth
            assert held == state._used.get(key, sdi.ResourceVector()).bandwidth

    @invariant()
    def counters_match_a_filtered_count(self):
        n = incarnation_counts(self.orch)
        for iid in self.orch.instances:
            snap = self.orch.query(iid)
            assert snap.fcaps == (n[iid, "fault"], n[iid, "lifecycle"], n[iid, "tick"],
                                  n[iid, "apply"])
            assert snap.actions_rejected == n[iid, "reject"] + n[iid, "withhold"]

    @invariant()
    def capacity_invariant(self):
        self.orch.assert_capacity_invariant()

    @invariant()
    def clone_routes_like_a_fresh_state(self):
        """A clone, which shares the live route table, routes like a state
        built anew from the spec with the same link reservations."""
        clone = sdi.clone_state(self.orch.state)
        fresh = sdi.build_topology(self.spec)
        for alloc in self.orch.state.allocations.values():
            if alloc.target in fresh.links:
                sdi.reserve_bandwidth(fresh, *alloc.target, alloc.resources.bandwidth, alloc.owner)
        assert all(fresh.residual(key).bandwidth == self.orch.state.residual(key).bandwidth
                   for key in fresh.links)
        names = sorted(self.orch.state.nodes)
        for src in names:
            for dst in names:
                assert sdi.path_metrics(clone, src, dst) == sdi.path_metrics(fresh, src, dst)


LifecycleMachine.TestCase.settings = settings(max_examples=25, stateful_step_count=15,
                                              deadline=None)
TestLifecycle = LifecycleMachine.TestCase
