"""Orchestrator and cross-loop manager.

Owns the live topology state (single writer), drives instantiated loops on
their tick grids, pools the proposals each slot, detects conflicts, lets the
highest-priority chain win, dry-runs the survivors on a cloned world and
withholds anything the replay shows to be unstable. Every applied change is
capacity-checked; an event trace records the whole run deterministically.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

from .errors import ConfigError, SimError
from . import sdi
from .chain import (ActionProposal, Embedding, LoopChain, LoopStep, StepKind,
                    _topological_order, embed)
from .sdi import TIER_DEPTH, CapacityError, ResourceVector, Tier, Topology


class LifecycleError(SimError):
    """Illegal instance state transition or unknown instance."""


class TickAlignmentError(SimError):
    pass


class SafetyViolationError(SimError):
    """A node's applied reservations exceed its capacity (must never happen)."""


class InstanceState(Enum):
    INSTANTIATED = "instantiated"
    RUNNING = "running"
    SCALING = "scaling"
    TERMINATED = "terminated"


@dataclass
class FcapsCounters:
    """Element-management counters: fault (step failures), config (lifecycle
    operations), accounting (ticks executed), performance (proposals
    applied). No security events are modeled, so there is no security
    counter."""

    fault: int = 0
    config: int = 0
    accounting: int = 0
    performance: int = 0


@dataclass
class LoopInstance:
    id: str
    chain: LoopChain
    embedding: Embedding
    state: InstanceState
    tick_period_ms: int
    tier: Tier
    # The chain's steps in tick order, each with its predecessors' names
    # (see _schedule); recomputed whenever `chain` is replaced.
    schedule: tuple[tuple[LoopStep, tuple[str, ...]], ...]
    services: dict = field(default_factory=dict)
    knowledge: list = field(default_factory=list)
    fcaps: FcapsCounters = field(default_factory=FcapsCounters)
    actions_rejected: int = 0  # rejected or withheld; fcaps.performance counts applies


@dataclass(frozen=True)
class InstanceSnapshot:
    id: str
    chain_id: str
    state: InstanceState
    tick_period_ms: int
    tier: Tier
    priority: int
    assignment: dict[str, str]
    fcaps: FcapsCounters
    knowledge_entries: int
    actions_applied: int
    actions_rejected: int


# Default tick period per tier, for chains that set none: a child tier ticks
# at least as fast as its parent (access under edge under core).
TIER_PERIODS_MS = {Tier.CORE: 1000, Tier.EDGE: 500, Tier.ACCESS: 100}


# ---------------------------------------------------------------------------
# Conflicts
# ---------------------------------------------------------------------------

class ConflictKind(Enum):
    SAME_KNOB_OPPOSING = "same-knob-opposing"
    SHARED_RESOURCE_OVERSUBSCRIPTION = "shared-resource-oversubscription"


@dataclass(frozen=True)
class ConflictPair:
    a: ActionProposal
    b: ActionProposal
    kind: ConflictKind


@dataclass(frozen=True)
class ConflictReport:
    pairs: tuple[ConflictPair, ...]

    @property
    def empty(self) -> bool:
        return not self.pairs


def detect_conflicts(proposals, window_ms: int, state: Topology) -> ConflictReport:
    """Pairwise interference between proposals of different chains whose
    timestamps fall within the window:

    - same-knob-opposing: same (target, parameter) with opposite nonzero
      directions;
    - shared-resource-oversubscription: resource-backed proposals on the same
      node whose combined requested backing exceeds the node's capacity for
      that component.
    """
    proposals = list(proposals)
    pairs: list[ConflictPair] = []
    for i, a in enumerate(proposals):
        for b in proposals[i + 1:]:
            if a.issued_by == b.issued_by:
                continue
            if abs(a.timestamp - b.timestamp) > window_ms:
                continue
            if a.target == b.target and a.parameter == b.parameter:
                if a.direction * b.direction < 0:
                    pairs.append(ConflictPair(a, b, ConflictKind.SAME_KNOB_OPPOSING))
                    continue
            if a.target == b.target and a.target in state.nodes:
                comp_a = sdi.knob_backing_component(a.parameter)
                comp_b = sdi.knob_backing_component(b.parameter)
                if comp_a is not None and comp_a == comp_b:
                    capacity = getattr(state.nodes[a.target].capacity, comp_a)
                    if math.ceil(a.value) + math.ceil(b.value) > capacity:
                        pairs.append(ConflictPair(
                            a, b, ConflictKind.SHARED_RESOURCE_OVERSUBSCRIPTION))
    return ConflictReport(pairs=tuple(pairs))


@dataclass(frozen=True)
class ArbitrationOutcome:
    approved: tuple[ActionProposal, ...]
    rejected: tuple[tuple[ActionProposal, str], ...]  # proposal, reason
    decisions: tuple[str, ...]


def arbitrate(report: ConflictReport, proposals, priorities: dict[str, int]) -> ArbitrationOutcome:
    """Within each connected conflict set only the highest-priority chain's
    proposals survive (lower number wins; ties break to the lexicographically
    smaller chain id). Proposals outside any conflict pass through."""
    proposals = list(proposals)
    if report.empty:
        return ArbitrationOutcome(tuple(proposals), (), ())

    index = {id(p): i for i, p in enumerate(proposals)}
    parent = list(range(len(proposals)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    for pair in report.pairs:
        union(index[id(pair.a)], index[id(pair.b)])

    in_conflict = {index[id(p)] for pair in report.pairs for p in (pair.a, pair.b)}
    groups: dict[int, list[int]] = {}
    for i in in_conflict:
        groups.setdefault(find(i), []).append(i)

    approved: list[ActionProposal] = []
    rejected: list[tuple[ActionProposal, str]] = []
    decisions: list[str] = []
    drop: dict[int, str] = {}
    for root in sorted(groups):
        members = sorted(groups[root])
        chains = sorted({proposals[i].issued_by for i in members})
        ranked = sorted(chains, key=lambda c: (priorities.get(c, math.inf), c))
        winner = ranked[0]
        tie = len(ranked) > 1 and priorities.get(ranked[0]) == priorities.get(ranked[1])
        note = " (tie-break by chain id)" if tie else ""
        decisions.append(
            f"conflict set {{{', '.join(chains)}}}: winner {winner}"
            f" priority={priorities.get(winner)}{note}")
        for i in members:
            if proposals[i].issued_by != winner:
                drop[i] = f"conflict lost to {winner}{note}"
    for i, p in enumerate(proposals):
        if i in drop:
            rejected.append((p, drop[i]))
        else:
            approved.append(p)
    return ArbitrationOutcome(tuple(approved), tuple(rejected), tuple(decisions))


# ---------------------------------------------------------------------------
# Sandbox results
# ---------------------------------------------------------------------------

# A dry-run replays this many ticks of the fastest involved loop and calls
# the proposals unstable past this many reversals on any knob.
SANDBOX_HORIZON_TICKS = 10
SANDBOX_MAX_REVERSALS = 2


@dataclass(frozen=True)
class SandboxResult:
    oscillations: dict[tuple[str, str], int]  # knob -> reversals (see count_reversals)
    violation_count: int
    verdict: str  # stable | unstable

    @property
    def max_oscillation(self) -> int:
        return max(self.oscillations.values(), default=0)


def count_reversals(changes) -> int:
    """Reversals in one knob's sequence of applied (issuer, delta) changes:
    sign changes between consecutive nonzero deltas from *different* loops.
    Zeros are skipped, and one loop tracking its own target never counts;
    interference needs two loops."""
    signed = [(issuer, d > 0) for issuer, d in changes if d != 0]
    return sum(1 for (a, s), (b, t) in zip(signed, signed[1:]) if a != b and s != t)


# ---------------------------------------------------------------------------
# Event trace
# ---------------------------------------------------------------------------

def write_csv(path, header, rows) -> int:
    """The one CSV format of run artifacts: UTF-8, "\n" row ends, RFC 4180
    quoting, and floats (numpy's too) as their shortest round-trip text.
    Returns the number of data rows written."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for count, row in enumerate(rows, 1):
            writer.writerow(row)
    return count


class TraceEvent(NamedTuple):
    """One event of a run. Action events (apply, reject, withhold) carry the
    proposal in place of a summary; the other kinds carry free text."""

    t_ms: int
    tier: str
    chain: str
    kind: str
    summary: str = ""
    verdict: str = ""
    proposal: ActionProposal | None = None
    delta: float | None = None  # apply: new value minus previous value
    capacity: str | None = None  # reject: the component a capacity refusal ran short of


@dataclass
class EventTrace:
    events: list[TraceEvent] = field(default_factory=list)

    def add(self, *args, **kwargs) -> None:
        self.events.append(TraceEvent(*args, **kwargs))

    def to_csv(self, path) -> int:
        """One row per event; returns the row count. An action event's summary
        is rendered here as target|parameter|x: the applied delta of an
        apply, else the value."""
        def row(e: TraceEvent) -> tuple:
            summary = e.summary
            if e.proposal is not None:
                p = e.proposal
                x = p.value if e.delta is None else e.delta
                summary = f"{p.target}|{p.parameter}|{x!r}"
            return (e.t_ms, e.tier, e.chain, e.kind, summary, e.verdict)

        return write_csv(path, ("time_ms", "tier", "chain", "event", "summary", "verdict"),
                         map(row, self.events))

    def applied_knob_deltas(self) -> dict[tuple[str, str], list[tuple[str, float]]]:
        """Per-knob sequence of applied (issuer, delta) changes, in trace order."""
        out: dict[tuple[str, str], list[tuple[str, float]]] = {}
        for e in self.events:
            if e.kind == "apply":
                p = e.proposal
                out.setdefault((p.target, p.parameter), []).append((p.issued_by, e.delta))
        return out


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------

def _schedule(chain: LoopChain) -> tuple[tuple[LoopStep, tuple[str, ...]], ...]:
    """Steps of an embedded (so acyclic) chain in topological order, each
    paired with the names of its predecessors."""
    return tuple((chain.step(n), tuple(chain.predecessors(n)))
                 for n in _topological_order(chain))


@dataclass
class StepContext:
    """What a step function sees: the shared clock, read access to the live
    state, its own instance, predecessor outputs and bound services."""

    t_ms: int
    state: Topology
    instance: LoopInstance
    inputs: dict
    params: dict
    services: dict


class FunctionRegistry:
    def __init__(self):
        self._functions: dict[str, callable] = {}

    def register(self, name: str, fn) -> None:
        self._functions[name] = fn

    def resolve(self, name: str):
        try:
            return self._functions[name]
        except KeyError:
            raise ConfigError(f"no registered step function {name!r}") from None


class Orchestrator:
    """Sole mutator of the live topology state."""

    def __init__(self, state: Topology, registry: FunctionRegistry | None = None, *,
                 arbitration: bool = True, sandbox: bool = True):
        if registry is None:
            from .steps import build_default_registry
            registry = build_default_registry()
        self.state = state
        self.registry = registry
        self.arbitration_enabled = arbitration
        self.sandbox_enabled = sandbox
        self.instances: dict[str, LoopInstance] = {}
        self.trace = EventTrace()
        self.clock_ms = 0

    # -- lifecycle ---------------------------------------------------------

    def instantiate(self, chain: LoopChain, services: dict | None = None) -> LoopInstance:
        if chain.id in self.instances and \
                self.instances[chain.id].state != InstanceState.TERMINATED:
            raise LifecycleError(f"chain {chain.id!r} already has a live instance")
        embedding = embed(chain, self.state)
        schedule = _schedule(chain)
        tier = self.state.nodes[embedding.assignment[schedule[0][0].name]].tier
        period = chain.tick_period_ms or TIER_PERIODS_MS[tier]
        instance = LoopInstance(
            id=chain.id, chain=chain, embedding=embedding,
            state=InstanceState.INSTANTIATED, tick_period_ms=period, tier=tier,
            schedule=schedule, services=dict(services or {}),
        )
        instance.fcaps.config += 1
        instance.state = InstanceState.RUNNING
        self.instances[chain.id] = instance
        self.trace.add(self.clock_ms, tier.value, chain.id, "lifecycle",
                       f"instantiated on {sorted(embedding.assignment.items())}", "ok")
        return instance

    def _get(self, instance_id: str) -> LoopInstance:
        try:
            return self.instances[instance_id]
        except KeyError:
            raise LifecycleError(f"unknown instance {instance_id!r}") from None

    def update(self, instance_id: str, *, priority: int | None = None,
               tick_period_ms: int | None = None) -> LoopInstance:
        instance = self._get(instance_id)
        if instance.state == InstanceState.TERMINATED:
            raise LifecycleError(f"instance {instance_id!r} is terminated")
        if priority is not None:
            instance.chain.priority = priority
        if tick_period_ms is not None:
            if tick_period_ms <= 0:
                raise ConfigError("tick_period_ms must be > 0")
            instance.tick_period_ms = tick_period_ms
        instance.fcaps.config += 1
        return instance

    def query(self, instance_id: str) -> InstanceSnapshot:
        instance = self._get(instance_id)
        return InstanceSnapshot(
            id=instance.id, chain_id=instance.chain.id, state=instance.state,
            tick_period_ms=instance.tick_period_ms, tier=instance.tier,
            priority=instance.chain.priority,
            assignment=dict(instance.embedding.assignment),
            fcaps=replace(instance.fcaps),
            knowledge_entries=len(instance.knowledge),
            actions_applied=instance.fcaps.performance,
            actions_rejected=instance.actions_rejected,
        )

    def scale(self, instance_id: str, factor: float) -> LoopInstance:
        """Multiply the Analyze/Execute reservations by factor, re-embedding
        the chain when the current nodes cannot hold the new demand."""
        instance = self._get(instance_id)
        if instance.state != InstanceState.RUNNING:
            raise LifecycleError(
                f"instance {instance_id!r} must be Running to scale, is {instance.state.value}")
        if factor <= 0:
            raise ConfigError("scale factor must be > 0")
        instance.state = InstanceState.SCALING
        chain = instance.chain
        scaled_steps = []
        for step in chain.steps:
            if step.kind in (StepKind.ANALYZE, StepKind.EXECUTE):
                qos = replace(step.qos, cpu=int(math.ceil(step.qos.cpu * factor)),
                              storage=int(math.ceil(step.qos.storage * factor)))
                scaled_steps.append(replace(step, qos=qos))
            else:
                scaled_steps.append(step)
        scaled = replace(chain, steps=scaled_steps, edges=list(chain.edges))
        # Probe on a clone first so a failed scale leaves the live state
        # bitwise untouched; the live replay below cannot fail after that.
        probe = sdi.clone_state(self.state)
        for aid in instance.embedding.allocation_ids:
            sdi.release(probe, aid)
        try:
            embed(scaled, probe)
        except Exception:
            instance.state = InstanceState.RUNNING
            raise
        for aid in instance.embedding.allocation_ids:
            sdi.release(self.state, aid)
        embedding = embed(scaled, self.state)
        instance.chain = scaled
        instance.schedule = _schedule(scaled)
        instance.embedding = embedding
        instance.state = InstanceState.RUNNING
        instance.fcaps.config += 1
        self.trace.add(self.clock_ms, instance.tier.value, chain.id, "lifecycle",
                       f"scaled by {factor}", "ok")
        return instance

    def terminate(self, instance_id: str) -> None:
        instance = self._get(instance_id)
        if instance.state == InstanceState.TERMINATED:
            raise LifecycleError(f"instance {instance_id!r} already terminated")
        for aid in instance.embedding.allocation_ids:
            sdi.release(self.state, aid)
        instance.state = InstanceState.TERMINATED
        instance.fcaps.config += 1
        self.trace.add(self.clock_ms, instance.tier.value, instance.id, "lifecycle",
                       "terminated", "ok")

    # -- one loop turn -------------------------------------------------------

    def tick(self, instance_id: str, t_ms: int) -> list[ActionProposal]:
        """Run Monitor -> Analyze -> Plan (skipping Execute: applying actions
        is the orchestrator's decision) and feed the Knowledge step. A step
        fault aborts the tick, bumps the fault counter, traces the exception
        type and message, and yields no proposals."""
        instance = self._get(instance_id)
        if instance.state != InstanceState.RUNNING:
            raise LifecycleError(
                f"instance {instance_id!r} must be Running to tick, is {instance.state.value}")
        if t_ms % instance.tick_period_ms != 0:
            raise TickAlignmentError(
                f"t={t_ms}ms is not aligned to the {instance.tick_period_ms}ms tick period")
        chain = instance.chain
        outputs: dict[str, object] = {}
        proposals: list[ActionProposal] = []
        instance.fcaps.accounting += 1
        for step, predecessors in instance.schedule:
            if step.kind == StepKind.EXECUTE:
                continue
            fn = self.registry.resolve(step.function_ref)
            ctx = StepContext(
                t_ms=t_ms, state=self.state, instance=instance,
                inputs={p: outputs.get(p) for p in predecessors},
                params=step.params, services=instance.services,
            )
            try:
                result = fn(ctx)
            except Exception as exc:
                instance.fcaps.fault += 1
                self.trace.add(t_ms, instance.tier.value, chain.id, "fault",
                               f"step {step.name} failed: {type(exc).__name__}: {exc}",
                               "fault")
                return []
            outputs[step.name] = result
            if step.kind == StepKind.PLAN and result:
                for p in result:
                    if p.issued_by == "" or p.timestamp != t_ms:
                        p = replace(p, issued_by=p.issued_by or chain.id, timestamp=t_ms)
                    proposals.append(p)
        return proposals

    # -- conflict pipeline ---------------------------------------------------

    def _priorities(self) -> dict[str, int]:
        return {i.chain.id: i.chain.priority for i in self.instances.values()}

    def apply_proposal(self, proposal: ActionProposal) -> tuple[bool, float | None, str, str | None]:
        """Apply one approved proposal to the live state. Returns (ok, delta,
        verdict, capacity); a capacity miss rejects the proposal rather than
        violating safety and names the component that ran short."""
        try:
            previous = sdi.set_knob(self.state, proposal.target, proposal.parameter,
                                    proposal.value)
        except CapacityError as exc:
            return False, None, f"capacity:{exc.component}", exc.component
        except SimError as exc:
            return False, None, f"error:{exc}", None
        return True, proposal.value - previous, "ok", None

    def _running(self) -> list[LoopInstance]:
        return [i for i in self.instances.values() if i.state == InstanceState.RUNNING]

    def assert_capacity_invariant(self) -> None:
        """Recompute reservations from the allocation table and fail loudly if
        any node or link is oversubscribed."""
        used_node: dict[str, list[int]] = {}  # [cpu, mem, storage, bandwidth]
        used_link: dict[tuple[str, str], int] = {}
        for alloc in self.state.allocations.values():
            r = alloc.resources
            if alloc.node is not None:
                used = used_node.get(alloc.node)
                if used is None:
                    used_node[alloc.node] = [r.cpu, r.mem, r.storage, r.bandwidth]
                else:
                    used[0] += r.cpu
                    used[1] += r.mem
                    used[2] += r.storage
                    used[3] += r.bandwidth
            else:
                used_link[alloc.link] = used_link.get(alloc.link, 0) + r.bandwidth
        for node_id, (cpu, mem, storage, bandwidth) in used_node.items():
            node = self.state.nodes[node_id]
            if (cpu > node.cpu_capacity or mem > node.mem_capacity
                    or storage > node.storage_capacity or bandwidth > 0):
                used = ResourceVector(cpu, mem, storage, bandwidth)
                raise SafetyViolationError(f"node {node_id} oversubscribed: {used}")
        for key, used in used_link.items():
            if used > self.state.links[key].bandwidth:
                raise SafetyViolationError(f"link {key} oversubscribed: {used}")

    def sandbox_dryrun(self, proposals) -> SandboxResult:
        """Clone the world, apply the proposals, replay every running loop for
        the horizon and judge stability by knob reversals (count_reversals
        over the seeded and replayed changes) and capacity violations. The
        live state is untouched."""
        proposals = list(proposals)
        # Horizon is counted in ticks of the fastest involved chain (all
        # running chains when the issuers are unknown).
        involved = {p.issued_by for p in proposals}
        periods = [i.tick_period_ms for i in self._running() if i.chain.id in involved]
        if not periods:
            periods = [i.tick_period_ms for i in self._running()]
        fastest = min(periods, default=1000)
        replica = self._clone_for_sandbox()
        changes: dict[tuple[str, str], list[tuple[str, float]]] = {}
        violations = 0
        for p in sorted(proposals, key=lambda p: (p.timestamp, p.issued_by, p.target, p.parameter)):
            ok, delta, _, _ = replica.apply_proposal(p)
            if ok:
                changes.setdefault((p.target, p.parameter), []).append((p.issued_by, delta))
            else:
                violations += 1
        start = ((self.clock_ms // fastest) + 1) * fastest
        replica.run(duration_ms=SANDBOX_HORIZON_TICKS * fastest, start_ms=start)
        for knob, seq in replica.trace.applied_knob_deltas().items():
            changes.setdefault(knob, []).extend(seq)
        violations += sum(1 for e in replica.trace.events if e.capacity is not None)
        try:
            replica.assert_capacity_invariant()
        except SafetyViolationError:
            violations += 1
        oscillations = {knob: count_reversals(seq) for knob, seq in sorted(changes.items())}
        max_osc = max(oscillations.values(), default=0)
        verdict = "stable" if (max_osc <= SANDBOX_MAX_REVERSALS and violations == 0) else "unstable"
        return SandboxResult(oscillations=oscillations, violation_count=violations,
                             verdict=verdict)

    def _clone_for_sandbox(self) -> "Orchestrator":
        replica = Orchestrator(sdi.clone_state(self.state), self.registry,
                               arbitration=self.arbitration_enabled,
                               sandbox=False)  # no nested dry-runs
        replica.clock_ms = self.clock_ms
        # The replica only ticks, arbitrates and applies knobs: it never
        # updates, scales or terminates an instance, and steps only read their
        # services, so chain, embedding and services are shared.
        for iid, instance in self.instances.items():
            clone = LoopInstance(
                id=instance.id, chain=instance.chain, embedding=instance.embedding,
                state=instance.state, tick_period_ms=instance.tick_period_ms,
                tier=instance.tier, schedule=instance.schedule, services=instance.services,
                knowledge=list(instance.knowledge), fcaps=replace(instance.fcaps),
            )
            replica.instances[iid] = clone
        return replica

    # -- the global loop -----------------------------------------------------

    def run(self, duration_ms: int, start_ms: int = 0) -> EventTrace:
        """Drive all running loops over [start, start + duration). Events are
        globally ordered by (time, tier depth: deeper first, chain id); each
        slot runs tick -> detect -> arbitrate -> dry-run gate -> apply, then
        asserts the capacity invariant."""
        if duration_ms <= 0:
            raise ConfigError("duration must be > 0")
        slots: dict[int, list[LoopInstance]] = {}
        for instance in self._running():
            period = instance.tick_period_ms
            first = ((start_ms + period - 1) // period) * period
            for t in range(first, start_ms + duration_ms, period):
                slots.setdefault(t, []).append(instance)
        window = min((i.tick_period_ms for i in self._running()), default=1000)
        for t in sorted(slots):
            due = sorted(slots[t], key=lambda i: (-TIER_DEPTH[i.tier], i.chain.id))
            pool: list[ActionProposal] = []
            for instance in due:
                if instance.state != InstanceState.RUNNING:
                    continue
                proposals = self.tick(instance.id, t)
                self.trace.add(t, instance.tier.value, instance.chain.id, "tick",
                               f"{len(proposals)} proposal(s)", "ok")
                pool.extend(proposals)
            self.clock_ms = t
            if pool:
                self._process_slot(t, pool, window)
            self.assert_capacity_invariant()
        self.clock_ms = start_ms + duration_ms
        return self.trace

    def _process_slot(self, t: int, pool: list[ActionProposal], window: int) -> None:
        report = detect_conflicts(pool, window, self.state)
        for pair in report.pairs:
            self.trace.add(t, "-", f"{pair.a.issued_by}|{pair.b.issued_by}", "conflict",
                           f"{pair.kind.value} on {pair.a.target}:{pair.a.parameter}", "")
        if self.arbitration_enabled:
            outcome = arbitrate(report, pool, self._priorities())
            for decision in outcome.decisions:
                self.trace.add(t, "-", "-", "arbitration", decision, "")
            for proposal, reason in outcome.rejected:
                self._log_action(proposal, t, "reject", reason)
            approved = list(outcome.approved)
        else:
            approved = pool
        if approved and self.sandbox_enabled:
            result = self.sandbox_dryrun(approved)
            self.trace.add(t, "-", "-", "sandbox",
                           f"max_reversals={result.max_oscillation}"
                           f" violations={result.violation_count}", result.verdict)
            if result.verdict == "unstable":
                for proposal in approved:
                    self._log_action(proposal, t, "withhold", "withheld: sandbox unstable")
                return
        for proposal in approved:
            ok, delta, verdict, capacity = self.apply_proposal(proposal)
            self._log_action(proposal, t, "apply" if ok else "reject", verdict, delta, capacity)

    def _log_action(self, proposal: ActionProposal, t: int, kind: str, verdict: str,
                    delta: float | None = None, capacity: str | None = None) -> None:
        instance = self.instances.get(proposal.issued_by)
        tier = "-"
        if instance is not None:
            tier = instance.tier.value
            if kind == "apply":
                instance.fcaps.performance += 1
            else:
                instance.actions_rejected += 1
        self.trace.add(t, tier, proposal.issued_by, kind, "", verdict, proposal, delta, capacity)

    def export_fcaps_csv(self, path) -> int:
        """One row of FCAPS counters per instance, by id; returns the row count."""
        return write_csv(path, ("instance", "state", "fault", "config", "accounting",
                                "performance"),
                         ((iid, i.state.value, i.fcaps.fault, i.fcaps.config,
                           i.fcaps.accounting, i.fcaps.performance)
                          for iid, i in sorted(self.instances.items())))
