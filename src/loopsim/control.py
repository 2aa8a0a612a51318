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

from .errors import ConfigError, SimError
from . import sdi
from .chain import (ActionProposal, ChainValidationError, Embedding, LoopChain, LoopStep,
                    StepKind, _topological_order, embed, validate_chain)
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
class ActionLogEntry:
    proposal: ActionProposal
    applied: bool
    reason: str
    t_ms: int


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
    action_log: list[ActionLogEntry] = field(default_factory=list)
    fcaps: FcapsCounters = field(default_factory=FcapsCounters)


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


@dataclass
class TierScheduler:
    """Per-tier default tick periods. The hierarchy is fixed (access under
    edge under core); a child tier must tick at least as fast as its parent.
    """

    periods_ms: dict[Tier, int] = field(default_factory=lambda: {
        Tier.CORE: 1000, Tier.EDGE: 500, Tier.ACCESS: 100})

    def __post_init__(self):
        for tier, period in self.periods_ms.items():
            if period <= 0:
                raise ConfigError(f"tier {tier.value}: period must be > 0")
        order = [Tier.CORE, Tier.EDGE, Tier.ACCESS]
        for parent, child in zip(order, order[1:]):
            if parent in self.periods_ms and child in self.periods_ms:
                if self.periods_ms[child] > self.periods_ms[parent]:
                    raise ConfigError(
                        f"tier {child.value} must not tick slower than {parent.value}")

    def period_for(self, tier: Tier) -> int:
        return self.periods_ms[tier]


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
    window_ms: int

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
    return ConflictReport(pairs=tuple(pairs), window_ms=window_ms)


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

@dataclass(frozen=True)
class SandboxResult:
    oscillations: dict[tuple[str, str], int]  # knob -> sign reversals
    violation_count: int
    verdict: str  # stable | unstable
    threshold: int
    horizon_ticks: int

    @property
    def max_oscillation(self) -> int:
        return max(self.oscillations.values(), default=0)


def count_reversals(deltas) -> int:
    """Sign reversals in a sequence of knob deltas; zeros are skipped."""
    signs = [1 if d > 0 else -1 for d in deltas if d != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


# ---------------------------------------------------------------------------
# Event trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceEvent:
    t_ms: int
    tier: str
    chain: str
    kind: str  # tick | proposal | conflict | arbitration | sandbox | apply | reject | withhold
    summary: str
    verdict: str = ""


@dataclass
class EventTrace:
    events: list[TraceEvent] = field(default_factory=list)

    def add(self, *args, **kwargs) -> None:
        self.events.append(TraceEvent(*args, **kwargs))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("time_ms", "tier", "chain", "event", "summary", "verdict"))
            writer.writerows((e.t_ms, e.tier, e.chain, e.kind, e.summary, e.verdict)
                             for e in self.events)

    def applied_knob_deltas(self) -> dict[tuple[str, str], list[float]]:
        """Per-knob sequence of applied deltas, in trace order."""
        out: dict[tuple[str, str], list[float]] = {}
        for e in self.events:
            if e.kind == "apply" and e.verdict == "ok":
                target, parameter, delta = e.summary.split("|")[0:3]
                out.setdefault((target, parameter), []).append(float(delta))
        return out


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------

def _schedule(chain: LoopChain) -> tuple[tuple[LoopStep, tuple[str, ...]], ...]:
    """Steps in topological order (declaration order if the graph has no
    order), each paired with the names of its predecessors."""
    names = _topological_order(chain) or [s.name for s in chain.steps]
    return tuple((chain.step(n), tuple(chain.predecessors(n))) for n in names)


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

    def __init__(self, state: Topology, registry: FunctionRegistry | None = None,
                 scheduler: TierScheduler | None = None, *,
                 arbitration: bool = True, sandbox: bool = True,
                 sandbox_horizon_ticks: int = 10, sandbox_threshold: int = 2,
                 conflict_window_ms: int | None = None):
        if registry is None:
            from .steps import build_default_registry
            registry = build_default_registry()
        self.state = state
        self.registry = registry
        self.scheduler = scheduler or TierScheduler()
        self.arbitration_enabled = arbitration
        self.sandbox_enabled = sandbox
        self.sandbox_horizon_ticks = sandbox_horizon_ticks
        self.sandbox_threshold = sandbox_threshold
        self.conflict_window_ms = conflict_window_ms
        self.instances: dict[str, LoopInstance] = {}
        self.trace = EventTrace()
        self.clock_ms = 0

    # -- lifecycle ---------------------------------------------------------

    def instantiate(self, chain: LoopChain, services: dict | None = None) -> LoopInstance:
        if chain.id in self.instances and \
                self.instances[chain.id].state != InstanceState.TERMINATED:
            raise LifecycleError(f"chain {chain.id!r} already has a live instance")
        report = validate_chain(chain)
        if not report.ok:
            raise ChainValidationError(f"chain {chain.id}: " + "; ".join(report.errors))
        embedding = embed(chain, self.state, owner=chain.id)
        schedule = _schedule(chain)
        first_node = embedding.assignment[schedule[0][0].name] if schedule else None
        tier = self.state.nodes[first_node].tier if first_node else Tier.CORE
        period = chain.tick_period_ms or self.scheduler.period_for(tier)
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
            actions_applied=sum(1 for e in instance.action_log if e.applied),
            actions_rejected=sum(1 for e in instance.action_log if not e.applied),
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
        scaled = LoopChain(
            id=chain.id, steps=scaled_steps, edges=list(chain.edges),
            source_domain=chain.source_domain, destination_domain=chain.destination_domain,
            category=chain.category, priority=chain.priority,
            tick_period_ms=chain.tick_period_ms,
        )
        # Probe on a clone first so a failed scale leaves the live state
        # bitwise untouched; the live replay below cannot fail after that.
        probe = sdi.clone_state(self.state)
        for aid in instance.embedding.allocation_ids:
            sdi.release(probe, aid)
        try:
            embed(scaled, probe, owner=chain.id)
        except Exception:
            instance.state = InstanceState.RUNNING
            raise
        for aid in instance.embedding.allocation_ids:
            sdi.release(self.state, aid)
        embedding = embed(scaled, self.state, owner=chain.id)
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

    def apply_proposal(self, proposal: ActionProposal) -> tuple[bool, str]:
        """Apply one approved proposal to the live state. Returns (ok, note);
        capacity misses reject the proposal rather than violating safety."""
        try:
            previous = sdi.set_knob(self.state, proposal.target, proposal.parameter,
                                    proposal.value)
        except CapacityError as exc:
            return False, f"capacity:{exc.component}"
        except SimError as exc:
            return False, f"error:{exc}"
        return True, repr(proposal.value - previous)

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

    def sandbox_dryrun(self, proposals, horizon_ticks: int | None = None) -> SandboxResult:
        """Clone the world, apply the proposals, replay every running loop for
        the horizon and judge stability by knob sign reversals and capacity
        violations. The live state is untouched."""
        proposals = list(proposals)
        if horizon_ticks is None:
            horizon_ticks = self.sandbox_horizon_ticks
        if horizon_ticks < 1:
            raise ConfigError("sandbox horizon must be >= 1")
        # Horizon is counted in ticks of the fastest involved chain (all
        # running chains when the issuers are unknown).
        involved = {p.issued_by for p in proposals}
        periods = [i.tick_period_ms for i in self._running() if i.chain.id in involved]
        if not periods:
            periods = [i.tick_period_ms for i in self._running()]
        fastest = min(periods, default=1000)
        replica = self._clone_for_sandbox()
        deltas: dict[tuple[str, str], list[float]] = {}
        violations = 0
        for p in sorted(proposals, key=lambda p: (p.timestamp, p.issued_by, p.target, p.parameter)):
            ok, note = replica.apply_proposal(p)
            if ok:
                deltas.setdefault((p.target, p.parameter), []).append(float(note))
            else:
                violations += 1
        start = ((self.clock_ms // fastest) + 1) * fastest
        replica.run(duration_ms=horizon_ticks * fastest, start_ms=start)
        for knob, seq in replica.trace.applied_knob_deltas().items():
            deltas.setdefault(knob, []).extend(seq)
        violations += sum(1 for e in replica.trace.events
                          if e.kind == "reject" and e.verdict.startswith("capacity"))
        try:
            replica.assert_capacity_invariant()
        except SafetyViolationError:
            violations += 1
        oscillations = {knob: count_reversals(seq) for knob, seq in sorted(deltas.items())}
        max_osc = max(oscillations.values(), default=0)
        verdict = "stable" if (max_osc <= self.sandbox_threshold and violations == 0) else "unstable"
        return SandboxResult(oscillations=oscillations, violation_count=violations,
                             verdict=verdict, threshold=self.sandbox_threshold,
                             horizon_ticks=horizon_ticks)

    def _clone_for_sandbox(self) -> "Orchestrator":
        replica = Orchestrator(
            state=sdi.clone_state(self.state), registry=self.registry,
            scheduler=self.scheduler, arbitration=self.arbitration_enabled,
            sandbox=False,  # no nested dry-runs
            sandbox_horizon_ticks=self.sandbox_horizon_ticks,
            sandbox_threshold=self.sandbox_threshold,
            conflict_window_ms=self.conflict_window_ms,
        )
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
        window = self.conflict_window_ms
        if window is None:
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
                self._log_action(proposal, False, reason, t)
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
                    self._log_action(proposal, False, "withheld: sandbox unstable", t,
                                     kind="withhold")
                return
        for proposal in approved:
            ok, note = self.apply_proposal(proposal)
            self._log_action(proposal, ok, note, t)

    def _log_action(self, proposal: ActionProposal, applied: bool, note: str, t: int,
                    kind: str | None = None) -> None:
        instance = self.instances.get(proposal.issued_by)
        if instance is not None:
            instance.action_log.append(ActionLogEntry(proposal, applied, note, t))
            if applied:
                instance.fcaps.performance += 1
        tier = instance.tier.value if instance else "-"
        if kind is None:
            kind = "apply" if applied else "reject"
        verdict = "ok" if applied else note
        summary = f"{proposal.target}|{proposal.parameter}|{note if applied else repr(proposal.value)}"
        self.trace.add(t, tier, proposal.issued_by, kind, summary, verdict)

    def export_fcaps_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("instance,state,fault,config,accounting,performance\n")
            for iid in sorted(self.instances):
                i = self.instances[iid]
                f = i.fcaps
                fh.write(f"{iid},{i.state.value},{f.fault},{f.config},"
                         f"{f.accounting},{f.performance}\n")
