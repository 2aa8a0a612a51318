"""Orchestrator and cross-loop manager.

Owns the live topology state (single writer), drives instantiated loops on
their tick grids, pools the proposals each slot, detects conflicts, lets the
highest-priority chain win, dry-runs the survivors and withholds anything
the replay shows to be unstable. The dry-run is the live pipeline on a
clone: the replica applies the survivors through the one apply path, runs
the loops for the horizon, and its own trace gives the verdict. With
arbitration on, the chain whose apply last set a knob holds it against
worse-ranked chains until it is terminated. Every applied change is
capacity-checked; an event trace records the whole run deterministically.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter, defaultdict, deque, namedtuple
from enum import Enum
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

from .errors import ConfigError, SimError
from . import sdi
from .chain import (ActionProposal, Embedding, LoopChain, LoopStep, QosRequirements,
                    StepKind, _topological_order, embed, tick_period_error)
from .sdi import TIER_DEPTH, CapacityError, ResourceVector, Tier, Topology


class LifecycleError(SimError):
    """Illegal instance state transition or unknown instance."""


class TickAlignmentError(SimError):
    pass


class SafetyViolationError(SimError):
    """A node's or link's applied reservations exceed its capacity (must never happen)."""


class InstanceState(Enum):
    RUNNING = "running"
    TERMINATED = "terminated"


# Looking a member up on an Enum class goes through EnumType.__getattr__'s
# slow attribute path, so the per-tick checks compare against this.
_RUNNING = InstanceState.RUNNING


class FcapsCounters(NamedTuple):
    """Element-management counters, read from an instance's trace events:
    fault (`fault`: step failures), config (`lifecycle`: lifecycle
    operations), accounting (`tick`: ticks executed) and performance
    (`apply`: proposals applied). No security events are modeled, so there
    is no security counter."""

    fault: int
    config: int
    accounting: int
    performance: int


# Records each loop's knowledge store holds, newest last: past this many the
# oldest is dropped, so a loop that runs without end keeps a fixed store and a
# dry-run copies at most this many a loop. 64 holds every record the shipped
# compress (60 ticks) and adaptive-vnf (9 ticks, plus a dry-run's 10) loops
# keep, so their memory does not change; the compress runner reads its codes
# tick by tick, so none of its outputs depends on the window.
KNOWLEDGE_WINDOW = 64


class LoopInstance:
    def __init__(self, id: str, chain: LoopChain, embedding: Embedding, state: InstanceState,
                 tick_period_ms: int, tier: Tier, schedule: tuple[ScheduledStep, ...],
                 first_event: int, services: dict | None = None, knowledge: deque | None = None):
        self.id = id
        self.chain = chain
        self.embedding = embedding
        self.state = state
        self.tick_period_ms = tick_period_ms
        self.tier = tier
        self.tier_label = tier.value  # as trace events carry it, read once
        # What a tick runs, with the step functions bound at instantiation
        # (see _schedule).
        self.schedule = schedule
        # Trace index of this incarnation's `instantiated` event: its counts
        # are read from the trace from there on.
        self.first_event = first_event
        self.services = {} if services is None else services
        # Records held, at most KNOWLEDGE_WINDOW, oldest first (see
        # steps.knowledge_store).
        self.knowledge = deque(maxlen=KNOWLEDGE_WINDOW) if knowledge is None else knowledge
        # One context per scheduled step, bound to the ticking orchestrator
        # on the instance's first tick there (see Orchestrator.tick); a new
        # instance starts unbound.
        self.contexts: tuple[StepContext, ...] = ()


class InstanceSnapshot(NamedTuple):
    id: str
    chain_id: str
    state: InstanceState
    tick_period_ms: int
    tier: Tier
    priority: int
    assignment: dict[str, str]
    fcaps: FcapsCounters
    knowledge_entries: int  # records held, at most KNOWLEDGE_WINDOW
    actions_rejected: int  # rejected or withheld; fcaps.performance counts applies


# Default tick period per tier, for chains that set none: a child tier ticks
# at least as fast as its parent (access under edge under core).
TIER_PERIODS_MS = {Tier.CORE: 1000, Tier.EDGE: 500, Tier.ACCESS: 100}


# ---------------------------------------------------------------------------
# Conflicts
# ---------------------------------------------------------------------------

class ConflictKind(Enum):
    SAME_KNOB_OPPOSING = "same-knob-opposing"
    SHARED_RESOURCE_OVERSUBSCRIPTION = "shared-resource-oversubscription"


class ConflictPair(NamedTuple):
    a: ActionProposal
    b: ActionProposal
    kind: ConflictKind


class ConflictReport(NamedTuple):
    pairs: tuple[ConflictPair, ...]


def detect_conflicts(proposals, state: Topology) -> ConflictReport:
    """Pairwise interference between proposals of different chains:

    - same-knob-opposing: same (target, parameter), one value above the
      knob's current value and the other below it. The current value is the
      one both issuers saw: nothing is applied between a slot's ticks and
      this check, so this is the one place a proposal's sign is read;
    - shared-resource-oversubscription: resource-backed proposals on the same
      node whose combined requested backing exceeds the node's capacity for
      that component.

    Both kinds need one target, so each proposal is compared only with the
    later proposals on its target; pairs come in the order of the full
    pairwise loop over the pool.
    """
    proposals = list(proposals)
    later: defaultdict[str, deque[ActionProposal]] = defaultdict(deque)
    for p in proposals:
        later[p.target].append(p)
    pairs: list[ConflictPair] = []
    for a in proposals:
        same_target = later[a.target]
        same_target.popleft()  # a itself: each target's queue is in pool order
        for b in same_target:
            if a.issued_by == b.issued_by:
                continue
            if a.parameter == b.parameter:
                current = sdi.get_knob(state, a.target, a.parameter)
                if (a.value - current) * (b.value - current) < 0:
                    pairs.append(ConflictPair(a, b, ConflictKind.SAME_KNOB_OPPOSING))
                    continue
            if a.target in state.nodes:
                comp_a = sdi.knob_backing_component(a.parameter)
                comp_b = sdi.knob_backing_component(b.parameter)
                if comp_a is not None and comp_a == comp_b:
                    capacity = getattr(state.nodes[a.target].capacity, comp_a)
                    if math.ceil(a.value) + math.ceil(b.value) > capacity:
                        pairs.append(ConflictPair(
                            a, b, ConflictKind.SHARED_RESOURCE_OVERSUBSCRIPTION))
    return ConflictReport(pairs=tuple(pairs))


class Rejection(NamedTuple):
    proposal: ActionProposal
    verdict: str  # "conflict-lost" to the winner or "held" by the holder
    loop: str  # the winner or the holder


class ArbitrationOutcome(NamedTuple):
    approved: tuple[ActionProposal, ...]
    rejected: tuple[Rejection, ...]
    decisions: tuple[TraceEvent, ...]  # one arbitration event per conflict set


def arbitrate(report: ConflictReport, proposals, priorities: dict[str, int],
              holders: dict[tuple[str, str], str] | None = None,
              t_ms: int = 0) -> ArbitrationOutcome:
    """Within each connected conflict set only the highest-priority chain's
    proposals survive (lower number wins; ties break to the lexicographically
    smaller chain id). A proposal on a knob that holders gives to a
    better-ranked other chain is rejected. Other proposals pass through.
    Each set's decision is returned as its arbitration event at t_ms."""
    proposals = list(proposals)
    holders = holders or {}

    def rank(chain_id: str):
        return (priorities.get(chain_id, math.inf), chain_id)

    drop: dict[int, Rejection] = {}
    for i, p in enumerate(proposals):
        holder = holders.get((p.target, p.parameter))
        if holder is not None and rank(holder) < rank(p.issued_by):
            drop[i] = Rejection(p, "held", holder)

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

    decisions: list[TraceEvent] = []
    for root in sorted(groups):
        members = sorted(groups[root])
        chains = tuple(sorted({proposals[i].issued_by for i in members}))
        ranked = sorted(chains, key=rank)
        winner = ranked[0]
        tie = len(ranked) > 1 and priorities.get(ranked[0]) == priorities.get(ranked[1])
        decisions.append(TraceEvent(t_ms, "-", winner, "arbitration",
                                    value=priorities.get(winner), loops=chains,
                                    verdict="tie-break" if tie else "priority"))
        for i in members:
            if proposals[i].issued_by != winner:
                drop.setdefault(i, Rejection(proposals[i], "conflict-lost", winner))
    approved = tuple(p for i, p in enumerate(proposals) if i not in drop)
    rejected = tuple(drop[i] for i in sorted(drop))
    return ArbitrationOutcome(approved, rejected, tuple(decisions))


# ---------------------------------------------------------------------------
# Sandbox results
# ---------------------------------------------------------------------------

# A dry-run replays this many ticks of the fastest involved loop and calls
# the proposals unstable past this many reversals on any knob.
SANDBOX_HORIZON_TICKS = 10
SANDBOX_MAX_REVERSALS = 2


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

def _record(values) -> str:
    """values as one CSV record without its row end: a row's text, or a cell
    of several values, which next(csv.reader([cell]), []) reads back."""
    rendered = io.StringIO()
    csv.writer(rendered).writerow(values)  # its "\r\n" end quotes \r and \n
    return rendered.getvalue()[:-2]


def write_csv(path, header, rows) -> int:
    """The one CSV format of run artifacts: UTF-8, "\n" row ends, RFC 4180
    quoting (a cell holding \r or \n is quoted), and floats (numpy's too) as
    their shortest round-trip text. Returns the number of data rows written."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_record(header) + "\n")
        for count, row in enumerate(rows, 1):
            fh.write(_record(row) + "\n")
    return count


class TraceEvent(NamedTuple):
    """One event of a run; its fields are the trace CSV's columns (t_ms is
    time_ms, kind is event). Each kind fills its own (see README's event
    table); value and delta have one type per kind and verdict."""

    t_ms: int
    tier: str
    chain: str
    kind: str
    verdict: str = ""
    value: float | None = None  # action: proposed value; tick: proposal count
    delta: float | None = None  # apply: new value minus previous value
    target: str = ""
    parameter: str = ""
    loops: tuple[str, ...] = ()
    detail: str = ""  # fault or error: the exception text
    step: str = ""  # fault: the step that failed
    placement: tuple[str, ...] = ()  # instantiated: step, node, step, node, ...
    period_ms: int | None = None  # updated: the tick period
    max_reversals: int | None = None  # sandbox: the most any knob had (see count_reversals)
    violation_count: int | None = None  # sandbox: the replay's capacity refusals


_Body = namedtuple("_Body", TraceEvent._fields[1:],
                   defaults=tuple(TraceEvent._field_defaults.values()))


def _event(t_ms: int, body: _Body) -> TraceEvent:
    return TraceEvent(t_ms, *body)


class EventTrace(Sequence):
    """A run's events in order, a read-only Sequence of TraceEvents built as they
    are read from two lists: `times` (each event's t_ms) and `bodies` (its other
    fields), equal bodies being one shared tuple, so an event costs two list slots."""

    def __init__(self, events=()):
        self.times: list[int] = []
        self.bodies: list[_Body] = []
        self._interned: dict[tuple, _Body] = {}
        for event in events:
            self.append(event)

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i):
        times, bodies = self.times[i], self.bodies[i]
        return list(map(_event, times, bodies)) if isinstance(i, slice) else _event(times, bodies)

    def __iter__(self):
        return map(_event, self.times, self.bodies)

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented

    @property
    def events(self) -> EventTrace:
        """The trace itself, for readers that name its events."""
        return self

    def append(self, event: TraceEvent) -> None:
        self.add(*event)

    def add(self, t_ms: int, *fields, **named) -> None:
        """Trace the event at t_ms with TraceEvent's other fields, by position or
        name. Equal bodies are stored once. A value or delta is keyed by its
        type too, since 1 and 1.0 hash alike but print apart, and a zero by
        its text, which tells 0.0 from -0.0."""
        body = _Body(*fields, **named)
        value, delta = body.value, body.delta
        key = ((body, repr(value), repr(delta)) if value == 0 or delta == 0
               else (body, type(value), type(delta)))
        self.times.append(t_ms)
        self.bodies.append(self._interned.setdefault(key, body))

    def to_csv(self, path) -> int:
        """One row per event, in write_csv's format; returns the row count.
        Each distinct body (a tuple field as one nested record) is rendered once."""
        header = ("time_ms", "tier", "chain", "event", *TraceEvent._fields[4:])
        tails = {id(b): _record([_record(f) if type(f) is tuple else f for f in b]) + "\n"
                 for b in self._interned.values()}
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_record(header) + "\n")
            fh.writelines(f"{t_ms},{tails[id(b)]}" for t_ms, b in zip(self.times, self.bodies))
        return len(self.times)

    def applied_knob_deltas(self) -> dict[tuple[str, str], list[tuple[str, float]]]:
        """Per-knob sequence of applied (issuer, delta) changes, in trace order."""
        out: dict[tuple[str, str], list[tuple[str, float]]] = {}
        for b in self.bodies:
            if b.kind == "apply":
                out.setdefault((b.target, b.parameter), []).append((b.chain, b.delta))
        return out


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------

class ScheduledStep(NamedTuple):
    step: LoopStep
    predecessors: tuple[str, ...]
    fn: Callable[["StepContext"], object]
    is_plan: bool  # its output is a list of proposals


def _schedule(chain: LoopChain, order: list[str] | None,
              registry: "FunctionRegistry") -> tuple[ScheduledStep, ...]:
    """The steps a tick runs, in the chain's topological order: every step
    but the execute steps (applying actions is the orchestrator's decision),
    each with its predecessors' names and its function resolved from the
    registry now. An unregistered function raises ConfigError. A chain whose
    edges give no order (order None) gets an empty schedule; embed refuses
    such a chain."""
    steps = (chain.step(n) for n in order or ())
    return tuple(ScheduledStep(step, tuple(chain.predecessors(step.name)),
                               registry.resolve(step.function_ref),
                               step.kind == StepKind.PLAN)
                 for step in steps if step.kind != StepKind.EXECUTE)


class StepContext:
    """What a step function sees: the shared clock, read access to the live
    state, its own instance, predecessor outputs and bound services.

    A context belongs to one step of one loop in one orchestrator and is
    refreshed every tick: t_ms is reset and inputs is a fresh dict. A step
    must not keep its context past the call, nor mutate ctx.inputs."""

    __slots__ = ("t_ms", "state", "instance", "inputs", "params", "services")

    def __init__(self, t_ms: int, state: Topology, instance: LoopInstance, inputs: dict,
                 params: dict, services: dict):
        self.t_ms = t_ms
        self.state = state
        self.instance = instance
        self.inputs = inputs
        self.params = params
        self.services = services


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


def _tick_order(instance: LoopInstance) -> tuple[int, str]:
    """Within a slot, deeper tiers tick first, then by chain id."""
    return (-TIER_DEPTH[instance.tier], instance.id)


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
        # By id, in tick order (see _tick_order): instantiate keeps it sorted.
        self.instances: dict[str, LoopInstance] = {}
        self.trace = EventTrace()
        self.clock_ms = 0
        # With arbitration on, the chain whose proposal last set each knob.
        self.holders: dict[tuple[str, str], str] = {}

    # -- lifecycle ---------------------------------------------------------

    def instantiate(self, chain: LoopChain, services: dict | None = None) -> LoopInstance:
        if chain.id in self.instances and \
                self.instances[chain.id].state != InstanceState.TERMINATED:
            raise LifecycleError(f"chain {chain.id!r} already has a live instance")
        order = _topological_order(chain)
        schedule = _schedule(chain, order, self.registry)  # before anything is booked
        embedding = embed(chain, self.state)
        tier = self.state.nodes[embedding.assignment[order[0]]].tier
        period = chain.tick_period_ms or TIER_PERIODS_MS[tier]
        instance = LoopInstance(
            id=chain.id, chain=chain, embedding=embedding,
            state=InstanceState.RUNNING, tick_period_ms=period, tier=tier,
            schedule=schedule, first_event=len(self.trace.times),
            services=dict(services or {}),
        )
        self.instances[chain.id] = instance
        # An instance's tier and id never change, so only a new one moves it.
        self.instances = {i.id: i for i in sorted(self.instances.values(), key=_tick_order)}
        placement = tuple(x for pair in sorted(embedding.assignment.items()) for x in pair)
        self.trace.add(self.clock_ms, instance.tier_label, chain.id, "lifecycle",
                       verdict="instantiated", placement=placement)
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
            if error := tick_period_error(tick_period_ms):
                raise ConfigError(error)
            instance.tick_period_ms = tick_period_ms
        self.trace.add(self.clock_ms, instance.tier_label, instance.id, "lifecycle",
                       value=instance.chain.priority, verdict="updated",
                       period_ms=instance.tick_period_ms)
        return instance

    def query(self, instance_id: str) -> InstanceSnapshot:
        instance = self._get(instance_id)
        fcaps, rejected = self._counts()[instance.id]
        return InstanceSnapshot(
            id=instance.id, chain_id=instance.chain.id, state=instance.state,
            tick_period_ms=instance.tick_period_ms, tier=instance.tier,
            priority=instance.chain.priority,
            assignment=dict(instance.embedding.assignment),
            fcaps=fcaps, knowledge_entries=len(instance.knowledge),
            actions_rejected=rejected,
        )

    def _counts(self) -> dict[str, tuple[FcapsCounters, int]]:
        """Per instance, its FCAPS counters and its rejected-or-withheld
        count, read from its incarnation's trace events: every event is
        counted by (chain, kind), then the events before each instance's
        first event (its earlier incarnations) are taken off again."""
        first = {iid: i.first_event for iid, i in self.instances.items()}
        bodies = self.trace.bodies
        n = Counter(zip(map(attrgetter("chain"), bodies), map(attrgetter("kind"), bodies)))
        n.subtract((b.chain, b.kind)
                   for k, b in enumerate(bodies[:max(first.values(), default=0)])
                   if k < first.get(b.chain, 0))
        return {iid: (FcapsCounters(n[iid, "fault"], n[iid, "lifecycle"], n[iid, "tick"],
                                    n[iid, "apply"]), n[iid, "reject"] + n[iid, "withhold"])
                for iid in first}

    def scale(self, instance_id: str, factor: float) -> LoopInstance:
        """Multiply the Analyze/Execute reservations by factor, re-embedding
        the chain when the current nodes cannot hold the new demand."""
        instance = self._get(instance_id)
        if instance.state is not _RUNNING:
            raise LifecycleError(
                f"instance {instance_id!r} must be Running to scale, is {instance.state.value}")
        if factor <= 0:
            raise ConfigError("scale factor must be > 0")
        chain = instance.chain
        scaled_steps = []
        for step in chain.steps:
            if step.kind in (StepKind.ANALYZE, StepKind.EXECUTE):
                # Through the constructor, which checks the new QoS; _replace
                # would skip that.
                qos = QosRequirements(*step.qos._replace(
                    cpu=int(math.ceil(step.qos.cpu * factor)),
                    storage=int(math.ceil(step.qos.storage * factor))))
                scaled_steps.append(step._replace(qos=qos))
            else:
                scaled_steps.append(step)
        scaled = LoopChain(chain.id, scaled_steps, list(chain.edges), chain.source_domain,
                           chain.destination_domain, chain.priority, chain.tick_period_ms)
        # Probe on a clone first so a failed scale leaves the live state
        # bitwise untouched; the live replay below cannot fail after that.
        probe = sdi.clone_state(self.state)
        for aid in instance.embedding.allocation_ids:
            sdi.release(probe, aid)
        embed(scaled, probe)
        for aid in instance.embedding.allocation_ids:
            sdi.release(self.state, aid)
        embedding = embed(scaled, self.state)
        # Only QoS changed, which a tick does not read: the instance keeps its
        # schedule and so the step functions bound when it was instantiated.
        instance.chain = scaled
        instance.embedding = embedding
        self.trace.add(self.clock_ms, instance.tier_label, chain.id, "lifecycle",
                       value=float(factor), verdict="scaled")
        return instance

    def terminate(self, instance_id: str) -> None:
        instance = self._get(instance_id)
        if instance.state == InstanceState.TERMINATED:
            raise LifecycleError(f"instance {instance_id!r} already terminated")
        for aid in instance.embedding.allocation_ids:
            sdi.release(self.state, aid)
        instance.state = InstanceState.TERMINATED
        self.holders = {knob: c for knob, c in self.holders.items() if c != instance.id}
        self.trace.add(self.clock_ms, instance.tier_label, instance.id, "lifecycle",
                       verdict="terminated")

    # -- one loop turn -------------------------------------------------------

    def tick(self, instance_id: str, t_ms: int) -> list[ActionProposal]:
        """Run Monitor -> Analyze -> Plan (skipping Execute: applying actions
        is the orchestrator's decision), feed the Knowledge step and trace
        the tick with its proposal count. Every proposal leaves issued by the
        ticking chain, whatever issuer its plan step wrote. A step fault
        aborts the tick, traces the exception type and message, and yields
        no proposals."""
        instance = self._get(instance_id)
        if instance.state is not _RUNNING:
            raise LifecycleError(
                f"instance {instance_id!r} must be Running to tick, is {instance.state.value}")
        if t_ms % instance.tick_period_ms != 0:
            raise TickAlignmentError(
                f"t={t_ms}ms is not aligned to the {instance.tick_period_ms}ms tick period")
        chain = instance.chain
        if not instance.contexts:
            instance.contexts = tuple(
                StepContext(t_ms, self.state, instance, {}, s.step.params, instance.services)
                for s in instance.schedule)
        outputs: dict[str, object] = {}
        proposals: list[ActionProposal] = []
        for (step, predecessors, fn, is_plan), ctx in zip(instance.schedule, instance.contexts):
            ctx.t_ms = t_ms
            ctx.inputs = {p: outputs.get(p) for p in predecessors}
            try:
                result = fn(ctx)
            except Exception as exc:
                self.trace.add(t_ms, instance.tier_label, chain.id, "fault", verdict="fault",
                               detail=f"{type(exc).__name__}: {exc}", step=step.name)
                proposals = []
                break
            outputs[step.name] = result
            if is_plan and result:
                for p in result:
                    if p.issued_by != chain.id:
                        p = p._replace(issued_by=chain.id)
                    proposals.append(p)
        self.trace.add(t_ms, instance.tier_label, chain.id, "tick", "ok", len(proposals))
        return proposals

    # -- conflict pipeline ---------------------------------------------------

    def _priorities(self) -> dict[str, int]:
        return {i.chain.id: i.chain.priority for i in self.instances.values()}

    def apply_proposal(self, proposal: ActionProposal) -> tuple[bool, float | None, str, str]:
        """Apply one approved proposal to the live state. Returns (ok, delta,
        verdict, detail); a capacity miss rejects the proposal ("capacity")
        rather than violating safety, and any other refusal is an "error"."""
        try:
            previous = sdi.set_knob(self.state, proposal.target, proposal.parameter,
                                    proposal.value)
        except CapacityError:
            return False, None, "capacity", ""
        except SimError as exc:
            return False, None, "error", str(exc)
        return True, proposal.value - previous, "ok", ""

    def assert_capacity_invariant(self) -> None:
        """Recompute reservations by target from the allocation table and the
        backed knobs' values, without reading the usage table, and fail loudly
        if any node or link is oversubscribed."""
        used = defaultdict(lambda: [0, 0, 0, 0])  # [cpu, mem, storage, bandwidth]
        for alloc in self.state.allocations.values():
            r = alloc.resources
            sums = used[alloc.target]
            sums[0] += r.cpu
            sums[1] += r.mem
            sums[2] += r.storage
            sums[3] += r.bandwidth
        for (node_id, parameter), value in self.state.knobs.items():
            component = sdi.knob_backing_component(parameter)
            if component is not None:
                used[node_id][sdi.RESOURCE_COMPONENTS.index(component)] += math.ceil(value)
        for target, (cpu, mem, storage, bandwidth) in used.items():
            cap = self.state.capacity(target)
            if (cpu > cap.cpu or mem > cap.mem or storage > cap.storage
                    or bandwidth > cap.bandwidth):
                raise SafetyViolationError(f"{sdi.target_label(target)} oversubscribed: "
                                           f"{ResourceVector(cpu, mem, storage, bandwidth)}")

    def sandbox_dryrun(self, proposals) -> TraceEvent:
        """The live pipeline on a clone: the replica applies the proposals
        through the one apply path at the current clock, then runs every
        running loop for the horizon. The verdict is read from the replica's
        trace alone: knob reversals (count_reversals over its applied
        changes) and its capacity refusals, seeded or replayed. Returns the
        sandbox event that a slot traces; the live state is untouched."""
        proposals = list(proposals)
        # The horizon is counted in ticks of the fastest involved chain.
        involved = {p.issued_by for p in proposals}
        fastest = min((i.tick_period_ms for i in self.instances.values()
                       if i.state is _RUNNING and i.chain.id in involved),
                      default=1000)
        replica = self._clone_for_sandbox()
        replica._apply(proposals, self.clock_ms)
        start = ((self.clock_ms // fastest) + 1) * fastest
        replica.run(duration_ms=SANDBOX_HORIZON_TICKS * fastest, start_ms=start)
        for instance in replica.instances.values():
            instance.contexts = ()  # each refers back to its instance: free the replica now
        reversals = max(map(count_reversals, replica.trace.applied_knob_deltas().values()),
                        default=0)
        violations = sum(b.verdict == "capacity" for b in replica.trace.bodies)
        stable = reversals <= SANDBOX_MAX_REVERSALS and not violations
        return TraceEvent(self.clock_ms, "-", "-", "sandbox", loops=tuple(sorted(involved)),
                          verdict="stable" if stable else "unstable",
                          max_reversals=reversals, violation_count=violations)

    def _clone_for_sandbox(self) -> "Orchestrator":
        replica = Orchestrator(sdi.clone_state(self.state), self.registry,
                               arbitration=self.arbitration_enabled,
                               sandbox=False)  # no nested dry-runs
        replica.clock_ms = self.clock_ms
        replica.holders = dict(self.holders)
        # The replica only ticks, arbitrates and applies knobs: it never
        # updates, scales or terminates an instance, steps only read their
        # services and nothing reads its counts (each first_event indexes the
        # live trace), so chain, embedding and services are shared. The
        # copies start with unbound contexts and bind their own on their
        # first tick, to the replica's state. A store's copy keeps its
        # window, so a replica holds at most KNOWLEDGE_WINDOW records a loop.
        replica.instances = {iid: LoopInstance(i.id, i.chain, i.embedding, i.state,
                                               i.tick_period_ms, i.tier, i.schedule,
                                               i.first_event, i.services, i.knowledge.copy())
                             for iid, i in self.instances.items()}
        return replica

    # -- the global loop -----------------------------------------------------

    def run(self, duration_ms: int, start_ms: int = 0) -> EventTrace:
        """Drive all running loops over [start, start + duration). Events are
        globally ordered by (time, tier depth: deeper first, chain id): each
        slot's due list is built in the order of `instances`, which is that
        order already. Each slot runs tick -> detect -> arbitrate -> dry-run
        gate -> apply, then asserts the capacity invariant."""
        if duration_ms <= 0:
            raise ConfigError("duration must be > 0")
        slots: dict[int, list[LoopInstance]] = {}
        for instance in self.instances.values():
            if instance.state is not _RUNNING:
                continue
            period = instance.tick_period_ms
            first = ((start_ms + period - 1) // period) * period
            for t in range(first, start_ms + duration_ms, period):
                slots.setdefault(t, []).append(instance)
        for t in sorted(slots):
            pool: list[ActionProposal] = []
            for instance in slots[t]:
                if instance.state is not _RUNNING:
                    continue
                pool.extend(self.tick(instance.id, t))
            self.clock_ms = t
            if pool:
                self._process_slot(t, pool)
            self.assert_capacity_invariant()
        self.clock_ms = start_ms + duration_ms
        return self.trace

    def _process_slot(self, t: int, pool: list[ActionProposal]) -> None:
        report = detect_conflicts(pool, self.state)
        for a, b, kind in report.pairs:
            self.trace.add(t, "-", "-", "conflict", kind.value, target=a.target,
                           parameter=a.parameter, loops=(a.issued_by, b.issued_by))
        if self.arbitration_enabled:
            outcome = arbitrate(report, pool, self._priorities(), self.holders, t)
            for decision in outcome.decisions:
                self.trace.append(decision)
            for proposal, verdict, loop in outcome.rejected:
                self._log_action(proposal, t, "reject", verdict, loops=(loop,))
            approved = list(outcome.approved)
        else:
            approved = pool
        if approved and self.sandbox_enabled:
            result = self.sandbox_dryrun(approved)  # at self.clock_ms, which is t
            self.trace.append(result)
            if result.verdict == "unstable":
                for proposal in approved:
                    self._log_action(proposal, t, "withhold", "sandbox-unstable")
                return
        self._apply(approved, t)

    def _apply(self, proposals, t: int) -> None:
        """The one apply path, live and in a dry-run's replica: apply each
        proposal in order and trace it as an apply or a reject. With
        arbitration on, an apply makes its issuer the knob's holder."""
        for proposal in proposals:
            ok, delta, verdict, detail = self.apply_proposal(proposal)
            if ok and self.arbitration_enabled:
                self.holders[(proposal.target, proposal.parameter)] = proposal.issued_by
            self._log_action(proposal, t, "apply" if ok else "reject", verdict, delta, detail)

    def _log_action(self, proposal: ActionProposal, t: int, kind: str, verdict: str,
                    delta: float | None = None, detail: str = "", loops: tuple = ()) -> None:
        target, parameter, value, issuer = proposal
        instance = self.instances.get(issuer)
        tier = "-" if instance is None else instance.tier_label
        self.trace.add(t, tier, issuer, kind, verdict, value, delta, target, parameter, loops,
                       detail)

    def export_fcaps_csv(self, path) -> int:
        """One row of FCAPS counters per instance, by id; returns the row count."""
        counts = self._counts()
        return write_csv(path, ("instance", "state", *FcapsCounters._fields),
                         ((iid, i.state.value, *counts[iid][0])
                          for iid, i in sorted(self.instances.items())))
