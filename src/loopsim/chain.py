"""Control-loop chains: step graphs with per-step QoS, embedding, catalogs.

A loop chain is a DAG of monitor/analyze/plan/execute steps plus an optional
knowledge store, each step carrying QoS requirements. Embedding assigns
steps to compute nodes greedily in topological order (minimum added path
latency, bounded backtracking) and reserves all resources atomically; an
exhaustive embedder doubles as the test oracle. The action catalog, which
the scenario that uses one builds in code, turns analysis outputs into
concrete knob proposals. chain_from_dict reads a chain file.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .config import load_yaml, section
from .errors import ConfigError, SimError
from . import sdi
from .sdi import ZERO, ResourceVector, Topology


class ChainValidationError(ConfigError):
    pass


class EmbeddingError(SimError):
    pass


class InfeasibleError(EmbeddingError):
    """Proven infeasible: some step has no node satisfying its constraints."""

    def __init__(self, step: str, constraint: str):
        super().__init__(f"embedding infeasible: step {step!r} blocked by {constraint!r}")
        self.step = step
        self.constraint = constraint


class SearchExhaustedError(EmbeddingError):
    """Backtracking budget ran out: infeasible-by-search, not proven."""


class InstanceTooLargeError(EmbeddingError):
    pass


class CatalogLookupError(SimError):
    pass


class StepKind(Enum):
    MONITOR = "monitor"
    ANALYZE = "analyze"
    PLAN = "plan"
    EXECUTE = "execute"
    KNOWLEDGE = "knowledge"


# Ordering rank within a loop; knowledge is unranked (it may hang anywhere
# downstream of analyze/plan).
_KIND_RANK = {StepKind.MONITOR: 0, StepKind.ANALYZE: 1, StepKind.PLAN: 2, StepKind.EXECUTE: 3}


# NamedTuple forbids overriding __new__, so a record that checks its fields
# does it in __new__ on a subclass of its fields (see sdi.ResourceVector).
class _QosFields(NamedTuple):
    max_latency_ms: float
    min_bandwidth: int
    cpu: int
    storage: int
    min_reliability: float
    coverage: frozenset[str]


class QosRequirements(_QosFields):
    """Per-step service requirements. Latency/bandwidth/reliability bound the
    inbound inter-step paths; cpu/storage are reserved on the hosting node;
    coverage restricts hosting to a region set (empty = anywhere)."""

    def __new__(cls, max_latency_ms: float = math.inf, min_bandwidth: int = 0, cpu: int = 0,
                storage: int = 0, min_reliability: float = 0.0,
                coverage: frozenset[str] = frozenset()):
        if max_latency_ms < 0 or min_bandwidth < 0 or cpu < 0 or storage < 0:
            raise ConfigError("QoS requirements must be non-negative")
        if not 0.0 <= min_reliability <= 1.0:
            raise ConfigError("min_reliability must be in [0, 1]")
        return tuple.__new__(cls, (max_latency_ms, min_bandwidth, cpu, storage,
                                   min_reliability, coverage))

    @cached_property
    def demand(self) -> ResourceVector:
        """The node reservation, built (and validated) once per value, in the
        instance dict."""
        return ResourceVector(cpu=self.cpu, storage=self.storage)


class _StepFields(NamedTuple):
    name: str
    kind: StepKind
    function_ref: str
    qos: QosRequirements
    params: dict


class LoopStep(_StepFields):
    """One step of a chain; each step gets its own params dict by default."""

    __slots__ = ()

    def __new__(cls, name: str, kind: StepKind, function_ref: str,
                qos: QosRequirements = QosRequirements(), params: dict | None = None):
        return tuple.__new__(cls, (name, kind, function_ref, qos,
                                   {} if params is None else params))


class LoopChain:
    def __init__(self, id: str, steps: list[LoopStep], edges: list[tuple[str, str]],
                 source_domain: frozenset[str] = frozenset(),
                 destination_domain: frozenset[str] = frozenset(),
                 priority: int = 10, tick_period_ms: int | None = None):
        self.id = id
        self.steps = steps
        self.edges = edges
        self.source_domain = source_domain
        self.destination_domain = destination_domain
        self.priority = priority  # lower wins
        self.tick_period_ms = tick_period_ms

    def step(self, name: str) -> LoopStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise ConfigError(f"chain {self.id}: no step named {name!r}")

    def predecessors(self, name: str) -> list[str]:
        return [a for a, b in self.edges if b == name]


class ValidationReport(NamedTuple):
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def tick_period_error(period) -> str | None:
    """Why period is not a tick period (a positive integer of milliseconds;
    a bool is not one), or None when it is one."""
    if isinstance(period, bool) or not isinstance(period, int) or period <= 0:
        return f"tick_period_ms must be a positive integer, got {period!r}"
    return None


def _topological_order(chain: LoopChain) -> list[str] | None:
    """Kahn's algorithm; declaration order breaks ties. None on a cycle or
    on an edge to or from an unknown step."""
    names = [s.name for s in chain.steps]
    indeg = {n: 0 for n in names}
    out: dict[str, list[str]] = {n: [] for n in names}
    for a, b in chain.edges:
        if a not in out or b not in indeg:
            return None
        indeg[b] += 1
        out[a].append(b)
    order = []
    ready = [n for n in names if indeg[n] == 0]
    while ready:
        n = ready.pop(0)
        order.append(n)
        for m in out[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
        ready.sort(key=names.index)
    return order if len(order) == len(names) else None


def _reachable(chain: LoopChain, src: str) -> set[str]:
    out: dict[str, list[str]] = {}
    for a, b in chain.edges:
        out.setdefault(a, []).append(b)
    seen = set()
    stack = [src]
    while stack:
        for m in out.get(stack.pop(), []):
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


def validate_chain(chain: LoopChain) -> ValidationReport:
    """Structural validation. Omitted step kinds produce warnings; ordering
    inversions, cycles and dangling references are errors."""
    errors: list[str] = []
    warnings: list[str] = []
    names = [s.name for s in chain.steps]
    if len(set(names)) != len(names):
        errors.append("duplicate step names")
    if not chain.steps:
        errors.append("chain has no steps")
        return ValidationReport(tuple(errors), tuple(warnings))
    for a, b in chain.edges:
        if a not in names or b not in names:
            errors.append(f"edge ({a}, {b}) references an unknown step")
        elif a == b:
            errors.append(f"self-loop on step {a}")
    if errors:
        return ValidationReport(tuple(errors), tuple(warnings))

    order = _topological_order(chain)
    if order is None:
        errors.append("step graph contains a cycle")
        return ValidationReport(tuple(errors), tuple(warnings))

    kind_of = {s.name: s.kind for s in chain.steps}
    for src in names:
        if kind_of[src] not in _KIND_RANK:
            continue
        for dst in _reachable(chain, src):
            if kind_of[dst] in _KIND_RANK and _KIND_RANK[kind_of[src]] > _KIND_RANK[kind_of[dst]]:
                errors.append(
                    f"ordering violation: {kind_of[src].value} step {src!r} precedes "
                    f"{kind_of[dst].value} step {dst!r}")

    present = {s.kind for s in chain.steps}
    knowledge = [s.name for s in chain.steps if s.kind == StepKind.KNOWLEDGE]
    if len(knowledge) > 1:
        errors.append("more than one knowledge step")
    elif knowledge:
        k = knowledge[0]
        for s in chain.steps:
            if s.kind in (StepKind.ANALYZE, StepKind.PLAN) and k not in _reachable(chain, s.name):
                errors.append(f"knowledge step {k!r} not reachable from {s.kind.value} step {s.name!r}")
    for kind in (StepKind.MONITOR, StepKind.ANALYZE, StepKind.PLAN, StepKind.EXECUTE,
                 StepKind.KNOWLEDGE):
        if kind not in present:
            warnings.append(f"no {kind.value.capitalize()} step")
    if chain.priority < 0:
        errors.append("priority must be >= 0")
    if chain.tick_period_ms is not None and (error := tick_period_error(chain.tick_period_ms)):
        errors.append(error)
    return ValidationReport(tuple(errors), tuple(warnings))


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------

class Embedding:
    def __init__(self, assignment: dict[str, str],
                 paths: dict[tuple[str, str], tuple[str, ...]], total_latency_ms: float,
                 allocation_ids: tuple[str, ...] = ()):
        self.assignment = assignment  # step name -> node id
        self.paths = paths  # edge -> node path
        self.total_latency_ms = total_latency_ms
        self.allocation_ids = allocation_ids


def _in_domain(node, domain: frozenset[str]) -> bool:
    return not domain or node.id in domain or node.region in domain


def _host_violation(chain: LoopChain, step: LoopStep, node) -> str | None:
    """The coverage or domain constraint that bars node from hosting step,
    or None."""
    if step.qos.coverage and node.region not in step.qos.coverage:
        return "coverage"
    if step.kind == StepKind.MONITOR and not _in_domain(node, chain.source_domain):
        return "domain"
    if step.kind == StepKind.EXECUTE and not _in_domain(node, chain.destination_domain):
        return "domain"
    return None


def _edge_requirements(chain: LoopChain):
    """Inbound QoS per DAG edge: the successor step's requirements govern the
    path that feeds it."""
    return {(a, b): chain.step(b).qos for a, b in chain.edges}


def _path_feasible(state: Topology, src: str, dst: str, latency: float,
                   qos: QosRequirements, link_pending: dict, claims: dict) -> str | None:
    """Check the inbound path from src to dst against QoS, counting bandwidth
    already claimed by this embedding attempt (link_pending) and by this
    step's other inbound edges (claims, which gains this path's links on
    success). The path's latency is given from the route table, so a path
    that is too slow is refused without querying it. Returns the violated
    constraint name or None."""
    if latency > qos.max_latency_ms:
        return "latency"
    pm = sdi.path_metrics(state, src, dst)
    if qos.min_reliability > 0 and pm.reliability < qos.min_reliability:
        return "reliability"
    if qos.min_bandwidth > 0:
        for key in pm.links:
            claimed = link_pending.get(key, 0) + claims.get(key, 0)
            if state.free_bandwidth(key) - claimed < qos.min_bandwidth:
                return "bandwidth"
        for key in pm.links:
            claims[key] = claims.get(key, 0) + qos.min_bandwidth
    return None


_CONSTRAINT_ORDER = ("cpu", "storage", "latency", "bandwidth", "reliability", "coverage", "domain")


def _dominant_constraint(tally: dict[str, int]) -> str:
    best = max(tally.values())
    for c in _CONSTRAINT_ORDER:
        if tally.get(c, 0) == best:
            return c
    return next(iter(tally))


def embed(chain: LoopChain, state: Topology) -> Embedding:
    """Greedy embedding in topological order with bounded backtracking.

    Each step prefers the feasible compute node that adds the least inbound
    path latency (ties to the lexicographically smaller node id). A step's
    choices are checked lazily, best first: its hosts are ranked by that
    latency from the route table, and a host's capacity and path checks run
    only when the search asks for the next choice, so a search that stops at
    the first choice checks one host, not all. The first complete assignment
    is the plain greedy answer, and the rest of the budget of steps x compute
    nodes^2 unwinds is spent branch-and-bound style on lower-latency
    alternatives. Running out of budget with no solution
    found raises InfeasibleError if some step has no node that meets its
    coverage, domain and capacity constraints even with nothing else placed,
    and SearchExhaustedError (an inconclusive verdict) otherwise. On success
    every node and link reservation is applied to the state atomically, owned
    by the chain id; on failure the state is untouched.
    """
    report = validate_chain(chain)
    if not report.ok:
        raise ChainValidationError(f"chain {chain.id}: " + "; ".join(report.errors))
    order = _topological_order(chain)
    assert order is not None
    steps = [chain.step(name) for name in order]
    edge_qos = _edge_requirements(chain)
    candidates = state.compute_nodes()
    # Polynomial in the instance size; conclusively covers desk-scale
    # instances (a budget of only len(steps) demonstrably under-searches).
    limit = budget = len(order) * max(1, len(candidates)) ** 2

    # Coverage and domain bar the same nodes whatever is placed: per step,
    # the nodes that may host it and the tally of why the others may not.
    hosts: dict[str, list[str]] = {}
    host_tally: dict[str, dict[str, int]] = {}
    for step in steps:
        allowed = hosts[step.name] = []
        barred = host_tally[step.name] = {}
        for node_id in candidates:
            violated = _host_violation(chain, step, state.nodes[node_id])
            if violated is None:
                allowed.append(node_id)
            else:
                barred[violated] = barred.get(violated, 0) + 1

    assignment: dict[str, str] = {}
    node_pending: dict[str, ResourceVector] = {}
    link_pending: dict[tuple[str, str], int] = {}
    first_block: tuple[str, str] | None = None  # (step, constraint)

    def options(step: LoopStep) -> Iterator[tuple[float, str, dict]]:
        """Feasible (added latency, node, link claims) choices, best first.
        Every node that may host the step is ranked by the inbound path
        latency from the placed predecessors (ties to the smaller node id);
        its capacity and path checks run only when the next choice is asked
        for, against the pending claims of that moment, which the search has
        restored by then. The claims are the bandwidth per link that the
        paths from the placed predecessors take. Once every node has been
        checked with none feasible, records the dominant blocking constraint
        of the first step found with no choice."""
        nonlocal first_block
        preds = [p for p in chain.predecessors(step.name) if p in assignment]
        tally = dict(host_tally[step.name])
        ranked: list[tuple[float, str]] = []
        inbound = [sdi.path_latencies(state, assignment[p]) for p in preds]
        for node_id in hosts[step.name]:
            added = 0.0
            for latencies in inbound:
                added += latencies[node_id]
            ranked.append((added, node_id))
        ranked.sort()
        demand = step.qos.demand
        found = False
        for added, node_id in ranked:
            residual = state.residual(node_id) - node_pending.get(node_id, ZERO)
            violated = residual.shortfall(demand)
            claims: dict[tuple[str, str], int] = {}
            for p, latencies in zip(preds, inbound):
                if violated is not None:
                    break
                violated = _path_feasible(state, assignment[p], node_id, latencies[node_id],
                                          edge_qos[(p, step.name)], link_pending, claims)
            if violated is None:
                found = True
                yield added, node_id, claims
            else:
                tally[violated] = tally.get(violated, 0) + 1
        if not found and first_block is None and tally:
            first_block = (step.name, _dominant_constraint(tally))

    def occupy(step: LoopStep, node_id: str, claims: dict, sign: int) -> None:
        """Place (sign 1) or unplace (sign -1) a step with its link claims."""
        pending = node_pending.get(node_id, ZERO)
        if sign > 0:
            assignment[step.name] = node_id
            node_pending[node_id] = pending + step.qos.demand
        else:
            del assignment[step.name]
            node_pending[node_id] = pending - step.qos.demand
        for key, mbps in claims.items():
            link_pending[key] = link_pending.get(key, 0) + sign * mbps

    best: dict[str, str] | None = None
    best_latency = math.inf

    def search(depth: int, acc: float) -> bool:
        """Branch and bound from depth on; True once the budget has run out."""
        nonlocal budget, best, best_latency
        if depth == len(steps):
            if acc < best_latency:
                best, best_latency = dict(assignment), acc
            return False
        step = steps[depth]
        for added, node_id, claims in options(step):
            if acc + added >= best_latency:
                break  # options are latency-sorted; no better completion left
            occupy(step, node_id, claims, 1)
            stopped = search(depth + 1, acc + added)
            occupy(step, node_id, claims, -1)
            if stopped or budget <= 0:
                return True
            budget -= 1
        return False

    if search(0, 0.0) and best is None:
        # Nothing is placed any more, so a step with no choice now has no
        # node that could ever host it: that is proven, not a budget verdict.
        first_block = None
        for step in steps:
            for _ in options(step):
                pass  # drained, so a step with no choice records its tally
        if first_block is None:
            raise SearchExhaustedError(
                f"chain {chain.id}: backtracking budget exhausted after "
                f"{limit} unwinds with no feasible assignment found")
    if best is None:
        raise InfeasibleError(*(first_block or (order[0], "no-compute-nodes")))

    # Commit: validated against residuals above, so none of these can fail.
    # Edge metrics are read before any bandwidth is reserved, as the search
    # saw them.
    achieved = {(a, b): sdi.path_metrics(state, best[a], best[b]) for a, b in sorted(chain.edges)}
    alloc_ids = [sdi.allocate(state, best[step.name], step.qos.demand, chain.id).id
                 for step in steps if not step.qos.demand.is_zero()]
    for edge, pm in achieved.items():
        mbps = edge_qos[edge].min_bandwidth
        if mbps > 0:
            alloc_ids.extend(sdi.reserve_bandwidth(state, *key, mbps, chain.id).id
                             for key in pm.links)
    total = sum((pm.latency_ms for pm in achieved.values()), 0.0)
    return Embedding(assignment=best, paths={edge: pm.path for edge, pm in achieved.items()},
                     total_latency_ms=total, allocation_ids=tuple(alloc_ids))


def embed_bruteforce(chain: LoopChain, state: Topology,
                     limit: int = 10 ** 6) -> Embedding:
    """Exhaustive search over all step-to-node assignments; returns the
    minimum total-latency feasible embedding (ties resolve to the
    lexicographically first assignment). Pure: reserves nothing. Raises
    InstanceTooLargeError when |nodes|^|steps| exceeds the limit.
    """
    report = validate_chain(chain)
    if not report.ok:
        raise ChainValidationError(f"chain {chain.id}: " + "; ".join(report.errors))
    order = _topological_order(chain)
    assert order is not None
    candidates = state.compute_nodes()
    if len(candidates) ** len(order) > limit:
        raise InstanceTooLargeError(
            f"{len(candidates)}^{len(order)} assignments exceed the {limit} limit")
    edge_qos = _edge_requirements(chain)

    best: tuple[float, dict[str, str], dict] | None = None
    for combo in itertools.product(candidates, repeat=len(order)):
        assignment = dict(zip(order, combo))
        # Node-side checks: domains, coverage, aggregated capacity.
        if any(_host_violation(chain, step, state.nodes[assignment[step.name]])
               for step in chain.steps):
            continue
        demand: dict[str, ResourceVector] = {}
        for step in chain.steps:
            node_id = assignment[step.name]
            demand[node_id] = demand.get(node_id, ZERO) + step.qos.demand
        if any(state.residual(n).shortfall(d) is not None for n, d in demand.items()):
            continue
        # Path-side checks with per-link bandwidth accumulation.
        link_demand: dict[tuple[str, str], int] = {}
        paths: dict[tuple[str, str], tuple[str, ...]] = {}
        total = 0.0
        for a, b in chain.edges:
            pm = sdi.path_metrics(state, assignment[a], assignment[b])
            qos = edge_qos[(a, b)]
            if pm.latency_ms > qos.max_latency_ms:
                break
            if qos.min_reliability > 0 and pm.reliability < qos.min_reliability:
                break
            if qos.min_bandwidth > 0:
                for key in pm.links:
                    link_demand[key] = link_demand.get(key, 0) + qos.min_bandwidth
            paths[(a, b)] = pm.path
            total += pm.latency_ms
        else:
            if all(state.residual(k).bandwidth >= d for k, d in link_demand.items()) \
                    and (best is None or total < best[0]):
                best = (total, assignment, paths)
    if best is None:
        raise InfeasibleError("*", "exhausted")
    total, assignment, paths = best
    return Embedding(assignment=assignment, paths=paths, total_latency_ms=total)


# ---------------------------------------------------------------------------
# Action catalog
# ---------------------------------------------------------------------------

class _OutputFields(NamedTuple):
    kind: str
    value: float


class AnalysisOutput(_OutputFields):
    """What an Analyze step hands to Plan: a kind tag plus a finite scalar."""

    __slots__ = ()

    def __new__(cls, kind: str, value: float):
        if not math.isfinite(value):
            raise ConfigError(f"analysis output {kind!r} must have a finite value, "
                              f"got {value!r}")
        return tuple.__new__(cls, (kind, value))


class CatalogEntry(NamedTuple):
    kind: str
    target_role: str
    parameter: str
    scale: float = 1.0
    offset: float = 0.0
    lo: float = -math.inf
    hi: float = math.inf

    def value(self, x: float) -> float:
        """The knob value for analysis value x: scale * x + offset, clamped into [lo, hi]."""
        return min(max(self.scale * x + self.offset, self.lo), self.hi)


class ActionCatalog(NamedTuple):
    entries: tuple[CatalogEntry, ...]

    def lookup(self, kind: str) -> list[CatalogEntry]:
        return [e for e in self.entries if e.kind == kind]


class _ProposalFields(NamedTuple):
    target: str
    parameter: str
    value: float
    issued_by: str


class ActionProposal(_ProposalFields):
    """One Plan-step output: chain `issued_by` asks to set `parameter` on
    `target` to `value`. Whether it raises or lowers the knob is read against
    the knob's current value where it is judged (see
    control.detect_conflicts), and the issuer is stamped by the tick that
    collects it (see control.Orchestrator.tick). The value is kept as a
    float, and a non-finite one raises ConfigError; `_replace` skips both, so
    only `issued_by` is re-stamped with it."""

    __slots__ = ()

    def __new__(cls, target: str, parameter: str, value: float, issued_by: str = ""):
        if not math.isfinite(value):
            raise ConfigError(f"proposal for {target}:{parameter} must have a "
                              f"finite value, got {value!r}")
        return tuple.__new__(cls, (target, parameter, float(value), issued_by))


def catalog_translate(catalog: ActionCatalog, output: AnalysisOutput,
                      destination_domain: frozenset[str], state: Topology) -> list[ActionProposal]:
    """Expand an analysis output into one proposal per matched target node.

    Targets are the compute nodes inside the destination domain that carry
    the entry's role. Each value is the entry's value of the output (see
    CatalogEntry.value). The proposals carry no issuer; the tick stamps it.
    """
    entries = catalog.lookup(output.kind)
    if not entries:
        raise CatalogLookupError(f"no catalog entry for analysis output kind {output.kind!r}")
    proposals: list[ActionProposal] = []
    for entry in entries:
        value = entry.value(output.value)
        for node_id in state.compute_nodes():
            node = state.nodes[node_id]
            if entry.target_role in node.roles and _in_domain(node, destination_domain):
                proposals.append(ActionProposal(node_id, entry.parameter, value))
    return proposals


# ---------------------------------------------------------------------------
# Chain files
# ---------------------------------------------------------------------------

_QOS = {"max_latency_ms": math.inf, "min_bandwidth": 0, "cpu": 0, "storage": 0,
        "min_reliability": 0.0, "coverage": [str]}
_STEP = {"name": str, "kind": str, "function": "", "qos": _QOS, "params": {}}
# A period is checked by tick_period_error, so a bool or a fraction is named as such.
_CHAIN = {"id": str, "steps": [dict], "edges": [list], "source_domain": [str],
          "destination_domain": [str], "priority": 10, "tick_period_ms": object | None}


def chain_from_dict(doc: dict) -> LoopChain:
    """The chain a parsed chain file holds; a malformed field raises ConfigError naming it."""
    try:
        c = section(doc, "", _CHAIN)
        if c["tick_period_ms"] is not None and (error := tick_period_error(c["tick_period_ms"])):
            raise ConfigError(error)
        if any(len(e) != 2 for e in c["edges"]):
            raise ConfigError(f"edges must be two-item lists, got {c['edges']!r}")
        steps = []
        for i, s in enumerate(c["steps"]):
            s = section(s, f"steps[{i}]", _STEP)
            qos = dict(s["qos"], coverage=frozenset(s["qos"]["coverage"]))
            steps.append(LoopStep(s["name"], StepKind(s["kind"].lower()), s["function"],
                                  QosRequirements(**qos), dict(s["params"])))
        return LoopChain(c["id"], steps, [tuple(e) for e in c["edges"]],
                         source_domain=frozenset(c["source_domain"]),
                         destination_domain=frozenset(c["destination_domain"]),
                         priority=c["priority"], tick_period_ms=c["tick_period_ms"])
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad chain definition: {exc}") from None


def load_chain(path) -> LoopChain:
    return chain_from_dict(load_yaml(path))

