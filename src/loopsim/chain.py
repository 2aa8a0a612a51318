"""Control-loop chains: step graphs with per-step QoS, embedding, catalogs.

A loop chain is a DAG of monitor/analyze/plan/execute steps plus an optional
knowledge store, each step carrying QoS requirements. Embedding assigns
steps to compute nodes greedily in topological order (minimum added path
latency, bounded backtracking) and reserves all resources atomically; an
exhaustive embedder doubles as the test oracle. The action catalog turns
analysis outputs into concrete knob proposals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import yaml

from .errors import ConfigError, SimError
from . import sdi
from .sdi import PathMetrics, ResourceVector, Topology


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


class ChainCategory(Enum):
    NETWORK = "network"  # loops managing the infrastructure itself
    OTT = "ott"  # loops serving over-the-top applications


@dataclass(frozen=True)
class QosRequirements:
    """Per-step service requirements. Latency/bandwidth/reliability bound the
    inbound inter-step paths; cpu/storage are reserved on the hosting node;
    coverage restricts hosting to a region set (empty = anywhere)."""

    max_latency_ms: float = math.inf
    min_bandwidth: int = 0
    cpu: int = 0
    storage: int = 0
    min_reliability: float = 0.0
    coverage: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.max_latency_ms < 0 or self.min_bandwidth < 0 or self.cpu < 0 or self.storage < 0:
            raise ConfigError("QoS requirements must be non-negative")
        if not 0.0 <= self.min_reliability <= 1.0:
            raise ConfigError("min_reliability must be in [0, 1]")

    @property
    def demand(self) -> ResourceVector:
        return ResourceVector(cpu=self.cpu, storage=self.storage)


@dataclass(frozen=True)
class LoopStep:
    name: str
    kind: StepKind
    function_ref: str
    qos: QosRequirements = QosRequirements()
    params: dict = field(default_factory=dict, hash=False)


@dataclass
class LoopChain:
    id: str
    steps: list[LoopStep]
    edges: list[tuple[str, str]]
    source_domain: frozenset[str] = frozenset()
    destination_domain: frozenset[str] = frozenset()
    category: ChainCategory = ChainCategory.NETWORK
    priority: int = 10  # lower wins
    tick_period_ms: int | None = None

    def step(self, name: str) -> LoopStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise ConfigError(f"chain {self.id}: no step named {name!r}")

    def predecessors(self, name: str) -> list[str]:
        return [a for a, b in self.edges if b == name]


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def _topological_order(chain: LoopChain) -> list[str] | None:
    """Kahn's algorithm; declaration order breaks ties. None on a cycle."""
    names = [s.name for s in chain.steps]
    indeg = {n: 0 for n in names}
    out: dict[str, list[str]] = {n: [] for n in names}
    for a, b in chain.edges:
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
    if chain.tick_period_ms is not None and chain.tick_period_ms <= 0:
        errors.append("tick_period_ms must be > 0")
    return ValidationReport(tuple(errors), tuple(warnings))


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------

@dataclass
class Embedding:
    chain_id: str
    assignment: dict[str, str]  # step name -> node id
    paths: dict[tuple[str, str], tuple[str, ...]]  # edge -> node path
    qos_achieved: dict[tuple[str, str], PathMetrics]
    total_latency_ms: float
    allocation_ids: tuple[str, ...] = ()


def _in_domain(node, domain: frozenset[str]) -> bool:
    return not domain or node.id in domain or node.region in domain


def _edge_requirements(chain: LoopChain):
    """Inbound QoS per DAG edge: the successor step's requirements govern the
    path that feeds it."""
    return {(a, b): chain.step(b).qos for a, b in chain.edges}


def _path_feasible(pm: PathMetrics, qos: QosRequirements, link_pending: dict,
                   local_pending: dict, state: Topology) -> str | None:
    """Check one inbound path against QoS, counting bandwidth already claimed
    by this embedding attempt (link_pending) and by this step's other inbound
    edges (local_pending, updated here on success). Returns the violated
    constraint name or None."""
    if pm.latency_ms > qos.max_latency_ms:
        return "latency"
    if qos.min_reliability > 0 and pm.reliability < qos.min_reliability:
        return "reliability"
    if qos.min_bandwidth > 0:
        keys = [tuple(sorted((a, b))) for a, b in zip(pm.path, pm.path[1:])]
        for key in keys:
            claimed = link_pending.get(key, 0) + local_pending.get(key, 0)
            if state.link_residual(key) - claimed < qos.min_bandwidth:
                return "bandwidth"
        for key in keys:
            local_pending[key] = local_pending.get(key, 0) + qos.min_bandwidth
    return None


_CONSTRAINT_ORDER = ("cpu", "storage", "latency", "bandwidth", "reliability", "coverage", "domain")


def _dominant_constraint(tally: dict[str, int]) -> str:
    best = max(tally.values())
    for c in _CONSTRAINT_ORDER:
        if tally.get(c, 0) == best:
            return c
    return next(iter(tally))


def embed(chain: LoopChain, state: Topology, owner: str | None = None,
          backtrack_budget: int | None = None) -> Embedding:
    """Greedy embedding in topological order with bounded backtracking.

    Each step prefers the feasible compute node that adds the least inbound
    path latency (ties to the lexicographically smaller node id); the first
    complete assignment is the plain greedy answer, and any remaining
    backtrack budget is spent branch-and-bound style on lower-latency
    alternatives. Every unwind of a placement costs one unit of budget;
    running out with no solution found raises SearchExhaustedError (an
    inconclusive verdict, unlike InfeasibleError). On success every node and
    link reservation is applied to the state atomically; on failure the
    state is untouched.
    """
    report = validate_chain(chain)
    if not report.ok:
        raise ChainValidationError(f"chain {chain.id}: " + "; ".join(report.errors))
    order = _topological_order(chain)
    assert order is not None
    if backtrack_budget is None:
        # Polynomial in the instance size; conclusively covers desk-scale
        # instances (a budget of only len(steps) demonstrably under-searches).
        backtrack_budget = len(order) * max(1, len(state.compute_nodes())) ** 2
    owner = owner or chain.id
    edge_qos = _edge_requirements(chain)
    candidates = state.compute_nodes()

    assignment: dict[str, str] = {}
    node_pending: dict[str, ResourceVector] = {}
    link_pending: dict[tuple[str, str], int] = {}
    first_block: tuple[str, str] | None = None  # (step, constraint)
    budget = backtrack_budget

    def options(step_name: str) -> list[tuple[float, str]]:
        """Feasible (added latency, node) choices, best first; records the
        dominant blocking constraint when empty."""
        nonlocal first_block
        step = chain.step(step_name)
        preds = [p for p in chain.predecessors(step_name) if p in assignment]
        feasible: list[tuple[float, str]] = []
        tally: dict[str, int] = {}
        for node_id in candidates:
            node = state.nodes[node_id]
            if step.qos.coverage and node.region not in step.qos.coverage:
                tally["coverage"] = tally.get("coverage", 0) + 1
                continue
            if step.kind == StepKind.MONITOR and not _in_domain(node, chain.source_domain):
                tally["domain"] = tally.get("domain", 0) + 1
                continue
            if step.kind == StepKind.EXECUTE and not _in_domain(node, chain.destination_domain):
                tally["domain"] = tally.get("domain", 0) + 1
                continue
            residual = state.node_residual(node_id) - node_pending.get(node_id, ResourceVector())
            short = residual.shortfall(step.qos.demand)
            if short is not None:
                tally[short] = tally.get(short, 0) + 1
                continue
            added = 0.0
            violated = None
            local_pending: dict[tuple[str, str], int] = {}
            for p in preds:
                pm = sdi.path_metrics(state, assignment[p], node_id)
                violated = _path_feasible(pm, edge_qos[(p, step_name)], link_pending,
                                          local_pending, state)
                if violated:
                    break
                added += pm.latency_ms
            if violated:
                tally[violated] = tally.get(violated, 0) + 1
                continue
            feasible.append((added, node_id))
        if not feasible and first_block is None and tally:
            first_block = (step_name, _dominant_constraint(tally))
        feasible.sort()
        return feasible

    def place(step_name: str, node_id: str) -> None:
        step = chain.step(step_name)
        assignment[step_name] = node_id
        node_pending[node_id] = node_pending.get(node_id, ResourceVector()) + step.qos.demand
        for p in chain.predecessors(step_name):
            if p not in assignment:
                continue
            qos = edge_qos[(p, step_name)]
            if qos.min_bandwidth > 0:
                pm = sdi.path_metrics(state, assignment[p], node_id)
                for a, b in zip(pm.path, pm.path[1:]):
                    key = tuple(sorted((a, b)))
                    link_pending[key] = link_pending.get(key, 0) + qos.min_bandwidth

    def unplace(step_name: str) -> None:
        step = chain.step(step_name)
        node_id = assignment.pop(step_name)
        node_pending[node_id] = node_pending[node_id] - step.qos.demand
        for p in chain.predecessors(step_name):
            if p not in assignment:
                continue
            qos = edge_qos[(p, step_name)]
            if qos.min_bandwidth > 0:
                pm = sdi.path_metrics(state, assignment[p], node_id)
                for a, b in zip(pm.path, pm.path[1:]):
                    key = tuple(sorted((a, b)))
                    link_pending[key] = link_pending[key] - qos.min_bandwidth

    best: dict[str, str] | None = None
    best_latency = math.inf

    class _BudgetStop(Exception):
        pass

    def search(depth: int, acc: float) -> None:
        nonlocal budget, best, best_latency
        if depth == len(order):
            if acc < best_latency:
                best = dict(assignment)
                best_latency = acc
            return
        step_name = order[depth]
        for added, node_id in options(step_name):
            if acc + added >= best_latency:
                break  # options are latency-sorted; no better completion left
            place(step_name, node_id)
            search(depth + 1, acc + added)
            unplace(step_name)
            if budget <= 0:
                raise _BudgetStop()
            budget -= 1

    try:
        search(0, 0.0)
    except _BudgetStop:
        if best is None:
            raise SearchExhaustedError(
                f"chain {chain.id}: backtracking budget exhausted after "
                f"{backtrack_budget} unwinds with no feasible assignment found"
            ) from None
    if best is None:
        if first_block is not None:
            raise InfeasibleError(first_block[0], first_block[1])
        raise InfeasibleError(order[0], "no-compute-nodes")
    assignment = best

    # Commit: validated against residuals above, so none of these can fail.
    # Edge metrics are read before any bandwidth is reserved, as the search
    # saw them.
    achieved = {(a, b): sdi.path_metrics(state, assignment[a], assignment[b])
                for a, b in sorted(chain.edges)}
    alloc_ids: list[str] = []
    for step_name in order:
        step = chain.step(step_name)
        if not step.qos.demand.is_zero():
            alloc_ids.append(sdi.allocate(state, assignment[step_name], step.qos.demand, owner).id)
    for edge, pm in achieved.items():
        qos = edge_qos[edge]
        if qos.min_bandwidth > 0:
            for x, y in zip(pm.path, pm.path[1:]):
                alloc_ids.append(
                    sdi.reserve_bandwidth(state, x, y, qos.min_bandwidth, owner).id)
    edge_paths = {edge: pm.path for edge, pm in achieved.items()}
    total = sum((pm.latency_ms for pm in achieved.values()), 0.0)
    return Embedding(chain_id=chain.id, assignment=dict(assignment), paths=edge_paths,
                     qos_achieved=achieved, total_latency_ms=total,
                     allocation_ids=tuple(alloc_ids))


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

    best: tuple[float, tuple[str, ...]] | None = None
    best_detail = None
    for combo in itertools.product(candidates, repeat=len(order)):
        assignment = dict(zip(order, combo))
        # Node-side checks: domains, coverage, aggregated capacity.
        demand: dict[str, ResourceVector] = {}
        ok = True
        for step in chain.steps:
            node = state.nodes[assignment[step.name]]
            if step.qos.coverage and node.region not in step.qos.coverage:
                ok = False
                break
            if step.kind == StepKind.MONITOR and not _in_domain(node, chain.source_domain):
                ok = False
                break
            if step.kind == StepKind.EXECUTE and not _in_domain(node, chain.destination_domain):
                ok = False
                break
            demand[node.id] = demand.get(node.id, ResourceVector()) + step.qos.demand
        if not ok:
            continue
        if any(state.node_residual(n).shortfall(d) is not None for n, d in demand.items()):
            continue
        # Path-side checks with per-link bandwidth accumulation.
        link_demand: dict[tuple[str, str], int] = {}
        total = 0.0
        for a, b in chain.edges:
            pm = sdi.path_metrics(state, assignment[a], assignment[b])
            qos = edge_qos[(a, b)]
            if pm.latency_ms > qos.max_latency_ms:
                ok = False
                break
            if qos.min_reliability > 0 and pm.reliability < qos.min_reliability:
                ok = False
                break
            if qos.min_bandwidth > 0:
                for x, y in zip(pm.path, pm.path[1:]):
                    key = tuple(sorted((x, y)))
                    link_demand[key] = link_demand.get(key, 0) + qos.min_bandwidth
            total += pm.latency_ms
        if not ok:
            continue
        if any(state.link_residual(k) < d for k, d in link_demand.items()):
            continue
        if best is None or total < best[0]:
            best = (total, combo)
            edge_paths = {}
            achieved = {}
            for a, b in sorted(chain.edges):
                pm = sdi.path_metrics(state, assignment[a], assignment[b])
                edge_paths[(a, b)] = pm.path
                achieved[(a, b)] = pm
            best_detail = (dict(assignment), edge_paths, achieved)
    if best is None:
        raise InfeasibleError("*", "exhausted")
    assignment, edge_paths, achieved = best_detail
    return Embedding(chain_id=chain.id, assignment=assignment, paths=edge_paths,
                     qos_achieved=achieved, total_latency_ms=best[0])


# ---------------------------------------------------------------------------
# Action catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisOutput:
    """What an Analyze step hands to Plan: a kind tag plus a scalar."""

    kind: str
    value: float


@dataclass(frozen=True)
class CatalogEntry:
    kind: str
    target_role: str
    parameter: str
    scale: float = 1.0
    offset: float = 0.0
    lo: float = -math.inf
    hi: float = math.inf


@dataclass(frozen=True)
class ActionCatalog:
    entries: tuple[CatalogEntry, ...]

    def lookup(self, kind: str) -> list[CatalogEntry]:
        return [e for e in self.entries if e.kind == kind]


@dataclass(frozen=True)
class ActionProposal:
    """One Plan-step output: set `parameter` on `target` to `value`.
    Direction is the sign of the change against the value current when the
    proposal was issued (0 when unknown or unchanged)."""

    target: str
    parameter: str
    value: float
    direction: int
    issued_by: str
    timestamp: int  # ms
    clamped: bool = False


def catalog_translate(catalog: ActionCatalog, output: AnalysisOutput,
                      destination_domain: frozenset[str], state: Topology,
                      issued_by: str = "", timestamp: int = 0) -> list[ActionProposal]:
    """Expand an analysis output into one proposal per matched target node.

    Targets are the compute nodes inside the destination domain that carry
    the entry's role. Values are the affine map scale*value + offset, clamped
    into [lo, hi] with the clamp flagged. Direction compares against the
    node's current knob value.
    """
    entries = catalog.lookup(output.kind)
    if not entries:
        raise CatalogLookupError(f"no catalog entry for analysis output kind {output.kind!r}")
    proposals: list[ActionProposal] = []
    for entry in entries:
        for node_id in state.compute_nodes():
            node = state.nodes[node_id]
            if entry.target_role not in node.roles:
                continue
            if not _in_domain(node, destination_domain):
                continue
            raw = entry.scale * output.value + entry.offset
            value = min(max(raw, entry.lo), entry.hi)
            current = sdi.get_knob(state, node_id, entry.parameter)
            delta = value - current
            proposals.append(ActionProposal(
                target=node_id, parameter=entry.parameter, value=value,
                direction=0 if delta == 0 else (1 if delta > 0 else -1),
                issued_by=issued_by, timestamp=timestamp, clamped=(value != raw),
            ))
    return proposals


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def chain_from_dict(doc: dict) -> LoopChain:
    try:
        steps = []
        for s in doc.get("steps", []):
            qos_doc = s.get("qos", {}) or {}
            qos = QosRequirements(
                max_latency_ms=float(qos_doc.get("max_latency_ms", math.inf)),
                min_bandwidth=int(qos_doc.get("min_bandwidth", 0)),
                cpu=int(qos_doc.get("cpu", 0)),
                storage=int(qos_doc.get("storage", 0)),
                min_reliability=float(qos_doc.get("min_reliability", 0.0)),
                coverage=frozenset(qos_doc.get("coverage", ())),
            )
            steps.append(LoopStep(
                name=str(s["name"]), kind=StepKind(str(s["kind"]).lower()),
                function_ref=str(s.get("function", "")), qos=qos,
                params=dict(s.get("params", {}) or {}),
            ))
        return LoopChain(
            id=str(doc["id"]),
            steps=steps,
            edges=[(str(a), str(b)) for a, b in doc.get("edges", [])],
            source_domain=frozenset(doc.get("source_domain", ())),
            destination_domain=frozenset(doc.get("destination_domain", ())),
            category=ChainCategory(str(doc.get("category", "network")).lower()),
            priority=int(doc.get("priority", 10)),
            tick_period_ms=(int(doc["tick_period_ms"]) if doc.get("tick_period_ms") else None),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad chain definition: {exc}") from None


def load_chain(path) -> LoopChain:
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: chain file must be a mapping")
    return chain_from_dict(doc)


def catalog_from_dict(doc: dict) -> ActionCatalog:
    entries = []
    for e in doc.get("entries", []):
        entries.append(CatalogEntry(
            kind=str(e["kind"]), target_role=str(e["target_role"]),
            parameter=str(e["parameter"]),
            scale=float(e.get("scale", 1.0)), offset=float(e.get("offset", 0.0)),
            lo=float(e.get("min", -math.inf)), hi=float(e.get("max", math.inf)),
        ))
    return ActionCatalog(entries=tuple(entries))


def load_catalog(path) -> ActionCatalog:
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: catalog file must be a mapping")
    return catalog_from_dict(doc)
