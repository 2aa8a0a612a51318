"""Software-defined infrastructure model.

Multi-tier topology of compute nodes, forwarding-only switches and links,
with integer resource accounting (millicores / MiB / Mb/s), latency-optimal
path metrics, named knobs backed by reservations, and cheaply cloneable state
for sandbox dry-runs.

Resource quantities are integers in fixed units so that conservation
(residual + sum of allocations == capacity) holds exactly, with no float
drift. Switches are ordinary nodes with zero compute capacity, which keeps
path computation uniform.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum

import yaml

from .errors import ConfigError, SimError


class TopologyError(ConfigError):
    """Invalid topology description (duplicate ids, dangling links, ...)."""


class UnknownNodeError(SimError):
    pass


class UnknownAllocationError(SimError):
    pass


class UnreachableError(SimError):
    pass


class CapacityError(SimError):
    """Raised when a reservation would exceed a capacity; names the component."""

    def __init__(self, component: str, message: str):
        super().__init__(message)
        self.component = component


class Tier(Enum):
    CORE = "core"
    EDGE = "edge"
    ACCESS = "access"


# Scheduling depth: deeper tiers run on faster time scales.
TIER_DEPTH = {Tier.CORE: 0, Tier.EDGE: 1, Tier.ACCESS: 2}

RESOURCE_COMPONENTS = ("cpu", "mem", "storage", "bandwidth")


def _as_int(value, what: str) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ResourceVector:
    """Component-wise resource bundle. cpu in millicores, mem/storage in MiB,
    bandwidth in Mb/s."""

    cpu: int = 0
    mem: int = 0
    storage: int = 0
    bandwidth: int = 0

    def __post_init__(self):
        for name in RESOURCE_COMPONENTS:
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError(f"resource {name} must be an integer, got {v!r}")
            if v < 0:
                raise ConfigError(f"resource {name} must be >= 0, got {v}")

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return _vector(self.cpu + other.cpu, self.mem + other.mem,
                       self.storage + other.storage, self.bandwidth + other.bandwidth)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        cpu = self.cpu - other.cpu
        mem = self.mem - other.mem
        storage = self.storage - other.storage
        bandwidth = self.bandwidth - other.bandwidth
        if cpu < 0 or mem < 0 or storage < 0 or bandwidth < 0:
            # The validating constructor raises, naming the first short component.
            return ResourceVector(cpu, mem, storage, bandwidth)
        return _vector(cpu, mem, storage, bandwidth)

    def covers(self, other: "ResourceVector") -> bool:
        return all(getattr(self, c) >= getattr(other, c) for c in RESOURCE_COMPONENTS)

    def shortfall(self, other: "ResourceVector") -> str | None:
        """Name of the first component where self < other, or None."""
        for c in RESOURCE_COMPONENTS:
            if getattr(self, c) < getattr(other, c):
                return c
        return None

    def is_zero(self) -> bool:
        return all(getattr(self, c) == 0 for c in RESOURCE_COMPONENTS)


def _vector(cpu: int, mem: int, storage: int, bandwidth: int) -> ResourceVector:
    """ResourceVector without the per-field validation, for results of
    arithmetic on already valid vectors (non-negative ints in, non-negative
    ints out). A frozen dataclass keeps its fields in the instance dict."""
    rv = object.__new__(ResourceVector)
    rv.__dict__.update(cpu=cpu, mem=mem, storage=storage, bandwidth=bandwidth)
    return rv


_ZERO = ResourceVector()


@dataclass(frozen=True)
class ComputeNode:
    id: str
    region: str
    tier: Tier
    cpu_capacity: int = 0
    mem_capacity: int = 0
    storage_capacity: int = 0
    reliability: float = 1.0
    roles: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("cpu_capacity", "mem_capacity", "storage_capacity"):
            if getattr(self, name) < 0:
                raise TopologyError(f"node {self.id}: {name} must be >= 0")
        if not 0.0 <= self.reliability <= 1.0:
            raise TopologyError(f"node {self.id}: reliability must be in [0, 1]")

    @property
    def capacity(self) -> ResourceVector:
        return _vector(self.cpu_capacity, self.mem_capacity, self.storage_capacity, 0)


@dataclass(frozen=True)
class Link:
    a: str
    b: str
    bandwidth: int  # Mb/s
    latency: float  # ms
    reliability: float = 1.0

    def __post_init__(self):
        if self.a == self.b:
            raise TopologyError(f"link {self.a}--{self.b}: endpoints must be distinct")
        if self.bandwidth <= 0:
            raise TopologyError(f"link {self.a}--{self.b}: bandwidth must be > 0")
        if self.latency < 0:
            raise TopologyError(f"link {self.a}--{self.b}: latency must be >= 0")
        if not 0.0 <= self.reliability <= 1.0:
            raise TopologyError(f"link {self.a}--{self.b}: reliability must be in [0, 1]")

    @property
    def key(self) -> tuple[str, str]:
        return tuple(sorted((self.a, self.b)))  # type: ignore[return-value]


@dataclass(frozen=True)
class Allocation:
    """A recorded reservation: compute resources on a node, or bandwidth on a link."""

    id: str
    owner: str
    resources: ResourceVector
    node: str | None = None
    link: tuple[str, str] | None = None


@dataclass
class Topology:
    """Topology plus mutable allocation/knob state. Single-writer: callers
    mutate one Topology from one logical owner at a time; clones are
    independent. Links are fixed once build_topology returns (only their
    residual bandwidth changes), so a topology and its clones share one
    route table."""

    nodes: dict[str, ComputeNode]
    links: dict[tuple[str, str], Link]
    switches: set[str]
    allocations: dict[str, Allocation] = field(default_factory=dict)
    knobs: dict[tuple[str, str], float] = field(default_factory=dict)
    _used_node: dict[str, ResourceVector] = field(default_factory=dict)
    _used_link: dict[tuple[str, str], int] = field(default_factory=dict)
    _next_alloc: int = 1
    # (owner, node) -> ids of that owner's allocations on that node; tuples,
    # so that clones can share them.
    _owned: dict[tuple[str, str], tuple[str, ...]] = field(default_factory=dict, repr=False,
                                                           compare=False)
    _routes: "_RouteTable" = field(default_factory=lambda: _RouteTable(), init=False,
                                   repr=False, compare=False)

    def node_residual(self, node_id: str) -> ResourceVector:
        node = self._node(node_id)
        return node.capacity - self._used_node.get(node_id, _ZERO)

    def link_residual(self, key: tuple[str, str]) -> int:
        if key not in self.links:
            raise UnknownNodeError(f"unknown link {key[0]}--{key[1]}")
        return self.links[key].bandwidth - self._used_link.get(key, 0)

    def compute_nodes(self) -> list[str]:
        """Ids of nodes that may host work (switches forward only)."""
        return sorted(n for n in self.nodes if n not in self.switches)

    def _node(self, node_id: str) -> ComputeNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node_id!r}") from None


@dataclass(frozen=True)
class PathMetrics:
    """Aggregate metrics of one concrete node path."""

    latency_ms: float
    min_bandwidth: float  # residual Mb/s; inf on a zero-link path
    reliability: float
    path: tuple[str, ...]
    links: tuple[tuple[str, str], ...]  # link keys in path order


# ---------------------------------------------------------------------------
# Topology construction
# ---------------------------------------------------------------------------

def _parse_node(entry: dict) -> ComputeNode:
    if not isinstance(entry, dict) or "id" not in entry:
        raise TopologyError(f"node entry must be a mapping with an 'id': {entry!r}")
    if "--" in str(entry["id"]):
        raise TopologyError(f"node id {entry['id']!r} must not contain '--' "
                            "(reserved for link targets in state files)")
    try:
        tier = Tier(str(entry.get("tier", "edge")).lower())
    except ValueError:
        raise TopologyError(f"node {entry['id']}: unknown tier {entry.get('tier')!r}") from None
    return ComputeNode(
        id=str(entry["id"]),
        region=str(entry.get("region", "default")),
        tier=tier,
        cpu_capacity=_as_int(entry.get("cpu", 0), f"node {entry['id']} cpu"),
        mem_capacity=_as_int(entry.get("mem", 0), f"node {entry['id']} mem"),
        storage_capacity=_as_int(entry.get("storage", 0), f"node {entry['id']} storage"),
        reliability=float(entry.get("reliability", 1.0)),
        roles=tuple(entry.get("roles", ())),
    )


def build_topology(spec) -> Topology:
    """Build and validate a Topology from a preset name or a parsed mapping.

    The mapping schema (also the on-disk YAML schema) is::

        nodes:    [{id, region, tier, cpu, mem, storage, reliability, roles}]
        switches: [id, ...]            # or full node entries; zero capacity
        links:    [{a, b, bandwidth, latency, reliability}]
        knobs:    [{node, parameter, value}]   # optional initial knob values
    """
    if isinstance(spec, str):
        try:
            spec = TOPOLOGY_PRESETS[spec]()
        except KeyError:
            raise TopologyError(
                f"unknown topology preset {spec!r}; known: {sorted(TOPOLOGY_PRESETS)}"
            ) from None
    if not isinstance(spec, dict):
        raise TopologyError(f"topology spec must be a mapping or preset name, got {type(spec)}")

    nodes: dict[str, ComputeNode] = {}
    for entry in spec.get("nodes", []) or []:
        node = _parse_node(entry)
        if node.id in nodes:
            raise TopologyError(f"duplicate node id {node.id!r}")
        nodes[node.id] = node

    switches: set[str] = set()
    for entry in spec.get("switches", []) or []:
        if isinstance(entry, dict):
            node = _parse_node(entry)
            if node.id in nodes:
                raise TopologyError(f"duplicate node id {node.id!r}")
            nodes[node.id] = node
            switches.add(node.id)
        else:
            switches.add(str(entry))
    for sid in switches:
        if sid not in nodes:
            raise TopologyError(f"switch {sid!r} is not declared as a node")
        if not nodes[sid].capacity.is_zero():
            raise TopologyError(f"switch {sid!r} must have zero compute capacity")

    links: dict[tuple[str, str], Link] = {}
    for entry in spec.get("links", []) or []:
        link = Link(
            a=str(entry["a"]),
            b=str(entry["b"]),
            bandwidth=_as_int(entry.get("bandwidth", 0), "link bandwidth"),
            latency=float(entry.get("latency", 0.0)),
            reliability=float(entry.get("reliability", 1.0)),
        )
        for end in (link.a, link.b):
            if end not in nodes:
                raise TopologyError(f"link {link.a}--{link.b}: dangling endpoint {end!r}")
        if link.key in links:
            raise TopologyError(f"duplicate link {link.key[0]}--{link.key[1]}")
        links[link.key] = link

    if not nodes:
        raise TopologyError("topology has no nodes")
    _check_connected(nodes, links)

    topo = Topology(nodes=nodes, links=links, switches=switches)
    for entry in spec.get("knobs", []) or []:
        set_knob(topo, str(entry["node"]), str(entry["parameter"]), float(entry["value"]))
    return topo


def _check_connected(nodes, links) -> None:
    start = next(iter(sorted(nodes)))
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for (a, b) in links:
        adj[a].append(b)
        adj[b].append(a)
    seen = {start}
    stack = [start]
    while stack:
        for nbr in adj[stack.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    missing = sorted(set(nodes) - seen)
    if missing:
        raise TopologyError(f"topology is disconnected; unreachable from {start!r}: {missing}")


def load_topology(path) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if doc is None:
        raise TopologyError(f"empty topology file {path}")
    return build_topology(doc)


# ---------------------------------------------------------------------------
# Allocation / release / knobs
# ---------------------------------------------------------------------------

def allocate(state: Topology, node_id: str, resources: ResourceVector, owner: str) -> Allocation:
    """Reserve compute resources on a node. Bandwidth is reserved on links
    (see reserve_bandwidth), so resources.bandwidth must be 0 here."""
    node = state._node(node_id)
    if resources.bandwidth != 0:
        raise ConfigError("node allocations carry no bandwidth; reserve it on links")
    residual = state.node_residual(node_id)
    short = residual.shortfall(resources)
    if short is not None:
        raise CapacityError(
            short,
            f"node {node_id}: insufficient {short} "
            f"(requested {getattr(resources, short)}, free {getattr(residual, short)})",
        )
    alloc = Allocation(id=f"alloc-{state._next_alloc:06d}", owner=owner,
                       resources=resources, node=node_id)
    state._next_alloc += 1
    _record(state, alloc)
    state._used_node[node_id] = state._used_node.get(node_id, _ZERO) + resources
    return alloc


def reserve_bandwidth(state: Topology, a: str, b: str, mbps: int, owner: str) -> Allocation:
    key = tuple(sorted((a, b)))
    if key not in state.links:
        raise UnknownNodeError(f"unknown link {a}--{b}")
    mbps = _as_int(mbps, "bandwidth reservation")
    if mbps < 0:
        raise ConfigError("bandwidth reservation must be >= 0")
    residual = state.link_residual(key)
    if residual < mbps:
        raise CapacityError(
            "bandwidth",
            f"link {key[0]}--{key[1]}: insufficient bandwidth (requested {mbps}, free {residual})",
        )
    alloc = Allocation(id=f"alloc-{state._next_alloc:06d}", owner=owner,
                       resources=ResourceVector(bandwidth=mbps), link=key)
    state._next_alloc += 1
    _record(state, alloc)
    state._used_link[key] = state._used_link.get(key, 0) + mbps
    return alloc


def _record(state: Topology, alloc: Allocation) -> None:
    """Add an allocation to the allocation table and, if it is on a node, to
    the owner index."""
    state.allocations[alloc.id] = alloc
    if alloc.node is not None:
        key = (alloc.owner, alloc.node)
        state._owned[key] = state._owned.get(key, ()) + (alloc.id,)


def release(state: Topology, allocation_id: str) -> None:
    try:
        alloc = state.allocations.pop(allocation_id)
    except KeyError:
        raise UnknownAllocationError(f"unknown allocation {allocation_id!r}") from None
    if alloc.node is not None:
        key = (alloc.owner, alloc.node)
        rest = tuple(a for a in state._owned[key] if a != allocation_id)
        if rest:
            state._owned[key] = rest
        else:
            del state._owned[key]
        state._used_node[alloc.node] = state._used_node[alloc.node] - alloc.resources
    else:
        state._used_link[alloc.link] = state._used_link[alloc.link] - alloc.resources.bandwidth


# Knob parameter suffix -> backing resource component on the target node.
_KNOB_BACKING = {
    ".cpu.millicores": "cpu",
    ".mem.mebibytes": "mem",
    ".storage.mebibytes": "storage",
}


def knob_backing_component(parameter: str) -> str | None:
    for suffix, component in _KNOB_BACKING.items():
        if parameter.endswith(suffix):
            return component
    return None


def set_knob(state: Topology, node_id: str, parameter: str, value: float) -> float:
    """Set a named knob on a node and sync its backing reservation.

    Resource-backed knobs (parameter ending in .cpu.millicores /
    .mem.mebibytes / .storage.mebibytes) keep an allocation of that size on
    the node; raising one past the residual capacity raises CapacityError
    and leaves the state untouched. Returns the previous value.
    """
    state._node(node_id)
    key = (node_id, parameter)
    previous = state.knobs.get(key, 0.0)
    component = knob_backing_component(parameter)
    if component is not None:
        if value < 0:
            raise ConfigError(f"knob {parameter} must be >= 0")
        backing_owner = f"knob:{node_id}:{parameter}"
        old_ids = sorted(state._owned.get((backing_owner, node_id), ()))
        amount = int(math.ceil(value))
        # Check before releasing the old backing, so that a refused knob
        # keeps its allocation ids as well as its value.
        free = getattr(state.node_residual(node_id), component) + sum(
            getattr(state.allocations[aid].resources, component) for aid in old_ids)
        if amount > free:
            raise CapacityError(
                component,
                f"node {node_id}: insufficient {component} (requested {amount}, free {free})")
        for aid in old_ids:
            release(state, aid)
        if amount > 0:
            allocate(state, node_id, ResourceVector(**{component: amount}), backing_owner)
    state.knobs[key] = float(value)
    return previous


def get_knob(state: Topology, node_id: str, parameter: str) -> float:
    return state.knobs.get((node_id, parameter), 0.0)


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def _adjacency(state: Topology) -> dict[str, list[tuple[str, Link]]]:
    adj: dict[str, list[tuple[str, Link]]] = {n: [] for n in state.nodes}
    for link in state.links.values():
        adj[link.a].append((link.b, link))
        adj[link.b].append((link.a, link))
    for lst in adj.values():
        lst.sort(key=lambda item: item[0])
    return adj


# One route: latency, node path, the path's link keys, and its reliability
# (the product over the links, multiplied in path order).
_Route = tuple[float, tuple[str, ...], tuple[tuple[str, str], ...], float]


class _RouteTable:
    """Minimum-latency routes of one link set, keyed by source and then
    destination. The adjacency list is built on first use and each source's
    routes on its first lookup, so nodes added before the first path query
    are routed too."""

    def __init__(self):
        self._adjacency: dict[str, list[tuple[str, Link]]] | None = None
        self._by_source: dict[str, dict[str, _Route]] = {}

    def route(self, state: Topology, src: str, dst: str) -> _Route:
        routes = self._by_source.get(src)
        if routes is None:
            if self._adjacency is None:
                self._adjacency = _adjacency(state)
            routes = self._by_source[src] = self._from_source(state, src)
        try:
            return routes[dst]
        except KeyError:
            raise UnreachableError(f"no path from {src!r} to {dst!r}") from None

    def _from_source(self, state: Topology, src: str) -> dict[str, _Route]:
        """Dijkstra over (latency, node path) pairs: the first pop of a node
        is its route, so equal-latency paths resolve to the lexicographically
        smallest node-id sequence."""
        adj = self._adjacency
        paths: dict[str, tuple[float, tuple[str, ...]]] = {}
        heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (src,))]
        while heap:
            latency, path = heapq.heappop(heap)
            node = path[-1]
            if node in paths:
                continue
            paths[node] = (latency, path)
            for nbr, link in adj.get(node, ()):
                if nbr not in paths:
                    heapq.heappush(heap, (latency + link.latency, path + (nbr,)))
        routes: dict[str, _Route] = {}
        for node, (latency, path) in paths.items():
            keys = tuple(tuple(sorted(hop)) for hop in zip(path, path[1:]))
            reliability = 1.0
            for key in keys:
                reliability *= state.links[key].reliability
            routes[node] = (latency, path, keys, reliability)
        return routes


def path_metrics(state: Topology, src: str, dst: str) -> PathMetrics:
    """Metrics of the minimum-latency path from src to dst.

    Latency is the sum of link latencies, bandwidth the minimum residual over
    the links, reliability the product over the links (independent-series
    model). Equal-latency paths resolve to the lexicographically smallest
    node-id sequence, which makes replays deterministic. The path comes from
    the topology's route table; only the residual bandwidth is read from the
    current allocations.
    """
    state._node(src)
    state._node(dst)
    if src == dst:
        return PathMetrics(0.0, math.inf, 1.0, (src,), ())
    latency, path, keys, reliability = state._routes.route(state, src, dst)
    bandwidth = min(state.links[key].bandwidth - state._used_link.get(key, 0) for key in keys)
    return PathMetrics(latency, bandwidth, reliability, path, keys)


# ---------------------------------------------------------------------------
# Cloning and serialization
# ---------------------------------------------------------------------------

def clone_state(state: Topology) -> Topology:
    """Mutation-isolated copy of the full state. The mutable containers
    (nodes, links, switches, allocations, knobs, usage tables, owner index)
    are copied;
    the frozen node, link, allocation and resource values inside them and
    the route table are shared."""
    clone = Topology(nodes=dict(state.nodes), links=dict(state.links),
                     switches=set(state.switches), allocations=dict(state.allocations),
                     knobs=dict(state.knobs), _used_node=dict(state._used_node),
                     _used_link=dict(state._used_link), _next_alloc=state._next_alloc,
                     _owned=dict(state._owned))
    clone._routes = state._routes
    return clone


def serialize_state(state: Topology) -> str:
    """Canonical YAML serialization (stable ordering), including allocations
    and knobs. Byte-equal serializations mean value-equal states."""
    doc = {
        "nodes": [
            {
                "id": n.id, "region": n.region, "tier": n.tier.value,
                "cpu": n.cpu_capacity, "mem": n.mem_capacity,
                "storage": n.storage_capacity, "reliability": n.reliability,
                "roles": list(n.roles),
            }
            for n in (state.nodes[k] for k in sorted(state.nodes))
        ],
        "switches": sorted(state.switches),
        "links": [
            {
                "a": l.key[0], "b": l.key[1], "bandwidth": l.bandwidth,
                "latency": l.latency, "reliability": l.reliability,
            }
            for l in (state.links[k] for k in sorted(state.links))
        ],
        "allocations": [
            {
                "id": a.id, "owner": a.owner,
                "target": a.node if a.node is not None else f"{a.link[0]}--{a.link[1]}",
                "cpu": a.resources.cpu, "mem": a.resources.mem,
                "storage": a.resources.storage, "bandwidth": a.resources.bandwidth,
            }
            for a in (state.allocations[k] for k in sorted(state.allocations))
        ],
        "knobs": [
            {"node": node, "parameter": param, "value": state.knobs[(node, param)]}
            for node, param in sorted(state.knobs)
        ],
    }
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=False)


def deserialize_state(text: str) -> Topology:
    """Inverse of serialize_state: rebuilds the topology, then restores the
    allocation table verbatim (original ids and owners) and the knob values.
    Knob backings are part of the allocations section already, so knobs are
    restored without re-reserving."""
    doc = yaml.safe_load(text)
    if not isinstance(doc, dict):
        raise TopologyError("state document must be a mapping")
    topo = build_topology({k: doc.get(k) for k in ("nodes", "switches", "links")})
    highest = 0
    for entry in doc.get("allocations", []) or []:
        resources = ResourceVector(
            cpu=_as_int(entry.get("cpu", 0), "allocation cpu"),
            mem=_as_int(entry.get("mem", 0), "allocation mem"),
            storage=_as_int(entry.get("storage", 0), "allocation storage"),
            bandwidth=_as_int(entry.get("bandwidth", 0), "allocation bandwidth"),
        )
        target = str(entry["target"])
        alloc_id = str(entry["id"])
        if target in topo.nodes:
            if not (topo.node_residual(target)).covers(resources):
                raise TopologyError(f"allocation {alloc_id} oversubscribes node {target}")
            alloc = Allocation(id=alloc_id, owner=str(entry["owner"]),
                               resources=resources, node=target)
            topo._used_node[target] = topo._used_node.get(target, _ZERO) + resources
        else:
            a, _, b = target.partition("--")
            key = tuple(sorted((a, b)))
            if key not in topo.links:
                raise TopologyError(f"allocation {alloc_id} targets unknown {target!r}")
            if topo.link_residual(key) < resources.bandwidth:
                raise TopologyError(f"allocation {alloc_id} oversubscribes link {target}")
            alloc = Allocation(id=alloc_id, owner=str(entry["owner"]),
                               resources=resources, link=key)
            topo._used_link[key] = topo._used_link.get(key, 0) + resources.bandwidth
        if alloc_id in topo.allocations:
            raise TopologyError(f"duplicate allocation id {alloc_id!r}")
        _record(topo, alloc)
        suffix = alloc_id.rsplit("-", 1)[-1]
        if suffix.isdigit():
            highest = max(highest, int(suffix))
    topo._next_alloc = highest + 1
    for entry in doc.get("knobs", []) or []:
        node = str(entry["node"])
        if node not in topo.nodes:
            raise TopologyError(f"knob targets unknown node {node!r}")
        topo.knobs[(node, str(entry["parameter"]))] = float(entry["value"])
    return topo


# ---------------------------------------------------------------------------
# Built-in scenario topology
# ---------------------------------------------------------------------------

def _testbed_spec() -> dict:
    """Three edge regions behind a small core: 16 compute VMs plus 9 VMs that
    only forward (switches). Regions mimic a Toronto/Waterloo/Calgary spread;
    inter-region latencies scale with distance. Capacities are configuration
    defaults, not measurements.

    Roles: the core VM runs the load balancer; in each region vm4 runs a
    firewall VNF, vm5 generates traffic and vm6 serves web requests.
    """
    nodes = [
        {"id": "core-vm1", "region": "core", "tier": "core", "cpu": 16000,
         "mem": 32768, "storage": 204800, "reliability": 0.9995,
         "roles": ["loadbalancer"]},
    ]
    switches = [
        {"id": "core-sw1", "region": "core", "tier": "core", "reliability": 0.9999},
        {"id": "core-sw2", "region": "core", "tier": "core", "reliability": 0.9999},
        {"id": "core-sw3", "region": "core", "tier": "core", "reliability": 0.9999},
    ]
    links = [
        {"a": "core-vm1", "b": "core-sw1", "bandwidth": 10000, "latency": 0.5, "reliability": 0.9999},
        {"a": "core-sw1", "b": "core-sw2", "bandwidth": 10000, "latency": 0.5, "reliability": 0.9999},
        {"a": "core-sw1", "b": "core-sw3", "bandwidth": 10000, "latency": 0.5, "reliability": 0.9999},
        {"a": "core-sw2", "b": "core-sw3", "bandwidth": 10000, "latency": 0.5, "reliability": 0.9999},
    ]
    region_specs = [
        ("toronto", "core-sw1", 2.0),
        ("waterloo", "core-sw2", 4.0),
        ("calgary", "core-sw3", 30.0),
    ]
    role_by_vm = {4: ["firewall"], 5: ["trafficgen"], 6: ["webserver"]}
    for region, core_sw, wan_latency in region_specs:
        for i in range(2, 7):  # vm2..vm6, five VMs per region
            tier = "edge" if i <= 4 else "access"
            nodes.append({
                "id": f"{region}-vm{i}", "region": region, "tier": tier,
                "cpu": 8000 if i <= 4 else 4000,
                "mem": 16384 if i <= 4 else 8192,
                "storage": 102400 if i <= 4 else 51200,
                "reliability": 0.999,
                "roles": role_by_vm.get(i, []),
            })
        for j in (1, 2):
            switches.append({"id": f"{region}-sw{j}", "region": region,
                             "tier": "edge", "reliability": 0.9995})
        links.append({"a": f"{region}-sw1", "b": core_sw, "bandwidth": 1000,
                      "latency": wan_latency, "reliability": 0.998})
        links.append({"a": f"{region}-sw1", "b": f"{region}-sw2", "bandwidth": 1000,
                      "latency": 0.5, "reliability": 0.9995})
        for i in range(2, 7):
            sw = f"{region}-sw1" if i <= 4 else f"{region}-sw2"
            links.append({"a": f"{region}-vm{i}", "b": sw, "bandwidth": 1000,
                          "latency": 1.0, "reliability": 0.999})
    return {"nodes": nodes, "switches": switches, "links": links}


TOPOLOGY_PRESETS = {
    "testbed": _testbed_spec,
}
