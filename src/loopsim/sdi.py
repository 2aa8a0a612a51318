"""Software-defined infrastructure model.

Multi-tier topology of compute nodes, forwarding-only switches and links,
with integer resource accounting (millicores / MiB / Mb/s), latency-optimal
path metrics, named knobs (a resource-backed knob holds its own value of its
node's capacity), and cheaply cloneable state for sandbox dry-runs.

Every reservation has one target, a node id or a link key, with a capacity
vector (a link's is bandwidth only); one usage table keyed by target holds
what is reserved, so nodes and links are booked, released and checked alike.

Resource quantities are integers in fixed units so that conservation
(residual + allocations + knob backings == capacity) holds exactly, with no
float drift. Switches are ordinary nodes with zero compute capacity, which
keeps path computation uniform.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from enum import Enum
from typing import NamedTuple

from .config import load_yaml, section
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


# NamedTuple forbids overriding __new__, so a record that checks its fields
# or derives a value does it in __new__ on a subclass of its fields. A
# derived value lives in the instance dict, outside the fields, so repr,
# equality and iteration see the fields alone.
class _Resources(NamedTuple):
    cpu: int
    mem: int
    storage: int
    bandwidth: int


class ResourceVector(_Resources):
    """Component-wise resource bundle. cpu in millicores, mem/storage in MiB,
    bandwidth in Mb/s."""

    __slots__ = ()

    def __new__(cls, cpu: int = 0, mem: int = 0, storage: int = 0, bandwidth: int = 0):
        for name, v in zip(RESOURCE_COMPONENTS, (cpu, mem, storage, bandwidth)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError(f"resource {name} must be an integer, got {v!r}")
            if v < 0:
                raise ConfigError(f"resource {name} must be >= 0, got {v}")
        return tuple.__new__(cls, (cpu, mem, storage, bandwidth))

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

    def shortfall(self, other: "ResourceVector") -> str | None:
        """Name of the first component where self < other, or None."""
        for c, mine, theirs in zip(RESOURCE_COMPONENTS, self, other):
            if mine < theirs:
                return c
        return None

    def is_zero(self) -> bool:
        return not any(self)


def _vector(cpu: int, mem: int, storage: int, bandwidth: int) -> ResourceVector:
    """ResourceVector without the per-field validation, for results of
    arithmetic on already valid vectors (non-negative ints in, non-negative
    ints out)."""
    return tuple.__new__(ResourceVector, (cpu, mem, storage, bandwidth))


ZERO = ResourceVector()  # shared: immutable, so it never changes


class _NodeFields(NamedTuple):
    id: str
    region: str
    tier: Tier
    cpu_capacity: int
    mem_capacity: int
    storage_capacity: int
    reliability: float
    roles: tuple[str, ...]


class ComputeNode(_NodeFields):
    """A node; `capacity` is its capacity vector (bandwidth 0), derived once."""

    def __new__(cls, id: str, region: str, tier: Tier, cpu_capacity: int = 0,
                mem_capacity: int = 0, storage_capacity: int = 0, reliability: float = 1.0,
                roles: tuple[str, ...] = ()):
        node = tuple.__new__(cls, (id, region, tier, cpu_capacity, mem_capacity,
                                   storage_capacity, reliability, roles))
        for name in ("cpu_capacity", "mem_capacity", "storage_capacity"):
            if getattr(node, name) < 0:
                raise TopologyError(f"node {id}: {name} must be >= 0")
        if not 0.0 <= reliability <= 1.0:
            raise TopologyError(f"node {id}: reliability must be in [0, 1]")
        node.capacity = _vector(cpu_capacity, mem_capacity, storage_capacity, 0)
        return node


class _LinkFields(NamedTuple):
    a: str
    b: str
    bandwidth: int  # Mb/s
    latency: float  # ms
    reliability: float


class Link(_LinkFields):
    """A link; `capacity` is its capacity vector (bandwidth only), derived once."""

    def __new__(cls, a: str, b: str, bandwidth: int, latency: float, reliability: float = 1.0):
        if a == b:
            raise TopologyError(f"link {a}--{b}: endpoints must be distinct")
        if bandwidth <= 0:
            raise TopologyError(f"link {a}--{b}: bandwidth must be > 0")
        if latency < 0:
            raise TopologyError(f"link {a}--{b}: latency must be >= 0")
        if not 0.0 <= reliability <= 1.0:
            raise TopologyError(f"link {a}--{b}: reliability must be in [0, 1]")
        link = tuple.__new__(cls, (a, b, bandwidth, latency, reliability))
        link.capacity = _vector(0, 0, 0, bandwidth)
        return link

    @property
    def key(self) -> tuple[str, str]:
        return tuple(sorted((self.a, self.b)))  # type: ignore[return-value]


# A reservation target: a node id, or a link key (the sorted endpoint pair).
Target = str | tuple[str, str]


def target_label(target: Target) -> str:
    """'node X' or 'link a--b': how messages name a target."""
    return f"link {'--'.join(target)}" if isinstance(target, tuple) else f"node {target}"


class Allocation(NamedTuple):
    """A recorded reservation: compute resources on a node, or bandwidth on a link."""

    id: str
    owner: str
    resources: ResourceVector
    target: Target


class Topology:
    """Topology plus mutable allocation/knob state. Single-writer: callers
    mutate one Topology from one logical owner at a time; clones are
    independent. Links are fixed once build_topology returns (only their
    residual bandwidth changes), so a topology and its clones share one
    route table."""

    def __init__(self, nodes: dict[str, ComputeNode], links: dict[tuple[str, str], Link],
                 switches: set[str], allocations: dict[str, Allocation] | None = None,
                 knobs: dict[tuple[str, str], float] | None = None,
                 _used: dict[Target, ResourceVector] | None = None, _next_alloc: int = 1):
        self.nodes = nodes
        self.links = links
        self.switches = switches
        self.allocations = {} if allocations is None else allocations
        self.knobs = {} if knobs is None else knobs
        self._used = {} if _used is None else _used
        self._next_alloc = _next_alloc
        self._routes = _RouteTable()

    def capacity(self, target: Target) -> ResourceVector:
        """Capacity vector of a node id or a link key."""
        entity = self.nodes.get(target) or self.links.get(target)
        if entity is None:
            raise UnknownNodeError(f"unknown {target_label(target)}")
        return entity.capacity

    def residual(self, target: Target) -> ResourceVector:
        return self.capacity(target) - self._used.get(target, ZERO)

    def free_bandwidth(self, key: tuple[str, str]) -> int:
        """A link's residual bandwidth, read without building a vector."""
        return self.links[key].bandwidth - self._used.get(key, ZERO).bandwidth

    def compute_nodes(self) -> list[str]:
        """Ids of nodes that may host work (switches forward only)."""
        return sorted(n for n in self.nodes if n not in self.switches)

    def _node(self, node_id: str) -> ComputeNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node_id!r}") from None


class PathMetrics(NamedTuple):
    """Aggregate metrics of one concrete node path."""

    latency_ms: float
    min_bandwidth: float  # residual Mb/s; inf on a zero-link path
    reliability: float
    path: tuple[str, ...]
    links: tuple[tuple[str, str], ...]  # link keys in path order


# ---------------------------------------------------------------------------
# Topology construction
# ---------------------------------------------------------------------------

_NODE = {"id": str, "region": "default", "tier": "edge", "cpu": 0, "mem": 0, "storage": 0,
         "reliability": 1.0, "roles": [str]}
_LINK = {"a": str, "b": str, "bandwidth": 0, "latency": 0.0, "reliability": 1.0}
_KNOB = {"node": str, "parameter": str, "value": float}
_TOPOLOGY = {"nodes": [object], "switches": [object], "links": [object], "knobs": [object]}


def _parse_node(entry: dict) -> ComputeNode:
    n = section(entry, "", _NODE)
    if "--" in n["id"]:
        raise TopologyError(f"node id {n['id']!r} must not contain '--' "
                            "(messages name a link as a--b)")
    try:
        tier = Tier(n["tier"].lower())
    except ValueError:
        raise TopologyError(f"node {n['id']}: unknown tier {n['tier']!r}") from None
    return ComputeNode(n["id"], n["region"], tier, n["cpu"], n["mem"], n["storage"],
                       n["reliability"], tuple(n["roles"]))


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
    spec = section(spec, "", _TOPOLOGY)

    nodes: dict[str, ComputeNode] = {}
    switches: set[str] = set()
    for kind, entries in (("node", spec["nodes"]), ("switch", spec["switches"])):
        for entry in entries:
            if kind == "switch" and isinstance(entry, str):
                switches.add(entry)  # the id of a node entry
                continue
            node = _entry(kind, entry, _parse_node)
            if node.id in nodes:
                raise TopologyError(f"duplicate node id {node.id!r}")
            nodes[node.id] = node
            if kind == "switch":
                switches.add(node.id)
    for sid in switches:
        if sid not in nodes:
            raise TopologyError(f"switch {sid!r} is not declared as a node")
        if not nodes[sid].capacity.is_zero():
            raise TopologyError(f"switch {sid!r} must have zero compute capacity")

    links: dict[tuple[str, str], Link] = {}
    for entry in spec["links"]:
        link = _entry("link", entry, lambda e: Link(**section(e, "", _LINK)))
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
    for entry in spec["knobs"]:
        _entry("knob", entry, lambda e: set_knob(topo, *section(e, "", _KNOB).values()))
    return topo


def _entry(kind: str, entry, parse):
    """parse(entry), where a topology entry that is not a mapping,
    a missing, unknown or malformed field (or a knob its node cannot take)
    raises a TopologyError naming the entry."""
    if not isinstance(entry, dict):
        raise TopologyError(f"{kind} entry {entry!r} must be a mapping")
    try:
        return parse(entry)
    except (ConfigError, UnknownNodeError, CapacityError) as exc:
        raise TopologyError(f"{kind} entry {entry!r}: {exc}") from None


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


def load_topology(source) -> Topology:
    """The topology that a preset name or a YAML topology file names."""
    if source in TOPOLOGY_PRESETS:
        return build_topology(source)
    return build_topology(load_yaml(source))


# ---------------------------------------------------------------------------
# Allocation / release / knobs
# ---------------------------------------------------------------------------

def allocate(state: Topology, node_id: str, resources: ResourceVector, owner: str) -> Allocation:
    """Reserve compute resources on a node. Bandwidth is reserved on links
    (see reserve_bandwidth), so resources.bandwidth must be 0 here."""
    state._node(node_id)
    if resources.bandwidth != 0:
        raise ConfigError("node allocations carry no bandwidth; reserve it on links")
    return _book(state, owner, resources, node_id)


def reserve_bandwidth(state: Topology, a: str, b: str, mbps: int, owner: str) -> Allocation:
    """Reserve mbps (an integer >= 0, as ResourceVector checks) on link a--b."""
    return _book(state, owner, ResourceVector(bandwidth=mbps), tuple(sorted((a, b))))


def _insufficient(target: Target, component: str, requested: int, free: int) -> CapacityError:
    return CapacityError(component, f"{target_label(target)}: insufficient {component} "
                                    f"(requested {requested}, free {free})")


def _book(state: Topology, owner: str, resources: ResourceVector, target: Target) -> Allocation:
    """The one way an allocation enters a state: check it against the free
    capacity of its target, then record it under the next free id, and its
    usage."""
    residual = state.residual(target)
    short = residual.shortfall(resources)
    if short is not None:
        raise _insufficient(target, short, getattr(resources, short), getattr(residual, short))
    alloc_id = f"alloc-{state._next_alloc:06d}"
    state._next_alloc += 1
    alloc = state.allocations[alloc_id] = Allocation(alloc_id, owner, resources, target)
    state._used[target] = state._used.get(target, ZERO) + resources
    return alloc


def release(state: Topology, allocation_id: str) -> None:
    try:
        alloc = state.allocations.pop(allocation_id)
    except KeyError:
        raise UnknownAllocationError(f"unknown allocation {allocation_id!r}") from None
    state._used[alloc.target] = state._used[alloc.target] - alloc.resources


# Knob parameter suffix -> backing resource component on the target node.
_KNOB_BACKING = {
    ".cpu.millicores": "cpu",
    ".mem.mebibytes": "mem",
    ".storage.mebibytes": "storage",
}


@functools.cache
def knob_backing_component(parameter: str) -> str | None:
    """The component backing a knob parameter, or None; a run names few
    parameters, so each is looked up once."""
    for suffix, component in _KNOB_BACKING.items():
        if parameter.endswith(suffix):
            return component
    return None


def check_knob_value(parameter: str, value: float) -> None:
    """A knob value is finite, and >= 0 on a resource-backed knob; else ConfigError."""
    if not math.isfinite(value):
        raise ConfigError(f"knob {parameter} must be finite, got {value!r}")
    if value < 0 and knob_backing_component(parameter) is not None:
        raise ConfigError(f"knob {parameter} must be >= 0")


def set_knob(state: Topology, node_id: str, parameter: str, value: float) -> float:
    """Set a named knob on a node; returns the previous value.

    A resource-backed knob (parameter ending in .cpu.millicores /
    .mem.mebibytes / .storage.mebibytes) holds ceil(value) of that component
    in the node's usage table, with no allocation. A value check_knob_value
    refuses raises ConfigError, and raising a backed knob past the free
    capacity raises CapacityError; either leaves the state untouched.
    """
    node = state._node(node_id)
    check_knob_value(parameter, value)
    key = (node_id, parameter)
    previous = state.knobs.get(key, 0.0)
    component = knob_backing_component(parameter)
    if component is not None:
        amount = int(math.ceil(value))
        held = int(math.ceil(previous))
        if amount != held:
            used = state._used.get(node_id, ZERO)
            free = getattr(node.capacity, component) - getattr(used, component) + held
            if amount > free:
                raise _insufficient(node_id, component, amount, free)
            state._used[node_id] = used._replace(
                **{component: getattr(used, component) + amount - held})
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


class _Latencies(dict):
    """Route latency by destination, from one source."""

    def __init__(self, src: str, latencies: dict[str, float]):
        super().__init__(latencies)
        self.src = src

    def __missing__(self, dst: str) -> float:
        raise UnreachableError(f"no path from {self.src!r} to {dst!r}")


class _RouteTable:
    """Minimum-latency routes of one link set, keyed by source and then
    destination, and their latencies alone. The adjacency list is built on
    first use and each source's routes on its first lookup, so nodes added
    before the first path query are routed too."""

    def __init__(self):
        self._adjacency: dict[str, list[tuple[str, Link]]] | None = None
        self._by_source: dict[str, dict[str, _Route]] = {}
        self._latencies: dict[str, _Latencies] = {}

    def route(self, state: Topology, src: str, dst: str) -> _Route:
        routes = self._by_source.get(src) or self._add_source(state, src)
        try:
            return routes[dst]
        except KeyError:
            raise UnreachableError(f"no path from {src!r} to {dst!r}") from None

    def latencies(self, state: Topology, src: str) -> _Latencies:
        latencies = self._latencies.get(src)
        if latencies is None:
            routes = self._by_source.get(src) or self._add_source(state, src)
            latencies = self._latencies[src] = _Latencies(
                src, {dst: route[0] for dst, route in routes.items()})
        return latencies

    def _add_source(self, state: Topology, src: str) -> dict[str, _Route]:
        if self._adjacency is None:
            self._adjacency = _adjacency(state)
        routes = self._by_source[src] = self._from_source(state, src)
        return routes

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
    bandwidth = min(map(state.free_bandwidth, keys))
    return PathMetrics(latency, bandwidth, reliability, path, keys)


def path_latencies(state: Topology, src: str) -> dict[str, float]:
    """The latency of path_metrics(state, src, dst) for every dst, src
    itself included, read from the route table alone; indexing it with a
    node that src cannot reach raises UnreachableError."""
    return state._routes.latencies(state, src)


# ---------------------------------------------------------------------------
# Cloning
# ---------------------------------------------------------------------------

def clone_state(state: Topology) -> Topology:
    """Mutation-isolated copy of the full state. The mutable containers
    (nodes, links, switches, allocations, knobs, usage table) are copied;
    the immutable node, link, allocation and resource values inside them and
    the route table are shared."""
    clone = Topology(nodes=dict(state.nodes), links=dict(state.links),
                     switches=set(state.switches), allocations=dict(state.allocations),
                     knobs=dict(state.knobs), _used=dict(state._used),
                     _next_alloc=state._next_alloc)
    clone._routes = state._routes
    return clone


# ---------------------------------------------------------------------------
# Built-in and generated topologies
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


def region_ring_spec(rng: random.Random, regions: int, vms: int) -> dict:
    """A generated topology spec: regions r0..r{regions-1}, each one switch
    with vms firewall VMs hanging off it; the region switches sit on a ring
    (with more than two regions) around a core switch. Link latencies are
    drawn from rng, a switch's core then ring link before its VMs' links."""
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


TOPOLOGY_PRESETS = {
    "testbed": _testbed_spec,
}
