"""Infrastructure model: construction, conservation, paths, cloning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsim import sdi
from loopsim.errors import ConfigError
from loopsim.sdi import (CapacityError, ResourceVector, Tier, TopologyError,
                         UnknownAllocationError, UnknownNodeError, UnreachableError,
                         allocate, build_topology, clone_state, path_metrics, release,
                         reserve_bandwidth, serialize_state, set_knob)


def small_spec(**overrides):
    spec = {
        "nodes": [
            {"id": "a", "region": "r1", "tier": "core", "cpu": 4000, "mem": 8192,
             "storage": 10240, "reliability": 0.99},
            {"id": "b", "region": "r1", "tier": "edge", "cpu": 2000, "mem": 4096,
             "storage": 5120, "reliability": 0.99},
            {"id": "c", "region": "r2", "tier": "access", "cpu": 1000, "mem": 2048,
             "storage": 2560, "reliability": 0.98},
        ],
        "links": [
            {"a": "a", "b": "b", "bandwidth": 100, "latency": 5.0, "reliability": 0.99},
            {"a": "b", "b": "c", "bandwidth": 50, "latency": 10.0, "reliability": 0.99},
        ],
    }
    spec.update(overrides)
    return spec


# ---------------------------------------------------------------------------
# build_topology
# ---------------------------------------------------------------------------

def test_testbed_preset_counts():
    topo = build_topology("testbed")
    assert len(topo.nodes) == 25
    assert len(topo.switches) == 9
    assert len(topo.compute_nodes()) == 16
    regions = {n.region for n in topo.nodes.values()}
    assert regions == {"core", "toronto", "waterloo", "calgary"}
    for sid in topo.switches:
        assert topo.nodes[sid].capacity.is_zero()


def test_single_node_topology_is_valid():
    topo = build_topology({"nodes": [{"id": "solo", "region": "r", "tier": "core",
                                      "cpu": 1000}]})
    assert list(topo.nodes) == ["solo"]


def test_dangling_link_endpoint_rejected():
    spec = small_spec()
    spec["links"].append({"a": "a", "b": "ghost", "bandwidth": 10, "latency": 1.0})
    with pytest.raises(TopologyError, match="dangling"):
        build_topology(spec)


def test_duplicate_node_id_rejected():
    spec = small_spec()
    spec["nodes"].append(dict(spec["nodes"][0]))
    with pytest.raises(TopologyError, match="duplicate"):
        build_topology(spec)


def test_disconnected_topology_rejected():
    spec = small_spec(links=[{"a": "a", "b": "b", "bandwidth": 10, "latency": 1.0}])
    with pytest.raises(TopologyError, match="disconnected"):
        build_topology(spec)


def test_switch_with_capacity_rejected():
    spec = small_spec()
    spec["switches"] = ["b"]  # b has nonzero cpu
    with pytest.raises(TopologyError, match="zero compute capacity"):
        build_topology(spec)


def test_unknown_preset():
    with pytest.raises(TopologyError, match="unknown topology preset"):
        build_topology("nope")


# ---------------------------------------------------------------------------
# allocate / release
# ---------------------------------------------------------------------------

def test_allocate_reduces_residual_exactly():
    topo = build_topology(small_spec())
    allocate(topo, "a", ResourceVector(cpu=1000), "me")
    assert topo.node_residual("a").cpu == 3000
    assert topo.node_residual("a").mem == 8192


def test_allocate_over_capacity_names_component():
    topo = build_topology(small_spec())
    with pytest.raises(CapacityError) as exc:
        allocate(topo, "c", ResourceVector(cpu=1001), "me")
    assert exc.value.component == "cpu"
    assert "cpu" in str(exc.value)


def test_allocate_release_roundtrip_bit_identical():
    topo = build_topology(small_spec())
    before = serialize_state(topo)
    alloc = allocate(topo, "a", ResourceVector(cpu=500, mem=256, storage=128), "me")
    assert serialize_state(topo) != before
    release(topo, alloc.id)
    # Residuals return exactly; the allocation counter is internal state and
    # is not serialized.
    assert serialize_state(topo) == before


def test_double_release_fails():
    topo = build_topology(small_spec())
    alloc = allocate(topo, "a", ResourceVector(cpu=10), "me")
    release(topo, alloc.id)
    with pytest.raises(UnknownAllocationError):
        release(topo, alloc.id)


def test_release_all_restores_fresh_state():
    topo = build_topology(small_spec())
    fresh = serialize_state(build_topology(small_spec()))
    ids = [allocate(topo, n, ResourceVector(cpu=100), f"o{i}").id
           for i, n in enumerate(["a", "b", "c", "a"])]
    ids.append(reserve_bandwidth(topo, "a", "b", 10, "o9").id)
    for aid in ids:
        release(topo, aid)
    assert serialize_state(topo) == fresh


def test_allocate_unknown_node():
    topo = build_topology(small_spec())
    with pytest.raises(UnknownNodeError):
        allocate(topo, "zzz", ResourceVector(cpu=1), "me")


def test_node_allocation_rejects_bandwidth_component():
    topo = build_topology(small_spec())
    with pytest.raises(ConfigError, match="links"):
        allocate(topo, "a", ResourceVector(cpu=1, bandwidth=5), "me")


def test_reserve_bandwidth_and_residual():
    topo = build_topology(small_spec())
    reserve_bandwidth(topo, "a", "b", 60, "me")
    assert topo.link_residual(("a", "b")) == 40
    with pytest.raises(CapacityError) as exc:
        reserve_bandwidth(topo, "a", "b", 41, "me")
    assert exc.value.component == "bandwidth"


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]),
              st.integers(0, 1500), st.integers(0, 3000), st.integers(0, 3000),
              st.booleans()),
    max_size=30))
def test_conservation_under_random_ops(ops):
    """residual + sum(allocations) == capacity, exactly, for any sequence."""
    topo = build_topology(small_spec())
    live = []
    for node, cpu, mem, storage, do_release in ops:
        if do_release and live:
            release(topo, live.pop(0))
        else:
            try:
                live.append(allocate(topo, node, ResourceVector(cpu, mem, storage), "p").id)
            except CapacityError:
                pass
    for node_id, node in topo.nodes.items():
        total = ResourceVector()
        for alloc in topo.allocations.values():
            if alloc.node == node_id:
                total = total + alloc.resources
        assert total + topo.node_residual(node_id) == node.capacity


# ---------------------------------------------------------------------------
# path_metrics and its enumeration oracle
# ---------------------------------------------------------------------------

def enumerate_simple_paths(topo, src, dst):
    adj = {}
    for (a, b) in topo.links:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    paths = []

    def walk(node, path):
        if node == dst:
            paths.append(tuple(path))
            return
        for nbr in adj.get(node, []):
            if nbr not in path:
                walk(nbr, path + [nbr])

    walk(src, [src])
    return paths


def oracle_min_latency_path(topo, src, dst):
    """Exhaustive minimum-(latency, lexicographic path) over simple paths."""
    best = None
    for path in enumerate_simple_paths(topo, src, dst):
        latency = 0.0
        for a, b in zip(path, path[1:]):
            latency += topo.links[tuple(sorted((a, b)))].latency
        key = (latency, path)
        if best is None or key < best:
            best = key
    return best


def test_path_single_link():
    topo = build_topology(small_spec())
    pm = path_metrics(topo, "a", "b")
    assert (pm.latency_ms, pm.min_bandwidth, pm.reliability) == (5.0, 100, 0.99)


def test_path_two_link_chain_composition():
    topo = build_topology(small_spec())
    pm = path_metrics(topo, "a", "c")
    assert pm.latency_ms == 15.0
    assert pm.min_bandwidth == 50
    assert pm.reliability == pytest.approx(0.9801, abs=1e-12)


def test_path_same_node():
    topo = build_topology(small_spec())
    pm = path_metrics(topo, "a", "a")
    assert pm.latency_ms == 0.0
    assert pm.min_bandwidth == math.inf
    assert pm.reliability == 1.0


def test_path_unknown_node():
    topo = build_topology(small_spec())
    with pytest.raises(UnknownNodeError):
        path_metrics(topo, "a", "zzz")


def test_path_unreachable_pair():
    # Assembled directly: build_topology would reject a disconnected graph.
    topo = build_topology(small_spec())
    island = sdi.ComputeNode(id="island", region="r3", tier=Tier.EDGE)
    topo.nodes["island"] = island
    with pytest.raises(UnreachableError):
        path_metrics(topo, "a", "island")


def test_path_oracle_on_testbed_cross_region_pairs():
    topo = build_topology("testbed")
    pairs = [("toronto-vm6", "calgary-vm6"), ("waterloo-vm2", "core-vm1"),
             ("calgary-vm2", "toronto-vm3"), ("waterloo-vm6", "calgary-vm4"),
             ("core-vm1", "waterloo-vm6")]
    for src, dst in pairs:
        best = oracle_min_latency_path(topo, src, dst)
        pm = path_metrics(topo, src, dst)
        assert pm.latency_ms == best[0]
        assert pm.path == best[1]


def test_path_links_are_the_sorted_hop_keys_of_the_path():
    topo = build_topology("testbed")
    for src in sorted(topo.nodes):
        for dst in sorted(topo.nodes):
            pm = path_metrics(topo, src, dst)
            hops = tuple(tuple(sorted(hop)) for hop in zip(pm.path, pm.path[1:]))
            assert pm.links == hops, (src, dst)
            assert all(key in topo.links for key in pm.links)


def random_topology(seed, n_nodes=6, tie_latencies=True):
    rng = np.random.Generator(np.random.PCG64(seed))
    names = [f"n{i}" for i in range(n_nodes)]
    nodes = [{"id": n, "region": "r", "tier": "edge", "cpu": 1000} for n in names]
    links = []
    seen = set()
    for i in range(1, n_nodes):  # random spanning tree first
        j = int(rng.integers(0, i))
        seen.add((names[j], names[i]))
    extra = int(rng.integers(0, n_nodes))
    for _ in range(extra):
        i, j = sorted(rng.choice(n_nodes, size=2, replace=False))
        key = (names[i], names[j])
        if key not in seen:
            seen.add(key)
    lat_choices = [1.0, 2.0] if tie_latencies else [1.0, 2.5, 4.0, 7.0]
    for a, b in sorted(seen):
        links.append({"a": a, "b": b,
                      "bandwidth": int(rng.integers(10, 200)),
                      "latency": float(rng.choice(lat_choices)),
                      "reliability": float(rng.choice([0.9, 0.95, 0.99]))})
    return build_topology({"nodes": nodes, "links": links})


@pytest.mark.parametrize("seed", range(25))
def test_path_oracle_on_random_graphs_with_latency_ties(seed):
    topo = random_topology(seed)
    names = sorted(topo.nodes)
    for src in names:
        for dst in names:
            if src == dst:
                continue
            best = oracle_min_latency_path(topo, src, dst)
            pm = path_metrics(topo, src, dst)
            assert (pm.latency_ms, pm.path) == best, (src, dst)


# ---------------------------------------------------------------------------
# clone_state
# ---------------------------------------------------------------------------

def test_clone_then_mutate_leaves_original_untouched():
    topo = build_topology(small_spec())
    allocate(topo, "a", ResourceVector(cpu=100), "me")
    before = serialize_state(topo)
    clone = clone_state(topo)
    allocate(clone, "b", ResourceVector(cpu=999), "other")
    set_knob(clone, "a", "vnf.cpu.millicores", 123.0)
    release(clone, next(iter(clone.allocations)))
    assert serialize_state(topo) == before


def test_clone_of_clone_equal_by_value():
    topo = build_topology(small_spec())
    allocate(topo, "b", ResourceVector(mem=64), "me")
    c1 = clone_state(topo)
    c2 = clone_state(c1)
    assert serialize_state(c2) == serialize_state(topo)


def test_clone_preserves_allocation_sums():
    topo = build_topology(small_spec())
    for i in range(5):
        allocate(topo, "a", ResourceVector(cpu=10 * (i + 1)), f"o{i}")
    clone = clone_state(topo)
    assert clone.node_residual("a") == topo.node_residual("a")
    assert len(clone.allocations) == 5


_MUTATIONS = st.lists(st.tuples(
    st.sampled_from(["allocate", "release", "knob", "bandwidth"]),
    st.sampled_from(["a", "b", "c"]),
    st.integers(0, 3000)), max_size=8)


@settings(max_examples=60, deadline=None)
@given(mutate_original=st.booleans(), mutations=_MUTATIONS)
def test_clone_of_clone_isolated_from_mutations_on_either_side(mutate_original, mutations):
    topo = build_topology(small_spec())
    allocate(topo, "a", ResourceVector(cpu=100, storage=10), "me")
    reserve_bandwidth(topo, "a", "b", 30, "me")
    set_knob(topo, "b", "vnf.cpu.millicores", 250.0)
    before = serialize_state(topo)
    first = clone_state(topo)
    second = clone_state(first)
    target, untouched = (topo, first) if mutate_original else (first, topo)
    for op, node, amount in mutations:
        try:
            if op == "allocate":
                allocate(target, node, ResourceVector(cpu=amount), "x")
            elif op == "release" and target.allocations:
                release(target, min(target.allocations))
            elif op == "knob":
                set_knob(target, node, "vnf.cpu.millicores", float(amount))
            elif op == "bandwidth":
                reserve_bandwidth(target, "b", "c", amount // 100, "x")
        except CapacityError:
            pass
    assert serialize_state(second) == before
    assert serialize_state(untouched) == before
    fresh = sdi.deserialize_state(serialize_state(target))
    for src in target.nodes:
        for dst in target.nodes:
            assert path_metrics(target, src, dst) == path_metrics(fresh, src, dst)


# ---------------------------------------------------------------------------
# ResourceVector arithmetic
# ---------------------------------------------------------------------------

_VECTORS = st.builds(ResourceVector, *[st.integers(0, 10 ** 6)] * 4)


@given(a=_VECTORS, b=_VECTORS)
def test_vector_arithmetic_matches_validated_constructor(a, b):
    fields = sdi.RESOURCE_COMPONENTS
    total = a + b
    expected = ResourceVector(*(getattr(a, c) + getattr(b, c) for c in fields))
    assert total == expected and hash(total) == hash(expected)
    assert repr(total) == repr(expected)
    diffs = [getattr(a, c) - getattr(b, c) for c in fields]
    short = next((c for c, d in zip(fields, diffs) if d < 0), None)
    if short is None:
        difference = a - b
        assert difference == ResourceVector(*diffs)
        assert repr(difference) == repr(ResourceVector(*diffs))
    else:
        with pytest.raises(ConfigError, match=f"^resource {short} must be >= 0"):
            a - b


# ---------------------------------------------------------------------------
# knobs
# ---------------------------------------------------------------------------

def test_knob_backing_reserves_cpu():
    topo = build_topology(small_spec())
    set_knob(topo, "a", "vnf.cpu.millicores", 1500.0)
    assert topo.node_residual("a").cpu == 2500
    set_knob(topo, "a", "vnf.cpu.millicores", 500.0)
    assert topo.node_residual("a").cpu == 3500


def test_knob_over_capacity_keeps_previous_value():
    topo = build_topology(small_spec())
    set_knob(topo, "c", "vnf.cpu.millicores", 800.0)
    with pytest.raises(CapacityError):
        set_knob(topo, "c", "vnf.cpu.millicores", 5000.0)
    assert sdi.get_knob(topo, "c", "vnf.cpu.millicores") == 800.0
    assert topo.node_residual("c").cpu == 200


def test_refused_knob_leaves_state_bitwise_identical():
    topo = build_topology(small_spec())
    set_knob(topo, "c", "vnf.cpu.millicores", 800.0)
    allocate(topo, "c", ResourceVector(cpu=100), "other")
    before = serialize_state(topo)
    with pytest.raises(CapacityError, match=r"insufficient cpu \(requested 901, free 900\)"):
        set_knob(topo, "c", "vnf.cpu.millicores", 900.5)
    assert serialize_state(topo) == before


def test_non_resource_knob_reserves_nothing():
    topo = build_topology(small_spec())
    set_knob(topo, "a", "firewall.mode", 2.0)
    assert topo.node_residual("a") == topo.nodes["a"].capacity
    assert sdi.get_knob(topo, "a", "firewall.mode") == 2.0


# ---------------------------------------------------------------------------
# State round trip
# ---------------------------------------------------------------------------

def populated_state():
    topo = build_topology("testbed")
    allocate(topo, "toronto-vm2", ResourceVector(cpu=1200, mem=512), "loop-a")
    allocate(topo, "waterloo-vm4", ResourceVector(cpu=700, storage=2048), "loop-b")
    reserve_bandwidth(topo, "waterloo-vm4", "waterloo-sw1", 250, "loop-b")
    set_knob(topo, "waterloo-vm4", "vnf.cpu.millicores", 1500.0)
    set_knob(topo, "core-vm1", "lb.weight", 0.75)
    return topo


def test_state_serialization_roundtrip_bitwise():
    topo = populated_state()
    text = serialize_state(topo)
    back = sdi.deserialize_state(text)
    assert serialize_state(back) == text


def test_loaded_state_keeps_accounting_live():
    topo = populated_state()
    back = sdi.deserialize_state(serialize_state(topo))
    assert back.node_residual("waterloo-vm4") == topo.node_residual("waterloo-vm4")
    assert back.link_residual(("waterloo-sw1", "waterloo-vm4")) == 750
    # Allocation ids continue past the restored ones.
    fresh = allocate(back, "calgary-vm2", ResourceVector(cpu=10), "x")
    assert fresh.id not in serialize_state(topo)
    release(back, fresh.id)
    # Knob adjustments keep working against the restored backing owner.
    set_knob(back, "waterloo-vm4", "vnf.cpu.millicores", 500.0)
    assert back.node_residual("waterloo-vm4").cpu == \
        topo.node_residual("waterloo-vm4").cpu + 1000


def test_save_and_load_state_files(tmp_path):
    topo = populated_state()
    path = tmp_path / "state.yaml"
    path.write_text(serialize_state(topo), encoding="utf-8")
    back = sdi.deserialize_state(path.read_text(encoding="utf-8"))
    assert serialize_state(back) == serialize_state(topo)


def test_deserialize_rejects_oversubscribed_allocations():
    import yaml
    merged = yaml.safe_load(serialize_state(build_topology(small_spec())))
    merged["allocations"] = [{"id": "alloc-990000", "owner": "evil", "target": "c",
                              "cpu": 99999, "mem": 0, "storage": 0, "bandwidth": 0}]
    with pytest.raises(TopologyError, match="oversubscribes"):
        sdi.deserialize_state(yaml.safe_dump(merged))


def test_node_id_with_reserved_separator_rejected():
    with pytest.raises(TopologyError, match="--"):
        build_topology({"nodes": [{"id": "a--b", "region": "r", "tier": "edge"}]})
