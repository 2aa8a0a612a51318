"""Chains: validation, embedding vs the exhaustive oracle, catalogs."""

import math

import numpy as np
import pytest

from loopsim import sdi
from loopsim.chain import (ActionCatalog, AnalysisOutput, CatalogEntry,
                           CatalogLookupError, ChainValidationError, InfeasibleError,
                           InstanceTooLargeError, LoopChain, LoopStep, QosRequirements,
                           StepKind, catalog_translate, chain_from_dict, embed,
                           embed_bruteforce, validate_chain)
from loopsim.sdi import ResourceVector, build_topology, clone_state, serialize_state


def step(name, kind, cpu=0, storage=0, **qos):
    return LoopStep(name, kind, f"fn.{name}",
                    QosRequirements(cpu=cpu, storage=storage, **qos))


def canonical_chain(**overrides):
    fields = dict(
        id="loop-1",
        steps=[
            step("m", StepKind.MONITOR, cpu=100),
            step("a", StepKind.ANALYZE, cpu=200),
            step("p", StepKind.PLAN, cpu=100),
            step("e", StepKind.EXECUTE, cpu=100),
            step("k", StepKind.KNOWLEDGE, storage=256),
        ],
        edges=[("m", "a"), ("a", "p"), ("p", "e"), ("a", "k"), ("p", "k")],
    )
    fields.update(overrides)
    return LoopChain(**fields)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_canonical_loop_valid():
    report = validate_chain(canonical_chain())
    assert report.ok
    assert report.warnings == ()


def test_analysis_only_chain_valid_with_warning():
    chain = LoopChain(id="mini", steps=[step("m", StepKind.MONITOR),
                                        step("a", StepKind.ANALYZE)],
                      edges=[("m", "a")])
    report = validate_chain(chain)
    assert report.ok
    assert any("Execute" in w for w in report.warnings)


def test_execute_before_analyze_invalid():
    chain = LoopChain(id="bad", steps=[step("e", StepKind.EXECUTE),
                                       step("a", StepKind.ANALYZE)],
                      edges=[("e", "a")])
    report = validate_chain(chain)
    assert not report.ok
    assert any("ordering violation" in e for e in report.errors)


def test_ordering_violation_through_knowledge_detected():
    chain = LoopChain(id="sneaky", steps=[step("a", StepKind.ANALYZE),
                                          step("k", StepKind.KNOWLEDGE),
                                          step("m", StepKind.MONITOR)],
                      edges=[("a", "k"), ("k", "m")])
    report = validate_chain(chain)
    assert not report.ok


def test_cycle_invalid():
    chain = LoopChain(id="cyc", steps=[step("m", StepKind.MONITOR),
                                       step("a", StepKind.ANALYZE)],
                      edges=[("m", "a"), ("a", "m")])
    report = validate_chain(chain)
    assert any("cycle" in e for e in report.errors)


def test_two_knowledge_steps_invalid():
    chain = LoopChain(id="kk", steps=[step("m", StepKind.MONITOR),
                                      step("k1", StepKind.KNOWLEDGE),
                                      step("k2", StepKind.KNOWLEDGE)],
                      edges=[("m", "k1"), ("m", "k2")])
    report = validate_chain(chain)
    assert any("knowledge" in e for e in report.errors)


def test_knowledge_unreachable_from_plan_invalid():
    chain = LoopChain(id="unk", steps=[step("a", StepKind.ANALYZE),
                                       step("p", StepKind.PLAN),
                                       step("k", StepKind.KNOWLEDGE)],
                      edges=[("a", "p"), ("a", "k")])
    report = validate_chain(chain)
    assert any("not reachable" in e for e in report.errors)


def test_dangling_edge_invalid():
    chain = LoopChain(id="dang", steps=[step("m", StepKind.MONITOR)],
                      edges=[("m", "ghost")])
    assert not validate_chain(chain).ok


# ---------------------------------------------------------------------------
# Embedding: examples
# ---------------------------------------------------------------------------

def two_node_spec(cpu_a=1000, cpu_b=1000):
    return {
        "nodes": [
            {"id": "na", "region": "r1", "tier": "edge", "cpu": cpu_a, "storage": 4096},
            {"id": "nb", "region": "r1", "tier": "edge", "cpu": cpu_b, "storage": 4096},
        ],
        "links": [{"a": "na", "b": "nb", "bandwidth": 100, "latency": 5.0,
                   "reliability": 0.99}],
    }


def test_single_step_goes_to_feasible_node():
    state = build_topology(two_node_spec(cpu_a=100, cpu_b=1000))
    chain = LoopChain(id="one", steps=[step("m", StepKind.MONITOR, cpu=500)], edges=[])
    emb = embed(chain, state)
    assert emb.assignment == {"m": "nb"}
    assert state.node_residual("nb").cpu == 500


def test_single_step_tie_breaks_lexicographically():
    state = build_topology(two_node_spec())
    chain = LoopChain(id="one", steps=[step("m", StepKind.MONITOR, cpu=500)], edges=[])
    assert embed(chain, state).assignment == {"m": "na"}


def test_infeasible_names_cpu():
    state = build_topology(two_node_spec())
    chain = LoopChain(id="fat", steps=[step("m", StepKind.MONITOR, cpu=99999)], edges=[])
    with pytest.raises(InfeasibleError) as exc:
        embed(chain, state)
    assert exc.value.constraint == "cpu"


def test_failed_embed_leaves_state_bitwise_identical():
    state = build_topology(two_node_spec())
    sdi.allocate(state, "na", ResourceVector(cpu=400), "other")
    before = serialize_state(state)
    chain = LoopChain(id="fat", steps=[step("m", StepKind.MONITOR, cpu=100),
                                       step("a", StepKind.ANALYZE, cpu=99999)],
                      edges=[("m", "a")])
    with pytest.raises(InfeasibleError):
        embed(chain, state)
    assert serialize_state(state) == before


def test_embed_reserves_all_and_terminates_cleanly():
    state = build_topology(two_node_spec())
    before = serialize_state(state)
    # Squeeze na so the two steps must split across the link.
    sdi.allocate(state, "na", ResourceVector(cpu=300), "squeeze")
    chain = LoopChain(
        id="bw",
        steps=[LoopStep("m", StepKind.MONITOR, "fn.m", QosRequirements(cpu=800)),
               LoopStep("a", StepKind.ANALYZE, "fn.a",
                        QosRequirements(cpu=600, min_bandwidth=30))],
        edges=[("m", "a")])
    emb = embed(chain, state)
    assert emb.assignment == {"m": "nb", "a": "na"}
    assert state.link_residual(("na", "nb")) == 70
    for aid in emb.allocation_ids:
        sdi.release(state, aid)
    sdi.release_owner(state, "squeeze")
    assert serialize_state(state) == before


def test_shared_link_bandwidth_accumulates():
    # Two inter-step edges cross the same single link; together they exceed it.
    spec = {
        "nodes": [
            {"id": "left", "region": "r1", "tier": "edge", "cpu": 1000, "storage": 1024},
            {"id": "right", "region": "r2", "tier": "edge", "cpu": 1000, "storage": 1024},
        ],
        "links": [{"a": "left", "b": "right", "bandwidth": 100, "latency": 1.0}],
    }
    state = build_topology(spec)
    chain = LoopChain(
        id="zig",
        steps=[LoopStep("m", StepKind.MONITOR, "f", QosRequirements(
                    cpu=10, coverage=frozenset({"r1"}))),
               LoopStep("a", StepKind.ANALYZE, "f", QosRequirements(
                    cpu=10, min_bandwidth=60, coverage=frozenset({"r2"}))),
               LoopStep("p", StepKind.PLAN, "f", QosRequirements(
                    cpu=10, min_bandwidth=60, coverage=frozenset({"r1"})))],
        edges=[("m", "a"), ("a", "p")])
    with pytest.raises(InfeasibleError) as exc:
        embed(chain, state)
    assert exc.value.constraint == "bandwidth"
    with pytest.raises(InfeasibleError):
        embed_bruteforce(chain, state)


def test_embed_rejects_invalid_chain():
    state = build_topology(two_node_spec())
    chain = LoopChain(id="bad", steps=[step("e", StepKind.EXECUTE),
                                       step("m", StepKind.MONITOR)],
                      edges=[("e", "m")])
    with pytest.raises(ChainValidationError):
        embed(chain, state)


def test_monitor_restricted_to_source_domain():
    state = build_topology(two_node_spec())
    chain = LoopChain(id="dom", steps=[step("m", StepKind.MONITOR, cpu=100)],
                      edges=[], source_domain=frozenset({"nb"}))
    assert embed(chain, state).assignment == {"m": "nb"}


def test_latency_budget_drives_colocation():
    state = build_topology(two_node_spec())
    chain = LoopChain(
        id="tight",
        steps=[step("m", StepKind.MONITOR, cpu=100),
               LoopStep("a", StepKind.ANALYZE, "f",
                        QosRequirements(cpu=100, max_latency_ms=1.0))],
        edges=[("m", "a")])
    emb = embed(chain, state)
    assert emb.assignment["m"] == emb.assignment["a"]
    assert emb.total_latency_ms == 0.0


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def test_bruteforce_two_by_two_enumeration():
    state = build_topology(two_node_spec())
    chain = LoopChain(id="pair", steps=[step("m", StepKind.MONITOR, cpu=10),
                                        step("a", StepKind.ANALYZE, cpu=10)],
                      edges=[("m", "a")])
    emb = embed_bruteforce(chain, state)
    assert emb.total_latency_ms == 0.0
    assert emb.assignment == {"m": "na", "a": "na"}  # lexicographic tie
    # Oracle reserves nothing.
    assert state.node_residual("na").cpu == 1000


def test_bruteforce_infeasible():
    state = build_topology(two_node_spec())
    chain = LoopChain(id="fat", steps=[step("m", StepKind.MONITOR, cpu=99999)], edges=[])
    with pytest.raises(InfeasibleError):
        embed_bruteforce(chain, state)


def test_bruteforce_instance_too_large():
    state = build_topology("testbed")  # 16 compute nodes
    chain = canonical_chain()  # 5 steps -> 16^5 > 1e6
    with pytest.raises(InstanceTooLargeError):
        embed_bruteforce(chain, state)


# ---------------------------------------------------------------------------
# Seeded instance family: greedy vs exhaustive
# ---------------------------------------------------------------------------

KINDS_IN_ORDER = [StepKind.MONITOR, StepKind.ANALYZE, StepKind.PLAN, StepKind.EXECUTE]


def random_instance(seed):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((9000, seed))))
    n_nodes = int(rng.integers(2, 7))
    regions = ["r1", "r2"]
    nodes = []
    for i in range(n_nodes):
        nodes.append({
            "id": f"n{i}", "region": regions[int(rng.integers(0, 2))], "tier": "edge",
            "cpu": int(rng.integers(0, 4)) * 500,
            "storage": int(rng.integers(0, 4)) * 512,
            "reliability": float(rng.choice([0.95, 0.99])),
        })
    links = []
    seen = set()
    for i in range(1, n_nodes):
        j = int(rng.integers(0, i))
        seen.add((f"n{j}", f"n{i}"))
    for _ in range(int(rng.integers(0, n_nodes))):
        i, j = sorted(rng.choice(n_nodes, size=2, replace=False))
        seen.add((f"n{i}", f"n{j}"))
    for a, b in sorted(seen):
        links.append({"a": a, "b": b,
                      "bandwidth": int(rng.choice([30, 80, 200])),
                      "latency": float(rng.choice([1.0, 2.0, 6.0])),
                      "reliability": float(rng.choice([0.9, 0.97, 0.995]))})
    state = build_topology({"nodes": nodes, "links": links})

    n_steps = int(rng.integers(1, 6))
    base_kinds = [KINDS_IN_ORDER[k] for k in sorted(
        rng.choice(4, size=min(n_steps, 4), replace=False))]
    kinds = base_kinds + [StepKind.KNOWLEDGE] * (n_steps - len(base_kinds))
    steps = []
    for i, kind in enumerate(kinds):
        qos = QosRequirements(
            cpu=int(rng.choice([0, 250, 500, 1000])),
            storage=int(rng.choice([0, 256, 512])),
            max_latency_ms=float(rng.choice([3.0, 8.0, 20.0, math.inf])),
            min_bandwidth=int(rng.choice([0, 0, 20, 60])),
            min_reliability=float(rng.choice([0.0, 0.0, 0.9])),
            coverage=frozenset({str(rng.choice(regions))}) if rng.random() < 0.25
            else frozenset(),
        )
        steps.append(LoopStep(f"s{i}", kind, "f", qos))
    edges = [(f"s{i}", f"s{i + 1}") for i in range(n_steps - 1)]
    # Knowledge must hang off analyze and plan when they exist.
    knames = [s.name for s in steps if s.kind == StepKind.KNOWLEDGE]
    if knames:
        k = knames[0]
        for s in steps:
            if s.kind in (StepKind.ANALYZE, StepKind.PLAN) and (s.name, k) not in edges:
                edges.append((s.name, k))
    chain = LoopChain(
        id=f"c{seed}", steps=steps, edges=edges,
        source_domain=frozenset({str(rng.choice(regions))}) if rng.random() < 0.3
        else frozenset(),
        destination_domain=frozenset({str(rng.choice(regions))}) if rng.random() < 0.3
        else frozenset(),
    )
    if not validate_chain(chain).ok:
        raise AssertionError(f"generator produced an invalid chain for seed {seed}")
    return state, chain


def run_agreement(seeds):
    agree = 0
    disagreements = []
    ratios = []
    for seed in seeds:
        state, chain = random_instance(seed)
        try:
            greedy = embed(chain, clone_state(state))
            greedy_feasible = True
        except InfeasibleError:
            greedy_feasible = False
            greedy = None
        try:
            oracle = embed_bruteforce(chain, clone_state(state))
            oracle_feasible = True
        except InfeasibleError:
            oracle_feasible = False
            oracle = None
        if greedy_feasible == oracle_feasible:
            agree += 1
        else:
            disagreements.append(seed)
        if greedy_feasible and oracle_feasible:
            if oracle.total_latency_ms == 0.0:
                ratios.append(1.0 if greedy.total_latency_ms == 0.0 else math.inf)
            else:
                ratios.append(greedy.total_latency_ms / oracle.total_latency_ms)
    return agree, disagreements, ratios


def test_embed_agrees_with_bruteforce_on_200_seeded_instances(embed_agreement):
    agree, disagreements, ratios = embed_agreement
    assert agree == 200, f"feasibility disagreements on seeds: {disagreements}"
    assert len(ratios) > 40, "instance family should contain plenty of feasible cases"
    within = sum(1 for r in ratios if r <= 1.5)
    outliers = [f"{r:.2f}" for r in ratios if r > 1.5]
    assert within / len(ratios) >= 0.9, f"latency outliers: {outliers}"


def verify_embedding_independent(state_before, chain, emb):
    """Re-check every QoS constraint of a returned embedding against the
    pre-embed state, without reusing any embedder logic."""
    demand = {}
    for s in chain.steps:
        node_id = emb.assignment[s.name]
        node = state_before.nodes[node_id]
        assert node_id not in state_before.switches
        if s.qos.coverage:
            assert node.region in s.qos.coverage
        if s.kind == StepKind.MONITOR and chain.source_domain:
            assert node.id in chain.source_domain or node.region in chain.source_domain
        if s.kind == StepKind.EXECUTE and chain.destination_domain:
            assert node.id in chain.destination_domain or node.region in chain.destination_domain
        acc = demand.get(node_id, (0, 0))
        demand[node_id] = (acc[0] + s.qos.cpu, acc[1] + s.qos.storage)
    for node_id, (cpu, storage) in demand.items():
        residual = state_before.node_residual(node_id)
        assert residual.cpu >= cpu and residual.storage >= storage
    link_demand = {}
    for (a, b), path in emb.paths.items():
        qos = chain.step(b).qos
        assert path[0] == emb.assignment[a] and path[-1] == emb.assignment[b]
        latency = 0.0
        reliability = 1.0
        for x, y in zip(path, path[1:]):
            key = tuple(sorted((x, y)))
            assert key in state_before.links
            latency += state_before.links[key].latency
            reliability *= state_before.links[key].reliability
            if qos.min_bandwidth > 0:
                link_demand[key] = link_demand.get(key, 0) + qos.min_bandwidth
        assert latency <= qos.max_latency_ms
        assert reliability >= qos.min_reliability - 1e-12
    for key, demand_bw in link_demand.items():
        assert state_before.link_residual(key) >= demand_bw


def test_embedding_soundness_independent_verifier():
    checked = 0
    for seed in range(60):
        state, chain = random_instance(seed)
        before = clone_state(state)
        try:
            emb = embed(chain, state)
        except InfeasibleError:
            continue
        verify_embedding_independent(before, chain, emb)
        checked += 1
    assert checked >= 15


# ---------------------------------------------------------------------------
# Catalog translation
# ---------------------------------------------------------------------------

@pytest.fixture()
def vnf_state():
    return build_topology({
        "nodes": [
            {"id": "fw1", "region": "west", "tier": "edge", "cpu": 8000,
             "roles": ["firewall"]},
            {"id": "fw2", "region": "east", "tier": "edge", "cpu": 8000,
             "roles": ["firewall"]},
            {"id": "web", "region": "west", "tier": "edge", "cpu": 8000,
             "roles": ["webserver"]},
        ],
        "links": [
            {"a": "fw1", "b": "web", "bandwidth": 100, "latency": 1.0},
            {"a": "fw1", "b": "fw2", "bandwidth": 100, "latency": 10.0},
        ],
    })


CATALOG = ActionCatalog(entries=(CatalogEntry(
    kind="traffic.forecast", target_role="firewall",
    parameter="vnf.cpu.millicores", scale=12.0, offset=200.0, lo=100.0, hi=6000.0),))


def test_catalog_linear_translation(vnf_state):
    proposals = catalog_translate(CATALOG, AnalysisOutput("traffic.forecast", 50.0),
                                  frozenset({"west"}), vnf_state,
                                  issued_by="loop", timestamp=7)
    assert len(proposals) == 1
    p = proposals[0]
    assert p.target == "fw1"
    assert p.value == 12.0 * 50.0 + 200.0
    assert p.direction == 1  # knob starts at 0
    assert not p.clamped


def test_catalog_unknown_kind(vnf_state):
    with pytest.raises(CatalogLookupError):
        catalog_translate(CATALOG, AnalysisOutput("mystery.output", 1.0),
                          frozenset(), vnf_state)


def test_catalog_clamps_and_flags(vnf_state):
    proposals = catalog_translate(CATALOG, AnalysisOutput("traffic.forecast", 1e6),
                                  frozenset(), vnf_state)
    assert {p.target for p in proposals} == {"fw1", "fw2"}
    assert all(p.value == 6000.0 and p.clamped for p in proposals)


def test_catalog_direction_against_current_knob(vnf_state):
    sdi.set_knob(vnf_state, "fw1", "vnf.cpu.millicores", 5000.0)
    proposals = catalog_translate(CATALOG, AnalysisOutput("traffic.forecast", 50.0),
                                  frozenset({"west"}), vnf_state)
    assert proposals[0].direction == -1


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def test_catalog_file_loading(tmp_path):
    import yaml

    from loopsim.chain import load_catalog
    path = tmp_path / "catalog.yaml"
    path.write_text(yaml.safe_dump({
        "entries": [{"kind": "traffic.forecast", "target_role": "firewall",
                     "parameter": "vnf.cpu.millicores",
                     "scale": 12.0, "offset": 200.0, "min": 100, "max": 6000}],
    }))
    catalog = load_catalog(path)
    assert catalog.lookup("traffic.forecast")[0].hi == 6000.0
    assert catalog.lookup("nothing") == []


def test_chain_from_dict_roundtrip():
    chain = chain_from_dict({
        "id": "demo",
        "category": "ott",
        "priority": 2,
        "tick_period_ms": 500,
        "source_domain": ["west"],
        "steps": [
            {"name": "m", "kind": "monitor", "function": "monitor.scrape_frame",
             "qos": {"cpu": 100, "max_latency_ms": 10, "coverage": ["west"]}},
            {"name": "a", "kind": "analyze", "function": "analyze.encode_frame",
             "qos": {"cpu": 200}},
        ],
        "edges": [["m", "a"]],
    })
    assert chain.priority == 2
    assert chain.steps[0].qos.coverage == frozenset({"west"})
    assert validate_chain(chain).ok
