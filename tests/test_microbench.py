"""Per-layer microbenchmarks: one LSTM train step (batch 32, window 30,
H=16), one LSTM forecast of a 30-value window on that model (the per-tick
forecast of adaptive-vnf), one autoencoder train step (batch 32), one Adam
step on the compressor's parameters, one embedding of the canonical 5-step
chain on the testbed and one embedding search that runs its budget out
there, one warm cross-region path query and one resource-backed knob change
there, one orchestrator slot of two opposing set-point loops with the
sandbox dry-run on and off, one embedding of a set-point chain and one
un-arbitrated slot of 32 set-point loops on a 64-VM topology, the trace
and FCAPS exports of those 32 loops after 500 such slots, and one scraped
frame and one full bursty30min scrape series over the testbed metric
catalog. One more test counts the path queries of an embedding on
the 64-VM topology.

The default test run executes each once as a smoke test (pyproject.toml
passes --benchmark-disable). To time them:

    pytest tests/test_microbench.py --benchmark-enable
"""

import itertools
import random

import numpy as np
import pytest

from loopsim import engines, metrics, scenarios, sdi
from loopsim.chain import SearchExhaustedError, embed
from loopsim.control import Orchestrator
from loopsim.engines import TrainConfig
from test_chain import canonical_chain, latency_dead_end_chain
from test_control import make_orchestrator, opposing_pair


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_lstm_train_step(benchmark):
    model = engines.rnn_init(hidden_size=16, window=30, horizon=10, seed=0)
    rng = _rng(1)
    x = rng.uniform(0, 1, size=(32, 30))
    y = rng.uniform(0, 1, size=(32, 10))
    opt = engines._Optimizer(model.params, TrainConfig(learning_rate=1e-3))

    def step():
        loss, grad = engines.rnn_loss_and_grads(model, x, y)
        opt.step(grad)
        return loss

    assert np.isfinite(benchmark(step))


def test_lstm_forecast_one_window(benchmark):
    model = engines.rnn_init(hidden_size=16, window=30, horizon=10, seed=0)
    model.in_lo, model.in_hi = 100.0, 900.0
    window = _rng(4).uniform(100.0, 900.0, size=30)
    forecast = benchmark(engines.rnn_predict, model, window)
    assert forecast.shape == (10,) and np.all(np.isfinite(forecast))


def test_ae_train_step(benchmark):
    net = engines.ae_init(seed=0)
    x = _rng(2).uniform(0, 1, size=(32, net.input_width))
    opt = engines._Optimizer(net.params, TrainConfig(learning_rate=1e-3))

    def step():
        loss, grad = engines.mse_loss_and_grads(net, x, x)
        opt.step(grad)
        return loss

    assert np.isfinite(benchmark(step))


def test_adam_step_on_compressor_params(benchmark):
    net = engines.ae_init(seed=0)
    assert net.params.size == 41206
    grad = _rng(3).normal(0.0, 1e-2, size=net.params.size)
    opt = engines._Optimizer(net.params, TrainConfig(learning_rate=1e-3))
    benchmark(opt.step, grad)
    assert opt.t >= 1 and np.all(np.isfinite(net.params))


def test_embed_canonical_chain_on_testbed(benchmark):
    testbed = sdi.build_topology("testbed")
    chain = canonical_chain()

    def fresh_state():
        return (chain, sdi.clone_state(testbed)), {}

    emb = benchmark.pedantic(embed, setup=fresh_state, rounds=20)
    assert set(emb.assignment) == {"m", "a", "p", "e", "k"}


def test_warm_path_metrics_on_testbed(benchmark):
    testbed = sdi.build_topology("testbed")
    sdi.path_metrics(testbed, "toronto-vm6", "calgary-vm6")  # fills the route table
    pm = benchmark(sdi.path_metrics, testbed, "toronto-vm6", "calgary-vm6")
    assert pm.path[0] == "toronto-vm6" and pm.path[-1] == "calgary-vm6"


def test_backed_set_knob_on_testbed(benchmark):
    testbed = sdi.build_topology("testbed")
    values = itertools.cycle((1500.0, 2500.5))
    benchmark(lambda: sdi.set_knob(testbed, "waterloo-vm4", "vnf.cpu.millicores",
                                   next(values)))
    assert testbed.allocations == {}
    assert testbed.residual("waterloo-vm4").cpu in (8000 - 1500, 8000 - 2501)


@pytest.mark.parametrize("sandbox", [True, False], ids=["sandbox-on", "sandbox-off"])
def test_orchestrator_slot_of_two_opposing_loops(benchmark, sandbox):
    # The winner asks for more than n1's 4000 mc, so every slot repeats the
    # same work: a conflict, then a withhold (sandbox on) or a capacity
    # reject (sandbox off).
    orch = make_orchestrator(sandbox=sandbox)
    opposing_pair(orch, high=9000.0)
    starts = itertools.count(0, 1000)
    benchmark(lambda: orch.run(duration_ms=1000, start_ms=next(starts)))
    kinds = {e.kind for e in orch.trace.events}
    assert "conflict" in kinds and ("withhold" in kinds) == sandbox


def vm64_topology():
    """The region ring of 8 regions of 8 VMs at seed 7, as perfbench's
    conflict-scale builds it. Every VM carries a CPU knob at 2000 mc."""
    spec = sdi.region_ring_spec(random.Random(7), 8, 8)
    spec["knobs"] = [{"node": n["id"], "parameter": "vnf.cpu.millicores", "value": 2000.0}
                     for n in spec["nodes"]]
    return sdi.build_topology(spec)


def region_setpoint_chain(chain_id, node, value):
    """Watch one VM's CPU knob from its region and push it to value."""
    return scenarios.setpoint_chain(chain_id, 10, node.split("-")[0], node,
                                    "vnf.cpu.millicores", value, 1000)


def test_embed_setpoint_chain_on_64_vms(benchmark):
    world = vm64_topology()
    chain = region_setpoint_chain("boost", "r5-vm3", 3000.0)

    def fresh_state():
        return (chain, sdi.clone_state(world)), {}

    emb = benchmark.pedantic(embed, setup=fresh_state, rounds=20)
    assert emb.assignment["watch"].startswith("r5-")


def test_embed_checks_hosts_lazily_on_64_vms(monkeypatch):
    # Checking every host of every step takes about 130 path queries on this
    # chain. Checked lazily, the search queries the first host of each step
    # with a predecessor and one more when the bound cuts it off, and the
    # commit reads each edge once: 6.
    queried = []
    path_metrics = sdi.path_metrics

    def counted(state, src, dst):
        queried.append((src, dst))
        return path_metrics(state, src, dst)

    monkeypatch.setattr(sdi, "path_metrics", counted)
    embed(region_setpoint_chain("boost", "r5-vm3", 3000.0), vm64_topology())
    assert len(queried) <= 8, queried


def test_embed_exhausts_latency_dead_end_on_testbed(benchmark):
    # Every knowledge host fails its latency check, so the search checks
    # every host at every level until the budget runs out: checking lazily
    # saves nothing here, and each refusal comes from the route table's
    # latency, without a path query.
    testbed = sdi.build_topology("testbed")
    chain = latency_dead_end_chain()

    def exhaust():
        with pytest.raises(SearchExhaustedError):
            embed(chain, testbed)

    benchmark.pedantic(exhaust, rounds=5)


def setpoint_pairs_on_64_vms():
    """16 opposing pairs of set-point loops, each pair on its own VM's knob,
    un-arbitrated: once the first slot has set every knob, each slot has one
    proposal per pair to apply."""
    orch = Orchestrator(vm64_topology(), arbitration=False, sandbox=False)
    for k in range(16):
        node = f"r{k % 8}-vm{k // 8}"
        scenarios.opposing_pair(orch, f"r{k % 8}", node, "vnf.cpu.millicores", 2000.0, 3000.0,
                                1000.0, 1000, (f"pair{k}-boost", f"pair{k}-save"))
    return orch


def test_unarbitrated_slot_of_32_setpoint_loops_on_64_vms(benchmark):
    orch = setpoint_pairs_on_64_vms()
    starts = itertools.count(0, 1000)
    benchmark(lambda: orch.run(duration_ms=1000, start_ms=next(starts)))
    assert sum(e.kind == "tick" for e in orch.trace.events) % 32 == 0
    assert sum(e.kind == "apply" for e in orch.trace.events) >= 16


@pytest.fixture(scope="module")
def setpoint_pairs_after_500_slots():
    """The 32 loops after 500 un-arbitrated slots on the seed-7 region ring
    that conflict-scale runs on: 24,064 trace events with 160 distinct rows
    bar their times."""
    orch = setpoint_pairs_on_64_vms()
    orch.run(duration_ms=500 * 1000)
    return orch


def test_trace_csv_of_500_slots_of_32_setpoint_loops(benchmark, setpoint_pairs_after_500_slots,
                                                      tmp_path):
    trace = setpoint_pairs_after_500_slots.trace
    path = tmp_path / "trace.csv"
    assert benchmark(trace.to_csv, path) == len(trace.events) == 24_064
    assert path.read_text(encoding="utf-8").count("\n") == 24_065


def test_fcaps_csv_of_500_slots_of_32_setpoint_loops(benchmark, setpoint_pairs_after_500_slots,
                                                     tmp_path):
    path = tmp_path / "fcaps.csv"
    assert benchmark(setpoint_pairs_after_500_slots.export_fcaps_csv, path) == 32
    assert "pair0-boost,running,0,1,500,251\n" in path.read_text(encoding="utf-8")


def test_scrape_one_frame_on_testbed(benchmark):
    testbed = sdi.build_topology("testbed")
    catalog = metrics.build_metric_catalog(testbed, seed=7)
    frame = benchmark(metrics.scrape, testbed, 120.0, catalog, 600.0)
    assert frame.values.shape == (catalog.width,) and np.all(np.isfinite(frame.values))


def test_bursty30min_scrape_series_on_testbed(benchmark):
    testbed = sdi.build_topology("testbed")
    catalog = metrics.build_metric_catalog(testbed, seed=7)
    workload = metrics.generate_workload(metrics.preset_workload("bursty30min", seed=7))
    data = benchmark.pedantic(metrics.scrape_series, args=(testbed, workload, catalog),
                              rounds=5)
    assert data.values.shape == (len(workload), catalog.width)
    assert np.all(np.isfinite(data.values))
