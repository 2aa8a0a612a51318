"""The plane boundary: the control plane (config, sdi, chain, control, the
set-point steps, the conflict demo and the CLI around it) imports no numpy;
only the ML plane (engines, metrics, learning and the ML steps) loads it.
The YAML parser loads on the first document read, so a control plane built
in code loads neither numpy nor yaml, and the control plane defines its
records without dataclasses. Each check runs in a fresh
interpreter, since this one has both loaded already. The benchmark's tracer
still sees the ML plane's layers."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# Any import of numpy in the child raises ImportError.
BLOCKED = """
import sys
sys.modules["numpy"] = None
"""

ML_MODULES = """
ml = sorted(m for m in ("loopsim.engines", "loopsim.metrics", "loopsim.learning")
            if m in sys.modules)
assert not ml, ml
"""


def run_child(code: str, cwd: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})


def assert_ok(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "conflict-demo", "--config", str(CONFIGS / "conflict_demo.yaml"),
     "--out", "out", "--strict"],
    ["validate", "--config", str(CONFIGS / "conflict_demo.yaml")],
], ids=["run-conflict-demo", "validate-conflict-demo"])
def test_the_cli_runs_the_conflict_demo_without_numpy(tmp_path, argv):
    assert_ok(run_child(BLOCKED + f"""
from loopsim.cli import main
status = main({argv!r})
{ML_MODULES}
sys.exit(status)
""", tmp_path))


def test_the_embedding_oracle_runs_without_numpy(tmp_path):
    proc = run_child(BLOCKED + f"""
import random
import yaml
from loopsim import sdi
from loopsim.cli import main

with open("ring.yaml", "w") as fh:
    yaml.safe_dump(sdi.region_ring_spec(random.Random(7), 2, 2), fh)
with open("chain.yaml", "w") as fh:
    yaml.safe_dump({{"id": "watch", "source_domain": ["r1"], "steps": [
        {{"name": "m", "kind": "monitor", "function": "monitor.knob_value",
          "qos": {{"cpu": 100, "coverage": ["r1"]}}}},
        {{"name": "k", "kind": "knowledge", "function": "knowledge.store"}}],
        "edges": [["m", "k"]]}}, fh)
status = main(["oracle", "embed", "--topology", "ring.yaml", "--chain", "chain.yaml"])
{ML_MODULES}
sys.exit(status)
""", tmp_path)
    assert_ok(proc)
    assert proc.stdout.startswith("feasible: total latency ")


def test_opposing_pairs_on_a_region_ring_run_arbitrated_without_numpy(tmp_path):
    """conflict-scale's shape, small: set-point pairs on a generated ring,
    arbitrated and dry-run in the sandbox, each knob held by its winner.
    Built in code, it reads no document: its modules load no yaml, and it
    runs with yaml blocked too. Its records are NamedTuples and its state
    plain classes, so it runs with dataclasses blocked as well."""
    assert_ok(run_child(BLOCKED + f"""
sys.modules["dataclasses"] = None  # any import of dataclasses now fails
import random
from collections import Counter

from loopsim import chain, control, scenarios, sdi, steps
from loopsim.control import Orchestrator

yaml = sorted(m for m in sys.modules if m.split(".")[0] in ("yaml", "_yaml"))
assert not yaml, yaml
sys.modules["yaml"] = None  # any import of yaml now fails

orch = Orchestrator(sdi.build_topology(sdi.region_ring_spec(random.Random(7), 3, 3)),
                    arbitration=True, sandbox=True)
nodes = ("r0-vm0", "r1-vm2", "r2-vm1")
for k, node in enumerate(nodes):
    scenarios.opposing_pair(orch, node.split("-")[0], node, f"vnf{{k}}.cpu.millicores", 2000.0,
                            3000.0, 1000.0, 1000, (f"pair{{k}}-boost", f"pair{{k}}-save"))
orch.run(duration_ms=20_000)
orch.assert_capacity_invariant()
kinds = Counter(e.kind for e in orch.trace.events)
assert kinds["arbitration"] >= len(nodes) and kinds["sandbox"] >= 1, kinds
assert [sdi.get_knob(orch.state, node, f"vnf{{k}}.cpu.millicores")
        for k, node in enumerate(nodes)] == [3000.0] * len(nodes)
{ML_MODULES}
""", tmp_path))


@pytest.mark.parametrize("config, loads_numpy", [
    ("conflict_demo.yaml", False),
    ("compress.yaml", True),
    ("adaptive_vnf.yaml", True),
])
def test_only_a_scenario_that_trains_loads_numpy_with_its_config(tmp_path, config,
                                                                  loads_numpy):
    """Loading an ML scenario's config builds its TrainConfig and workload
    profile, so numpy and learning load there, in set-up, not later in the run."""
    proc = run_child(f"""
import sys
from loopsim.scenarios import load_scenario_config
load_scenario_config({str(CONFIGS / config)!r})
print("numpy" in sys.modules, "loopsim.learning" in sys.modules)
""", tmp_path)
    assert_ok(proc)
    assert proc.stdout.split() == [str(loads_numpy)] * 2


@pytest.mark.parametrize("workload, spans", [
    ("compress", ("engines.ae_train", "engines.encode", "metrics.scrape_series",
                  "steps.monitor_scrape_frame", "steps.analyze_encode_frame")),
    ("adaptive-vnf", ("engines.rnn_train", "engines.rnn_predict",
                      "steps.monitor_traffic_window", "steps.analyze_forecast_traffic")),
])
def test_the_benchmarks_tracer_sees_the_ml_plane(tmp_path, perfbench, workload, spans):
    """perfbench's tracer patches engines, metrics and the ML steps where it
    finds them by name; a runner or registry that reached them another way
    would leave those spans at 0 calls, and the benchmark's smoke check would
    still pass."""
    tracing, workloads = perfbench("tracer"), perfbench("workloads")
    # Loaded before the patching, so a name it bound at import reads 0 calls.
    importlib.import_module("loopsim.learning")
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        run, _ = workloads.prepare(workload, 7, tmp_path, tiny=True)
        run()
    finally:
        tracer.uninstall()
    layers = tracing.summarize(tracer)
    assert [name for name in spans if not layers[f"{name}.calls"]] == []
