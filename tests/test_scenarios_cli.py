"""Scenario runners and the command-line interface, on downsized configs."""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsim.cli import main
from loopsim.control import TraceEvent
from loopsim.scenarios import (RunReport, ScenarioConfig, _knob_levels, load_scenario_config,
                               run_scenario)

TINY_COMPRESS = dict(
    scenario="compress", seed=11, topology="testbed",
    workload={"name": "tiny", "duration": 150.0, "base_rate": 50.0,
              "segments": [{"start": 0, "end": 60, "shape": "ramp", "amplitude": 30},
                           {"start": 80, "end": 110, "shape": "burst", "amplitude": 60}],
              "noise": 0.03},
    train={"epochs": 3, "learning_rate": 0.001, "batch_size": 32},
    params={"loop_ticks": 5, "min_fraction_below": 0.0},
)

TINY_ADAPTIVE = dict(
    scenario="adaptive-vnf", seed=11, topology="testbed",
    workload={"name": "tiny2h", "duration": 7200.0, "base_rate": 70.0,
              "segments": [{"start": 0, "end": 1200, "shape": "ramp", "amplitude": 40},
                           {"start": 1200, "end": 2400, "shape": "ramp", "amplitude": -40},
                           {"start": 2400, "end": 3600, "shape": "ramp", "amplitude": 40},
                           {"start": 3600, "end": 4800, "shape": "ramp", "amplitude": -40},
                           {"start": 4800, "end": 6000, "shape": "ramp", "amplitude": 40},
                           {"start": 6000, "end": 7200, "shape": "ramp", "amplitude": -40}],
              "noise": 0.02},
    train={"epochs": 10, "learning_rate": 0.01, "batch_size": 32},
    params={"window": 15, "horizon": 5, "hidden_size": 8, "train_frac": 0.7},
)

TINY_CONFLICT = dict(
    scenario="conflict-demo", seed=11, topology="testbed",
    params={"ticks": 30, "tick_period_ms": 1000},
)


def make_cfg(doc, out_dir) -> ScenarioConfig:
    return ScenarioConfig(scenario=doc["scenario"], seed=doc["seed"],
                          topology=doc.get("topology", "testbed"),
                          out_dir=str(out_dir),
                          workload=dict(doc.get("workload", {})),
                          train=dict(doc.get("train", {})),
                          params=dict(doc.get("params", {})))


def hash_dir(path: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("doc", [TINY_COMPRESS, TINY_ADAPTIVE, TINY_CONFLICT],
                         ids=["compress", "adaptive", "conflict"])
def test_scenario_manifest_is_complete(tmp_path, doc):
    report = run_scenario(make_cfg(doc, tmp_path / "out"))
    assert isinstance(report, RunReport)
    for name, entry in report.files.items():
        path = tmp_path / "out" / entry["path"]
        assert path.exists() and path.stat().st_size > 0, name
        if path.suffix == ".csv":
            rows = max(0, len(path.read_text().strip().splitlines()) - 1)
            assert rows == entry["rows"], name
    for fname in ("report.json", "summary.txt"):
        assert (tmp_path / "out" / fname).exists()


@pytest.mark.parametrize("doc", [TINY_COMPRESS, TINY_ADAPTIVE, TINY_CONFLICT],
                         ids=["compress", "adaptive", "conflict"])
def test_scenario_rerun_is_bit_identical(tmp_path, doc):
    run_scenario(make_cfg(doc, tmp_path / "a"))
    run_scenario(make_cfg(doc, tmp_path / "b"))
    assert hash_dir(tmp_path / "a") == hash_dir(tmp_path / "b")


@pytest.mark.parametrize("doc", [TINY_COMPRESS, TINY_ADAPTIVE, TINY_CONFLICT],
                         ids=["compress", "adaptive", "conflict"])
def test_every_csv_reads_back_as_numbers_and_text(tmp_path, doc):
    """Every CSV of a run parses as RFC 4180 at its header's width, and no
    cell holds a numpy repr such as np.float64(0.5)."""
    run_scenario(make_cfg(doc, tmp_path / "out"))
    paths = sorted((tmp_path / "out").glob("*.csv"))
    assert paths
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert all(len(row) == len(header) for row in rows), path.name
        assert not [cell for row in rows for cell in row if "np." in cell], path.name


def knob_levels_by_loop(applies, minutes):
    """Reference: walk the applies once, carrying the level forward."""
    level, cursor, applied_levels = 0.0, 0, []
    for e in applies:
        level += e.delta
        applied_levels.append((e.t_ms, level))
    out, current = np.zeros(minutes), 0.0
    for m in range(minutes):
        while cursor < len(applied_levels) and applied_levels[cursor][0] <= m * 60_000:
            current = applied_levels[cursor][1]
            cursor += 1
        out[m] = current
    return out


@settings(max_examples=200, deadline=None)
@given(minutes=st.integers(0, 40),
       applies=st.lists(st.tuples(st.integers(0, 45).map(lambda m: m * 60_000)
                                  | st.integers(0, 2_700_000),
                                  st.floats(-1e6, 1e6, allow_nan=False)), max_size=30))
def test_knob_levels_equal_the_sequential_walk_bitwise(minutes, applies):
    events = [TraceEvent(t, "edge", "c", "apply", delta=d) for t, d in sorted(applies)]
    got = _knob_levels(events, minutes)
    assert got.tobytes() == knob_levels_by_loop(events, minutes).tobytes()


def test_adaptive_tracking_loop_passes_the_dry_run_gate(tmp_path):
    """adaptive-vnf runs the same gate as every scenario: its single tracking
    loop is judged stable at every resize and nothing is withheld."""
    report = run_scenario(make_cfg(TINY_ADAPTIVE, tmp_path / "out"))
    with open(tmp_path / "out" / "trace.csv", newline="", encoding="utf-8") as fh:
        events = [(row["event"], row["verdict"]) for row in csv.DictReader(fh)]
    ticks = [e for e in events if e[0] == "tick"]
    sandbox = [verdict for kind, verdict in events if kind == "sandbox"]
    assert ticks and sandbox == ["stable"] * len(ticks)
    assert not [e for e in events if e[0] == "withhold"]
    assert report.metrics["ticks"] == len(ticks) == sum(1 for e in events if e[0] == "apply")


def test_different_seed_changes_outputs(tmp_path):
    run_scenario(make_cfg(TINY_COMPRESS, tmp_path / "a"))
    other = dict(TINY_COMPRESS, seed=12)
    run_scenario(make_cfg(other, tmp_path / "b"))
    assert hash_dir(tmp_path / "a") != hash_dir(tmp_path / "b")


def test_report_json_excludes_wall_clock(tmp_path):
    report = run_scenario(make_cfg(TINY_CONFLICT, tmp_path / "out"))
    assert report.wall_clock_s > 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "wall_clock" not in json.dumps(doc)
    assert doc["metrics"] == report.metrics


def test_conflict_single_chain_variant(tmp_path):
    doc = dict(TINY_CONFLICT, params=dict(TINY_CONFLICT["params"], single_chain=True))
    report = run_scenario(make_cfg(doc, tmp_path / "out"))
    assert report.metrics["conflicts_detected_unarbitrated"] == 0
    assert report.metrics["conflicts_detected_arbitrated"] == 0
    assert report.checks == {"no_conflicts_single_chain": True}


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("LOOPSIM_OUT", str(tmp_path / "env-out"))
    run_scenario(make_cfg(TINY_CONFLICT, tmp_path / "ignored"))
    assert (tmp_path / "env-out" / "report.json").exists()
    assert not (tmp_path / "ignored").exists()


CUSTOM_COMPRESS_CHAIN = {
    "id": "my-compressor",
    "priority": 4,
    "tick_period_ms": 1000,
    "source_domain": ["toronto"],
    "steps": [
        {"name": "grab", "kind": "monitor", "function": "monitor.scrape_frame",
         "qos": {"cpu": 300, "storage": 512, "coverage": ["toronto"]}},
        {"name": "squash", "kind": "analyze", "function": "analyze.encode_frame",
         "qos": {"cpu": 600}},
        {"name": "keep", "kind": "knowledge", "function": "knowledge.store",
         "qos": {"storage": 4096}},
    ],
    "edges": [["grab", "squash"], ["squash", "keep"]],
}


def test_compress_with_chain_file_override(tmp_path):
    chain_path = tmp_path / "chain.yaml"
    chain_path.write_text(yaml.safe_dump(CUSTOM_COMPRESS_CHAIN))
    doc = dict(TINY_COMPRESS,
               params=dict(TINY_COMPRESS["params"], chain_file=str(chain_path)))
    report = run_scenario(make_cfg(doc, tmp_path / "out"))
    assert report.metrics["loop_codes_emitted"] == 5
    trace = (tmp_path / "out" / "trace.csv").read_text()
    assert "my-compressor" in trace


def test_cli_validate_checks_referenced_chain_file(tmp_path, capsys):
    chain_path = tmp_path / "chain.yaml"
    chain_path.write_text(yaml.safe_dump(CUSTOM_COMPRESS_CHAIN))
    doc = dict(TINY_COMPRESS,
               params=dict(TINY_COMPRESS["params"], chain_file="chain.yaml"))
    cfg_path = write_config(tmp_path, doc)
    assert main(["validate", "--config", str(cfg_path)]) == 0
    # Break the chain ordering and expect a validation failure.
    bad = dict(CUSTOM_COMPRESS_CHAIN,
               edges=[["squash", "grab"], ["squash", "keep"]])
    chain_path.write_text(yaml.safe_dump(bad))
    assert main(["validate", "--config", str(cfg_path)]) == 2


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def write_config(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def test_load_scenario_config_requires_seed(tmp_path):
    path = write_config(tmp_path, {"scenario": "compress"})
    with pytest.raises(Exception, match="seed"):
        load_scenario_config(path)


def test_load_scenario_config_unknown_scenario(tmp_path):
    path = write_config(tmp_path, {"scenario": "wat", "seed": 1})
    with pytest.raises(Exception, match="unknown scenario"):
        load_scenario_config(path)


def test_load_scenario_config_missing_topology_file(tmp_path):
    path = write_config(tmp_path, {"scenario": "compress", "seed": 1,
                                   "topology": "missing.yaml"})
    with pytest.raises(Exception, match="neither a preset"):
        load_scenario_config(path)


def test_shipped_configs_load():
    root = Path(__file__).resolve().parents[1] / "configs"
    for name in ("compress.yaml", "adaptive_vnf.yaml", "conflict_demo.yaml"):
        cfg = load_scenario_config(root / name)
        assert cfg.seed == 7


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, dict(TINY_CONFLICT))
    assert main(["validate", "--config", str(path)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_cli_validate_bad_config_exits_2(tmp_path):
    path = write_config(tmp_path, {"scenario": "compress"})
    assert main(["validate", "--config", str(path)]) == 2


def test_cli_non_numeric_seed_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, dict(TINY_CONFLICT, seed="seven"))
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["run", "--scenario", "conflict-demo", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("seed must be a number, got 'seven'") == 2


@pytest.mark.parametrize("doc, where", [
    (dict(TINY_CONFLICT, params=dict(TINY_CONFLICT["params"], ticks="many")), "params.ticks"),
    (dict(TINY_ADAPTIVE, train=dict(TINY_ADAPTIVE["train"], epochs="lots")), "train.epochs"),
], ids=["params", "train"])
def test_cli_non_numeric_value_exits_2(tmp_path, capsys, doc, where):
    path = write_config(tmp_path, doc)
    assert main(["run", "--scenario", doc["scenario"], "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{where} must be a number" in capsys.readouterr().err


def test_cli_run_conflict(tmp_path, capsys):
    path = write_config(tmp_path, dict(TINY_CONFLICT))
    code = main(["run", "--scenario", "conflict-demo", "--config", str(path),
                 "--out", str(tmp_path / "out"), "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "reversals_unarbitrated" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 3


def test_cli_scenario_mismatch_exits_2(tmp_path):
    path = write_config(tmp_path, dict(TINY_CONFLICT))
    assert main(["run", "--scenario", "compress", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2


def test_cli_unknown_target_node_exits_2(tmp_path):
    doc = dict(TINY_CONFLICT, params=dict(TINY_CONFLICT["params"], node="ghost-vm9"))
    path = write_config(tmp_path, doc)
    assert main(["run", "--scenario", "conflict-demo", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2


def test_cli_oversized_initial_knob_exits_2(tmp_path):
    doc = dict(TINY_CONFLICT, params=dict(TINY_CONFLICT["params"], initial=99999.0))
    path = write_config(tmp_path, doc)
    assert main(["run", "--scenario", "conflict-demo", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2


def test_cli_strict_threshold_miss_exits_4(tmp_path):
    doc = dict(TINY_COMPRESS,
               params=dict(TINY_COMPRESS["params"], min_fraction_below=1.01))
    path = write_config(tmp_path, doc)
    code = main(["run", "--scenario", "compress", "--config", str(path),
                 "--out", str(tmp_path / "out"), "--strict"])
    assert code == 4


def test_cli_training_divergence_exits_3(tmp_path):
    doc = dict(TINY_ADAPTIVE,
               train={"epochs": 60, "learning_rate": 1e9, "batch_size": 32,
                      "optimizer": "sgd"})
    path = write_config(tmp_path, doc)
    code = main(["run", "--scenario", "adaptive-vnf", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 3


def test_cli_oracle_embed_feasible(tmp_path, capsys):
    topo = {
        "nodes": [{"id": "x1", "region": "r", "tier": "edge", "cpu": 1000},
                  {"id": "x2", "region": "r", "tier": "edge", "cpu": 1000}],
        "links": [{"a": "x1", "b": "x2", "bandwidth": 100, "latency": 2.0}],
    }
    chain = {
        "id": "probe",
        "steps": [{"name": "m", "kind": "monitor", "function": "f",
                   "qos": {"cpu": 300}},
                  {"name": "a", "kind": "analyze", "function": "f",
                   "qos": {"cpu": 900}}],
        "edges": [["m", "a"]],
    }
    tpath = write_config(tmp_path, topo, "topo.yaml")
    cpath = write_config(tmp_path, chain, "chain.yaml")
    assert main(["oracle", "embed", "--topology", str(tpath),
                 "--chain", str(cpath)]) == 0
    out = capsys.readouterr().out
    assert "feasible" in out
    assert "m -> " in out


def test_cli_oracle_embed_infeasible(tmp_path, capsys):
    topo = {"nodes": [{"id": "x1", "region": "r", "tier": "edge", "cpu": 10}]}
    chain = {"id": "probe",
             "steps": [{"name": "m", "kind": "monitor", "function": "f",
                        "qos": {"cpu": 300}}],
             "edges": []}
    tpath = write_config(tmp_path, topo, "topo.yaml")
    cpath = write_config(tmp_path, chain, "chain.yaml")
    assert main(["oracle", "embed", "--topology", str(tpath),
                 "--chain", str(cpath)]) == 0
    assert "infeasible" in capsys.readouterr().out
