"""Scenario runners and the command-line interface, on downsized configs."""

import csv
import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsim import cli, engines, metrics, scenarios
from loopsim.cli import main
from loopsim.control import KNOWLEDGE_WINDOW, TraceEvent
from loopsim.engines import TRAIN_TABLE as _TRAIN, TrainConfig
from loopsim.errors import ConfigError
from loopsim.learning import _knob_levels
from loopsim.metrics import WORKLOAD_TABLE as _WORKLOAD
from loopsim.scenarios import (SCENARIOS, RunReport, ScenarioConfig, check_inputs,
                               load_scenario_config, run_scenario)

TINY_COMPRESS = dict(
    scenario="compress", seed=11, topology="testbed",
    workload={"duration": 150.0, "base_rate": 50.0,
              "segments": [{"start": 0, "end": 60, "shape": "ramp", "amplitude": 30},
                           {"start": 80, "end": 110, "shape": "burst", "amplitude": 60}],
              "noise": 0.03},
    train={"epochs": 3, "learning_rate": 0.001, "batch_size": 32},
    params={"loop_ticks": 5, "min_fraction_below": 0.0},
)

TINY_ADAPTIVE = dict(
    scenario="adaptive-vnf", seed=11, topology="testbed",
    workload={"duration": 7200.0, "base_rate": 70.0,
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


@pytest.mark.parametrize("headroom, verdict", [(1.5, "pass"), (0.5, "FAIL")])
def test_adaptive_underprovisioning_is_bounded_by_one_resize_period(tmp_path, headroom,
                                                                     verdict):
    """Half the headroom starves the VNF: the mean still sits below the
    static peak, but the knob runs short for longer than one resize period."""
    doc = dict(TINY_ADAPTIVE, params=dict(TINY_ADAPTIVE["params"], headroom=headroom))
    report = run_scenario(make_cfg(doc, tmp_path / "out"))
    assert report.checks["adaptive_below_static_peak"]
    summary = (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8")
    assert f"underprovisioned_within_one_period: {verdict}" in summary


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


def test_outputs_land_in_the_configured_directory_whatever_the_environment(tmp_path,
                                                                           monkeypatch):
    """No environment variable redirects a run, so runs that share an
    environment never share a directory: with LOOPSIM_OUT set, the files
    go to out_dir."""
    monkeypatch.setenv("LOOPSIM_OUT", str(tmp_path / "env-out"))
    run_scenario(make_cfg(TINY_CONFLICT, tmp_path / "configured"))
    assert (tmp_path / "configured" / "report.json").exists()
    assert not (tmp_path / "env-out").exists()


def test_compress_emits_a_code_per_tick_past_the_knowledge_window(tmp_path):
    ticks = KNOWLEDGE_WINDOW + 5
    doc = dict(TINY_COMPRESS, train=dict(TINY_COMPRESS["train"], epochs=1),
               params=dict(TINY_COMPRESS["params"], loop_ticks=ticks))
    report = run_scenario(make_cfg(doc, tmp_path / "out"))
    assert report.metrics["loop_codes_emitted"] == ticks
    with open(tmp_path / "out" / "codes.csv", encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 1 + ticks


def test_compress_that_diverges_leaves_the_scraped_dataset_and_no_report(tmp_path):
    """dataset.csv is written once the loop is placed, before the training
    rows are scaled in place: a run that diverges in training leaves it, as
    scraped, and nothing else."""
    path = write_config(tmp_path, dict(TINY_COMPRESS, train=dict(TINY_COMPRESS["train"],
                                                                   learning_rate=1e300)))
    assert main(["run", "--scenario", "compress", "--config", str(path),
                 "--out", str(tmp_path / "diverged")]) == 3
    assert [p.name for p in (tmp_path / "diverged").iterdir()] == ["dataset.csv"]
    run_scenario(make_cfg(TINY_COMPRESS, tmp_path / "out"))
    assert ((tmp_path / "diverged" / "dataset.csv").read_bytes()
            == (tmp_path / "out" / "dataset.csv").read_bytes())


def test_shipped_compress_run_holds_each_full_size_array_once(tmp_path):
    """The shipped compress config, trained for one epoch in a warm process,
    stays under a traced peak of 5 MiB (4.25 MiB measured). The scraped
    dataset is 1800 x 111 floats (1.52 MiB) and its training rows are scaled
    in place; a second scaled copy of them, its temporaries and a
    41,206-float list for the model file read 5.80 MiB."""
    cfg = load_scenario_config(Path(__file__).parent.parent / "configs" / "compress.yaml")
    cfg.train["epochs"] = 1
    cfg.out_dir = str(tmp_path / "warm")
    run_scenario(cfg)  # imports and the step registry are loaded from here on
    cfg.out_dir = str(tmp_path / "out")
    tracemalloc.start()
    try:
        run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


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


def test_compress_loop_ticks_count_ticks_of_the_chains_own_period(tmp_path):
    """A chain with no tick_period_ms ticks at its tier's default period, and
    loop_ticks counts those ticks, not seconds."""
    chain = {k: v for k, v in CUSTOM_COMPRESS_CHAIN.items() if k != "tick_period_ms"}
    chain_path = tmp_path / "chain.yaml"
    chain_path.write_text(yaml.safe_dump(chain))
    doc = dict(TINY_COMPRESS, params=dict(TINY_COMPRESS["params"], chain_file=str(chain_path)))
    report = run_scenario(make_cfg(doc, tmp_path / "out"))
    assert report.metrics["loop_codes_emitted"] == 5


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


def test_cli_validate_parses_the_chain_file_and_checks_the_inputs_once(tmp_path, monkeypatch,
                                                                     capsys):
    (tmp_path / "chain.yaml").write_text(yaml.safe_dump(CUSTOM_COMPRESS_CHAIN))
    doc = dict(TINY_COMPRESS, params=dict(TINY_COMPRESS["params"], chain_file="chain.yaml"))
    calls = {"load_chain": 0, "check_inputs": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (scenarios, cli):
        counted(module, "load_chain")
    counted(scenarios, "check_inputs")
    assert main(["validate", "--config", str(write_config(tmp_path, doc))]) == 0
    assert calls == {"load_chain": 1, "check_inputs": 1}
    assert "warning: " in capsys.readouterr().out  # the chain has no plan step


def test_cli_validate_refuses_a_fractional_chain_period(tmp_path, capsys):
    chain_path = tmp_path / "chain.yaml"
    chain_path.write_text(yaml.safe_dump(dict(CUSTOM_COMPRESS_CHAIN, tick_period_ms=1500.7)))
    doc = dict(TINY_COMPRESS, params=dict(TINY_COMPRESS["params"], chain_file=str(chain_path)))
    assert main(["validate", "--config", str(write_config(tmp_path, doc))]) == 2
    assert "tick_period_ms must be a positive integer, got 1500.7" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def write_config(tmp_path, doc, name="cfg.yaml"):
    """doc, a mapping or the YAML text of one, written as a config file."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else yaml.safe_dump(doc))
    return path


def test_load_scenario_config_requires_seed(tmp_path):
    path = write_config(tmp_path, {"scenario": "compress"})
    with pytest.raises(Exception, match="seed"):
        load_scenario_config(path)


def test_load_scenario_config_unknown_scenario(tmp_path):
    path = write_config(tmp_path, {"scenario": "wat", "seed": 1})
    message = "^unknown scenario 'wat'; known: \\['compress', 'adaptive-vnf', 'conflict-demo'\\]$"
    with pytest.raises(ConfigError, match=message):
        load_scenario_config(path)
    with pytest.raises(ConfigError, match=message):
        ScenarioConfig("wat", 1)


def test_scenario_configs_get_their_own_sections():
    a, b = ScenarioConfig("conflict-demo", 7), ScenarioConfig("conflict-demo", 7)
    assert (a.topology, a.out_dir, a.workload, a.train, a.params) == ("testbed", "out", {}, {}, {})
    assert a.workload is not b.workload and a.train is not b.train and a.params is not b.params


def test_load_scenario_config_missing_topology_file(tmp_path):
    path = write_config(tmp_path, {"scenario": "compress", "seed": 1,
                                   "topology": "missing.yaml"})
    with pytest.raises(Exception, match="neither a preset"):
        load_scenario_config(path)


FCAPS_HEADER = "instance,state,fault,config,accounting,performance\n"


def test_conflict_demo_fcaps_text_is_pinned(tmp_path):
    """The shipped demo at seed 7: both loops tick 100 times; unarbitrated
    every set-point that moves the knob lands, arbitrated only the booster's
    first one does and then holds the knob."""
    cfg = load_scenario_config(Path(__file__).resolve().parents[1] / "configs"
                               / "conflict_demo.yaml")
    cfg.out_dir = str(tmp_path / "out")
    run_scenario(cfg)
    assert (tmp_path / "out" / "fcaps_arbitrated.csv").read_text(encoding="utf-8") == (
        FCAPS_HEADER + "cpu-booster,running,0,1,100,1\ncpu-saver,running,0,1,100,0\n")
    assert (tmp_path / "out" / "fcaps_unarbitrated.csv").read_text(encoding="utf-8") == (
        FCAPS_HEADER + "cpu-booster,running,0,1,100,51\ncpu-saver,running,0,1,100,50\n")


def test_conflict_demo_trace_replays_to_the_knob(tmp_path):
    """The trace is the record: replaying the seed-7 demo's apply rows from
    the initial knob keeps the knob on a set-point after every apply, and
    the arbitrated replay ends at the reported final knob."""
    cfg = load_scenario_config(Path(__file__).resolve().parents[1] / "configs"
                               / "conflict_demo.yaml")
    cfg.out_dir = str(tmp_path / "out")
    report = run_scenario(cfg)
    setpoints = {cfg.params["setpoint_high"], cfg.params["setpoint_low"]}
    for label in ("unarbitrated", "arbitrated"):
        value, applies = float(cfg.params["initial"]), 0
        with open(tmp_path / "out" / f"trace_{label}.csv", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                if row["event"] == "apply":
                    value += float(row["delta"])
                    applies += 1
                    assert value in setpoints
        assert applies
    assert value == report.metrics["arbitrated_final_knob"]


def test_conflict_demo_trace_alone_explains_each_reject(tmp_path):
    """Read with csv alone, the seed-7 demo's arbitrated trace names the loop
    each reject lost to: for a conflict-lost reject the winner of its slot's
    arbitration row, and for a held one the loop of the latest earlier apply
    on its knob."""
    cfg = load_scenario_config(Path(__file__).resolve().parents[1] / "configs"
                               / "conflict_demo.yaml")
    cfg.out_dir = str(tmp_path / "out")
    run_scenario(cfg)
    winners, holders, verdicts = {}, {}, []
    with open(tmp_path / "out" / "trace_arbitrated.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            knob = (row["target"], row["parameter"])
            if row["event"] == "arbitration":
                winners[row["time_ms"]] = row["chain"]
            elif row["event"] == "apply":
                holders[knob] = row["chain"]
            elif row["event"] == "reject":
                loops = next(csv.reader([row["loops"]]), [])
                verdicts.append(row["verdict"])
                if row["verdict"] == "conflict-lost":
                    assert loops == [winners[row["time_ms"]]]
                else:
                    assert row["verdict"] == "held" and loops == [holders[knob]]
    assert verdicts == ["conflict-lost"] + ["held"] * 99
    assert set(winners.values()) == {"cpu-booster"}


def test_shipped_configs_load():
    root = Path(__file__).resolve().parents[1] / "configs"
    for name in ("compress.yaml", "adaptive_vnf.yaml", "conflict_demo.yaml"):
        cfg = load_scenario_config(root / name)
        assert cfg.seed == 7


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parents[1] / "configs")
                                        .glob("*.yaml")), ids=lambda path: path.name)
def test_every_shipped_config_key_is_in_its_scenarios_table(path):
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    table = SCENARIOS[doc["scenario"]]
    assert set(doc.get("params", {})) <= set(table.params)
    assert set(doc.get("train", {})) <= (set() if table.train is None else set(_TRAIN))
    assert set(doc.get("workload", {})) <= (set() if table.preset is None else set(_WORKLOAD))


# The values each runner used when a key was absent, before the tables
# declared them; None stands for the runner's "<region>-vm4" node.
OLD_DEFAULTS = {
    "compress": (
        dict(region="waterloo", chain_file=None, train_frac=0.8, error_threshold=0.1,
             cpu_metric="node.cpu@waterloo-vm6", loop_ticks=60, min_fraction_below=0.80),
        dict(learning_rate=1e-3, epochs=150, batch_size=32),
        "bursty30min"),
    "adaptive-vnf": (
        dict(region="waterloo", firewall_node=None, chain_file=None, window=30, horizon=10,
             train_frac=0.75, planted_slope=0.7, planted_intercept=0.1, planted_noise=1e-3,
             cpu_scale=4000.0, hidden_size=16, headroom=1.05, knob_min=200.0, knob_max=6000.0),
        dict(learning_rate=5e-3, epochs=300, batch_size=32),
        "periodic6h"),
    "conflict-demo": (
        dict(region="waterloo", node=None, parameter="vnf.cpu.millicores", initial=2000.0,
             setpoint_high=3000.0, setpoint_low=1000.0, ticks=100, tick_period_ms=1000,
             single_chain=False),
        None, None),
}


@pytest.mark.parametrize("scenario", sorted(OLD_DEFAULTS))
def test_a_bare_config_reads_the_old_defaults(tmp_path, scenario):
    params, train, preset = OLD_DEFAULTS[scenario]
    inputs = check_inputs(load_scenario_config(
        write_config(tmp_path, {"scenario": scenario, "seed": 7})))
    assert inputs.params == params
    assert {k: type(v) for k, v in inputs.params.items()} == {k: type(v) for k, v in params.items()}
    assert inputs.train == (train and TrainConfig(**train))
    assert inputs.workload == (preset and metrics.preset_workload(preset, 0))


# One value per train and workload key, other than the key's default (and,
# for the workload, than BASE_WORKLOAD's).
KEY_VARIANTS = {
    "train": {"learning_rate": 1e-2, "epochs": 3, "batch_size": 8},
    "workload": {"preset": "bursty30min", "duration": 90.0, "base_rate": 60.0,
                 "segments": [{"start": 0, "end": 30, "shape": "burst", "amplitude": 20}],
                 "noise": 0.1},
}
BASE_WORKLOAD = {"duration": 120.0, "base_rate": 50.0, "noise": 0.03,
                 "segments": [{"start": 0, "end": 60, "shape": "ramp", "amplitude": 30}]}


def test_every_train_and_workload_key_changes_a_run():
    """A key that a config may set changes the training history of a tiny
    compressor or the generated rates; a key that changes neither is dead."""
    data = np.random.Generator(np.random.PCG64(8)).uniform(0, 1, size=(40, 8))

    def run(train, workload):
        inputs = check_inputs(ScenarioConfig("compress", 7, train=train, workload=workload),
                              known_only=True)
        net = engines.net_init((8, 5, 3, 5, 8), ("elu", "linear", "elu", "sigmoid"), seed=1)
        _, history = engines.ae_train(net, data, inputs.train)
        return history, metrics.generate_workload(inputs.workload).tolist()

    base_history, base_rates = run({"epochs": 2}, BASE_WORKLOAD)
    assert set(KEY_VARIANTS["train"]) == set(_TRAIN)
    assert set(KEY_VARIANTS["workload"]) == set(_WORKLOAD)
    dead = []
    for key, value in KEY_VARIANTS["train"].items():
        assert value != _TRAIN[key]
        history, _ = run({"epochs": 2, key: value}, BASE_WORKLOAD)
        if history == base_history:
            dead.append(f"train.{key}")
    for key, value in KEY_VARIANTS["workload"].items():
        assert value != _WORKLOAD[key] and value != BASE_WORKLOAD.get(key)
        # A preset names a whole profile, so it replaces the spelled-out one.
        doc = {key: value} if key == "preset" else dict(BASE_WORKLOAD, **{key: value})
        _, rates = run({"epochs": 2}, doc)
        if rates == base_rates:
            dead.append(f"workload.{key}")
    assert not dead


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


LINK = {"a": "a", "b": "b", "bandwidth": 100, "latency": 1.0}


def small_topology(field, value):
    """A valid two-node topology file body, except that field (a path of
    keys and indexes into it) is set to value, or deleted when value is
    None; the empty path replaces the whole body."""
    doc = {"nodes": [{"id": "a", "cpu": 4000, "storage": 4096},
                     {"id": "b", "cpu": 4000, "storage": 4096}],
           "links": [dict(LINK)],
           "knobs": [{"node": "a", "parameter": "vnf.cpu.millicores", "value": 1000}]}
    if not field:
        return value
    *parents, key = field
    target = doc
    for part in parents:
        target = target[part]
    if value is None:
        del target[key]
    else:
        target[key] = value
    return doc


@pytest.mark.parametrize("field, value, named", [
    (("nodes", 0, "reliability"), "high", "node entry"),
    (("links", 0, "latency"), "fast", "link entry"),
    (("knobs", 0, "value"), "lots", "knob entry"),
    (("links", 0, "b"), None, "link entry"),
    (("knobs", 0, "node"), "ghost", "knob entry"),
    (("knobs", 0, "value"), 99999, "knob entry"),
    (("nodes", 0, "roles"), "firewall", "node entry"),
    # Values the number rule refuses: a string, NaN, a value past the float
    # range, a bool, and a fraction where an integer belongs.
    (("nodes", 0, "reliability"), "0.5", "reliability must be a number, got '0.5'"),
    (("links", 0, "latency"), math.nan, "latency must be a finite number, got nan"),
    (("links", 0, "latency"), 10**400, "latency must be a finite number, got 1000"),
    (("knobs", 0, "value"), True, "value must be a number, got True"),
    (("nodes", 0, "cpu"), True, "cpu must be a number, got True"),
    (("nodes", 0, "cpu"), 1500.5, "cpu must be an integer, got 1500.5"),
    # The node and link checks and the topology-wide ones.
    (("nodes", 0, "cpu"), -1, "node a: cpu_capacity must be >= 0"),
    (("nodes", 0, "mem"), -1, "node a: mem_capacity must be >= 0"),
    (("nodes", 0, "storage"), -1, "node a: storage_capacity must be >= 0"),
    (("nodes", 0, "reliability"), 1.5, "node a: reliability must be in [0, 1]"),
    (("links", 0, "b"), "a", "link a--a: endpoints must be distinct"),
    (("links", 0, "bandwidth"), 0, "link a--b: bandwidth must be > 0"),
    (("links", 0, "latency"), -1.0, "link a--b: latency must be >= 0"),
    (("links", 0, "reliability"), 2.0, "link a--b: reliability must be in [0, 1]"),
    (("links",), [LINK, dict(LINK, a="b", b="a")], "duplicate link a--b"),
    (("switches",), ["ghost"], "switch 'ghost' is not declared as a node"),
    ((), {"links": []}, "topology has no nodes"),
], ids=["node-reliability", "link-latency", "knob-value", "link-without-b", "knob-node",
        "knob-past-capacity", "node-roles-string", "node-reliability-string",
        "link-latency-nan", "link-latency-past-float-range", "knob-value-bool",
        "node-cpu-bool", "node-cpu-fraction", "node-cpu-negative", "node-mem-negative",
        "node-storage-negative", "node-reliability-range",
        "link-self-loop", "link-bandwidth-zero", "link-latency-negative",
        "link-reliability-range", "duplicate-link", "undeclared-switch", "no-nodes"])
def test_cli_malformed_topology_exits_2(tmp_path, capsys, field, value, named):
    (tmp_path / "topo.yaml").write_text(yaml.safe_dump(small_topology(field, value)))
    path = write_config(tmp_path, dict(TINY_CONFLICT, topology="topo.yaml"))
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["run", "--scenario", "conflict-demo", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count(named) == 2


@pytest.mark.parametrize("name, body", [
    ("cfg.yaml", b"scenario: conflict-demo\nseed: [7\n"),
    ("topo.yaml", b"nodes: [{id: a\n"),
    ("topo.yaml", b"\xff\xfe not UTF-8\n"),
    ("topo.yaml", b"- a list, not a mapping\n"),
    ("topo.yaml", b"built: 2001-13-01\n"),
    ("topo.yaml", b"[nodes]: []\n"),
], ids=["config-yaml-error", "topology-yaml-error", "topology-not-utf8", "topology-list",
        "topology-bad-date", "topology-list-key"])
def test_cli_unreadable_input_file_exits_2(tmp_path, capsys, name, body):
    (tmp_path / "topo.yaml").write_text(yaml.safe_dump(small_topology(("knobs",), [])))
    path = write_config(tmp_path, dict(TINY_CONFLICT, topology="topo.yaml"))
    (tmp_path / name).write_bytes(body)
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["run", "--scenario", "conflict-demo", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    # Each run's message names the file once, and a YAML error's marks name it too.
    err = capsys.readouterr().err
    assert err.count(name) - err.count(f'{name}", line') == 2
    assert "<unicode string>" not in err


def with_section(doc, section, **values):
    return dict(doc, **{section: dict(doc.get(section, {}), **values)})


@pytest.mark.parametrize("doc, message", [
    # int() used to cut 1500.7 to 1500 and run.
    (with_section(TINY_CONFLICT, "params", tick_period_ms=1500.7),
     "params.tick_period_ms must be an integer, got 1500.7"),
    (with_section(TINY_CONFLICT, "params", ticks=1.5), "params.ticks must be an integer, got 1.5"),
    (with_section(TINY_ADAPTIVE, "train", epochs=0), "epochs and batch_size must be >= 1"),
    (with_section(TINY_COMPRESS, "train", learning_rate=-1), "learning_rate must be >= 0"),
    # Training is always Adam over shuffled batches; the keys that chose are refused.
    (with_section(TINY_COMPRESS, "train", optimizer="adamw"),
     "unknown key train.optimizer; known: learning_rate, epochs, batch_size"),
    (with_section(TINY_COMPRESS, "train", optimizer="adam"),
     "unknown key train.optimizer; known: learning_rate, epochs, batch_size"),
    (with_section(TINY_ADAPTIVE, "train", shuffle=True),
     "unknown key train.shuffle; known: learning_rate, epochs, batch_size"),
    (with_section(TINY_ADAPTIVE, "workload", name="x"),
     "unknown key workload.name; known: preset, duration, base_rate, segments, noise"),
    (with_section(TINY_CONFLICT, "params", tickz=3), "unknown key params.tickz; known: region,"),
    (dict(TINY_CONFLICT, paramz={"ticks": 3}), "unknown key paramz; known: scenario,"),
    (dict(TINY_CONFLICT, params=[1, 2]), "params must be a mapping, got [1, 2]"),
    (dict(TINY_COMPRESS, train=5), "train must be a mapping, got 5"),
    (dict(TINY_ADAPTIVE, workload=["a"]), "workload must be a mapping, got ['a']"),
    (with_section(TINY_COMPRESS, "params", chain_file=5),
     "params.chain_file must be a string, got 5"),
    (with_section(TINY_CONFLICT, "params", region=5), "params.region must be a string, got 5"),
    (dict(TINY_ADAPTIVE, workload={"duration": "x"}),
     "workload.duration must be a number, got 'x'"),
    (dict(TINY_COMPRESS, workload={"preset": "weekly"}), "unknown workload preset 'weekly'"),
    (with_section(TINY_CONFLICT, "train", epochs=3), "unknown key train.epochs; known: none"),
    (with_section(TINY_CONFLICT, "workload", preset="bursty30min"),
     "unknown key workload.preset; known: none"),
    (dict(TINY_CONFLICT, seed=-1), "seed must be >= 0, got -1"),
    (dict(TINY_COMPRESS, workload={"preset": "bursty30min", "noise": 0.5}),
     "workload.preset names a whole profile; other keys: noise"),
    # validate builds each scenario's loops, untrained and unticked.
    (with_section(TINY_COMPRESS, "params", region="mars"),
     "embedding infeasible: step 'collect' blocked by 'coverage'"),
    (with_section(TINY_ADAPTIVE, "params", firewall_node="nowhere"),
     "firewall node 'nowhere' not in topology"),
    (with_section(TINY_CONFLICT, "params", node="nowhere"),
     "conflict-demo node 'nowhere' not in topology"),
    (with_section(TINY_CONFLICT, "params", initial=90000.0),
     "initial knob value does not fit on waterloo-vm4: "),
    # Both used to pass validate: a negative set-point was refused at every
    # apply of the run instead, and knob_min above knob_max pinned the knob
    # at knob_max.
    (with_section(TINY_CONFLICT, "params", setpoint_high=-5.0),
     "knob vnf.cpu.millicores must be >= 0"),
    (with_section(TINY_ADAPTIVE, "params", knob_min=7000.0),
     "params.knob_min 7000.0 > params.knob_max 6000.0"),
    # Each count below 1 used to pass validate: run refused it later, or
    # (compress loop_ticks) wrote a codes.csv of its header alone.
    (with_section(TINY_CONFLICT, "params", ticks=0), "params.ticks must be >= 1, got 0"),
    (with_section(TINY_ADAPTIVE, "params", window=0), "params.window must be >= 1, got 0"),
    (with_section(TINY_ADAPTIVE, "params", horizon=0), "params.horizon must be >= 1, got 0"),
    (with_section(TINY_ADAPTIVE, "params", hidden_size=0),
     "params.hidden_size must be >= 1, got 0"),
    (with_section(TINY_COMPRESS, "params", loop_ticks=0), "params.loop_ticks must be >= 1, got 0"),
    # A training fraction outside (0, 1) used to pass validate: compress's run
    # refused it after the scrape, adaptive-vnf's as a too-short series.
    (with_section(TINY_COMPRESS, "params", train_frac=1.5),
     "params.train_frac must be in (0, 1), got 1.5"),
    (with_section(TINY_ADAPTIVE, "params", train_frac=1.0),
     "params.train_frac must be in (0, 1), got 1.0"),
    # Each used to pass validate: compress's run refused the empty split after
    # the scrape, adaptive-vnf's as a too-short series, naming no key.
    (with_section(TINY_COMPRESS, "params", train_frac=0.0001),
     "params.train_frac 0.0001 splits the 150 frames into 0 and 150; "
     "neither part may be empty"),
    (with_section(TINY_ADAPTIVE, "params", train_frac=0.05),
     "params.train_frac 0.05 splits the 120 minutes into 6 and 114; params.window + "
     "params.horizon = 20 needs more than 20 before the cut and 20 after it"),
    (with_section(TINY_ADAPTIVE, "params", window=200),
     "params.train_frac 0.7 splits the 120 minutes into 84 and 36; params.window + "
     "params.horizon = 205 needs more than 205 before the cut and 205 after it"),
    # A repeated key used to be read as its last value. Its mark names the
    # file (<path> stands for the config's path).
    ("scenario: conflict-demo\nseed: 7\nseed: 8\nparams: {ticks: 3}\n",
     "found duplicate key 'seed'\n  in \"<path>\", line 3, column 1"),
    ("scenario: conflict-demo\nseed: 7\nparams: {ticks: 3, ticks: 5}\n",
     "found duplicate key 'ticks'\n  in \"<path>\", line 3, column 20"),
], ids=["tick-period-fraction", "ticks-fraction", "epochs-zero", "learning-rate-negative",
        "optimizer-adamw", "optimizer-adam", "shuffle-true", "workload-name",
        "params-key-typo", "section-typo", "params-list", "train-number", "workload-list",
        "chain-file-number", "region-number", "workload-duration-string", "unknown-preset",
        "conflict-train-key", "conflict-workload-key", "negative-seed", "preset-sibling-key",
        "compress-unplaceable-region", "adaptive-unknown-firewall", "conflict-unknown-node",
        "conflict-initial-too-big", "conflict-negative-setpoint",
        "adaptive-knob-min-above-max", "conflict-zero-ticks", "adaptive-zero-window",
        "adaptive-zero-horizon", "adaptive-zero-hidden-size", "compress-zero-loop-ticks",
        "compress-train-frac-above-one", "adaptive-train-frac-one",
        "compress-train-frac-empty-split", "adaptive-train-frac-short-training",
        "adaptive-window-longer-than-validation",
        "repeated-top-level-key", "repeated-params-key"])
def test_cli_bad_config_exits_2(tmp_path, capsys, doc, message):
    """validate refuses every config that run refuses, with the same message.
    run_scenario, handed the config in code, refuses the same values; only a
    file's keys are checked against the tables, or for repeats."""
    path = write_config(tmp_path, doc)
    message = message.replace("<path>", str(path))
    scenario = re.search(r"scenario: (\S+)", doc)[1] if isinstance(doc, str) else doc["scenario"]
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["run", "--scenario", scenario, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count(message) == 2
    if isinstance(doc, dict) and not message.startswith("unknown key"):
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_scenario(ScenarioConfig(**dict(doc, out_dir=str(tmp_path / "api"))))
    assert not (tmp_path / "out").exists() and not (tmp_path / "api").exists()


@pytest.mark.parametrize("doc", [with_section(TINY_COMPRESS, "params", train_frac=0.0001),
                                 with_section(TINY_ADAPTIVE, "params", window=200)],
                         ids=["compress", "adaptive-vnf"])
def test_a_split_too_short_is_refused_before_the_workload_is_generated(tmp_path, monkeypatch,
                                                                       doc):
    def generate_workload(*args):
        pytest.fail("run generated the workload before refusing the split")

    monkeypatch.setattr(metrics, "generate_workload", generate_workload)
    assert main(["run", "--scenario", doc["scenario"], "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "out")]) == 2


def test_constant_traffic_exits_2_with_one_message_and_no_output(tmp_path, capsys):
    """Traffic with no segments and no noise leaves the planted CPU law
    nothing to fit: the runner refuses it as a config error naming the
    constant traffic and the training minutes, with exit 2 and no traceback
    before the first artifact. validate cannot tell without generating the
    traffic."""
    doc = {"scenario": "adaptive-vnf", "seed": 7, "train": {"epochs": 2},
           "workload": {"duration": 21600, "base_rate": 80}}
    path = write_config(tmp_path, doc)
    assert main(["validate", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", "--scenario", "adaptive-vnf", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("invalid config: workload traffic is constant (80) over "
                                       "the 270 training minutes, so the CPU law has nothing "
                                       "to fit\n")
    assert not (tmp_path / "out").exists()


def test_cli_misordered_chain_file_exits_2_with_one_message_before_the_scrape(
        tmp_path, capsys, monkeypatch):
    chain_path = tmp_path / "chain.yaml"
    chain_path.write_text(yaml.safe_dump(dict(CUSTOM_COMPRESS_CHAIN,
                                              edges=[["squash", "grab"], ["squash", "keep"]])))
    path = write_config(tmp_path, with_section(TINY_COMPRESS, "params", chain_file="chain.yaml"))

    def scrape_series(*args):
        pytest.fail("run scraped before refusing the chain file")

    monkeypatch.setattr(metrics, "scrape_series", scrape_series)
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["run", "--scenario", "compress", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    message = (f"{chain_path.resolve()}: ordering violation: "
               "analyze step 'squash' precedes monitor step 'grab'")
    assert capsys.readouterr().err.count(message) == 2
    assert not (tmp_path / "out").exists()


def test_run_scenario_reads_only_its_tables_keys(tmp_path):
    """Code may set a key that its scenario does not read, as the benchmark's
    tiny runs set loop_ticks on every scenario; the run ignores it."""
    doc = with_section(TINY_CONFLICT, "params", loop_ticks=3)
    report = run_scenario(make_cfg(doc, tmp_path / "a"))
    run_scenario(make_cfg(TINY_CONFLICT, tmp_path / "b"))
    assert report.checks and hash_dir(tmp_path / "a") == hash_dir(tmp_path / "b")


def test_cli_run_infeasible_embedding_exits_2(tmp_path, capsys):
    doc = with_section(TINY_COMPRESS, "params", region="mars")
    path = write_config(tmp_path, doc)
    assert main(["run", "--scenario", "compress", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "invalid config: embedding infeasible: " in capsys.readouterr().err


@pytest.mark.parametrize("doc, section, key, value", [
    (TINY_CONFLICT, "params", "single_chain", "no"),
    (TINY_CONFLICT, "params", "single_chain", 1),
], ids=["single-chain-quoted-no", "single-chain-one"])
def test_cli_switch_that_is_not_a_bool_exits_2(tmp_path, capsys, doc, section, key, value):
    # bool() used to read both quoted texts as true.
    doc = dict(doc, **{section: dict(doc[section], **{key: value})})
    path = write_config(tmp_path, doc)
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["run", "--scenario", doc["scenario"], "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    message = f"{section}.{key} must be true or false, got {value!r}"
    assert capsys.readouterr().err.count(message) == 2
    with pytest.raises(ConfigError, match=message):
        run_scenario(make_cfg(doc, tmp_path / "api"))


@pytest.mark.parametrize("segment, message", [
    (dict(TINY_ADAPTIVE["workload"]["segments"][0], start="soon"),
     "workload.segments[0].start must be a number, got 'soon'"),
    ("soon", "workload.segments[0] must be a mapping, got 'soon'"),
], ids=["start", "not-a-mapping"])
def test_cli_malformed_workload_segment_exits_2(tmp_path, capsys, segment, message):
    doc = dict(TINY_ADAPTIVE, workload=dict(TINY_ADAPTIVE["workload"], segments=[segment]))
    path = write_config(tmp_path, doc)
    assert main(["run", "--scenario", "adaptive-vnf", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


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
               train={"epochs": 60, "learning_rate": 1e300, "batch_size": 32})
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
