"""Every outside document is read through one declared table: a misspelled
key is refused with the known keys, a value of another kind or a repeated key
is refused, and every document loopsim ships still loads."""

import copy
import importlib
import random
import re
from pathlib import Path

import pytest
import yaml

from loopsim import sdi
from loopsim.chain import chain_from_dict, load_chain
from loopsim.cli import main
from loopsim.config import load_yaml
from loopsim.errors import ConfigError
from loopsim.scenarios import load_scenario_config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))

CHAIN = {"id": "demo", "steps": [{"name": "m", "kind": "monitor",
                                  "function": "monitor.scrape_frame", "qos": {"cpu": 100}}]}
TOPOLOGY = {"nodes": [{"id": "a", "cpu": 1000}, {"id": "b", "cpu": 1000}],
            "links": [{"a": "a", "b": "b", "bandwidth": 100, "latency": 1.0}]}
CONFIG = {"scenario": "adaptive-vnf", "seed": 7,
          "workload": {"duration": 7200.0, "segments": [
              {"start": 0, "end": 1200, "shape": "ramp", "amplitude": 40}]}}


def edited(doc, path, key, value):
    """A deep copy of doc whose mapping at path (keys and list indices) sets key to value."""
    doc = copy.deepcopy(doc)
    target = doc
    for step in path:
        target = target[step]
    target[key] = value
    return doc


def load_config(doc, tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return load_scenario_config(path)


MISSPELLED = [
    (lambda d, _: chain_from_dict(d),
     edited(CHAIN, ["steps", 0, "qos"], "min_bandwith", 50),
     "unknown key steps[0].qos.min_bandwith; known: max_latency_ms, min_bandwidth, cpu, "
     "storage, min_reliability, coverage"),
    (lambda d, _: chain_from_dict(d), edited(CHAIN, [], "tick_perod_ms", 500),
     "unknown key tick_perod_ms; known: id, steps, edges, source_domain, "
     "destination_domain, priority, tick_period_ms"),
    (lambda d, _: chain_from_dict(d), edited(CHAIN, [], "priorty", 1),
     "unknown key priorty; known: id, steps,"),
    (lambda d, _: sdi.build_topology(d),
     edited(TOPOLOGY, ["nodes", 0], "cpu_capacity", 4000),
     "unknown key cpu_capacity; known: id, region, tier, cpu, mem, storage, reliability, "
     "roles"),
    (lambda d, _: sdi.build_topology(d),
     edited(TOPOLOGY, ["links", 0], "latncy", 2.0),
     "unknown key latncy; known: a, b, bandwidth, latency, reliability"),
    (load_config, edited(CONFIG, ["workload", "segments", 0], "amplitud", 40),
     "unknown key workload.segments[0].amplitud; known: start, end, shape, amplitude"),
]


@pytest.mark.parametrize("load, doc, message", MISSPELLED + [
    # A non-string used to be turned into its text.
    (lambda d, _: chain_from_dict(d), edited(CHAIN, [], "id", 7),
     "bad chain definition: id must be a string, got 7"),
    (lambda d, _: chain_from_dict(d), edited(CHAIN, ["steps", 0], "name", 1),
     "bad chain definition: steps[0].name must be a string, got 1"),
    (lambda d, _: sdi.build_topology(d), edited(TOPOLOGY, ["links", 0], "a", 5),
     ": a must be a string, got 5"),
], ids=["qos-min_bandwith", "chain-tick_perod_ms", "chain-priorty", "node-cpu_capacity",
        "link-latncy", "segment-amplitud",
        "chain-id-number", "step-name-number", "link-end-number"])
def test_a_misspelled_key_or_a_non_string_is_refused(tmp_path, load, doc, message):
    with pytest.raises(ConfigError) as err:
        load(doc, tmp_path)
    assert message in str(err.value)


def test_validate_exits_2_on_a_misspelled_key_in_a_referenced_chain(tmp_path, capsys):
    (tmp_path / "chain.yaml").write_text(yaml.safe_dump(
        edited(CHAIN, ["steps", 0, "qos"], "min_bandwith", 50)))
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"scenario": "compress", "seed": 7,
                                    "params": {"chain_file": "chain.yaml"}}))
    assert main(["validate", "--config", str(path)]) == 2
    assert "unknown key steps[0].qos.min_bandwith" in capsys.readouterr().err


@pytest.mark.parametrize("load, text, key, line", [
    (load_scenario_config, "scenario: conflict-demo\nseed: 7\nseed: 8\n", "'seed'", 3),
    (load_scenario_config,
     "scenario: conflict-demo\nseed: 7\nparams:\n  ticks: 3\n  region: waterloo\n  ticks: 5\n",
     "'ticks'", 6),
    (load_chain, "id: demo\nsteps:\n  - name: m\n    kind: monitor\n"
     "    function: monitor.scrape_frame\n    qos: {cpu: 100, cpu: 50}\n", "'cpu'", 6),
    (sdi.load_topology, "nodes:\n  - {id: a, cpu: 1000}\n  - {id: b, cpu: 1000, cpu: 9000}\n"
     "links:\n  - {a: a, b: b, bandwidth: 100, latency: 1.0}\n", "'cpu'", 3),
], ids=["config-top-level", "config-nested", "chain-qos", "topology-node"])
def test_a_repeated_key_is_refused_naming_the_key_and_its_line(tmp_path, load, text, key,
                                                                line):
    """A repeated key used to be read as its last value."""
    path = tmp_path / "doc.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load(path)
    assert f"found duplicate key {key}" in str(err.value)
    assert f"line {line}," in str(err.value)


def test_a_merge_key_is_no_repeat(tmp_path):
    """<< merges a mapping in; a key beside it overrides the merged one."""
    path = tmp_path / "topo.yaml"
    path.write_text("nodes:\n  - &a {id: a, cpu: 1000}\n  - {<<: *a, id: b}\n"
                    "links:\n  - {a: a, b: b, bandwidth: 100, latency: 1.0}\n")
    assert sorted(sdi.load_topology(path).nodes) == ["a", "b"]
    # The root merges a in before a is read itself; a's pairs then hold its merged x too.
    path.write_text("a: &a {<<: {x: 1}, x: 2}\n<<: *a\n")
    assert load_yaml(path) == {"a": {"x": 2}, "x": 2}


@pytest.mark.parametrize("load", [
    *(pytest.param(lambda path=path: load_scenario_config(path), id=path.name)
      for path in CONFIGS),
    pytest.param(lambda: sdi.build_topology("testbed"), id="testbed"),
    # The ring perfbench's conflict-scale builds.
    *(pytest.param(lambda seed=seed: sdi.build_topology(
        sdi.region_ring_spec(random.Random(seed), 8, 8)), id=f"region-ring-{seed}")
      for seed in (7, 3, 11)),
])
def test_every_document_loopsim_ships_or_writes_loads(load):
    assert load()


def test_readme_file_formats_table_names_real_code():
    """Each `module.NAME` in the table column of README's "File formats"
    table is an attribute of loopsim.module."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    formats = text.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in formats.splitlines() if line.startswith("| ")][1:]
    names = [name for row in rows for name in re.findall(r"`(\w+)\.(\w+)`", row.split("|")[-2])]
    assert len(names) >= 10
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"loopsim.{module}"), name)]
    assert missing == []
