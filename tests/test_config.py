"""Every outside document is read through one declared table: a misspelled
key is refused with the known keys, a value of another kind is refused, and
every document loopsim ships or writes still loads."""

import copy
import random
from pathlib import Path

import pytest
import yaml

from loopsim import sdi
from loopsim.chain import catalog_from_dict, chain_from_dict
from loopsim.cli import main
from loopsim.errors import ConfigError
from loopsim.scenarios import (ScenarioConfig, _conflict_run, check_inputs,
                               load_scenario_config)

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))

CHAIN = {"id": "demo", "steps": [{"name": "m", "kind": "monitor",
                                  "function": "monitor.scrape_frame", "qos": {"cpu": 100}}]}
TOPOLOGY = {"nodes": [{"id": "a", "cpu": 1000}, {"id": "b", "cpu": 1000}],
            "links": [{"a": "a", "b": "b", "bandwidth": 100, "latency": 1.0}]}
CATALOG = {"entries": [{"kind": "k", "target_role": "firewall", "parameter": "p"}]}
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


def load_state(doc, tmp_path):
    return sdi.deserialize_state(yaml.safe_dump(doc))


def load_config(doc, tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return load_scenario_config(path)


def state_doc():
    return yaml.safe_load(sdi.serialize_state(sdi.build_topology(TOPOLOGY)))


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
    (lambda d, _: catalog_from_dict(d),
     edited(CATALOG, ["entries", 0], "maximum", 6000),
     "unknown key entries[0].maximum; known: kind, target_role, parameter, scale, offset, "
     "min, max"),
    (load_state, edited(state_doc(), [], "allocatons", []),
     "unknown key allocatons; known: nodes, switches, links, knobs, allocations"),
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
        "link-latncy", "catalog-maximum", "state-allocatons", "segment-amplitud",
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


def written_state_loads_back():
    """A finished conflict-demo world, with its allocations and knob, reads
    back into the state that wrote it."""
    params = check_inputs(ScenarioConfig("conflict-demo", 7)).params
    state = _conflict_run("testbed", params, arbitration=True).state
    text = sdi.serialize_state(state)
    assert state.allocations and state.knobs
    return sdi.serialize_state(sdi.deserialize_state(text)) == text


@pytest.mark.parametrize("load", [
    *(pytest.param(lambda path=path: load_scenario_config(path), id=path.name)
      for path in CONFIGS),
    pytest.param(lambda: sdi.build_topology("testbed"), id="testbed"),
    # The ring perfbench's conflict-scale builds.
    *(pytest.param(lambda seed=seed: sdi.build_topology(
        sdi.region_ring_spec(random.Random(seed), 8, 8)), id=f"region-ring-{seed}")
      for seed in (7, 3, 11)),
    pytest.param(written_state_loads_back, id="conflict-demo-state"),
])
def test_every_document_loopsim_ships_or_writes_loads(load):
    assert load()
