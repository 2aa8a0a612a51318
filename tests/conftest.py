"""Fixtures and helpers shared across test modules, and the hypothesis
profiles.

`HYPOTHESIS_PROFILE=ci` selects derandomized example generation (every run
draws the same examples, so a test cannot flake) that prints the blob to
reproduce any failure; without it the default profile applies.
"""

import importlib.util
import os
import struct
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def snapshot(state) -> tuple:
    """The state's value, in a fixed order: nodes, switches, links,
    allocations and knob values bitwise. Equal snapshots mean value-equal
    states, usage table and allocation id counter aside."""
    return (sorted(state.nodes.items()), sorted(state.switches),
            sorted(state.links.items()), sorted(state.allocations.items()),
            sorted((key, bits(value)) for key, value in state.knobs.items()))


@pytest.fixture(scope="session")
def embed_agreement():
    """Greedy embedding against the exhaustive oracle on 200 seeded
    instances, computed once per session: (feasibility agreements,
    disagreeing seeds, greedy/optimal latency ratios)."""
    from test_chain import run_agreement  # test_chain imports snapshot from here
    return run_agreement(range(200))


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench(name) loads the benchmark's perfbench/<name>.py by path."""
    def load(name: str):
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
        spec.loader.exec_module(module)
        return module
    return load
