"""Fixtures shared across test modules, and the hypothesis profiles.

`HYPOTHESIS_PROFILE=ci` selects derandomized example generation (every run
draws the same examples, so a test cannot flake) that prints the blob to
reproduce any failure; without it the default profile applies.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from test_chain import run_agreement

settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def embed_agreement():
    """Greedy embedding against the exhaustive oracle on 200 seeded
    instances, computed once per session: (feasibility agreements,
    disagreeing seeds, greedy/optimal latency ratios)."""
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
