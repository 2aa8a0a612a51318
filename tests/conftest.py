"""Fixtures shared across test modules."""

import pytest

from test_chain import run_agreement


@pytest.fixture(scope="session")
def embed_agreement():
    """Greedy embedding against the exhaustive oracle on 200 seeded
    instances, computed once per session: (feasibility agreements,
    disagreeing seeds, greedy/optimal latency ratios)."""
    return run_agreement(range(200))
