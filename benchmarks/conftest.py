"""Shared fixtures for the figure-reproduction benchmarks.

Each benchmark regenerates one paper artifact (figure or analysis), asserts
its shape expectations, and reports the wall time of regenerating it via
pytest-benchmark.  Artifacts are also printed so ``--benchmark-only -s``
shows the reproduced rows/series.
"""

import pytest

from repro.cluster import make_cluster
from repro.experiments.harness import shared_extraction


@pytest.fixture(scope="session")
def cluster():
    spec = make_cluster(seed=0)
    # Warm the shared offline extraction so benches measure the experiment,
    # not the (identical, cached) offline phase.
    shared_extraction(spec)
    return spec
