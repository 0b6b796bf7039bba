"""Shared fixtures for the unit and contract suites."""

import pytest

from repro.sim.cache import RUN_CACHE


@pytest.fixture(autouse=True)
def empty_run_cache():
    """Start every test on an empty process-wide run cache.

    Every simulated run fills ``RUN_CACHE``, so without this a test's model
    evaluation counts, hit counts and entry counts would depend on which
    tests ran before it.
    """
    RUN_CACHE.clear()
    yield
