"""Shared fixtures for the unit and contract suites."""

import multiprocessing

import pytest

from repro.experiments.parallel import shutdown_pool
from repro.pfs import simulator
from repro.sim.cache import RUN_CACHE


@pytest.fixture(autouse=True)
def empty_run_cache():
    """Start every test on an empty process-wide run cache and noise memo.

    Every simulated run fills ``RUN_CACHE`` and the ``run_noise`` memo, so
    without this a test's model evaluation counts, hit counts and entry
    counts, and which noise draws it makes, would depend on which tests
    ran before it.
    """
    RUN_CACHE.clear()
    simulator._NOISE_CACHE.clear()
    yield


@pytest.fixture(scope="session", autouse=True)
def no_live_pool_processes():
    """After the suite, retiring the warm pool leaves no child process."""
    yield
    shutdown_pool()
    assert multiprocessing.active_children() == []
