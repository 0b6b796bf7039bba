"""The oracle search against scalar noise.

``OracleSearch.run`` seeds each round's noise in one batch and builds a
sweep's trial configs from one unclipped config of the current best.  The
reference below is the coordinate descent one run at a time: each trial
built from scratch with ``_config(dict(best, name=value))`` and measured
with one cache-off ``Simulator.run``, on an empty noise memo, so every
noise factor it uses comes from ``default_rng``.  The two must agree bit
for bit.  The batch hashes through wrapping uint32 arrays, so CI also runs
this module with runtime warnings as errors.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import list_backends
from repro.baselines.search import OracleSearch, SearchResult
from repro.cluster import make_cluster
from repro.pfs import simulator as simulator_module
from repro.pfs.simulator import Simulator
from repro.sim import sweep as sweep_module
from repro.sim.cache import RUN_CACHE
from repro.sim.random import RngStreams
from repro.workloads import get_workload

SEARCH_WORKLOADS = ("IOR_64K", "MDWorkbench_8K", "IO500")


@lru_cache(maxsize=None)
def cluster_of(backend: str):
    return make_cluster(seed=0, backend=backend)


def reference_search(search: OracleSearch, workload) -> SearchResult:
    """``search``'s coordinate descent with one scalar, cache-off run per
    evaluation and noise drawn afresh from ``default_rng``."""
    simulator_module._NOISE_CACHE.clear()
    sim = Simulator(search.cluster)

    def measure(updates, rep):
        config = search._config(updates)
        seed = RngStreams.rep_seed(search.seed, rep)
        with RUN_CACHE.disabled():
            return sim.run(workload, config, seed=seed).seconds

    evaluations = 0
    best: dict[str, int] = {}
    default_seconds = measure({}, evaluations)
    evaluations += 1
    best_seconds = default_seconds
    trace = []
    for _ in range(search.max_rounds):
        improved = False
        for name, candidates in search.candidates.items():
            sweep_best = None
            for value in candidates:
                if best.get(name) == value:
                    continue
                trial = dict(best, **{name: value})
                seconds = measure(trial, evaluations)
                evaluations += 1
                trace.append((name, value, seconds))
                if seconds < best_seconds * 0.995 and (
                    sweep_best is None or seconds < sweep_best[0]
                ):
                    sweep_best = (seconds, trial)
            if sweep_best is not None:
                best_seconds, best = sweep_best
                improved = True
        if not improved:
            break
    return SearchResult(
        best_updates=best,
        best_seconds=best_seconds,
        default_seconds=default_seconds,
        evaluations=evaluations,
        trace=trace,
    )


def noise_draws(patch: pytest.MonkeyPatch) -> tuple[list, list]:
    """Count noise draws from here on through ``patch``: the size of every
    ``first_normals`` batch, and every scalar ``RngStreams.lognormal_noise``
    draw."""
    batches, scalar = [], []
    first_normals = sweep_module.first_normals
    lognormal_noise = RngStreams.lognormal_noise

    def batch(seeds, sigmas):
        batches.append(len(seeds))
        return first_normals(seeds, sigmas)

    def draw(streams, *args):
        scalar.append(args)
        return lognormal_noise(streams, *args)

    patch.setattr(sweep_module, "first_normals", batch)
    patch.setattr(RngStreams, "lognormal_noise", draw)
    return batches, scalar


@settings(max_examples=16, deadline=None)
@given(
    backend=st.sampled_from(list_backends()),
    workload=st.sampled_from(SEARCH_WORKLOADS),
    seed=st.integers(0, 2**31 - 1),
    max_rounds=st.sampled_from((1, 2)),
)
def test_search_matches_scalar_reference(backend, workload, seed, max_rounds):
    """The batched search draws only batches, the reference only scalar
    noise, and both give the same result."""
    RUN_CACHE.clear()
    simulator_module._NOISE_CACHE.clear()
    search = OracleSearch(cluster_of(backend), seed=seed, max_rounds=max_rounds)
    with pytest.MonkeyPatch.context() as patch:
        batches, scalar = noise_draws(patch)
        result = search.run(get_workload(workload))
        assert batches and scalar == []
        del batches[:]
        reference = reference_search(search, get_workload(workload))
        assert batches == [] and scalar
    assert result == reference
