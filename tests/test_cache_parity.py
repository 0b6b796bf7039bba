"""The run cache serves every simulated run by default; these differential
tests hold the default paths to the cache-off reference on both backends.

- A fresh engine's four-workload queue, for every agent policy, is byte
  for byte the same (every session and the merged rule journal) whether
  its runs miss the cache, are all served from it, or run inside
  ``RUN_CACHE.disabled()``.
- An oracle search run in the default scope equals the same search inside
  ``disabled()``.
"""

import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.policies import list_policies
from repro.backends import list_backends
from repro.baselines.search import OracleSearch
from repro.cluster import make_cluster
from repro.core.engine import Stellar
from repro.experiments.harness import shared_extraction
from repro.faults import FaultPlan, RetryPolicy
from repro.rules.store import session_to_dict
from repro.sim.cache import RUN_CACHE
from repro.workloads import get_workload

#: The session queue of every engine (the tune-seq workload's queue).
QUEUE = ("IOR_64K", "IOR_16M", "MDWorkbench_8K", "IO500")
SEARCH_WORKLOADS = ("IOR_64K", "MDWorkbench_8K", "IO500")


@lru_cache(maxsize=None)
def backend_setup(backend: str):
    cluster = make_cluster(seed=0, backend=backend)
    return cluster, shared_extraction(cluster, seed=0)


def queue_fingerprint(
    backend: str,
    policy: str,
    seed: int,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
) -> list[str]:
    """Every session of a fresh engine's queue, then its rule journal,
    optionally under a fault plan and retry policy."""
    cluster, extraction = backend_setup(backend)
    engine = Stellar(
        cluster=cluster,
        model="claude-3.7-sonnet",
        extraction=extraction,
        seed=seed,
        faults=faults,
        retry=retry if retry is not None else RetryPolicy(),
        policy=policy,
    )
    sessions = [engine.tune_and_accumulate(get_workload(name)) for name in QUEUE]
    return [json.dumps(session_to_dict(s), sort_keys=True) for s in sessions] + [
        json.dumps(engine.journal.to_json(), sort_keys=True)
    ]


class TestDefaultCacheParity:
    @pytest.mark.parametrize("policy", list_policies())
    @settings(max_examples=4, deadline=None)
    @given(
        backend=st.sampled_from(list_backends()),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_engine_queue_matches_cache_off(self, policy, backend, seed):
        RUN_CACHE.clear()
        cold = queue_fingerprint(backend, policy, seed)
        with RUN_CACHE.disabled():
            reference = queue_fingerprint(backend, policy, seed)
        misses = RUN_CACHE.misses
        served = queue_fingerprint(backend, policy, seed)
        assert RUN_CACHE.misses == misses  # every run came from the cache
        assert cold == reference
        assert served == reference

    @pytest.mark.parametrize("workload", SEARCH_WORKLOADS)
    @pytest.mark.parametrize("backend", list_backends())
    def test_oracle_search_matches_cache_off(self, backend, workload):
        cluster, _extraction = backend_setup(backend)
        with RUN_CACHE.disabled():
            reference = OracleSearch(cluster, seed=11)._run(get_workload(workload))
        hits = RUN_CACHE.hits
        cached = OracleSearch(cluster, seed=11).run(get_workload(workload))
        assert RUN_CACHE.hits > hits  # the search re-measured configurations
        assert cached == reference
