"""The fleet's shared execution plumbing: artifacts and the warm pool.

Two contracts:

- shared-memory offline artifacts resolve to byte-identical bundles in
  every worker, whatever the pool start method — asserted by content hash;
- the warm persistent pool reuses worker processes across waves without
  leaking per-wave state (a ``RUN_CACHE.disabled()`` scope) between them.
"""

import pytest

from repro.cluster import make_cluster
from repro.experiments import parallel
from repro.experiments.parallel import pmap, shutdown_pool, warm_pool
from repro.service import FleetScheduler, TenantSpec
from repro.service import artifacts
from repro.sim.cache import RUN_CACHE

from test_fleet import fleet_fingerprint


def _mixed_fleet(n=6):
    backends = ("lustre", "beegfs")
    return [
        TenantSpec(
            f"batch-{i}",
            backend=backends[i % 2],
            workloads=("IOR_64K", "MDWorkbench_8K"),
            seed=400 + i,
        )
        for i in range(n)
    ]


def _cluster_blob(backend):
    return artifacts.OfflineArtifacts(
        cluster=make_cluster(backend=backend), extraction=None, manual="m"
    )


class TestSharedArtifacts:
    """Publish-once artifacts: content-hash parity in every worker."""

    def test_local_resolve_round_trip(self):
        key = ("test-artifacts", "local", 0)
        ref = artifacts.ref_for(key) or artifacts.publish(key, _cluster_blob("lustre"))
        assert artifacts.resolve(ref).cluster.backend_name == "lustre"
        assert artifacts.local_digest(key) == ref.digest

    def test_republication_returns_same_ref(self):
        key = ("test-artifacts", "idempotent", 0)
        first = artifacts.publish(key, _cluster_blob("lustre"))
        second = artifacts.publish(key, _cluster_blob("lustre"))
        assert second is first

    def test_integrity_error_on_digest_mismatch(self):
        key = ("test-artifacts", "torn", 0)
        ref = artifacts.publish(key, _cluster_blob("beegfs"))
        if ref.shm_name is None:
            pytest.skip("no shared memory on this platform")
        import dataclasses

        forged = dataclasses.replace(
            ref, key=("test-artifacts", "torn", 1), digest="0" * 64
        )
        with pytest.raises(artifacts.ArtifactIntegrityError):
            artifacts.resolve(forged)

    @pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"])
    def test_worker_digest_parity_across_start_methods(self, start_method):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        key = ("test-artifacts", "parity", 0)
        ref = artifacts.ref_for(key) or artifacts.publish(key, _cluster_blob("lustre"))
        if start_method != "fork" and ref.shm_name is None:
            pytest.skip("non-fork parity needs a shared-memory segment")
        ctx = multiprocessing.get_context(start_method)
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            digests = list(pool.map(artifacts._probe_worker, [ref] * 4))
        assert digests == [ref.digest] * 4


def _cache_state_probe(_):
    """Module-level so the pool can pickle it."""
    return RUN_CACHE.active


def _job_with_cache_scope(item):
    with RUN_CACHE.disabled():
        assert not RUN_CACHE.active
    return item * 2


class TestWarmPool:
    """Pool reuse across waves, without state bleeding between them."""

    def teardown_method(self):
        shutdown_pool()

    def test_pool_is_reused_for_same_count(self):
        first = warm_pool(2)
        assert warm_pool(2) is first

    def test_pool_resizes_by_retiring(self):
        first = warm_pool(2)
        second = warm_pool(3)
        assert second is not first
        assert parallel._pool_workers == 3
        shutdown_pool()
        assert parallel._pool is None

    def test_cache_enablement_does_not_leak_between_waves(self):
        # Wave 1: jobs enter (and exit) a cache-off scope in the worker.
        assert pmap(_job_with_cache_scope, [1, 2, 3, 4], max_workers=2) == [
            2,
            4,
            6,
            8,
        ]
        # Wave 2, same warm workers: the scope must not have leaked.
        assert pmap(_cache_state_probe, range(4), max_workers=2) == [True] * 4

    def test_fleet_waves_reuse_pool_bit_identically(self):
        fleet = _mixed_fleet(4)
        first = FleetScheduler(fleet, seed=0, max_workers=2).run()
        pool = parallel._pool
        second = FleetScheduler(fleet, seed=0, max_workers=2, use_cache=False).run()
        if pool is not None:
            assert parallel._pool is pool
        assert fleet_fingerprint(first) == fleet_fingerprint(second)
