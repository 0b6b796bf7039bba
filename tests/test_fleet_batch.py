"""The fleet's shared execution plumbing: artifacts and the warm pool.

Two contracts:

- an offline bundle is a pure function of its key: every worker, whatever
  the pool start method, holds a bundle equal to the parent's, whether it
  inherited it or built it;
- the warm persistent pool reuses worker processes across waves without
  leaking per-wave state (a ``RUN_CACHE.disabled()`` scope) between them.
"""

import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import make_cluster
from repro.experiments import parallel
from repro.experiments.harness import shared_extraction
from repro.experiments.parallel import pmap, shutdown_pool, warm_pool
from repro.service import FleetScheduler, TenantSpec
from repro.service import artifacts
from repro.sim.cache import RUN_CACHE

from test_fleet import fleet_fingerprint

TESTS = Path(__file__).resolve().parent


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


def _bundle_identity(key):
    """Module-level so the pool can pickle it: what a worker's bundle is."""
    bundle = artifacts.publish(key)
    return (
        bundle.cluster.cache_key(),
        hashlib.sha256(pickle.dumps(bundle.extraction)).hexdigest(),
    )


class TestSharedArtifacts:
    """Offline bundles: built once per process, equal in every worker."""

    def test_local_resolve_round_trip(self):
        """``publish`` returns the bundle its key names."""
        bundle = artifacts.publish(("beegfs", 3, 1))
        assert bundle.cluster.backend_name == "beegfs"
        assert bundle.cluster.cache_key() == make_cluster(
            seed=3, backend="beegfs"
        ).cache_key()
        assert bundle.extraction is shared_extraction(bundle.cluster, seed=1)

    def test_republication_returns_same_ref(self):
        """A key's bundle is built once per process."""
        key = ("lustre", 0, 0)
        assert artifacts.publish(key) is artifacts.publish(key)

    @pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"])
    def test_worker_digest_parity_across_start_methods(self, start_method):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        key = ("lustre", 0, 0)
        # Built here first: fork workers inherit it, the others rebuild it.
        expected = _bundle_identity(key)
        ctx = multiprocessing.get_context(start_method)
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            identities = list(pool.map(_bundle_identity, [key] * 4))
        assert identities == [expected] * 4

    def test_pool_warmed_before_any_bundle_leaks_nothing(self):
        """Workers that predate every bundle build their own, cleanly.

        A fresh interpreter starts the warm pool first, so no worker
        inherits a bundle, then runs a two-backend fleet on it.  Exit must
        leave nothing for the resource tracker to report, and the fleet
        must equal the inline one.
        """
        script = (
            "import hashlib\n"
            "from repro.experiments.parallel import pmap\n"
            "from repro.service import FleetScheduler\n"
            "from test_fleet import fleet_fingerprint\n"
            "from test_fleet_batch import _mixed_fleet\n"
            "pmap(abs, range(2), max_workers=2)\n"
            "result = FleetScheduler(_mixed_fleet(4), seed=0, max_workers=2).run()\n"
            "print(hashlib.sha256(fleet_fingerprint(result).encode()).hexdigest())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": f"{TESTS.parent / 'src'}:{TESTS}"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        inline = FleetScheduler(_mixed_fleet(4), seed=0, max_workers=1).run()
        assert (
            proc.stdout.strip()
            == hashlib.sha256(fleet_fingerprint(inline).encode()).hexdigest()
        )


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
        second = FleetScheduler(fleet, seed=0, max_workers=2).run()
        if pool is not None:
            assert parallel._pool is pool
        assert fleet_fingerprint(first) == fleet_fingerprint(second)
