"""Process-wide memoization of deterministic simulated runs.

The analytic model is a pure function of (cluster, workload, configuration,
seed) — two strategies measuring the same cell draw byte-identical
:class:`~repro.pfs.simulator.RunResult`s.  The experiment layer leans on
that heavily: the drift experiment's static/online/oracle arms share
segment measurements, the oracle search re-measures incumbent
configurations, cross-backend transfer scores the same default
configuration per target, and every ``measure_config`` caller replays the
paper's repetition protocol.  :class:`RunCache` lets all of them share one
bounded result store instead of re-running the model.

Contract:

- **Keys lead with the backend name** (consistent with
  ``PfsConfig.cache_key()``), then the cluster hardware key, the workload
  key, the configuration key and the run seed.  Equal keys imply equal
  model inputs, so a hit can never alias two different runs.
- **Cached results are immutable to consumers.**  A hit returns the stored
  :class:`RunResult` object itself — the same sharing rule the sweep
  engine already applies to grouped configs and phase objects.  Consumers
  read, never write (``Simulator.run`` only ever mutates phase results it
  created itself).
- **Bounded.**  The store is an LRU of ``maxsize`` entries; experiments
  cannot grow memory without bound.
- **Opt-in.**  The cache only serves and stores while at least one
  ``with RUN_CACHE.enabled():`` scope is active, so parity suites and
  micro-benchmarks that intentionally re-run the model measure the real
  thing unless they ask otherwise.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.cluster.hardware import ClusterSpec
    from repro.pfs.config import PfsConfig
    from repro.pfs.simulator import RunResult, WorkloadLike

#: Default entry bound for the process-wide cache.
DEFAULT_MAXSIZE = 4096


class RunCache:
    """A bounded LRU of deterministic :class:`RunResult`s."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._store: OrderedDict[tuple, "RunResult"] = OrderedDict()
        self._depth = 0
        # Concurrent threads may each enter their own ``enabled()`` scope;
        # the depth update is a read-modify-write, so it needs a lock to
        # stay exact.
        self._depth_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- enablement --------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether lookups/stores are currently served."""
        return self._depth > 0

    @contextmanager
    def enabled(self):
        """Serve the cache inside this scope (scopes nest)."""
        with self._depth_lock:
            self._depth += 1
        try:
            yield self
        finally:
            with self._depth_lock:
                self._depth -= 1

    # -- keying ------------------------------------------------------------
    @staticmethod
    def key(
        cluster: "ClusterSpec",
        workload: "WorkloadLike",
        config: "PfsConfig",
        seed: int,
    ) -> tuple:
        """The cache key for one run; leads with the backend name."""
        return (
            cluster.backend_name,
            cluster.cache_key(),
            workload.cache_key(),
            config.cache_key(),
            seed,
        )

    def partition(self, cluster: "ClusterSpec", items: list):
        """Split batch items into served hits and still-to-run indices.

        Returns ``(results, pending, keys)``: per-item results (``None``
        where missing), the indices the caller must evaluate, and the
        per-item keys to :meth:`put` finished results under (``None`` when
        the cache is inactive).  The cache prologue of the sweep engine,
        whose multi-item entry points all share it.
        """
        results: list["RunResult | None"] = [None] * len(items)
        if not self.active:
            return results, list(range(len(items))), None
        keys = [
            self.key(cluster, workload, config, seed)
            for workload, config, seed in items
        ]
        pending = []
        for index, key in enumerate(keys):
            hit = self.get(key)
            if hit is not None:
                results[index] = hit
            else:
                pending.append(index)
        return results, pending, keys

    # -- storage -----------------------------------------------------------
    def get(self, key: tuple) -> "RunResult | None":
        result = self._store.get(key)
        if result is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return result

    def put(self, key: tuple, result: "RunResult") -> None:
        self._store[key] = result
        self._store.move_to_end(key)
        while len(self._store) > self.maxsize:
            self._store.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> dict:
        return {
            "entries": len(self._store),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: The process-wide instance every simulator path consults when enabled.
RUN_CACHE = RunCache()
