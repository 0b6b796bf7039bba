"""Process-wide memoization of noise-free model evaluations and phase results.

The analytic model is a pure function of (cluster, workload,
configuration); only the run-to-run noise depends on the seed.  The whole
system leans on that: tuning engines on one cluster repeat each other's
initial runs and most of their probes, the drift experiment's
static/online/oracle arms share segment measurements, the oracle search
re-measures incumbent configurations under fresh seeds, and every
``measure_config`` caller replays the paper's repetition protocol.
:class:`RunCache` lets all of them share one bounded store of model
evaluations instead of re-running the model.  Below it, a bounded phase
store lets evaluations that differ only in roles a phase does not read
share that phase's result: a coordinate move of the oracle search changes
one role, and a data phase reads only data-path roles, a metadata phase
only metadata-path ones.

Contract:

- **Keys carry no seed.**  A key leads with the backend name (consistent
  with ``PfsConfig.cache_key()``), then the cluster hardware, workload and
  configuration keys.  Equal keys imply equal model inputs.
- **Entries are noise-free evaluations:** what
  :func:`~repro.pfs.simulator.evaluate_phases` returns, the validated
  config (without its memos) and its phase results.  An invalid config
  raises before anything is stored.
- **A hit assembles a fresh per-run result** from the entry and the seed's
  noise (:func:`~repro.pfs.simulator.noisy_run`), so an exact replay is
  equal to, not the same object as, the first run.  The config and the
  ``phase`` / ``bounds`` objects are shared and immutable to consumers.
- **Phase entries are bare phase results**, keyed by the evaluation key's
  group head (:meth:`RunCache.group_key`), the phase's position in the
  compiled workload and the values of the roles its kind reads
  (:data:`~repro.pfs.model.DATA_ROLES` or
  :data:`~repro.pfs.model.META_ROLES`).  No client-cache state rides
  along: the :class:`~repro.pfs.model.RunState` write of a phase depends
  only on the phase, the rank count and the cluster, so
  :func:`~repro.pfs.simulator.evaluate_phases` applies it after every
  phase, hit or miss.  A stored result is shared by every evaluation that
  hit it and, like the ``phase`` / ``bounds`` objects, immutable to
  consumers; runs get copies through ``noisy_run``.  Only callers the
  cache serves pass a group head, so the cache-off ``Simulator.run`` path,
  which scales phase seconds in place, never receives a stored result.
- **Bounded.**  The evaluation store is an LRU of ``maxsize`` entries and
  the phase store one of ``PHASES_PER_ENTRY * maxsize``; no caller can
  grow memory without bound.
- **Counted per store.**  ``hits``, ``misses`` and ``len()`` count whole
  evaluations; ``phase_hits``, ``phase_misses`` and the ``phase_*`` fields
  of :meth:`RunCache.stats` count phase lookups.  Neither store takes a
  lock: a lookup and an insert are each a few ``OrderedDict`` operations,
  and the counters are plain attribute increments.
- **On by default.**  Every ``Simulator.run`` and ``run_items`` call is
  served from and stored into the cache, unless a
  ``with RUN_CACHE.disabled():`` scope is open, which bypasses both
  stores.  The cache-off path is the memo-free parity reference: parity
  suites reach it through ``disabled()``, and so do micro-benchmarks that
  time the model itself.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.cluster.hardware import ClusterSpec
    from repro.pfs.config import PfsConfig
    from repro.pfs.phases import PhaseResult
    from repro.pfs.simulator import Evaluation, WorkloadLike

#: Default entry bound for the process-wide cache.
DEFAULT_MAXSIZE = 4096

#: The phase store keeps ``PHASES_PER_ENTRY * maxsize`` phase results
#: (16,384 for ``RUN_CACHE``); an oracle search of a catalog workload costs
#: 2 to 13 phases per evaluation, most of them shared with its neighbours.
PHASES_PER_ENTRY = 4


class RunCache:
    """A bounded LRU of noise-free model evaluations, over a bounded LRU of
    their phase results."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.phase_maxsize = PHASES_PER_ENTRY * maxsize
        self._store: OrderedDict[tuple, "Evaluation"] = OrderedDict()
        self._phases: OrderedDict[tuple, "PhaseResult"] = OrderedDict()
        self._depth = 0
        # Concurrent threads may each enter their own ``disabled()`` scope;
        # the depth update is a read-modify-write, so it needs a lock to
        # stay exact.
        self._depth_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.phase_hits = 0
        self.phase_misses = 0
        self.phase_evictions = 0

    # -- enablement --------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether lookups/stores are currently served: unless a
        :meth:`disabled` scope is open."""
        return self._depth == 0

    @contextmanager
    def disabled(self):
        """Bypass the cache inside this scope (scopes nest): every run
        costs every phase with the model, and nothing is stored."""
        with self._depth_lock:
            self._depth += 1
        try:
            yield self
        finally:
            with self._depth_lock:
                self._depth -= 1

    # -- keying ------------------------------------------------------------
    @staticmethod
    def key(cluster: "ClusterSpec", workload: "WorkloadLike", config: "PfsConfig"):
        """The cache key for one evaluation; leads with the backend name."""
        return RunCache.group_key(cluster, workload.cache_key()) + (config.cache_key(),)

    @staticmethod
    def group_key(cluster: "ClusterSpec", workload_key: tuple) -> tuple:
        """The key head every configuration of one workload group shares;
        :meth:`key` appends the configuration key."""
        return (cluster.backend_name, cluster.cache_key(), workload_key)

    # -- storage -----------------------------------------------------------
    def get(self, key: tuple) -> "Evaluation | None":
        entry = self._store.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, entry: "Evaluation") -> None:
        self._store[key] = entry
        self._store.move_to_end(key)
        while len(self._store) > self.maxsize:
            self._store.popitem(last=False)
            self.evictions += 1

    def fetch(self, key: tuple, evaluate, *args) -> "Evaluation":
        """The entry under ``key``; on a miss, ``evaluate(*args)`` is stored
        and returned.  Nothing is stored when it raises."""
        entry = self.get(key)
        if entry is None:
            entry = evaluate(*args)
            self.put(key, entry)
        return entry

    def phase(self, key: tuple) -> "PhaseResult | None":
        """The phase result stored under ``key``, or ``None``."""
        result = self._phases.get(key)
        if result is None:
            self.phase_misses += 1
            return None
        self._phases.move_to_end(key)
        self.phase_hits += 1
        return result

    def put_phase(self, key: tuple, result: "PhaseResult") -> None:
        phases = self._phases
        phases[key] = result
        while len(phases) > self.phase_maxsize:
            phases.popitem(last=False)
            self.phase_evictions += 1

    def clear(self) -> None:
        """Drop every evaluation and phase entry (statistics are kept)."""
        self._store.clear()
        self._phases.clear()

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> dict:
        return {
            "entries": len(self._store),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "phase_entries": len(self._phases),
            "phase_maxsize": self.phase_maxsize,
            "phase_hits": self.phase_hits,
            "phase_misses": self.phase_misses,
            "phase_evictions": self.phase_evictions,
        }


#: The process-wide instance every simulator path consults unless disabled.
RUN_CACHE = RunCache()
