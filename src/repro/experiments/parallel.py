"""Deterministic parallel experiment harness.

Experiments decompose into *independent* units — repetitions of a tuning
session, per-workload figure rows — whose outcomes depend only on explicit
arguments and explicit seeds, never on execution order.  :func:`pmap` fans
such units over a process pool and returns results in submission order, so
the parallel output is identical, rep for rep, to the sequential loops in
:mod:`repro.experiments.harness` (asserted by ``tests/test_batch.py``).

Worker-count resolution: an explicit ``max_workers`` wins; otherwise the
``REPRO_MAX_WORKERS`` environment variable; otherwise ``os.cpu_count()``.
Whenever the effective count (clamped to the number of units) is 1 the pool
is skipped entirely and the work runs inline — single-core machines and CI
boxes pay zero pickling or fork overhead.

The pool is *warm*: the first ``pmap``/``imap`` call that needs ``n``
workers creates one lazily and every later call with the same effective
count reuses it, so consecutive fleet waves, chaos sweeps and drift cells
stop paying fork + re-import per call.  Workers run no initializer: a
fork-started worker inherits what the parent had built before it forked
(offline artifacts, memos), and a job builds anything else it needs once
per worker.  A request for a different worker count (or a broken pool)
retires the old executor and builds a fresh one; :func:`shutdown_pool`
retires it explicitly, and an ``atexit`` hook covers interpreter exit.
Correctness never depends on pool reuse — jobs are pure functions of their
arguments, and per-job state like a ``RUN_CACHE.disabled()`` scope is
entered and exited inside the job body, so nothing leaks between waves
(guarded by ``tests/test_fleet_batch.py``).  The run cache's entries do persist in a
warm worker, which only ever skips re-costing an identical evaluation.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Environment override for the default worker count.
WORKERS_ENV = "REPRO_MAX_WORKERS"


def effective_workers(max_workers: int | None = None, n_items: int | None = None) -> int:
    """Resolve the worker count: explicit arg > env var > cpu count.

    Non-positive counts raise: a zero/negative pool is a config typo, and
    clamping it to 1 would silently serialize what the caller meant to fan
    out — the same ``ValueError`` path as a non-integer ``REPRO_MAX_WORKERS``.
    """
    if max_workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            try:
                max_workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV}={env!r} is not an integer worker count"
                ) from None
            if max_workers <= 0:
                raise ValueError(
                    f"{WORKERS_ENV}={env!r} must be a positive worker count"
                )
        else:
            max_workers = os.cpu_count() or 1
    elif max_workers <= 0:
        raise ValueError(
            f"max_workers={max_workers} must be a positive worker count"
        )
    if n_items is not None:
        max_workers = min(max_workers, n_items)
    return max(1, max_workers)


# ---------------------------------------------------------------------------
# The warm persistent pool.
# ---------------------------------------------------------------------------

_pool: ProcessPoolExecutor | None = None
_pool_workers = 0


def warm_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor with ``workers`` workers, created lazily.

    Reused across calls with the same count; a different count retires the
    old pool first (two live pools would double the resident workers).
    """
    global _pool, _pool_workers
    if _pool is not None and _pool_workers != workers:
        shutdown_pool()
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
    return _pool


def shutdown_pool() -> None:
    """Retire the warm pool; a no-op when none is live."""
    global _pool, _pool_workers
    pool, _pool, _pool_workers = _pool, None, 0
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pool)


def pmap(
    fn: Callable[[T], R],
    items: Iterable[T],
    max_workers: int | None = None,
) -> list[R]:
    """Map ``fn`` over ``items`` preserving order, in parallel when it pays.

    ``fn`` and every item must be picklable (``fn`` a module-level function).
    Results arrive in submission order regardless of completion order, which
    is what keeps parallel experiments deterministic.
    """
    items = list(items)
    workers = effective_workers(max_workers, len(items))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    try:
        return list(warm_pool(workers).map(fn, items))
    except BrokenProcessPool:
        # A worker died (OOM kill, hard crash): retire the poisoned pool so
        # the next call starts clean, then surface the failure.
        shutdown_pool()
        raise


def imap(
    fn: Callable[[T], R],
    items: Iterable[T],
    max_workers: int | None = None,
) -> Iterable[R]:
    """Like :func:`pmap`, but yields each result as it becomes *next*.

    Results still arrive strictly in submission order (so consumers stay
    deterministic); the difference is that the caller observes them one by
    one instead of after the whole batch — which is what lets the fleet
    scheduler checkpoint after every completed tenant instead of only at
    the end, and the service stream its first tenant back while the pool
    is still working on the rest.
    """
    items = list(items)
    workers = effective_workers(max_workers, len(items))
    if workers <= 1 or len(items) <= 1:
        return (fn(item) for item in items)

    def stream(results: Iterable[R]) -> Iterable[R]:
        try:
            yield from results
        except BrokenProcessPool:
            shutdown_pool()
            raise

    try:
        return stream(warm_pool(workers).map(fn, items))
    except BrokenProcessPool:
        shutdown_pool()
        raise
