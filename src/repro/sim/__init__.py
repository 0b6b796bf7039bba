"""Discrete-event simulation kernel.

A small, fast event-driven core used by the PFS micro-models and to
cross-validate the phase-analytic performance model: an event heap
(:class:`Engine`), FIFO service resources (:class:`FifoServer`,
:class:`BandwidthLink`), reproducible named RNG streams
(:class:`RngStreams`), the multi-item engine (:func:`run_sweep`) with its
item builders, and the bounded process-wide run cache (:data:`RUN_CACHE`).
"""

from repro.sim.cache import RUN_CACHE, RunCache
from repro.sim.engine import Engine, Event
from repro.sim.random import RngStreams
from repro.sim.resources import BandwidthLink, FifoServer, TokenPool

__all__ = [
    "Engine",
    "Event",
    "FifoServer",
    "BandwidthLink",
    "TokenPool",
    "RngStreams",
    "RunCache",
    "RUN_CACHE",
    "repetition_items",
    "sweep_items",
    "grid_items",
    "run_sweep",
]


def __getattr__(name: str):
    # The sweep module sits above the PFS model layers, which themselves
    # use the RNG streams here — resolve lazily to keep imports acyclic.
    if name in ("repetition_items", "sweep_items", "grid_items", "run_sweep"):
        from repro.sim import sweep

        return getattr(sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
