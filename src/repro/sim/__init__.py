"""Discrete-event simulation kernel.

A small, fast event-driven core used by the PFS micro-models and to
cross-validate the phase-analytic performance model: an event heap
(:class:`Engine`), FIFO service resources (:class:`FifoServer`,
:class:`BandwidthLink`), reproducible named RNG streams
(:class:`RngStreams`), the multi-item engine (:func:`run_sweep`) with its
item builders, and the bounded process-wide run cache (:data:`RUN_CACHE`).
"""

import importlib

from repro.sim.cache import RUN_CACHE, RunCache
from repro.sim.random import RngStreams

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


#: Names resolved on first use, by the module that defines them.  The sweep
#: module sits above the PFS model layers, which themselves use the RNG
#: streams here, so importing it eagerly would make imports cyclic.  The
#: event kernel serves only the discrete-event cross-check
#: (``pfs/eventmodel.py``) and tests, so no tuning process pays its import.
_LAZY = {
    "repetition_items": "repro.sim.sweep",
    "sweep_items": "repro.sim.sweep",
    "grid_items": "repro.sim.sweep",
    "run_sweep": "repro.sim.sweep",
    "Engine": "repro.sim.engine",
    "Event": "repro.sim.engine",
    "FifoServer": "repro.sim.resources",
    "BandwidthLink": "repro.sim.resources",
    "TokenPool": "repro.sim.resources",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
