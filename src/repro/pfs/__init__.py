"""Parallel file system performance simulator.

The PFS model has two faces:

1. A **configuration surface** owned by the active backend
   (:mod:`repro.backends`): a parameter registry with defaults, valid ranges
   (including dependent ranges expressed in a small expression language), a
   ``/proc``-style tree of writable files (:mod:`repro.pfs.proctree`) and a
   validated :class:`~repro.pfs.config.PfsConfig`.

2. A **performance model**: workloads compile to phases
   (:mod:`repro.pfs.phases`) which the analytic model (:mod:`repro.pfs.model`)
   costs using shared RPC/disk/network primitives (:mod:`repro.pfs.costs`),
   striping math (:mod:`repro.pfs.striping`) and an LDLM-style lock contention
   model (:mod:`repro.pfs.locks`).  The model reads configuration only
   through backend-mapped *roles*, so any registered backend plugs in.
   :class:`~repro.pfs.simulator.Simulator` ties it together and produces
   per-phase timings plus the I/O records the Darshan tracer consumes.
"""

from repro.pfs.config import PfsConfig
from repro.pfs.simulator import RunResult, Simulator

__all__ = ["PfsConfig", "Simulator", "RunResult"]
