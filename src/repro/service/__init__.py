"""The service layer: STELLAR as a multi-tenant fleet.

Where :mod:`repro.core` tunes one workload for one operator, this package
schedules *many tenants* — each a backend × cluster × workload-or-schedule
× engine cell — concurrently over the deterministic process pool, sharing
the immutable offline artifacts and the run cache, and merging every
tenant's rule contributions into one versioned, replay-deterministic
journal.

Import-graph rules (guarded by ``tests/test_fleet.py``):

- ``service/`` never imports the legacy Lustre parameter shim — tenants
  are backend-agnostic, everything resolves through the cluster's backend;
- the scheduler owns no tuning logic: a tenant's queue runs through the
  ordinary :meth:`Stellar.tune_and_accumulate`, so the service layer can
  never drift from the single-operator path.

Fault domains: each tenant is its own blast radius.  Under an armed
:class:`~repro.faults.plan.FaultPlan`, a tenant that exhausts its retry
budget is quarantined with a structured
:class:`~repro.service.tenant.TenantFailure` report while every other
tenant completes, and each outcome is appended to a fingerprinted
checkpoint log so a killed fleet resumes without re-running completed
tenants.

The face of the layer is :class:`~repro.service.daemon.TuningService`:
tenants arrive through deterministic admission control (rate limits +
bounded queue with backpressure), run in waves over the pool, and
``drain()`` returns the canonical fleet.  The batch
:class:`~repro.service.daemon.FleetScheduler` is a closed fleet drained
through that daemon, so drain == batch by construction.  The daemon owns
no tuning logic; everything routes through
:func:`~repro.service.scheduler.run_tenant`.
"""

from repro.service.admission import (
    Admission,
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.service.daemon import FleetScheduler, TuningService
from repro.service.scheduler import FleetResult, execute_jobs, run_tenant
from repro.service.tenant import TenantFailure, TenantResult, TenantSpec

__all__ = [
    "FleetScheduler",
    "FleetResult",
    "TenantSpec",
    "TenantResult",
    "TenantFailure",
    "run_tenant",
    "execute_jobs",
    "TuningService",
    "Admission",
    "AdmissionPolicy",
    "AdmissionDecision",
    "AdmissionController",
]
