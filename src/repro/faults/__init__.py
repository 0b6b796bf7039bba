"""The deterministic fault-injection plane.

One seeded :class:`FaultPlan` decides — statelessly, by hashing (plan
stream, site, context key) — where the system fails; one
:class:`RetryPolicy` decides how hard the system fights back.  The
determinism contract everything else in the repo enforces extends here
unchanged: the same ``(seed, fault plan)`` produces byte-identical
sessions, transcripts and quarantine reports at any worker count, and the
zero-fault plan is byte-identical to running without the plane at all.

The plane has no client of its own: :class:`repro.llm.client.LLMClient`
consults its plan before each model request, and
:class:`repro.core.runner.ConfigurationRunner` before each probe run and
Darshan capture.  Either one built without a plan gets the shared inert
:data:`~repro.faults.plan.NO_FAULTS`, whose operations take the plain path.
"""

from repro.faults.breaker import BreakerPolicy, BreakerState
from repro.faults.plan import FAULT_SITES, LLM_SITES, FaultPlan
from repro.faults.retry import (
    FaultBudgetExhausted,
    FaultError,
    RetryPolicy,
    TransientFault,
)

__all__ = [
    "FAULT_SITES",
    "LLM_SITES",
    "FaultPlan",
    "FaultError",
    "TransientFault",
    "FaultBudgetExhausted",
    "RetryPolicy",
    "BreakerPolicy",
    "BreakerState",
]
