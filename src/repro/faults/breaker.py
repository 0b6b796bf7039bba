"""Per-fault-site circuit breakers over tenant outcomes.

A long-lived service must not let one hostile fault site bleed every
subsequent tenant's retry budget: after ``threshold`` *consecutive*
tenant quarantines on the same site, the breaker opens and later tenants
run with that site in :attr:`repro.faults.RetryPolicy.fail_fast_sites`
(degraded mode — the first fault exhausts immediately instead of burning
the full backoff schedule).  After ``cooldown`` degraded tenants, the
breaker half-opens: the next tenant probes the site at full retries, and
its outcome closes the breaker again or re-opens it.

Determinism contract: breaker state is a pure fold over a *canonical
sequence of tenant outcomes* — never wall clock, never worker count.
The :class:`~repro.service.daemon.TuningService` feeds it the canonical
``(seed, tenant_id)`` order through one per-position fold, and the batch
:class:`~repro.service.daemon.FleetScheduler` is a drain of that daemon,
so the same tenants under the same plan trip the same breakers no
matter how they were listed, submitted or parallelised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.service.tenant import TenantFailure, TenantResult

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerPolicy:
    """When a fault site's breaker opens and how long it stays open.

    ``threshold`` consecutive tenant quarantines on one site open its
    breaker; ``cooldown`` subsequent (degraded) tenants later it
    half-opens and the next tenant probes the site at full retries.
    """

    threshold: int = 3
    cooldown: int = 4

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError(f"threshold={self.threshold} must be >= 1")
        if self.cooldown < 1:
            raise ValueError(f"cooldown={self.cooldown} must be >= 1")


class _SiteBreaker:
    """State machine for one fault site."""

    def __init__(self, policy: BreakerPolicy):
        self.policy = policy
        self.state = CLOSED
        self.consecutive = 0
        self.since_open = 0
        self.trips = 0

    def observe(self, failed_here: bool) -> None:
        if self.state == CLOSED:
            if failed_here:
                self.consecutive += 1
                if self.consecutive >= self.policy.threshold:
                    self.state = OPEN
                    self.since_open = 0
                    self.trips += 1
            else:
                self.consecutive = 0
        elif self.state == OPEN:
            # The observed tenant ran degraded on this site; its (fail-fast)
            # failure says nothing new about the site's health.  Count it
            # toward the cooldown only.
            self.since_open += 1
            if self.since_open >= self.policy.cooldown:
                self.state = HALF_OPEN
        else:  # HALF_OPEN: the observed tenant was the full-retry probe.
            if failed_here:
                self.state = OPEN
                self.since_open = 0
                self.trips += 1
            else:
                self.state = CLOSED
                self.consecutive = 0


class BreakerState:
    """Breakers for every fault site, folded over tenant outcomes.

    Feed outcomes with :meth:`observe` in the canonical tenant order;
    before each tenant, :meth:`open_sites` is the degraded mode that
    tenant must run under.  The fold is pure: same outcome sequence,
    same decisions.
    """

    def __init__(self, policy: BreakerPolicy):
        self.policy = policy
        self._sites: dict[str, _SiteBreaker] = {}

    def _site(self, name: str) -> _SiteBreaker:
        breaker = self._sites.get(name)
        if breaker is None:
            breaker = self._sites[name] = _SiteBreaker(self.policy)
        return breaker

    def open_sites(self) -> frozenset[str]:
        """Sites the *next* tenant must treat as fail-fast."""
        return frozenset(
            name for name, breaker in self._sites.items() if breaker.state == OPEN
        )

    def observe(self, outcome: "TenantResult | TenantFailure") -> None:
        """Fold one tenant outcome (in canonical order) into every breaker."""
        failed_site = getattr(outcome, "site", None)
        if failed_site is not None:
            self._site(failed_site)  # ensure the failing site is tracked
        for name, breaker in sorted(self._sites.items()):
            breaker.observe(name == failed_site)

    def report(self) -> dict[str, dict[str, int | str]]:
        """Per-site state summary (for rendering; sorted, wall-clock-free)."""
        return {
            name: {"state": breaker.state, "trips": breaker.trips}
            for name, breaker in sorted(self._sites.items())
        }
