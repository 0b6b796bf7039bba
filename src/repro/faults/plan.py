"""The seeded, deterministic fault plan.

A :class:`FaultPlan` decides, for every *named fault site* in the system,
whether a given operation fails.  Decisions are **stateless**: each one is
a pure hash of ``(plan stream seed, site, context key)``, so the plan never
carries counters that could drift between workers or interleavings — the
same property that makes :class:`repro.sim.random.RngStreams` safe makes
the plan worker-count invariant and trivially picklable.

The registered sites (the complete injection surface):

========================  ==================================================
``llm.transient``         the LLM API returns a retryable 5xx/overloaded
``llm.timeout``           the LLM request exceeds its timeout budget
``llm.malformed``         the LLM responds, but with an undecodable payload
``probe.run``             a configuration probe run fails to complete
``darshan.truncate``      the Darshan capture loses a suffix of ranks
``journal.write``         persisting journal/checkpoint state fails
========================  ==================================================

Sites are *backend-agnostic* — keys are built from seeds, workload names
and logical call indices, never from backend parameter names, so one plan
means the same schedule of adversity on every registered backend.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping

from repro.sim.random import RngStreams

#: Every named fault site the plan can arm, with what firing means.
FAULT_SITES: dict[str, str] = {
    "llm.transient": "LLM API returns a retryable transient error",
    "llm.timeout": "LLM request exceeds the per-request timeout",
    "llm.malformed": "LLM responds with an undecodable payload",
    "probe.run": "a configuration probe run fails to complete",
    "darshan.truncate": "the Darshan capture loses a suffix of ranks",
    "journal.write": "persisting journal/checkpoint state fails",
}

#: The LLM-facing sites, in the order the model client checks them.
LLM_SITES = ("llm.transient", "llm.timeout", "llm.malformed")


@dataclass(frozen=True)
class FaultPlan:
    """Per-site fault rates rooted in one dedicated RNG stream.

    ``seed`` roots the plan's own stream space (spawned as ``faults`` so the
    plan can never correlate with simulator noise drawn from the same root
    seed); ``rates`` maps registered site names to firing probabilities.
    The plan is frozen, hashable-free and picklable — workers receive the
    same plan the parent holds, byte for byte.
    """

    seed: int = 0
    rates: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        unknown = set(self.rates) - set(FAULT_SITES)
        if unknown:
            raise ValueError(
                f"unknown fault site(s) {sorted(unknown)}; "
                f"registered: {sorted(FAULT_SITES)}"
            )
        for site, rate in self.rates.items():
            if not 0.0 <= float(rate) <= 1.0:
                raise ValueError(f"rate for {site} must lie in [0, 1], got {rate}")
        object.__setattr__(self, "rates", dict(self.rates))
        object.__setattr__(
            self, "_root", RngStreams(self.seed).spawn("faults").seed
        )
        # Read before every model request and probe run, so decided once.
        object.__setattr__(
            self, "_active", any(rate > 0.0 for rate in self.rates.values())
        )

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether any site can ever fire (the zero plan is inert)."""
        return self._active

    def rate(self, site: str) -> float:
        return float(self.rates.get(site, 0.0))

    def fraction(self, name: str, key: str) -> float:
        """A deterministic uniform draw in ``[0, 1)`` for ``(name, key)``.

        Stateless by construction: the draw is a pure hash, so it is
        independent of call order, worker count and every other draw.
        """
        digest = hashlib.sha256(f"{self._root}:{name}:{key}".encode()).digest()
        return int.from_bytes(digest[:8], "little") / 2**64

    def should_fire(self, site: str, key: str) -> bool:
        """Whether ``site`` fails for the operation identified by ``key``."""
        rate = self.rate(site)
        return rate > 0.0 and self.fraction(site, key) < rate

    # ------------------------------------------------------------------
    @classmethod
    def none(cls, seed: int = 0) -> "FaultPlan":
        """The inert plan: every site at rate zero."""
        return cls(seed=seed)

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """Every registered site armed at the same ``rate``."""
        return cls(seed=seed, rates={site: rate for site in FAULT_SITES})

    def describe(self) -> str:
        armed = {s: r for s, r in sorted(self.rates.items()) if r > 0.0}
        if not armed:
            return f"FaultPlan(seed={self.seed}, inert)"
        rates = ", ".join(f"{site}={rate:g}" for site, rate in armed.items())
        return f"FaultPlan(seed={self.seed}, {rates})"


#: The one inert plan a model client or probe runner built without a plan
#: consults: no site ever fires, so every operation takes the plain path.
NO_FAULTS = FaultPlan.none()
