"""Tenant cells for the fleet scheduler.

A *tenant* is one schedulable unit of the multi-tenant service: a backend ×
cluster × workload-or-schedule × engine cell.  Its session queue is the
ordered list of tuning runs the tenant wants; rules accumulate across the
queue through the tenant's own :class:`~repro.rules.store.RuleJournal`, so
session order within a tenant matters (and is preserved) while tenants are
independent of each other (and run concurrently).

Import-graph rule: like every experiment-layer module, this package never
imports the legacy Lustre parameter shim — everything backend-specific
resolves through the cluster's backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.session import TuningSession
from repro.llm.tokens import TokenUsage
from repro.rules.store import RuleJournal
from repro.workloads import build_schedule, get_workload
from repro.workloads.base import Workload
from repro.workloads.dynamic import DEFAULT_SEGMENTS


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's cell: what to tune, on what, with which engine.

    Exactly one of ``workloads`` (an ordered queue of registered workload
    names) or ``schedule`` (a seeded dynamic-schedule kind; the queue is
    the schedule's distinct segment workloads in first-appearance order)
    describes the work.  ``seed`` doubles as the tenant's replay-order key:
    when a fleet merges journals, this tenant's rule contributions land at
    its seed's position regardless of completion order.  ``policy`` names
    the agent's turn-taking strategy (a key of
    :data:`repro.agents.policies.POLICIES`, whose agent class runs the
    tenant's loops) — a first-class fleet dimension like the backend;
    policies only change *when* a tenant parks evaluations,
    never probe seeds or operand order, so every scheduler contract
    (worker-count invariance, drain equals batch) holds per policy.
    """

    tenant_id: str
    backend: str = "lustre"
    workloads: tuple[str, ...] = ()
    schedule: str | None = None
    n_segments: int = DEFAULT_SEGMENTS
    model: str = "claude-3.7-sonnet"
    seed: int = 0
    cluster_seed: int | None = None
    max_attempts: int = 5
    policy: str = "reflection"

    def __post_init__(self):
        if bool(self.workloads) == bool(self.schedule):
            raise ValueError(
                f"tenant {self.tenant_id!r} must set exactly one of "
                "workloads or schedule"
            )
        from repro.agents.policies import list_policies

        if self.policy not in list_policies():
            raise ValueError(
                f"tenant {self.tenant_id!r} names unknown policy "
                f"{self.policy!r}; registered: {', '.join(list_policies())}"
            )

    def session_queue(self) -> list[Workload]:
        """The ordered tuning runs this tenant wants."""
        if self.workloads:
            return [get_workload(name) for name in self.workloads]
        schedule = build_schedule(
            self.schedule, seed=self.seed, n_segments=self.n_segments
        )
        queue: list[Workload] = []
        seen: set[tuple] = set()
        for segment in schedule:
            key = segment.workload.cache_key()
            if key not in seen:
                seen.add(key)
                queue.append(segment.workload)
        return queue


@dataclass
class TenantResult:
    """Everything one tenant's queue produced, in queue order."""

    spec: TenantSpec
    sessions: list[TuningSession] = field(default_factory=list)
    journal: RuleJournal = field(default_factory=RuleJournal)

    @property
    def tenant_id(self) -> str:
        return self.spec.tenant_id

    @property
    def mean_speedup(self) -> float:
        if not self.sessions:
            return 1.0
        return sum(s.best_speedup for s in self.sessions) / len(self.sessions)

    @property
    def executions(self) -> int:
        return sum(s.executions for s in self.sessions)

    def total_usage(self) -> TokenUsage:
        total = TokenUsage()
        for session in self.sessions:
            for usage in session.usage.values():
                total = total + usage
        return total

    def render_row(self) -> str:
        queue = self.spec.schedule or "+".join(self.spec.workloads)
        usage = self.total_usage()
        # The default policy stays unmarked so pre-policy fixtures (and the
        # chaos smoke's fleet-row comparisons) remain byte-identical.
        policy_note = (
            f" | policy={self.spec.policy}"
            if self.spec.policy != "reflection"
            else ""
        )
        return (
            f"  {self.tenant_id:12s} {self.spec.backend:8s} {queue:30s} "
            f"{len(self.sessions)} session(s) | mean speedup "
            f"{self.mean_speedup:.2f}x | {len(self.journal)} rule version(s) "
            f"| {self.executions} runs | {usage.input_tokens} tok in"
            f"{policy_note}"
        )


@dataclass
class TenantFailure:
    """Structured quarantine report for a tenant that could not finish.

    Produced when a tenant's session queue exhausts a fault site's retry
    budget (or raises outright): the tenant is *quarantined* — removed
    from the fleet's merged journal, reported here — while every other
    tenant completes.  Reports are deterministic for a fixed
    ``(seed, fault plan)``: same site, same key, same attempt counts, at
    any worker count.
    """

    spec: TenantSpec
    site: str  # the exhausted fault site, or "exception" for raw errors
    error: str  # human-readable cause
    failed_workload: str = ""  # queue entry that was running at failure
    attempts: int = 0  # attempts spent at the failing site
    completed_sessions: int = 0  # sessions finished before the failure
    fault_recovery: dict[str, int] = field(default_factory=dict)

    @property
    def tenant_id(self) -> str:
        return self.spec.tenant_id

    def render_row(self) -> str:
        return (
            f"  QUARANTINED {self.tenant_id:12s} {self.spec.backend:8s} "
            f"site={self.site} workload={self.failed_workload or '<none>'} "
            f"after {self.attempts} attempt(s) "
            f"[{self.completed_sessions} session(s) completed]: {self.error}"
        )

    def to_dict(self) -> dict:
        return {
            "tenant_id": self.tenant_id,
            "site": self.site,
            "error": self.error,
            "failed_workload": self.failed_workload,
            "attempts": self.attempts,
            "completed_sessions": self.completed_sessions,
            "fault_recovery": dict(self.fault_recovery),
        }

    @classmethod
    def from_dict(cls, raw: dict, spec: TenantSpec) -> "TenantFailure":
        return cls(
            spec=spec,
            site=raw["site"],
            error=raw["error"],
            failed_workload=raw.get("failed_workload", ""),
            attempts=int(raw.get("attempts", 0)),
            completed_sessions=int(raw.get("completed_sessions", 0)),
            fault_recovery={
                site: int(count)
                for site, count in raw.get("fault_recovery", {}).items()
            },
        )
