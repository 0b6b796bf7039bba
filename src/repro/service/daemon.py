"""The long-lived tuning service, and the batch fleet as a drive of it.

:class:`TuningService` is the fleet as a process that never exits:
tenants arrive one at a time through :meth:`submit`, pass the
deterministic :class:`~repro.service.admission.AdmissionController`
(per-principal rate limits, bounded global queue with explicit
backpressure), wait in per-principal priority queues, and execute in
waves over the warm pool — every tenant still runs through
:func:`~repro.service.scheduler.run_tenant`; the daemon owns **no**
tuning logic of its own.  :class:`FleetScheduler`, the batch fleet, is a
closed fleet driven through that same daemon: every tenant submitted,
one drain, outcomes handed back in tenant-list order.

Robustness features, all wall-clock-free:

- **Deadlines.**  ``submit(..., deadline=...)`` caps the tenant's
  simulated-time retry budget (:meth:`RetryPolicy.with_deadline`), so a
  latency-sensitive tenant exhausts early instead of burning the full
  backoff schedule.
- **Circuit breakers.**  After ``breaker.threshold`` consecutive
  quarantines on one fault site, later tenants run with that site
  fail-fast (degraded mode) instead of each re-proving the site hostile.
- **Crash safety.**  With a ``checkpoint`` path the service appends
  every arrival as one line to the fleet's fingerprinted checkpoint log
  (:class:`~repro.service.scheduler.CheckpointStore`); a ``kill -9`` +
  restart + identical resubmission stream resumes without re-running
  completed tenants, byte-identical to the uninterrupted service.  A
  kill mid-append leaves a torn last line, which the restart drops and
  re-runs; only a torn header is refused.

Determinism contract: :meth:`drain` stops admission, finishes the queue
and returns a :class:`~repro.service.scheduler.FleetResult` over the
admitted tenants in canonical ``(seed, tenant_id)`` order that is
byte-identical (sessions, transcripts, merged journal) at any worker
count, any submission interleaving, under any fault plan — and so, the
batch fleet being such a drain, for any tenant-list order.  Pre-drain
execution may speculate about breaker modes (waves run in parallel);
one per-position fold (:meth:`_fold`) walks the canonical order and
deterministically re-runs any tenant whose speculative mode disagrees,
which is what makes the final result independent of how the queue
happened to be paced.

The streaming front end rides the same machinery: wave execution is a
generator over :func:`~repro.service.scheduler.execute_jobs` arrivals,
so outcomes, checkpoints and :meth:`status`/:meth:`results` update per
completed tenant, not only at pump boundaries — and :meth:`iter_results`
yields finished tenants in the canonical drain order as soon as their
canonical prefix is complete, folding breaker decisions incrementally
with exactly drain's semantics.  A wave executes in that same canonical
order (within a priority), so the first tenant streams out after one
tenant's queue rather than after whichever tenants were submitted first.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Sequence

from repro.experiments.parallel import effective_workers
from repro.faults.breaker import BreakerPolicy, BreakerState
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.rules.store import RuleJournal
from repro.service.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.service.scheduler import (
    ArtifactCatalog,
    CheckpointStore,
    FleetResult,
    _outcome_to_json,
    execute_jobs,
    fleet_stamp,
    run_tenant,
    spec_digest,
)
from repro.service.tenant import TenantFailure, TenantResult, TenantSpec


def _canonical(spec: TenantSpec) -> tuple[int, str]:
    """A tenant's position in the canonical ``(seed, tenant_id)`` order."""
    return spec.seed, spec.tenant_id


@dataclass
class _Submission:
    """One accepted submission waiting in the queue."""

    spec: TenantSpec
    priority: int
    retry: RetryPolicy
    restored: tuple[TenantResult | TenantFailure, frozenset] | None = None


class TuningService:
    """A persistent, crash-safe, overload-aware tuning daemon.

    ``admission`` guards the front door (``None`` applies the default
    :class:`AdmissionPolicy`); ``checkpoint`` names the checkpoint file
    (stamped for a dynamic fleet) or hands over a ready
    :class:`CheckpointStore` (the batch fleet's, stamped with its tenant
    ids); ``breaker`` arms per-site circuit breakers (``None`` disables
    them); ``pump_interval`` auto-runs a wave whenever that many
    submissions are queued (``None`` defers all execution to
    :meth:`pump`/:meth:`drain`).  Higher ``priority`` submissions run
    earlier within a wave; ties break in the canonical ``(seed,
    tenant_id)`` order that :meth:`iter_results` and :meth:`drain` yield.
    """

    def __init__(
        self,
        seed: int = 0,
        max_workers: int | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        checkpoint: str | Path | CheckpointStore | None = None,
        admission: AdmissionPolicy | None = None,
        breaker: BreakerPolicy | None = BreakerPolicy(),
        pump_interval: int | None = 4,
    ):
        if pump_interval is not None and pump_interval < 1:
            raise ValueError(f"pump_interval={pump_interval} must be >= 1")
        self.seed = seed
        self.max_workers = max_workers
        self.faults = faults
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker
        self.pump_interval = pump_interval
        self.admission = AdmissionController(admission)
        self._catalog = ArtifactCatalog(seed)
        self._queue: list[_Submission] = []
        self._specs: dict[str, TenantSpec] = {}
        self._retries: dict[str, RetryPolicy] = {}
        #: tenant_id -> (outcome, mode the outcome actually ran under)
        self._outcomes: dict[str, tuple[TenantResult | TenantFailure, frozenset]] = {}
        self._online = BreakerState(breaker) if breaker is not None else None
        self._breaker_state: BreakerState | None = None
        self._elapsed = 0.0
        self._drained: FleetResult | None = None
        self._abandoned = 0
        #: The in-flight wave generator a streaming consumer left unfinished.
        self._live_wave = None
        #: Tenant ids taken into the live wave but not yet arrived.
        self._inflight: set[str] = set()
        # -- streaming (iter_results) state --------------------------------
        self._streamed: set[str] = set()
        self._stream_state = (
            BreakerState(breaker) if breaker is not None else None
        )
        self._stream_last: tuple[int, str] | None = None
        self._arrived_sessions = 0
        #: Completed sessions that had arrived when the first canonical
        #: result streamed out — a wall-clock-free time-to-first-result
        #: proxy.
        self.first_result_sessions: int | None = None
        if checkpoint is not None and not isinstance(checkpoint, CheckpointStore):
            checkpoint = CheckpointStore(
                checkpoint, fleet_stamp(None, seed, faults), self.retry, faults
            )
        self._store = checkpoint
        self._restored_raw = self._store.load() if self._store is not None else {}

    # -- the front door -------------------------------------------------
    def submit(
        self,
        spec: TenantSpec,
        priority: int = 0,
        deadline: float | None = None,
        principal: str | None = None,
    ) -> AdmissionDecision:
        """Offer one tenant to the service; returns the admission verdict.

        ``deadline`` caps the tenant's simulated-time retry budget;
        ``principal`` is the rate-limiting identity (defaults to the
        tenant id's leading ``"acct/"`` segment, or the id itself).
        """
        if spec.tenant_id in self._specs:
            raise ValueError(
                f"duplicate tenant id {spec.tenant_id!r}: already admitted"
            )
        decision = self.admission.decide(spec.tenant_id, principal)
        if not decision.accepted:
            return decision
        self._specs[spec.tenant_id] = spec
        retry = self.retry.with_deadline(deadline)
        self._retries[spec.tenant_id] = retry
        self._queue.append(
            _Submission(
                spec=spec,
                priority=priority,
                retry=retry,
                restored=self._adopt_restored(spec),
            )
        )
        if (
            self.pump_interval is not None
            and len(self._queue) >= self.pump_interval
        ):
            self.pump()
        return decision

    def _adopt_restored(
        self, spec: TenantSpec
    ) -> tuple[TenantResult | TenantFailure, frozenset] | None:
        """The checkpointed outcome for ``spec``, when one exists.

        The restored submission still flows through admission and the
        queue exactly like a fresh one — only its *execution* is skipped —
        so every admission/backpressure decision matches the uninterrupted
        run.  A digest mismatch means the checkpoint belongs to a
        different submission stream and is refused loudly, like a
        malformed entry (:meth:`CheckpointStore.adopt`).
        """
        if spec.tenant_id not in self._restored_raw:
            return None
        return self._store.adopt(spec, self._restored_raw[spec.tenant_id])

    # -- execution ------------------------------------------------------
    def pump(self) -> int:
        """Run every queued submission as one wave over the warm pool.

        Returns the number of submissions taken off the queue.  Wave
        execution is speculative with respect to breaker modes (the
        canonical fold happens at :meth:`drain`); outcomes and
        checkpoints are still recorded per arrival.  A wave a streaming
        consumer (:meth:`iter_results`) left in flight is finished first.
        """
        if self._drained is not None:
            raise RuntimeError("service already drained")
        taken = len(self._queue)
        while self._advance():
            pass
        return taken

    def _advance(self) -> bool:
        """Advance execution by one step: one arrival, or one wave closed.

        Starts a wave from the queue when none is in flight.  Returns
        False only when there is nothing left to execute — no live wave
        and an empty queue.  The single-step granularity is what lets
        :meth:`iter_results` interleave canonical yields with execution
        instead of waiting out whole pump waves.
        """
        if self._live_wave is None:
            if not self._queue:
                return False
            wave = sorted(
                self._queue,
                key=lambda s: (-s.priority, *_canonical(s.spec)),
            )
            self._queue = []
            self.admission.release(len(wave))
            self._live_wave = self._wave_stream(wave)
        start = perf_counter()
        try:
            next(self._live_wave)
        except StopIteration:
            self._live_wave = None
        self._elapsed += perf_counter() - start
        return True

    def _wave_stream(self, wave: list[_Submission]):
        """One wave as a generator: yields a tenant id per arrival.

        Restored submissions are adopted up front (their execution is the
        checkpoint read); the rest run through
        :func:`~repro.service.scheduler.execute_jobs` — outcomes, online
        breaker observations and checkpoints land per completed tenant,
        while the pool is still working on the others.
        """
        jobs: list[tuple] = []
        modes: list[tuple[_Submission, frozenset]] = []
        for sub in wave:
            if sub.restored is not None:
                outcome, mode = sub.restored
                self._outcomes[sub.spec.tenant_id] = (outcome, mode)
                continue
            mode = (
                self._online.open_sites()
                if self._online is not None
                else frozenset()
            )
            jobs.append(
                (
                    sub.spec,
                    self._catalog.payload_for(sub.spec),
                    self.faults,
                    sub.retry.with_fail_fast(mode),
                )
            )
            modes.append((sub, mode))
        self._inflight = {sub.spec.tenant_id for sub, _ in modes}
        try:
            for index, outcome in execute_jobs(jobs, max_workers=self.max_workers):
                sub, mode = modes[index]
                self._inflight.discard(sub.spec.tenant_id)
                self._arrive(sub.spec, outcome, mode)
                yield sub.spec.tenant_id
        finally:
            self._inflight = set()

    def _arrive(
        self,
        spec: TenantSpec,
        outcome: TenantResult | TenantFailure,
        mode: frozenset,
    ) -> None:
        if spec.tenant_id not in self._outcomes and isinstance(
            outcome, TenantResult
        ):
            self._arrived_sessions += len(outcome.sessions)
        self._outcomes[spec.tenant_id] = (outcome, mode)
        if self._online is not None:
            self._online.observe(outcome)
        if self._store is not None:
            self._store.record(
                spec.tenant_id,
                _outcome_to_json(
                    outcome,
                    spec_fingerprint=spec_digest(spec),
                    degraded_sites=mode,
                ),
            )

    def _rerun_tenant(
        self, spec: TenantSpec, mode: frozenset
    ) -> TenantResult | TenantFailure:
        """One tenant, inline, under the canonical degraded mode.

        :func:`run_tenant` depends only on its arguments, so the inline
        re-run is byte-identical to what a pooled run under ``mode`` would
        have produced.
        """
        return run_tenant(
            spec,
            self._catalog.cluster_for(spec),
            self._catalog.extraction_for(spec),
            faults=self.faults,
            retry=self._retries[spec.tenant_id].with_fail_fast(mode),
        )

    def _fold(
        self, state: BreakerState | None, spec: TenantSpec
    ) -> TenantResult | TenantFailure:
        """Fold one canonical position through the breaker ``state``.

        THE breaker walk, one position at a time: if the outcome's
        recorded mode disagrees with the canonical mode at this position,
        the tenant re-runs (inline, deterministically) under the canonical
        mode — so the folded outcome is the same whatever the waves
        speculated.  :meth:`drain` walks every position with a fresh
        state, :meth:`iter_results` walks them incrementally with its own;
        ``None`` (no breaker) folds to the recorded outcome.
        """
        outcome, ran_mode = self._outcomes[spec.tenant_id]
        if state is None:
            return outcome
        mode = state.open_sites()
        if mode != ran_mode:
            outcome = self._rerun_tenant(spec, mode)
            self._arrive(spec, outcome, mode)
        state.observe(outcome)
        return outcome

    # -- lifecycle ------------------------------------------------------
    def drain(self) -> FleetResult:
        """Stop admission, finish the queue, return the canonical fleet.

        The result lists admitted tenants in canonical ``(seed,
        tenant_id)`` order and is the same whatever the submission
        interleaving, pump pacing or worker count was — the batch
        :class:`FleetScheduler` is this drain over a closed fleet.  The
        fold restarts from a fresh breaker state, so a late submission
        that sorts before an already-streamed tenant still lands in its
        canonical place.  Idempotent: later calls return the same result.
        """
        if self._drained is not None:
            return self._drained
        if not self.admission.closed:
            self.admission.close("draining: service no longer accepts work")
        self.pump()
        specs = sorted(self._specs.values(), key=_canonical)
        start = perf_counter()
        state = BreakerState(self.breaker) if self.breaker is not None else None
        outcomes = [self._fold(state, spec) for spec in specs]
        self._breaker_state = state
        self._elapsed += perf_counter() - start
        journal = RuleJournal.merged(
            [o.journal for o in outcomes if isinstance(o, TenantResult)]
        )
        self._drained = FleetResult(
            outcomes=outcomes,
            journal=journal,
            elapsed=self._elapsed,
            workers=effective_workers(self.max_workers, max(len(specs), 1)),
            checkpoint_write_failures=(
                self._store.write_failures if self._store is not None else 0
            ),
        )
        return self._drained

    # -- streaming ------------------------------------------------------
    def iter_results(self):
        """Yield finished tenants in canonical order, as soon as possible.

        The yield order is exactly :meth:`drain`'s canonical ``(seed,
        tenant_id)`` order, and each outcome is byte-identical to the one
        drain would return — the breaker fold (including deterministic
        re-runs of tenants whose speculative mode disagrees) happens
        incrementally, per canonical position, instead of all at once.
        A tenant streams out the moment its canonical prefix is complete;
        execution advances one arrival at a time underneath, so early
        tenants flow back while the pool is still working on later ones.

        The generator returns (without closing the service) when every
        yieldable outcome needs a submission that has not happened yet;
        iterating again after more submissions — or after :meth:`drain`
        — picks up where it left off.  A late submission that sorts
        canonically *before* an already-streamed tenant cannot be folded
        consistently and raises ``RuntimeError``.
        """
        while True:
            spec = self._next_canonical()
            if spec is None:
                if self._drained is None and self._advance():
                    continue
                return
            key = _canonical(spec)
            if self._stream_last is not None and key < self._stream_last:
                raise RuntimeError(
                    f"tenant {spec.tenant_id!r} (seed {spec.seed}) was "
                    "submitted after later canonical positions already "
                    "streamed out; the canonical prefix cannot be reopened "
                    "— drain() or a fresh service handles such streams"
                )
            if spec.tenant_id not in self._outcomes:
                if self._drained is None and self._advance():
                    continue
                return
            start = perf_counter()
            outcome = self._fold(self._stream_state, spec)
            self._streamed.add(spec.tenant_id)
            self._stream_last = key
            self._elapsed += perf_counter() - start
            if self.first_result_sessions is None:
                self.first_result_sessions = self._arrived_sessions
            yield outcome

    def _next_canonical(self) -> TenantSpec | None:
        """The lowest canonical (seed, tenant_id) spec not yet streamed."""
        remaining = [
            spec
            for spec in self._specs.values()
            if spec.tenant_id not in self._streamed
        ]
        if not remaining:
            return None
        return min(remaining, key=_canonical)

    def shutdown(self) -> dict[str, int]:
        """Stop admission and abandon the queue (no further execution).

        Returns a summary of what the service got done.  Unlike
        :meth:`drain`, queued-but-unexecuted submissions are dropped —
        with a checkpoint armed their completed peers survive for the
        next incarnation.  A wave a streaming consumer left in flight is
        abandoned with the queue.
        """
        if not self.admission.closed:
            self.admission.close("shutdown: service stopped")
        self._abandoned += len(self._queue) + len(self._inflight)
        if self._live_wave is not None:
            self._live_wave.close()
            self._live_wave = None
        self._inflight = set()
        self._queue = []
        completed = sum(
            1
            for outcome, _ in self._outcomes.values()
            if isinstance(outcome, TenantResult)
        )
        return {
            "completed": completed,
            "quarantined": len(self._outcomes) - completed,
            "abandoned": self._abandoned,
            "rejected": len(self.admission.shed()),
        }

    # -- introspection --------------------------------------------------
    def status(self, tenant_id: str) -> str:
        """One of ``completed``/``quarantined``/``queued``/``rejected``/
        ``unknown`` (pre-drain outcomes are provisional under breakers)."""
        held = self._outcomes.get(tenant_id)
        if held is not None:
            outcome, _ = held
            return (
                "completed" if isinstance(outcome, TenantResult) else "quarantined"
            )
        if tenant_id in self._inflight or any(
            sub.spec.tenant_id == tenant_id for sub in self._queue
        ):
            return "queued"
        decision = self.admission.last_decision(tenant_id)
        if decision is not None and not decision.accepted:
            return "rejected"
        return "unknown"

    def results(self, tenant_id: str) -> TenantResult:
        """The tenant's completed result (KeyError otherwise)."""
        held = self._outcomes.get(tenant_id)
        if held is None or not isinstance(held[0], TenantResult):
            raise KeyError(tenant_id)
        return held[0]

    def failure(self, tenant_id: str) -> TenantFailure:
        """The tenant's quarantine report (KeyError otherwise)."""
        held = self._outcomes.get(tenant_id)
        if held is None or not isinstance(held[0], TenantFailure):
            raise KeyError(tenant_id)
        return held[0]

    def breaker_report(self) -> dict[str, dict[str, int | str]]:
        """Canonical per-site breaker states (empty before :meth:`drain`)."""
        if self._breaker_state is None:
            return {}
        return self._breaker_state.report()


class FleetScheduler:
    """The batch fleet: a closed set of tenants drained through the daemon.

    ``seed`` roots the shared offline artifacts (and any tenant that does
    not pin its own ``cluster_seed``); ``max_workers`` resolves through
    :func:`repro.experiments.parallel.effective_workers` (explicit arg >
    ``REPRO_MAX_WORKERS`` > cpu count).  ``faults`` arms the fault plan
    for every tenant (``None`` keeps the plane out of the code path
    entirely); ``checkpoint`` names a JSON-lines log that gains one line
    per completed outcome and is consulted on the next run, so a killed
    fleet resumes where it stopped.  The file is stamped with this
    fleet's tenant ids, so another fleet's checkpoint is refused.

    ``breaker`` arms per-fault-site circuit breakers: after the policy's
    threshold of consecutive quarantines on one site, later tenants — in
    canonical ``(seed, tenant_id)`` order, whatever the list order — run
    with that site fail-fast.  ``None`` (the default) disables them.

    :meth:`run` is a closed-fleet drive of :class:`TuningService`: every
    tenant submitted through a door sized to admit them all, one
    :meth:`~TuningService.drain`, outcomes put back in tenant-list order.
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        seed: int = 0,
        max_workers: int | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        checkpoint: str | Path | None = None,
        breaker: BreakerPolicy | None = None,
    ):
        ids = [spec.tenant_id for spec in tenants]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate tenant ids in {ids}")
        self.tenants = list(tenants)
        self.seed = seed
        self.max_workers = max_workers
        self.faults = faults
        self.retry = retry if retry is not None else RetryPolicy()
        self.checkpoint = Path(checkpoint) if checkpoint is not None else None
        self.breaker = breaker
        self._service: TuningService | None = None

    def run(self) -> FleetResult:
        """Run every tenant's queue; results in tenant list order."""
        ids = [spec.tenant_id for spec in self.tenants]
        store = (
            CheckpointStore(
                self.checkpoint,
                fleet_stamp(ids, self.seed, self.faults),
                self.retry,
                self.faults,
            )
            if self.checkpoint is not None
            else None
        )
        door = max(len(ids), 1)
        self._service = TuningService(
            seed=self.seed,
            max_workers=self.max_workers,
            faults=self.faults,
            retry=self.retry,
            checkpoint=store,
            admission=AdmissionPolicy(max_pending=door, per_tenant_limit=door),
            breaker=self.breaker,
            pump_interval=None,
        )
        for spec in self.tenants:
            self._service.submit(spec)
        drained = self._service.drain()
        by_id = {outcome.tenant_id: outcome for outcome in drained.outcomes}
        return dataclasses.replace(
            drained, outcomes=[by_id[tenant_id] for tenant_id in ids]
        )

    def breaker_report(self) -> dict[str, dict[str, int | str]]:
        """Canonical per-site breaker states after the last :meth:`run`."""
        if self._service is None:
            return {}
        return self._service.breaker_report()
