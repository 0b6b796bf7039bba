"""The long-lived tuning service: admission, breakers, deadlines, drain.

The load-bearing contract: a drained :class:`TuningService` is
byte-identical (sessions, transcripts, merged journal) to the batch
:class:`FleetScheduler` over the same tenants — per backend, at any
worker count and submission order, under zero and nonzero fault plans —
and a killed service resumes from its checkpoint to exactly the
uninterrupted result.  Admission and breaker decisions are pure functions
of the submission sequence: no wall clock, no worker count.  A wave
executes in priority-then-canonical order, so the first tenant streams
out after its own queue alone (the stream-order contracts live in
``tests/test_shards.py``).
"""

from __future__ import annotations

import copy
import json
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import BreakerPolicy, BreakerState, FaultPlan, RetryPolicy
from repro.rules.store import JournalCorruptError
from repro.service import (
    Admission,
    AdmissionController,
    AdmissionPolicy,
    FleetScheduler,
    TenantFailure,
    TenantResult,
    TenantSpec,
    TuningService,
)
from repro.service import scheduler
from checkpoint_files import read_checkpoint, write_checkpoint
from test_fleet import SMALL_FLEET, fleet_fingerprint

CANONICAL = sorted(SMALL_FLEET, key=lambda s: (s.seed, s.tenant_id))

#: A plan hostile enough to quarantine tenants but not all of them.
ROUGH_PLAN = FaultPlan.uniform(0.3, seed=1)


def service_fingerprint(result) -> str:
    """The fleet fingerprint plus quarantine reports and outcome order."""
    return json.dumps(
        {
            "fleet": fleet_fingerprint(result),
            "order": [o.tenant_id for o in result.outcomes],
            "failures": [f.to_dict() for f in result.failures],
        }
    )


# ---------------------------------------------------------------------------
# Admission control: a pure state machine over the submission sequence.
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_pending"):
            AdmissionPolicy(max_pending=0)
        with pytest.raises(ValueError, match="per_tenant_limit"):
            AdmissionPolicy(per_tenant_limit=0)
        with pytest.raises(ValueError, match="window"):
            AdmissionPolicy(window=0)

    def test_admitted_vs_queued_vs_rejected(self):
        controller = AdmissionController(AdmissionPolicy(max_pending=2))
        first = controller.decide("a")
        second = controller.decide("b")
        third = controller.decide("c")
        assert first.admission is Admission.ADMITTED  # empty queue
        assert second.admission is Admission.QUEUED  # behind pending work
        assert third.admission is Admission.REJECTED  # queue full
        assert "backpressure" in third.reason
        # Releasing pending work reopens the door.
        controller.release(2)
        assert controller.decide("d").admission is Admission.ADMITTED

    def test_rate_limit_is_per_principal_and_slides(self):
        policy = AdmissionPolicy(per_tenant_limit=2, window=4, max_pending=64)
        controller = AdmissionController(policy)
        assert controller.decide("acct/j0").accepted  # seq 0
        assert controller.decide("acct/j1").accepted  # seq 1
        shed = controller.decide("acct/j2")  # seq 2: 2 in window
        assert shed.admission is Admission.REJECTED
        assert "rate limit" in shed.reason
        assert controller.decide("other/j0").accepted  # other principal fine
        # seq 4: acct's seq-0 acceptance aged out of the window (> 4 - 4).
        assert controller.decide("acct/j3").accepted

    def test_principal_derivation(self):
        assert AdmissionController.principal_of("acct/job") == "acct"
        assert AdmissionController.principal_of("flat-id") == "flat-id"
        assert AdmissionController.principal_of("x/y", "explicit") == "explicit"

    def test_decisions_are_replay_deterministic(self):
        def replay():
            controller = AdmissionController(
                AdmissionPolicy(max_pending=3, per_tenant_limit=2, window=5)
            )
            out = []
            for i in range(12):
                out.append(controller.decide(f"p{i % 2}/j{i}"))
                if i == 6:
                    controller.release(2)
            return [(d.seq, d.tenant_id, d.admission, d.reason) for d in out]

        assert replay() == replay()

    def test_closed_controller_sheds_with_reason(self):
        controller = AdmissionController()
        controller.close("draining")
        decision = controller.decide("late")
        assert decision.admission is Admission.REJECTED
        assert decision.reason == "draining"
        assert controller.shed() == [decision]


# ---------------------------------------------------------------------------
# Circuit breaker: canonical fold, threshold/cooldown/half-open probe.
# ---------------------------------------------------------------------------


_SPEC = TenantSpec("x", workloads=("IOR_16M",))


def _fail(site: str) -> TenantFailure:
    return TenantFailure(spec=_SPEC, site=site, error="boom")


def _ok() -> TenantResult:
    return TenantResult(spec=_SPEC)


class TestBreaker:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            BreakerPolicy(threshold=0)
        with pytest.raises(ValueError, match="cooldown"):
            BreakerPolicy(cooldown=0)

    def test_opens_after_threshold_consecutive_failures(self):
        state = BreakerState(BreakerPolicy(threshold=2, cooldown=2))
        state.observe(_fail("llm.transient"))
        assert state.open_sites() == frozenset()
        state.observe(_fail("llm.transient"))
        assert state.open_sites() == frozenset({"llm.transient"})

    def test_success_resets_the_consecutive_count(self):
        state = BreakerState(BreakerPolicy(threshold=2, cooldown=2))
        state.observe(_fail("llm.transient"))
        state.observe(_ok())
        state.observe(_fail("llm.transient"))
        assert state.open_sites() == frozenset()  # never 2 consecutive

    def test_sites_count_independently(self):
        state = BreakerState(BreakerPolicy(threshold=2, cooldown=2))
        state.observe(_fail("llm.transient"))
        state.observe(_fail("probe.run"))
        state.observe(_fail("llm.transient"))
        # Neither site saw 2 *consecutive* failures of its own.
        assert state.open_sites() == frozenset()

    def test_half_open_probe_closes_or_reopens(self):
        policy = BreakerPolicy(threshold=1, cooldown=1)
        state = BreakerState(policy)
        state.observe(_fail("llm.transient"))  # opens
        assert state.open_sites() == frozenset({"llm.transient"})
        state.observe(_fail("llm.transient"))  # degraded arrival -> half-open
        assert state.open_sites() == frozenset()  # probe runs at full retries
        state.observe(_ok())  # probe survived -> closed
        assert state.open_sites() == frozenset()
        assert state.report()["llm.transient"] == {"state": "closed", "trips": 1}

        reopen = BreakerState(policy)
        reopen.observe(_fail("llm.transient"))
        reopen.observe(_fail("llm.transient"))  # cooldown -> half-open
        reopen.observe(_fail("llm.transient"))  # probe failed -> reopen
        assert reopen.open_sites() == frozenset({"llm.transient"})
        assert reopen.report()["llm.transient"]["trips"] == 2


# ---------------------------------------------------------------------------
# The drained service is byte-identical to the batch scheduler.
# ---------------------------------------------------------------------------


class TestDrainMatchesBatch:
    @pytest.mark.parametrize("plan", [None, ROUGH_PLAN], ids=["calm", "rough"])
    def test_any_workers_any_order_any_plan(self, plan):
        batch = FleetScheduler(
            CANONICAL, seed=0, max_workers=2, faults=plan
        ).run()
        orders = [list(SMALL_FLEET), list(reversed(SMALL_FLEET))]
        for workers in (1, 2):
            for order in orders:
                service = TuningService(
                    seed=0, max_workers=workers, faults=plan, pump_interval=2
                )
                for index, spec in enumerate(order):
                    assert service.submit(spec, priority=index % 2).accepted
                drained = service.drain()
                assert service_fingerprint(drained) == service_fingerprint(
                    batch
                )

    def test_drain_is_idempotent_and_closes_admission(self):
        service = TuningService(seed=0, max_workers=1)
        service.submit(SMALL_FLEET[0])
        first = service.drain()
        assert service.drain() is first
        late = service.submit(SMALL_FLEET[1])
        assert late.admission is Admission.REJECTED
        assert "draining" in late.reason

    def test_breaker_armed_drain_matches_breaker_armed_batch(self):
        plan = FaultPlan(seed=0, rates={"llm.transient": 1.0})
        retry = RetryPolicy(max_retries=1)
        breaker = BreakerPolicy(threshold=2, cooldown=2)
        batch = FleetScheduler(
            CANONICAL,
            seed=0,
            max_workers=2,
            faults=plan,
            retry=retry,
            breaker=breaker,
        ).run()
        # The first two (canonical) tenants burn full budgets; the breaker
        # then routes the rest to fail-fast degraded mode.
        assert [f.attempts for f in batch.failures] == [2, 2, 1, 1]
        assert all("fail-fast" in f.error for f in batch.failures[2:])
        for workers in (1, 2):
            service = TuningService(
                seed=0,
                max_workers=workers,
                faults=plan,
                retry=retry,
                breaker=breaker,
                pump_interval=3,
            )
            for spec in reversed(SMALL_FLEET):
                service.submit(spec)
            drained = service.drain()
            assert service_fingerprint(drained) == service_fingerprint(batch)
            assert service.breaker_report()["llm.transient"]["trips"] == 1

    def test_breaker_armed_batch_folds_canonically_for_any_list_order(self):
        plan = FaultPlan(seed=0, rates={"llm.transient": 1.0})
        retry = RetryPolicy(max_retries=1)
        breaker = BreakerPolicy(threshold=2, cooldown=2)
        order = list(reversed(SMALL_FLEET))
        batch = FleetScheduler(
            order, seed=0, max_workers=2, faults=plan, retry=retry, breaker=breaker
        ).run()
        assert [o.tenant_id for o in batch.outcomes] == [
            s.tenant_id for s in order
        ]
        # The two canonically-first tenants burn full budgets, whatever
        # their list position; the breaker degrades the other two.
        assert [f.attempts for f in batch.failures] == [1, 1, 2, 2]
        service = TuningService(
            seed=0,
            max_workers=1,
            faults=plan,
            retry=retry,
            breaker=breaker,
            pump_interval=None,
        )
        for spec in order:
            service.submit(spec)
        drained = {o.tenant_id: o for o in service.drain().outcomes}
        assert [f.to_dict() for f in batch.failures] == [
            drained[f.tenant_id].to_dict() for f in batch.failures
        ]

    def test_scheduler_without_breaker_is_unchanged(self):
        plan = FaultPlan(seed=0, rates={"llm.transient": 1.0})
        retry = RetryPolicy(max_retries=1)
        plain = FleetScheduler(
            CANONICAL, seed=0, max_workers=1, faults=plan, retry=retry
        ).run()
        # No breaker: every tenant burns its own full budget.
        assert [f.attempts for f in plain.failures] == [2, 2, 2, 2]
        assert FleetScheduler(CANONICAL, seed=0).breaker is None


# ---------------------------------------------------------------------------
# Deadlines: simulated-time budgets, enforced per submission.
# ---------------------------------------------------------------------------


class TestDeadlines:
    def test_deadline_caps_the_retry_budget(self):
        plan = FaultPlan(seed=0, rates={"llm.transient": 1.0})
        spec = TenantSpec("doomed", workloads=("IOR_16M",), seed=5)

        def run_with(deadline):
            service = TuningService(
                seed=0, max_workers=1, faults=plan, pump_interval=None
            )
            service.submit(spec, deadline=deadline)
            return service.drain().failure("doomed")

        patient = run_with(None)
        hurried = run_with(0.1)
        assert patient.attempts == 5  # max_retries + 1
        assert hurried.attempts == 1  # first backoff already over budget
        assert patient.site == hurried.site == "llm.transient"

    def test_default_deadline_preserves_batch_equality(self):
        batch = FleetScheduler(CANONICAL, seed=0, max_workers=1).run()
        service = TuningService(seed=0, max_workers=1)
        for spec in SMALL_FLEET:
            service.submit(spec, deadline=None)
        assert service_fingerprint(service.drain()) == service_fingerprint(
            batch
        )


# ---------------------------------------------------------------------------
# Service API: status, results, shutdown, duplicate handling.
# ---------------------------------------------------------------------------


class TestServiceAPI:
    def test_status_lifecycle(self):
        policy = AdmissionPolicy(max_pending=1)
        service = TuningService(
            seed=0, max_workers=1, admission=policy, pump_interval=None
        )
        assert service.status("acme-data") == "unknown"
        service.submit(SMALL_FLEET[0])
        assert service.status("acme-data") == "queued"
        shed = service.submit(SMALL_FLEET[1])
        assert not shed.accepted
        assert service.status("acme-meta") == "rejected"
        service.pump()
        assert service.status("acme-data") == "completed"
        result = service.results("acme-data")
        assert result.tenant_id == "acme-data"
        with pytest.raises(KeyError):
            service.failure("acme-data")

    def test_quarantined_status_and_failure_lookup(self):
        plan = FaultPlan(seed=0, rates={"llm.transient": 1.0})
        service = TuningService(seed=0, max_workers=1, faults=plan)
        service.submit(TenantSpec("doomed", workloads=("IOR_16M",), seed=5))
        service.drain()
        assert service.status("doomed") == "quarantined"
        assert service.failure("doomed").site == "llm.transient"
        with pytest.raises(KeyError):
            service.results("doomed")

    def test_duplicate_admitted_id_raises(self):
        service = TuningService(seed=0, max_workers=1, pump_interval=None)
        service.submit(SMALL_FLEET[0])
        with pytest.raises(ValueError, match="duplicate"):
            service.submit(SMALL_FLEET[0])

    def test_rejected_id_may_resubmit(self):
        service = TuningService(
            seed=0,
            max_workers=1,
            admission=AdmissionPolicy(max_pending=1),
            pump_interval=None,
        )
        service.submit(SMALL_FLEET[0])
        assert not service.submit(SMALL_FLEET[1]).accepted
        service.pump()
        assert service.submit(SMALL_FLEET[1]).accepted  # second offer lands

    def test_shutdown_abandons_the_queue(self):
        service = TuningService(
            seed=0, max_workers=1, pump_interval=2
        )
        service.submit(SMALL_FLEET[0])
        service.submit(SMALL_FLEET[1])  # wave of 2 runs
        service.submit(SMALL_FLEET[2])  # left queued
        summary = service.shutdown()
        assert summary["completed"] == 2
        assert summary["abandoned"] == 1
        assert not service.submit(SMALL_FLEET[3]).accepted

    def test_pump_interval_paces_execution(self):
        service = TuningService(seed=0, max_workers=1, pump_interval=2)
        service.submit(SMALL_FLEET[0])
        assert service.status(SMALL_FLEET[0].tenant_id) == "queued"
        service.submit(SMALL_FLEET[1])  # hits the interval -> wave runs
        assert service.status(SMALL_FLEET[0].tenant_id) == "completed"
        assert service.status(SMALL_FLEET[1].tenant_id) == "completed"


# ---------------------------------------------------------------------------
# Crash safety: kill between arrivals, torn checkpoints, exact resume.
# ---------------------------------------------------------------------------


class TestCrashResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_killed_service_resumes_byte_identical(self, tmp_path, workers):
        checkpoint = tmp_path / "svc.ckpt.json"
        reference = TuningService(
            seed=0, max_workers=workers, faults=ROUGH_PLAN, pump_interval=2
        )
        for spec in SMALL_FLEET:
            reference.submit(spec)
        expected = reference.drain()

        # First incarnation killed after one wave of two arrivals.
        first = TuningService(
            seed=0,
            max_workers=workers,
            faults=ROUGH_PLAN,
            checkpoint=checkpoint,
            pump_interval=2,
        )
        for spec in SMALL_FLEET[:2]:
            first.submit(spec)
        _, persisted = read_checkpoint(checkpoint)
        assert len(persisted) == 2
        del first  # the kill -9

        # Restart with the identical submission stream.
        import repro.service.scheduler as scheduler_module

        calls = []
        original = scheduler_module.run_tenant

        def counting(*args, **kwargs):
            calls.append(args[0].tenant_id)
            return original(*args, **kwargs)

        scheduler_module.run_tenant = counting
        try:
            second = TuningService(
                seed=0,
                max_workers=1,  # inline pool so the counting hook sees runs
                faults=ROUGH_PLAN,
                checkpoint=checkpoint,
                pump_interval=2,
            )
            for spec in SMALL_FLEET:
                second.submit(spec)
            resumed = second.drain()
        finally:
            scheduler_module.run_tenant = original
        assert sorted(calls) == sorted(
            s.tenant_id for s in SMALL_FLEET[2:]
        )  # completed tenants never re-ran
        assert service_fingerprint(resumed) == service_fingerprint(expected)

    def test_torn_service_checkpoint_is_descriptive(self, tmp_path):
        checkpoint = tmp_path / "svc.ckpt.json"
        service = TuningService(
            seed=0, max_workers=1, checkpoint=checkpoint, pump_interval=1
        )
        service.submit(SMALL_FLEET[0])
        # A torn header line is loud; a torn last record resumes (see
        # test_any_crash_point_resumes_exactly).
        header_line = checkpoint.read_bytes().index(b"\n") + 1
        checkpoint.write_bytes(checkpoint.read_bytes()[: header_line // 2])
        with pytest.raises(JournalCorruptError, match="truncated or corrupt"):
            TuningService(seed=0, max_workers=1, checkpoint=checkpoint)

    def test_service_checkpoint_rejects_other_seed_or_plan(self, tmp_path):
        checkpoint = tmp_path / "svc.ckpt.json"
        service = TuningService(
            seed=0, max_workers=1, checkpoint=checkpoint, pump_interval=1
        )
        service.submit(SMALL_FLEET[0])
        with pytest.raises(JournalCorruptError, match="different fleet"):
            TuningService(seed=1, max_workers=1, checkpoint=checkpoint)
        with pytest.raises(JournalCorruptError, match="different fleet"):
            TuningService(
                seed=0,
                max_workers=1,
                faults=ROUGH_PLAN,
                checkpoint=checkpoint,
            )

    def test_service_checkpoint_rejects_spec_drift(self, tmp_path):
        from dataclasses import replace

        checkpoint = tmp_path / "svc.ckpt.json"
        service = TuningService(
            seed=0, max_workers=1, checkpoint=checkpoint, pump_interval=1
        )
        service.submit(SMALL_FLEET[0])
        resumed = TuningService(
            seed=0, max_workers=1, checkpoint=checkpoint, pump_interval=1
        )
        with pytest.raises(JournalCorruptError, match="different spec"):
            resumed.submit(replace(SMALL_FLEET[0], max_attempts=2))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_killed_batch_fleet_resumes_byte_identical(
        self, tmp_path, workers
    ):
        """Satellite: crash-mid-write resume for the batch scheduler."""
        checkpoint = tmp_path / "fleet.ckpt.json"
        expected = FleetScheduler(
            SMALL_FLEET, seed=0, max_workers=workers, faults=ROUGH_PLAN
        ).run()
        FleetScheduler(
            SMALL_FLEET,
            seed=0,
            max_workers=workers,
            faults=ROUGH_PLAN,
            checkpoint=checkpoint,
        ).run()
        # Kill between tenant arrivals: drop the last two outcomes.
        header, outcomes = read_checkpoint(checkpoint)
        keep = {s.tenant_id for s in SMALL_FLEET[:2]}
        outcomes = {tid: out for tid, out in outcomes.items() if tid in keep}
        write_checkpoint(checkpoint, header, outcomes)
        resumed = FleetScheduler(
            SMALL_FLEET,
            seed=0,
            max_workers=workers,
            faults=ROUGH_PLAN,
            checkpoint=checkpoint,
        ).run()
        assert service_fingerprint(resumed) == service_fingerprint(expected)

        # Torn checkpoint (truncated bytes) is loud, and recovery is a
        # fresh file away.
        torn = checkpoint.read_bytes()[:40]
        checkpoint.write_bytes(torn)
        with pytest.raises(JournalCorruptError, match="truncated or corrupt"):
            FleetScheduler(
                SMALL_FLEET,
                seed=0,
                max_workers=workers,
                faults=ROUGH_PLAN,
                checkpoint=checkpoint,
            ).run()
        checkpoint.unlink()
        fresh = FleetScheduler(
            SMALL_FLEET,
            seed=0,
            max_workers=workers,
            faults=ROUGH_PLAN,
            checkpoint=checkpoint,
        ).run()
        assert service_fingerprint(fresh) == service_fingerprint(expected)

    @pytest.mark.parametrize("loader", ["fleet", "service"])
    @pytest.mark.parametrize(
        "corruption", ["missing-kind", "sessions-not-a-list", "not-a-record"]
    )
    def test_malformed_checkpoint_entry_is_descriptive(
        self, tmp_path, written_checkpoint, corruption, loader
    ):
        spec = SMALL_FLEET[0]
        header, outcomes = copy.deepcopy(written_checkpoint)
        entry = outcomes[spec.tenant_id]
        if corruption == "missing-kind":
            del entry["kind"]
        elif corruption == "sessions-not-a-list":
            entry["sessions"] = 5
        else:
            outcomes[spec.tenant_id] = [entry]
        checkpoint = tmp_path / "corrupt.ckpt.json"
        write_checkpoint(checkpoint, header, outcomes)
        with pytest.raises(JournalCorruptError, match=spec.tenant_id):
            if loader == "fleet":
                FleetScheduler(
                    [spec], seed=0, max_workers=1, checkpoint=checkpoint
                ).run()
            else:
                TuningService(
                    seed=0, max_workers=1, checkpoint=checkpoint
                ).submit(spec)

    @pytest.mark.parametrize("loader", ["fleet", "service"])
    @pytest.mark.parametrize("body", ["[]", "5", "null", '"x"'])
    def test_non_object_checkpoint_is_descriptive(self, tmp_path, body, loader):
        checkpoint = tmp_path / "odd.ckpt.json"
        checkpoint.write_text(body)
        with pytest.raises(JournalCorruptError, match="truncated or corrupt"):
            if loader == "fleet":
                FleetScheduler(
                    [SMALL_FLEET[0]], seed=0, max_workers=1, checkpoint=checkpoint
                ).run()
            else:
                TuningService(seed=0, max_workers=1, checkpoint=checkpoint)


@pytest.fixture(scope="module")
def written_checkpoint(tmp_path_factory):
    """A one-tenant fleet checkpoint, as its (header, outcomes)."""
    checkpoint = tmp_path_factory.mktemp("checkpoint") / "fleet.ckpt.json"
    FleetScheduler(
        [SMALL_FLEET[0]], seed=0, max_workers=1, checkpoint=checkpoint
    ).run()
    return read_checkpoint(checkpoint)


# ---------------------------------------------------------------------------
# The append-only log: a kill may cut it at any byte.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def service_log(tmp_path_factory):
    """An uninterrupted SMALL_FLEET service: its log's bytes and drain."""
    checkpoint = tmp_path_factory.mktemp("log") / "svc.ckpt.json"
    service = TuningService(
        seed=0,
        max_workers=1,
        faults=ROUGH_PLAN,
        checkpoint=checkpoint,
        pump_interval=None,
    )
    _submit_all(service)
    drained = service.drain()
    return checkpoint.read_bytes(), service_fingerprint(drained)


def _rough_store(path) -> scheduler.CheckpointStore:
    return scheduler.CheckpointStore(
        path, scheduler.fleet_stamp(None, 0, ROUGH_PLAN), RetryPolicy(), ROUGH_PLAN
    )


class TestCheckpointLog:
    """Crash points: whatever prefix of the log a kill leaves, the
    restarted service either refuses it descriptively (a torn header) or
    resumes to exactly the uninterrupted drain; a flipped byte anywhere
    loads or is refused descriptively, never with a stray exception."""

    @settings(max_examples=25, deadline=None)
    @given(short=st.integers(0, 100))
    @example(short=0)  # the header's JSON is whole, its newline missing
    def test_cut_inside_header_is_loud(self, tmp_path_factory, service_log, short):
        log, _ = service_log
        # ``short`` bytes before the header's newline; past its start, empty.
        cut = max(log.index(b"\n") - short, 0)
        checkpoint = tmp_path_factory.mktemp("cut") / "svc.ckpt.json"
        checkpoint.write_bytes(log[:cut])
        with pytest.raises(JournalCorruptError, match="truncated or corrupt"):
            TuningService(
                seed=0, max_workers=1, faults=ROUGH_PLAN, checkpoint=checkpoint
            )

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_any_crash_point_resumes_exactly(
        self, tmp_path_factory, service_log, data
    ):
        log, expected = service_log
        ends = list(accumulate(len(line) + 1 for line in log.split(b"\n")[:-1]))
        cut = data.draw(st.integers(ends[0], len(log)), label="cut")
        checkpoint = tmp_path_factory.mktemp("cut") / "svc.ckpt.json"
        checkpoint.write_bytes(log[:cut])
        complete = {
            json.loads(log[start:end])["tenant"]
            for start, end in zip(ends, ends[1:])
            if end <= cut
        }
        assert set(_rough_store(checkpoint).load()) == complete

        with mock.patch.object(
            scheduler, "run_tenant", wraps=scheduler.run_tenant
        ) as runs:
            restarted = TuningService(
                seed=0,
                max_workers=1,  # inline, so the wrapped body sees every run
                faults=ROUGH_PLAN,
                checkpoint=checkpoint,
                pump_interval=None,
            )
            _submit_all(restarted)
            resumed = restarted.drain()
        reran = sorted(call.args[0].tenant_id for call in runs.call_args_list)
        assert reran == sorted(
            s.tenant_id for s in SMALL_FLEET if s.tenant_id not in complete
        )
        assert service_fingerprint(resumed) == expected
        # The torn tail was truncated away before the first append.
        assert checkpoint.read_bytes() == log

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_flipped_byte_loads_or_is_descriptive(
        self, tmp_path_factory, service_log, data
    ):
        log, _ = service_log
        position = data.draw(st.integers(0, len(log) - 1), label="position")
        mask = data.draw(st.integers(1, 255), label="mask")
        flipped = bytearray(log)
        flipped[position] ^= mask
        checkpoint = tmp_path_factory.mktemp("flip") / "svc.ckpt.json"
        checkpoint.write_bytes(bytes(flipped))
        store = _rough_store(checkpoint)
        try:  # the file loads and every entry adopts, or the error says why
            loaded = store.load()
            for spec in SMALL_FLEET:
                if spec.tenant_id in loaded:
                    store.adopt(spec, loaded[spec.tenant_id])
        except JournalCorruptError:
            pass


# ---------------------------------------------------------------------------
# Wave order: canonical, so the first result leaves as early as possible.
# ---------------------------------------------------------------------------


def _submit_all(service, order=SMALL_FLEET):
    for spec in order:
        assert service.submit(spec).accepted


class TestStreaming:
    def test_first_result_waits_on_its_own_queue_only(self):
        fleet = [
            TenantSpec(
                f"acct{i % 3}/t{i}",
                backend=("lustre", "beegfs")[i % 2],
                workloads=("IOR_16M", "IOR_64K", "MDWorkbench_8K")[: 1 + i % 3],
                seed=600 + i,
            )
            for i in range(6)
        ]
        # Shuffled: the first canonical tenant is submitted third.
        order = [fleet[i] for i in (3, 5, 0, 4, 1, 2)]
        service = TuningService(seed=0, max_workers=2, pump_interval=None)
        _submit_all(service, order)
        first = next(service.iter_results())
        assert first.tenant_id == fleet[0].tenant_id
        assert service.first_result_sessions == len(first.sessions)

    def test_waves_run_by_priority_then_canonical_order(self, monkeypatch):
        import repro.service.scheduler as scheduler_module

        ran = []
        original = scheduler_module.run_tenant

        def recording(spec, *args, **kwargs):
            ran.append(spec.tenant_id)
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(scheduler_module, "run_tenant", recording)
        service = TuningService(seed=0, max_workers=1, pump_interval=None)
        priority = {}
        for index, spec in enumerate(reversed(SMALL_FLEET)):
            priority[spec.tenant_id] = index % 2
            service.submit(spec, priority=index % 2)
        service.pump()
        assert ran == [
            spec.tenant_id
            for spec in sorted(
                SMALL_FLEET,
                key=lambda s: (-priority[s.tenant_id], s.seed, s.tenant_id),
            )
        ]


# ---------------------------------------------------------------------------
# The overload experiment: deterministic sheds, no admitted tenant lost.
# ---------------------------------------------------------------------------


class TestOverloadExperiment:
    def test_report_is_worker_invariant_and_loses_nothing(self):
        from repro.experiments import overload

        a = overload.run(
            seed=1, backends=("lustre",), loads=(4, 12), max_workers=1
        )
        b = overload.run(
            seed=1, backends=("lustre",), loads=(4, 12), max_workers=2
        )
        assert a.render() == b.render()
        for cell in a.cells:
            assert cell.offered == cell.admitted + cell.shed
            assert cell.admitted == cell.completed + cell.quarantined
        # The tight door genuinely sheds at the swamping load.
        assert a.cells[-1].shed > 0
