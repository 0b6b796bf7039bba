"""Execution-plane parity and the streaming front end.

The tenant space once ran partitioned across shards, each owning a pool
slice; it now runs through one warm pool, and the contracts pinned here
carry over unchanged (the class and test names keep the old
vocabulary).  Where work runs — inline, on a pool left warm by an
earlier wave, on a freshly resized pool, on a pool that dies mid-wave —
changes *when* results arrive, never a byte of what they contain.  The
:class:`FleetResult` (sessions, transcripts, merged journal, quarantine
reports, breaker routing) matches the inline ``FleetScheduler`` at every
worker count × warm-pool state × fault plan, a broken pool quarantines
only the tenants that had not arrived, and the streaming
``iter_results`` front end yields exactly the drain order.
"""

from __future__ import annotations

import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import pmap, shutdown_pool
from repro.faults import BreakerPolicy, FaultPlan, RetryPolicy
from repro.rules.store import RuleJournal
from repro.service import (
    FleetScheduler,
    TenantFailure,
    TenantResult,
    TenantSpec,
    TuningService,
)
from repro.service.scheduler import _outcome_to_json
from checkpoint_files import read_checkpoint
from test_fleet import SMALL_FLEET, fleet_fingerprint
from test_service import CANONICAL, ROUGH_PLAN, service_fingerprint


def outcome_json(outcome: TenantResult | TenantFailure) -> str:
    """One outcome's deterministic bytes (results and quarantines alike)."""
    return json.dumps(_outcome_to_json(outcome), sort_keys=True)


# ---------------------------------------------------------------------------
# Byte-identity across the (workers x warm pool x plan) matrix.
# ---------------------------------------------------------------------------


class TestShardedFleetParity:
    @pytest.fixture(scope="class")
    def baseline(self):
        return fleet_fingerprint(
            FleetScheduler(SMALL_FLEET, seed=0, max_workers=1).run()
        )

    def setup_method(self):
        shutdown_pool()  # every case starts from a cold pool

    def teardown_method(self):
        shutdown_pool()

    @pytest.mark.parametrize("prior_pool", [1, 2, 4])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_fleet_matrix(self, baseline, prior_pool, workers):
        # An earlier wave leaves a warm pool of its own size behind:
        # none (inline), two workers or four.  The fleet reuses it,
        # retires it for one of its own size, or runs inline beside it;
        # none of it reaches the results.
        pmap(abs, range(-prior_pool, 0), max_workers=prior_pool)
        assert parallel._pool_workers == (prior_pool if prior_pool > 1 else 0)
        result = FleetScheduler(
            SMALL_FLEET, seed=0, max_workers=workers
        ).run()
        assert fleet_fingerprint(result) == baseline
        assert [o.tenant_id for o in result.outcomes] == [
            s.tenant_id for s in SMALL_FLEET
        ]

    @pytest.mark.parametrize("backend", ["lustre", "beegfs"])
    def test_single_backend_fleets(self, backend):
        specs = [s for s in SMALL_FLEET if s.backend == backend]
        inline = fleet_fingerprint(
            FleetScheduler(specs, seed=0, max_workers=1).run()
        )
        pooled = FleetScheduler(specs, seed=0, max_workers=2).run()
        assert fleet_fingerprint(pooled) == inline, backend

    @pytest.mark.parametrize(
        "plan",
        [FaultPlan.none(), ROUGH_PLAN],
        ids=["zero-plan", "rough-plan"],
    )
    def test_fault_plans_quarantine_identically(self, plan):
        inline = FleetScheduler(
            SMALL_FLEET, seed=0, max_workers=1, faults=plan
        ).run()
        pooled = FleetScheduler(
            SMALL_FLEET, seed=0, max_workers=2, faults=plan
        ).run()
        assert service_fingerprint(pooled) == service_fingerprint(inline)

    def test_breaker_recanonicalization_is_shard_invariant(self):
        plan = FaultPlan(seed=0, rates={"llm.transient": 1.0})
        retry = RetryPolicy(max_retries=1)
        breaker = BreakerPolicy(threshold=2, cooldown=2)

        def run_with(workers):
            scheduler = FleetScheduler(
                CANONICAL,
                seed=0,
                max_workers=workers,
                faults=plan,
                retry=retry,
                breaker=breaker,
            )
            return scheduler.run(), scheduler.breaker_report()

        inline, inline_report = run_with(1)
        # The canonical walk really degrades the tail of the fleet.
        assert [f.attempts for f in inline.failures] == [2, 2, 1, 1]
        for workers in (2, 4):
            pooled, report = run_with(workers)
            assert service_fingerprint(pooled) == service_fingerprint(inline)
            assert report == inline_report


# ---------------------------------------------------------------------------
# Fault domain: a broken pool strands only the tenants still to arrive.
# ---------------------------------------------------------------------------


class TestBrokenShardQuarantine:
    def test_broken_shard_quarantines_only_its_tenants(self, monkeypatch):
        import repro.service.scheduler as scheduler_module

        baseline = FleetScheduler(SMALL_FLEET, seed=0, max_workers=1).run()
        arrivals = 2
        real_imap = scheduler_module.imap

        def breaking(fn, items, max_workers=None):
            stream = real_imap(fn, items, max_workers=max_workers)
            for _ in range(arrivals):
                yield next(stream)
            raise BrokenProcessPool("injected worker death")

        monkeypatch.setattr(scheduler_module, "imap", breaking)
        result = FleetScheduler(SMALL_FLEET, seed=0, max_workers=1).run()
        # Submission order is preserved; tenants that arrived before the
        # break are byte-identical to the healthy fleet, the rest carry a
        # structured pool report.
        assert [o.tenant_id for o in result.outcomes] == [
            s.tenant_id for s in SMALL_FLEET
        ]
        survivors = result.outcomes[:arrivals]
        assert [outcome_json(o) for o in survivors] == [
            outcome_json(o) for o in baseline.outcomes[:arrivals]
        ]
        assert [f.site for f in result.failures] == ["pool.broken"] * (
            len(SMALL_FLEET) - arrivals
        )
        # The merged journal is built from survivors only.
        merged = RuleJournal.merged([o.journal for o in survivors])
        assert result.journal.to_json() == merged.to_json()


# ---------------------------------------------------------------------------
# The streaming front end: canonical order, as soon as possible.
# ---------------------------------------------------------------------------


class TestStreamingService:
    def teardown_method(self):
        shutdown_pool()

    def _submit_all(self, service, order=None):
        for spec in order if order is not None else SMALL_FLEET:
            assert service.submit(spec).accepted

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_iter_results_order_equals_drain_order(self, workers):
        reference = TuningService(
            seed=0, max_workers=workers, pump_interval=None
        )
        self._submit_all(reference, list(reversed(SMALL_FLEET)))
        drained = reference.drain()

        streaming = TuningService(
            seed=0, max_workers=workers, pump_interval=None
        )
        self._submit_all(streaming, list(reversed(SMALL_FLEET)))
        streamed = list(streaming.iter_results())
        assert [outcome_json(o) for o in streamed] == [
            outcome_json(o) for o in drained.outcomes
        ]
        # Draining the streamed service afterwards reports the same fleet.
        assert service_fingerprint(streaming.drain()) == service_fingerprint(
            drained
        )

    def test_streaming_yields_before_the_fleet_finishes(self):
        service = TuningService(seed=0, max_workers=1, pump_interval=None)
        self._submit_all(service)
        stream = service.iter_results()
        first = next(stream)
        assert first.tenant_id == CANONICAL[0].tenant_id
        # One canonical yield needs one arrival; the rest of the fleet is
        # still in flight.
        unfinished = [
            s.tenant_id
            for s in SMALL_FLEET
            if service.status(s.tenant_id) != "completed"
        ]
        assert len(unfinished) == len(SMALL_FLEET) - 1
        assert service.first_result_sessions == len(first.sessions)
        # Post-drain, the stream finishes the canonical tail.
        rest = [o.tenant_id for o in stream]
        assert [first.tenant_id] + rest == [
            o.tenant_id for o in service.drain().outcomes
        ]

    def test_streamed_breaker_fold_matches_drain(self):
        plan = FaultPlan(seed=0, rates={"llm.transient": 1.0})
        retry = RetryPolicy(max_retries=1)
        breaker = BreakerPolicy(threshold=2, cooldown=2)

        def build():
            service = TuningService(
                seed=0,
                max_workers=1,
                faults=plan,
                retry=retry,
                breaker=breaker,
                pump_interval=None,
            )
            self._submit_all(service, list(reversed(SMALL_FLEET)))
            return service

        drained = build().drain()
        assert [f.attempts for f in drained.failures] == [2, 2, 1, 1]
        streamed = list(build().iter_results())
        assert [outcome_json(o) for o in streamed] == [
            outcome_json(o) for o in drained.outcomes
        ]

    def test_iter_results_pauses_until_submissions_arrive(self):
        service = TuningService(seed=0, max_workers=1, pump_interval=None)
        self._submit_all(service, SMALL_FLEET[:1])
        assert [o.tenant_id for o in service.iter_results()] == [
            SMALL_FLEET[0].tenant_id
        ]
        # More submissions reopen the stream exactly where it stopped.
        self._submit_all(service, SMALL_FLEET[1:])
        assert [o.tenant_id for o in service.iter_results()] == [
            s.tenant_id
            for s in sorted(SMALL_FLEET[1:], key=lambda s: (s.seed, s.tenant_id))
        ]

    def test_late_submission_before_streamed_prefix_raises(self):
        service = TuningService(seed=0, max_workers=1, pump_interval=None)
        late = TenantSpec(
            "zz-late", backend="lustre", workloads=("IOR_16M",), seed=5
        )
        self._submit_all(service, SMALL_FLEET[:1])  # seed 21 streams first
        list(service.iter_results())
        assert service.submit(late).accepted  # seed 5 sorts before seed 21
        with pytest.raises(RuntimeError, match="canonical prefix"):
            next(service.iter_results())

    def test_drain_after_late_submission_refolds_canonically(self):
        plan = FaultPlan(seed=0, rates={"llm.transient": 1.0})
        retry = RetryPolicy(max_retries=1)
        breaker = BreakerPolicy(threshold=2, cooldown=2)
        late = TenantSpec(
            "zz-late", backend="lustre", workloads=("IOR_16M",), seed=5
        )
        service = TuningService(
            seed=0,
            max_workers=1,
            faults=plan,
            retry=retry,
            breaker=breaker,
            pump_interval=None,
        )
        self._submit_all(service, SMALL_FLEET[:2])
        streamed = list(service.iter_results())
        # Both streamed tenants burned full budgets and opened the breaker.
        assert [o.attempts for o in streamed] == [2, 2]
        assert service.submit(late).accepted  # seed 5 sorts before both
        drained = service.drain()
        batch = FleetScheduler(
            [late, *SMALL_FLEET[:2]],
            seed=0,
            max_workers=1,
            faults=plan,
            retry=retry,
            breaker=breaker,
        ).run()
        # Drain re-folds from the canonical start: the late tenant takes
        # the first full-budget slot and the last streamed one re-runs
        # degraded.
        assert [o.attempts for o in drained.outcomes] == [2, 2, 1]
        assert service_fingerprint(drained) == service_fingerprint(batch)

    def test_checkpoint_resume_mid_stream(self, tmp_path, monkeypatch):
        checkpoint = tmp_path / "stream.ckpt.json"
        uninterrupted = TuningService(
            seed=0, max_workers=1, faults=ROUGH_PLAN, pump_interval=None
        )
        self._submit_all(uninterrupted)
        expected = uninterrupted.drain()

        # First incarnation: stream two canonical results, then die.
        first = TuningService(
            seed=0,
            max_workers=1,
            faults=ROUGH_PLAN,
            checkpoint=checkpoint,
            pump_interval=None,
        )
        self._submit_all(first)
        stream = first.iter_results()
        next(stream)
        next(stream)
        persisted = set(read_checkpoint(checkpoint)[1])
        assert len(persisted) >= 2
        del first  # the kill -9

        # Second incarnation: identical submission stream, counted re-runs.
        import repro.service.scheduler as scheduler_module

        calls = []
        original = scheduler_module.run_tenant

        def counting(*args, **kwargs):
            calls.append(args[0].tenant_id)
            return original(*args, **kwargs)

        monkeypatch.setattr(scheduler_module, "run_tenant", counting)
        second = TuningService(
            seed=0,
            max_workers=1,
            faults=ROUGH_PLAN,
            checkpoint=checkpoint,
            pump_interval=None,
        )
        self._submit_all(second)
        resumed = second.drain()
        assert sorted(calls) == sorted(
            s.tenant_id for s in SMALL_FLEET if s.tenant_id not in persisted
        )  # checkpointed tenants provably never re-ran
        assert service_fingerprint(resumed) == service_fingerprint(expected)

    def test_pump_finishes_a_wave_left_in_flight(self):
        service = TuningService(seed=0, max_workers=1, pump_interval=None)
        self._submit_all(service)
        next(service.iter_results())  # leaves the wave mid-flight
        service.pump()  # finishes it
        assert all(
            service.status(s.tenant_id) in ("completed", "quarantined")
            for s in SMALL_FLEET
        )

    def test_shutdown_abandons_the_inflight_wave(self):
        service = TuningService(seed=0, max_workers=1, pump_interval=None)
        self._submit_all(service)
        next(service.iter_results())
        summary = service.shutdown()
        assert summary["completed"] + summary["abandoned"] == len(SMALL_FLEET)
        assert summary["abandoned"] >= 1
