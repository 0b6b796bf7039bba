"""The deterministic fault-injection plane and the resilience machinery.

The contracts, from the inside out:

- :class:`FaultPlan` draws are stateless hashes — identical across
  instances, pickling, call order and worker counts;
- :class:`RetryPolicy` backs off deterministically and raises a structured
  :class:`FaultBudgetExhausted` when the budget runs dry;
- the zero-fault plan is **byte-identical** to running without the plane
  at all (sessions, transcripts, fleet results — both backends);
- a fixed ``(seed, fault plan)`` reproduces sessions, retry counts and
  quarantine reports exactly, invariant to worker count;
- graceful degradation: truncated Darshan capture analyzes surviving
  ranks with a coverage flag; a probe that exhausts its budget abandons
  the attempt, never the session;
- the fleet quarantines an exhausted tenant while every other tenant
  completes, and checkpoints let a killed fleet resume without re-running
  completed tenants.
"""

import json
import pickle
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from repro import Stellar, get_workload, make_cluster
from repro.agents.tuning import TOOLS, TuningAgent, TuningLoopResult
from repro.backends import list_backends
from repro.corpus import render_hardware_doc
from repro.darshan import trace_run, truncate_log
from repro.experiments.harness import shared_extraction
from repro.faults import (
    FAULT_SITES,
    FaultBudgetExhausted,
    FaultPlan,
    RetryPolicy,
    TransientFault,
)
from repro.faults.plan import NO_FAULTS
from repro.llm.api import ChatMessage
from repro.llm.client import LLMClient
from repro.llm.tokens import RETRY_AGENT, UsageLedger
from repro.rules.store import session_from_dict, session_to_dict
from repro.service import FleetScheduler, TenantSpec
from repro.service.scheduler import run_tenant
from tests.test_fleet import SMALL_FLEET, fleet_fingerprint


class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(rates={"llm.rickroll": 0.1})

    def test_rate_bounds_enforced(self):
        with pytest.raises(ValueError, match="lie in"):
            FaultPlan(rates={"llm.transient": 1.5})

    def test_draws_are_stateless_and_instance_independent(self):
        a = FaultPlan.uniform(0.3, seed=7)
        b = FaultPlan.uniform(0.3, seed=7)
        keys = [f"op:{i}" for i in range(50)]
        # Interleave and reorder: every draw depends only on (site, key).
        forward = [a.should_fire("probe.run", k) for k in keys]
        backward = [b.should_fire("probe.run", k) for k in reversed(keys)]
        assert forward == list(reversed(backward))

    def test_seed_changes_draws(self):
        keys = [f"op:{i}" for i in range(200)]
        a = [FaultPlan.uniform(0.5, seed=1).should_fire("llm.timeout", k) for k in keys]
        b = [FaultPlan.uniform(0.5, seed=2).should_fire("llm.timeout", k) for k in keys]
        assert a != b

    def test_rate_is_respected_statistically(self):
        plan = FaultPlan.uniform(0.2, seed=0)
        fired = sum(
            plan.should_fire("llm.transient", f"k:{i}") for i in range(2000)
        )
        assert 300 < fired < 500  # ~400 expected

    def test_zero_plan_is_inert(self):
        plan = FaultPlan.none(seed=3)
        assert not plan.active
        assert not any(
            plan.should_fire(site, "anything") for site in FAULT_SITES
        )

    def test_pickle_round_trip_preserves_draws(self):
        plan = FaultPlan.uniform(0.4, seed=11)
        clone = pickle.loads(pickle.dumps(plan))
        keys = [f"op:{i}" for i in range(100)]
        for site in FAULT_SITES:
            assert [plan.fraction(site, k) for k in keys] == [
                clone.fraction(site, k) for k in keys
            ]

    def test_describe_names_armed_sites(self):
        assert "inert" in FaultPlan.none().describe()
        assert "probe.run=0.1" in FaultPlan(
            rates={"probe.run": 0.1}
        ).describe()


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_exponential(self):
        policy = RetryPolicy(base_backoff=1.0, backoff_factor=2.0, jitter=0.1)
        plan = FaultPlan.uniform(0.5, seed=0)
        first = [policy.backoff(plan, "op", n) for n in range(4)]
        second = [policy.backoff(plan, "op", n) for n in range(4)]
        assert first == second
        for n, delay in enumerate(first):
            assert 0.9 * 2**n <= delay <= 1.1 * 2**n

    def test_succeeds_after_transient_failures(self):
        attempts = []

        def flaky(n):
            attempts.append(n)
            if n < 2:
                raise TransientFault("probe.run", key=f"op:a{n}")
            return "ok"

        recorded = []
        policy = RetryPolicy(max_retries=4)
        out = policy.execute(
            flaky,
            site="probe.run",
            key="op",
            plan=FaultPlan.none(),
            record=lambda fault, n, delay: recorded.append((fault.site, n)),
        )
        assert out == "ok"
        assert attempts == [0, 1, 2]
        assert recorded == [("probe.run", 0), ("probe.run", 1)]

    def test_exhaustion_is_structured(self):
        def always(n):
            raise TransientFault("llm.timeout", key=f"op:a{n}")

        policy = RetryPolicy(max_retries=2)
        with pytest.raises(FaultBudgetExhausted) as exc_info:
            policy.execute(always, site="llm", key="op", plan=FaultPlan.none())
        exc = exc_info.value
        assert exc.site == "llm.timeout"
        assert exc.attempts == 3  # max_retries + 1
        assert exc.backoff_spent > 0

    def test_timeout_budget_trips_early(self):
        def always(n):
            raise TransientFault("probe.run")

        policy = RetryPolicy(max_retries=50, base_backoff=10.0, timeout_budget=25.0)
        with pytest.raises(FaultBudgetExhausted) as exc_info:
            policy.execute(always, site="probe.run", key="op", plan=FaultPlan.none())
        assert exc_info.value.attempts < 51

    def test_exhaustion_excludes_unspent_final_backoff(self):
        """The delay before a retry that never runs is never charged.

        With ``max_retries=2`` the operation gets attempts 0, 1, 2; only
        the delays *between* attempts (after 0 and after 1) are waited, so
        ``backoff_spent`` and the recorded ledger delays must cover exactly
        those two — the backoff the third attempt would have preceded is
        pure fiction.
        """

        def always(n):
            raise TransientFault("llm.transient", key=f"op:a{n}")

        plan = FaultPlan.none()
        policy = RetryPolicy(max_retries=2)
        recorded = []
        with pytest.raises(FaultBudgetExhausted) as exc_info:
            policy.execute(
                always,
                site="llm",
                key="op",
                plan=plan,
                record=lambda fault, n, delay: recorded.append((n, delay)),
            )
        waited = [policy.backoff(plan, "op", n) for n in range(2)]
        assert exc_info.value.backoff_spent == pytest.approx(sum(waited))
        # Every attempt is recorded once; the exhausting attempt charges
        # zero delay because its backoff is never waited.
        assert [n for n, _ in recorded] == [0, 1, 2]
        assert recorded[0][1] == pytest.approx(waited[0])
        assert recorded[1][1] == pytest.approx(waited[1])
        assert recorded[2][1] == 0.0

    def test_fail_fast_sites_exhaust_immediately(self):
        def always(n):
            raise TransientFault("llm.transient", key="op")

        policy = RetryPolicy(max_retries=4).with_fail_fast({"llm.transient"})
        recorded = []
        with pytest.raises(FaultBudgetExhausted) as exc_info:
            policy.execute(
                always,
                site="llm",
                key="op",
                plan=FaultPlan.none(),
                record=lambda fault, n, delay: recorded.append((n, delay)),
            )
        exc = exc_info.value
        assert exc.fail_fast
        assert exc.attempts == 1
        assert exc.backoff_spent == 0.0
        assert recorded == [(0, 0.0)]
        # Other sites still retry normally under the same policy.
        attempts = []

        def flaky(n):
            attempts.append(n)
            if n < 2:
                raise TransientFault("probe.run", key="op")
            return "ok"

        assert (
            policy.execute(flaky, site="probe.run", key="op", plan=FaultPlan.none())
            == "ok"
        )
        assert attempts == [0, 1, 2]

    def test_with_deadline_caps_timeout_budget(self):
        policy = RetryPolicy(timeout_budget=120.0)
        assert policy.with_deadline(None) is policy
        assert policy.with_deadline(30.0).timeout_budget == 30.0
        # A generous deadline never loosens the policy.
        assert policy.with_deadline(500.0).timeout_budget == 120.0


class TestResilientClient:
    """:class:`LLMClient` under a fault plan."""

    def _ask(self, client):
        return client.complete(
            [ChatMessage(role="user", content="## TASK: MERGE RULES\n[]")],
            agent="tuning",
            session="s",
        )

    def test_inert_plan_matches_plain_client_byte_for_byte(self):
        plain_ledger, res_ledger = UsageLedger(), UsageLedger()
        plain = LLMClient("claude-3.7-sonnet", seed=5, ledger=plain_ledger)
        resilient = LLMClient(
            "claude-3.7-sonnet", seed=5, ledger=res_ledger, faults=FaultPlan.none()
        )
        # A client built without a plan shares the one inert plan.
        assert plain.faults is NO_FAULTS
        a, b = self._ask(plain), self._ask(resilient)
        assert a.content == b.content
        assert a.usage == b.usage
        assert plain_ledger == res_ledger

    def test_faulted_success_returns_unfaulted_completion(self):
        """Absorbed faults change accounting, never the model's answer."""
        plain = LLMClient("claude-3.7-sonnet", seed=5)
        # High enough to fault some attempts, low enough to finish.
        resilient = LLMClient(
            "claude-3.7-sonnet",
            seed=5,
            faults=FaultPlan.uniform(0.4, seed=1),
            retry=RetryPolicy(max_retries=30, timeout_budget=1e9),
        )
        assert self._ask(plain).content == self._ask(resilient).content

    def test_retries_charged_separately(self):
        """A failed attempt is billed exactly what the backend bills."""
        ledger = UsageLedger()
        client = LLMClient(
            "claude-3.7-sonnet",
            seed=5,
            ledger=ledger,
            faults=FaultPlan.uniform(0.4, seed=1),
            retry=RetryPolicy(max_retries=30, timeout_budget=1e9),
        )
        cluster = make_cluster(seed=0, backend="lustre")
        agent = TuningAgent(
            client,
            parameters=[p.to_info() for p in shared_extraction(cluster).selected],
            hardware_description=render_hardware_doc(cluster),
            facts=cluster.config_facts(),
            runner=SimpleNamespace(initial_seconds=12.5),
            report=None,
        )
        # A tool turn: role tags and the tool block are part of the prompt.
        messages = agent._messages(TuningLoopResult())
        for _ in range(10):
            retries = ledger.retries
            wasted = ledger.agent(RETRY_AGENT).input_tokens
            completion = client.complete(
                messages, tools=TOOLS, agent="tuning", session="s"
            )
            failed = ledger.retries - retries
            assert ledger.agent(RETRY_AGENT).input_tokens - wasted == (
                failed * completion.usage.input_tokens
            )
        assert ledger.retries > 0
        assert sum(client.fault_counts.values()) == ledger.retries
        # Successful traffic is accounted exactly as the plain client would.
        assert ledger.per_agent["tuning"].input_tokens > 0

    def test_exhaustion_propagates(self):
        client = LLMClient(
            "claude-3.7-sonnet",
            seed=5,
            faults=FaultPlan(rates={"llm.transient": 1.0}),
            retry=RetryPolicy(max_retries=2),
        )
        with pytest.raises(FaultBudgetExhausted):
            self._ask(client)


@pytest.fixture(scope="module")
def lustre_cluster():
    return make_cluster(seed=0, backend="lustre")


class TestZeroFaultParity:
    @pytest.mark.parametrize("backend", list_backends())
    def test_sessions_byte_identical_to_pre_fault_path(self, backend):
        from repro.experiments.harness import shared_extraction

        cluster = make_cluster(seed=0, backend=backend)
        extraction = shared_extraction(cluster, seed=0)
        plain = Stellar.build(cluster, seed=0, extraction=extraction)
        armed = Stellar.build(
            cluster, seed=0, extraction=extraction, faults=FaultPlan.none()
        )
        for name in ("IOR_16M", "MDWorkbench_8K"):
            a = plain.tune_and_accumulate(get_workload(name))
            b = armed.tune_and_accumulate(get_workload(name))
            assert json.dumps(session_to_dict(a)) == json.dumps(session_to_dict(b))
            assert a.transcript.render() == b.transcript.render()
        assert plain.journal.to_json() == armed.journal.to_json()

    def test_zero_fault_fleet_matches_plain_fleet(self):
        baseline = FleetScheduler(SMALL_FLEET, seed=0, max_workers=1).run()
        armed = FleetScheduler(
            SMALL_FLEET, seed=0, max_workers=1, faults=FaultPlan.uniform(0.0)
        ).run()
        assert not armed.failures
        assert fleet_fingerprint(armed) == fleet_fingerprint(baseline)
        assert armed.render().splitlines()[:-1] == baseline.render().splitlines()[:-1]


class TestFaultedDeterminism:
    PLAN = FaultPlan.uniform(0.15, seed=9)

    def test_fixed_plan_reproduces_sessions_and_retry_counts(self, lustre_cluster):
        def one():
            engine = Stellar.build(
                lustre_cluster, seed=3, faults=self.PLAN
            )
            session = engine.tune_and_accumulate(get_workload("IOR_16M"))
            return session

        a, b = one(), one()
        assert json.dumps(session_to_dict(a)) == json.dumps(session_to_dict(b))
        assert a.fault_recovery == b.fault_recovery

    def test_faulted_fleet_worker_count_invariant(self):
        plan = FaultPlan.uniform(0.3, seed=2)

        def fingerprint(workers):
            result = FleetScheduler(
                SMALL_FLEET, seed=0, max_workers=workers, faults=plan
            ).run()
            return json.dumps(
                {
                    "fleet": fleet_fingerprint(result),
                    "failures": [f.to_dict() for f in result.failures],
                    "order": [o.tenant_id for o in result.outcomes],
                }
            )

        assert fingerprint(1) == fingerprint(4)


class TestGracefulDegradation:
    def test_truncate_log_keeps_rank0_and_shared_records(self, lustre_cluster):
        from repro.pfs.config import PfsConfig
        from repro.pfs.simulator import Simulator

        workload = get_workload("IOR_16M")
        config = PfsConfig(
            facts=lustre_cluster.config_facts(), backend=lustre_cluster.backend
        )
        run = Simulator(lustre_cluster).run(workload, config, seed=0)
        log = trace_run(run, n_ranks=workload.n_ranks)
        nprocs = log.nprocs
        truncated = truncate_log(log, keep_ranks=3)
        assert truncated.lost_ranks == nprocs - 3
        assert 0 < truncated.coverage < 1
        ranks = {r.rank for r in truncated.records}
        assert 0 in ranks and ranks <= {-1, 0, 1, 2}
        assert "TRUNCATED" in truncated.header_text()
        # The marker survives the text round trip.
        reloaded = type(truncated).loads(truncated.dumps())
        assert reloaded.lost_ranks == truncated.lost_ranks

    def test_truncated_capture_degrades_session_not_crashes(self, lustre_cluster):
        plan = FaultPlan(seed=0, rates={"darshan.truncate": 1.0})
        engine = Stellar.build(lustre_cluster, seed=0, faults=plan)
        session = engine.tune(get_workload("IOR_16M"))
        assert session.degraded
        assert any("darshan.truncate" in d for d in session.degradations)
        assert session.fault_recovery.get("darshan.truncate") == 1
        events = session.transcript.of_kind("darshan_coverage")
        assert events and "coverage" in events[0].detail
        # The run still tunes over the surviving ranks.
        assert session.attempts

    def test_probe_exhaustion_abandons_attempt_not_session(self):
        class ExhaustedRunner:
            initial_seconds = 10.0

            def measure(self, changes):
                raise FaultBudgetExhausted(
                    site="probe.run", key="probe:0:1", attempts=5
                )

        agent = TuningAgent.__new__(TuningAgent)
        agent.runner = ExhaustedRunner()
        from repro.agents.transcript import Transcript

        agent.transcript = Transcript()
        result = TuningLoopResult()
        agent._handle_run({"changes": {"osc.max_pages_per_rpc": 1024}}, result)
        assert not result.attempts
        assert result.degradations and "probe.run" in result.degradations[0]
        assert agent.transcript.of_kind("probe_failed")


class TestSessionRoundTrip:
    def test_session_dict_round_trip(self, lustre_cluster):
        engine = Stellar.build(
            lustre_cluster, seed=0, faults=FaultPlan.uniform(0.2, seed=4)
        )
        session = engine.tune_and_accumulate(get_workload("IOR_16M"))
        raw = session_to_dict(session)
        assert session_to_dict(session_from_dict(raw)) == raw
        restored = session_from_dict(raw)
        assert restored.transcript.render() == session.transcript.render()


MIXED_FLEET = [
    TenantSpec(
        f"bench-{i:02d}",
        backend=("lustre", "beegfs")[i % 2],
        workloads=("IOR_64K", "IOR_16M", "MDWorkbench_8K", "IO500"),
        seed=900 + i,
    )
    for i in range(16)
]


class HostileFleet(NamedTuple):
    """A fleet under a plan harsh enough to quarantine, and what it pins."""

    tenants: list[TenantSpec]
    plan: FaultPlan
    #: Quarantined tenant id -> the fault site that exhausted it.
    quarantined: dict[str, str]
    #: Faults the completed tenants' sessions absorbed.
    absorbed: int


HOSTILE_FLEETS = {
    # 0.5 per site is lethal to every tenant.
    "small-0.5": HostileFleet(
        SMALL_FLEET,
        FaultPlan.uniform(0.5, seed=0),
        {
            "acme-data": "llm.timeout",
            "acme-meta": "llm.transient",
            "globex": "llm.timeout",
            "drifty": "llm.transient",
        },
        0,
    ),
    # Sixteen four-session tenants alternating backends at 0.1: most absorb
    # their faults, two exhaust an LLM retry budget.
    "mixed16-0.1": HostileFleet(
        MIXED_FLEET,
        FaultPlan.uniform(0.1, seed=0),
        {"bench-07": "llm.transient", "bench-15": "llm.transient"},
        294,
    ),
}


class TestFleetQuarantine:
    @pytest.fixture(scope="class", params=list(HOSTILE_FLEETS))
    def hostile(self, request):
        return HOSTILE_FLEETS[request.param]

    @pytest.fixture(scope="class")
    def hostile_result(self, hostile):
        return FleetScheduler(
            hostile.tenants, seed=0, max_workers=1, faults=hostile.plan
        ).run()

    def test_no_fleet_wide_abort(self, hostile, hostile_result):
        assert len(hostile_result.outcomes) == len(hostile.tenants)
        assert [o.tenant_id for o in hostile_result.outcomes] == [
            s.tenant_id for s in hostile.tenants
        ]

    def test_quarantine_reports_are_structured(self, hostile, hostile_result):
        quarantined = {f.tenant_id: f.site for f in hostile_result.failures}
        assert quarantined == hostile.quarantined
        absorbed = sum(
            count
            for tenant in hostile_result.tenants
            for session in tenant.sessions
            for count in session.fault_recovery.values()
        )
        assert absorbed == hostile.absorbed
        for failure in hostile_result.failures:
            assert failure.site in set(FAULT_SITES) | {"exception"}
            assert failure.error
            assert failure.attempts >= 1
            assert "QUARANTINED" in failure.render_row()
            assert failure.to_dict()["tenant_id"] == failure.tenant_id

    def test_merged_journal_excludes_quarantined(self, hostile_result):
        quarantined_seeds = {f.spec.seed for f in hostile_result.failures}
        for entry in hostile_result.journal.entries:
            assert entry.origin[0] not in quarantined_seeds

    def test_render_includes_quarantine_lines(self, hostile_result):
        render = hostile_result.render()
        assert "quarantined:" in render
        assert "aggregate:" in render.splitlines()[-1]

    def test_single_tenant_quarantine_spares_others(self):
        """N-1 of N tenants finish when one tenant exhausts its budget."""
        baseline = FleetScheduler(SMALL_FLEET, seed=0, max_workers=1).run()
        # Arm a plan only the saboteur can trip: probe.run certain-death is
        # survivable for nobody, so give only the saboteur a poisoned spec
        # instead — an unknown workload raises inside its job.
        poisoned = TenantSpec("saboteur", workloads=("NO_SUCH_WORKLOAD",), seed=99)
        fleet = [*SMALL_FLEET[:2], poisoned, *SMALL_FLEET[2:]]
        result = FleetScheduler(fleet, seed=0, max_workers=1).run()
        assert [o.tenant_id for o in result.outcomes] == [
            s.tenant_id for s in fleet
        ]
        assert len(result.tenants) == len(SMALL_FLEET)
        failure = result.failure("saboteur")
        assert failure.site == "exception"
        assert failure.completed_sessions == 0
        # Every surviving tenant matches the saboteur-free fleet bit for bit.
        for spec in SMALL_FLEET:
            a = [session_to_dict(s) for s in result.get(spec.tenant_id).sessions]
            b = [session_to_dict(s) for s in baseline.get(spec.tenant_id).sessions]
            assert a == b, spec.tenant_id
        assert result.journal.to_json() == baseline.journal.to_json()


class TestFleetCheckpoint:
    def test_killed_fleet_resumes_without_rerunning(self, tmp_path, monkeypatch):
        checkpoint = tmp_path / "fleet.ckpt.json"
        first = FleetScheduler(
            SMALL_FLEET, seed=0, max_workers=1, checkpoint=checkpoint
        ).run()
        assert checkpoint.exists()

        import repro.service.scheduler as scheduler_module

        calls = []
        original = scheduler_module.run_tenant

        def counting(*args, **kwargs):
            calls.append(args[0].tenant_id)
            return original(*args, **kwargs)

        monkeypatch.setattr(scheduler_module, "run_tenant", counting)
        resumed = FleetScheduler(
            SMALL_FLEET, seed=0, max_workers=1, checkpoint=checkpoint
        ).run()
        assert calls == []  # nothing re-ran
        assert fleet_fingerprint(resumed) == fleet_fingerprint(first)

    def test_partial_checkpoint_runs_only_missing_tenants(self, tmp_path, monkeypatch):
        from checkpoint_files import read_checkpoint, write_checkpoint

        checkpoint = tmp_path / "fleet.ckpt.json"
        # A genuine kill mid-fleet: the file carries this fleet's stamp but
        # only the first two arrivals.  Simulate by running the full fleet,
        # then dropping the later outcomes from the persisted file.
        FleetScheduler(
            SMALL_FLEET, seed=0, max_workers=1, checkpoint=checkpoint
        ).run()
        header, outcomes = read_checkpoint(checkpoint)
        keep = {s.tenant_id for s in SMALL_FLEET[:2]}
        outcomes = {tid: out for tid, out in outcomes.items() if tid in keep}
        write_checkpoint(checkpoint, header, outcomes)

        import repro.service.scheduler as scheduler_module

        calls = []
        original = scheduler_module.run_tenant

        def counting(*args, **kwargs):
            calls.append(args[0].tenant_id)
            return original(*args, **kwargs)

        monkeypatch.setattr(scheduler_module, "run_tenant", counting)
        full = FleetScheduler(
            SMALL_FLEET, seed=0, max_workers=1, checkpoint=checkpoint
        ).run()
        assert calls == [s.tenant_id for s in SMALL_FLEET[2:]]
        baseline = FleetScheduler(SMALL_FLEET, seed=0, max_workers=1).run()
        assert fleet_fingerprint(full) == fleet_fingerprint(baseline)

    def test_checkpoint_from_different_fleet_is_rejected(self, tmp_path):
        from repro.rules.store import JournalCorruptError

        checkpoint = tmp_path / "fleet.ckpt.json"
        FleetScheduler(
            SMALL_FLEET[:2], seed=0, max_workers=1, checkpoint=checkpoint
        ).run()
        # Other tenant ids -> rejected, not silently partially applied.
        with pytest.raises(JournalCorruptError, match="different fleet"):
            FleetScheduler(
                SMALL_FLEET, seed=0, max_workers=1, checkpoint=checkpoint
            ).run()
        # Other seed -> rejected.
        with pytest.raises(JournalCorruptError, match="different fleet"):
            FleetScheduler(
                SMALL_FLEET[:2], seed=7, max_workers=1, checkpoint=checkpoint
            ).run()
        # Other fault plan -> rejected.
        with pytest.raises(JournalCorruptError, match="different fleet"):
            FleetScheduler(
                SMALL_FLEET[:2],
                seed=0,
                max_workers=1,
                faults=FaultPlan.uniform(0.3, seed=1),
                checkpoint=checkpoint,
            ).run()

    def test_checkpoint_spec_drift_is_rejected(self, tmp_path):
        from dataclasses import replace

        from repro.rules.store import JournalCorruptError

        checkpoint = tmp_path / "fleet.ckpt.json"
        FleetScheduler(
            SMALL_FLEET[:2], seed=0, max_workers=1, checkpoint=checkpoint
        ).run()
        # Same ids/seed/plan, but one tenant's spec changed underneath the
        # checkpoint: the stale outcome must not be silently adopted.
        drifted = [replace(SMALL_FLEET[0], max_attempts=2), SMALL_FLEET[1]]
        with pytest.raises(JournalCorruptError, match="different spec"):
            FleetScheduler(
                drifted, seed=0, max_workers=1, checkpoint=checkpoint
            ).run()

    def test_corrupt_checkpoint_is_descriptive(self, tmp_path):
        from repro.rules.store import JournalCorruptError

        checkpoint = tmp_path / "fleet.ckpt.json"
        checkpoint.write_text('{"format": 1, "outcomes": {"acme-da')
        with pytest.raises(JournalCorruptError, match="truncated or corrupt"):
            FleetScheduler(
                SMALL_FLEET, seed=0, max_workers=1, checkpoint=checkpoint
            ).run()

    def test_checkpoint_write_faults_never_fail_the_fleet(self, tmp_path):
        checkpoint = tmp_path / "fleet.ckpt.json"
        plan = FaultPlan(seed=0, rates={"journal.write": 1.0})
        result = FleetScheduler(
            SMALL_FLEET[:2],
            seed=0,
            max_workers=1,
            faults=plan,
            checkpoint=checkpoint,
        ).run()
        assert len(result.tenants) == 2
        assert result.checkpoint_write_failures == 2
        assert not checkpoint.exists()  # every write was absorbed by retry... and failed


class TestChaosExperiment:
    def test_report_is_deterministic_and_complete(self):
        from repro.experiments import resilience

        a = resilience.run(seed=1, backends=("lustre",), rates=(0.0, 0.3), max_workers=1)
        b = resilience.run(seed=1, backends=("lustre",), rates=(0.0, 0.3), max_workers=2)
        assert a.render() == b.render()
        for cell in a.cells:
            assert cell.completed_tenants + cell.quarantined_tenants == cell.total_tenants
        oracle = a.oracle("lustre")
        assert oracle is not None and oracle.rate == 0.0
        assert a.quality(oracle) == 1.0


def test_tenant_budget_exhaustion_becomes_failure(lustre_cluster):
    """run_tenant turns FaultBudgetExhausted into a structured report."""
    from repro.experiments.harness import shared_extraction

    spec = TenantSpec("doomed", workloads=("IOR_16M",), seed=5)
    extraction = shared_extraction(lustre_cluster, seed=0)
    outcome = run_tenant(
        spec,
        lustre_cluster,
        extraction,
        faults=FaultPlan(seed=0, rates={"llm.transient": 1.0}),
        retry=RetryPolicy(max_retries=1),
    )
    from repro.service.tenant import TenantFailure

    assert isinstance(outcome, TenantFailure)
    assert outcome.site == "llm.transient"
    assert outcome.failed_workload == "IOR_16M"
    assert outcome.attempts == 2
