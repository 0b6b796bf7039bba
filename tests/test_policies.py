"""The agent-policy layer: registry, parity, behavior, faults, fleet.

Covers the policy tentpole's contracts:

- the policy table (ordering, lookup errors, name -> agent class, the
  default when a run names none);
- CLI byte parity: the default policy's seed-2 transcript matches the
  pre-refactor fixtures exactly, on every backend;
- ReACT and propose/critic determinism and quality (both improve on the
  defaults, and their *attempts* stay aligned with the reflection loop —
  policies only change when evaluations are parked, never probe seeds);
- the satellite behaviors: unknown tool calls degrade instead of crash,
  malformed Reflect & Summarize payloads raise a descriptive error;
- policy x fault interaction: every policy absorbs probe exhaustion as a
  degradation, runs deterministically under a nonzero fault plan at any
  worker count, and treats the zero-fault plan as byte-identical to no
  plane at all;
- the fleet dimension: per-tenant policies validate, render, and preserve
  the scheduler's worker-count parity and the batch-vs-streamed-daemon
  parity contracts.
"""

import hashlib
import json
import re

import pytest

from repro.agents.policies import (
    POLICIES,
    ProposeCriticAgent,
    ReACTAgent,
    list_policies,
)
from repro.agents.reflection import merge_rules_via_llm
from repro.agents.tuning import (
    ReflectionFormatError,
    TuningAgent,
    TuningLoopResult,
)
from repro.backends import list_backends
from repro.cli import main
from repro.cluster.hardware import make_cluster
from repro.core.engine import Stellar
from repro.core.runner import ConfigurationRunner
from repro.core.pipeline import SESSION_PIPELINE, AgentLoopStage, SessionState
from repro.faults.plan import FaultPlan
from repro.faults.retry import FaultBudgetExhausted, RetryPolicy
from repro.llm.api import Completion, ToolCall
from repro.llm.promptparse import ParameterInfo
from repro.llm.reasoning import SPECULATIVE_RATIONALE_PREFIX, review_proposal
from repro.llm.tasks import coerce_changes
from repro.rules.store import session_to_dict
from repro.service import FleetScheduler, TenantSpec, TuningService
from repro.workloads import get_workload
from test_cache_parity import backend_setup, queue_fingerprint
from test_fleet import fleet_fingerprint
from test_pipeline import assert_sessions_byte_identical

FIXTURE_DIR = "tests/fixtures"


@pytest.fixture(scope="module", params=list_backends())
def engine(request):
    """One engine per backend, sharing its offline extraction."""
    cluster = make_cluster(backend=request.param)
    return Stellar.build(cluster, seed=0)


def build_state(engine, workload_name, seed=0, max_attempts=5, policy=None):
    """A session state ready for AgentLoopStage, built stage by stage."""
    state = SessionState(
        cluster=engine.cluster,
        workload=get_workload(workload_name),
        model=engine.model,
        analysis_model="gpt-4o",
        extraction=engine.extraction,
        run_seed=seed,
        max_attempts=max_attempts,
        policy=policy,
    )
    for stage in SESSION_PIPELINE.stages[:4]:
        state = stage.run(state)
    return state


class TestPolicyRegistry:
    def test_registration_order(self):
        assert list_policies() == ["reflection", "react", "propose_critic"]
        assert list(POLICIES) == list_policies()

    def test_get_unknown_names_registered(self):
        with pytest.raises(KeyError, match="reflection.*react.*propose_critic"):
            POLICIES["chain_of_thought"]
        # A failed lookup registers nothing.
        assert list_policies() == ["reflection", "react", "propose_critic"]

    def test_resolve_none_is_reflection(self):
        """A run that names no policy is the reflection loop's run."""
        cluster, extraction = backend_setup("lustre")
        sessions = [
            Stellar(
                cluster=cluster,
                model="claude-3.7-sonnet",
                extraction=extraction,
                policy=policy,
            ).tune(get_workload("IOR_16M"), seed=5)
            for policy in (None, "reflection")
        ]
        assert_sessions_byte_identical(*sessions)

    def test_resolve_by_name(self):
        assert POLICIES["reflection"] is TuningAgent
        assert POLICIES["react"] is ReACTAgent
        assert POLICIES["propose_critic"] is ProposeCriticAgent

    def test_resolve_instance_passthrough(self):
        """Every policy is an agent class the stage builds with the
        reflection loop's constructor arguments."""
        assert all(issubclass(cls, TuningAgent) for cls in POLICIES.values())

    def test_duplicate_registration_rejected(self):
        """No agent class runs two policies."""
        assert len(set(POLICIES.values())) == len(POLICIES)

    def test_policy_classes_expose_names(self, capsys):
        """The table's names are the CLI's ``--policy`` choices."""
        with pytest.raises(SystemExit):
            main(["tune", "IOR_16M", "--policy", "chain_of_thought"])
        assert re.search(
            r"invalid choice.*reflection.*react.*propose_critic",
            capsys.readouterr().err,
        )


class TestDefaultPolicyCliParity:
    """The refactored default loop vs the pre-refactor CLI fixtures."""

    @pytest.mark.parametrize("backend", list_backends())
    def test_seed2_transcript_matches_fixture(self, backend, capsys):
        assert (
            main(
                [
                    "--seed",
                    "2",
                    "tune",
                    "MDWorkbench_8K",
                    "--backend",
                    backend,
                    "--transcript",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        with open(f"{FIXTURE_DIR}/policy_parity_{backend}.txt") as handle:
            assert out == handle.read()


class TestPolicyParityFixtures:
    """Every non-default policy vs fixtures captured before the model I/O
    moved to the task table and the per-session conversation view."""

    @pytest.mark.parametrize("backend", list_backends())
    @pytest.mark.parametrize("policy", ["react", "propose_critic"])
    def test_seed2_transcript_matches_fixture(self, policy, backend, capsys):
        argv = ["--seed", "2", "tune", "MDWorkbench_8K", "--backend", backend]
        assert main([*argv, "--policy", policy, "--transcript"]) == 0
        out = capsys.readouterr().out
        with open(f"{FIXTURE_DIR}/policy_parity_{policy}_{backend}.txt") as handle:
            assert out == handle.read()

    @pytest.mark.parametrize("policy", list_policies())
    @pytest.mark.parametrize("backend", list_backends())
    def test_seed2_queue_matches_digest(self, backend, policy):
        """Every session dict of a seed-2 engine's four-workload queue, then
        its journal; sessions carry token usage and cached tokens, so the
        digest pins the token count of every prompt byte."""
        with open(f"{FIXTURE_DIR}/policy_queue_sha256.json") as handle:
            expected = json.load(handle)[f"{backend}/{policy}"]
        fingerprint = "\n".join(queue_fingerprint(backend, policy, 2))
        assert hashlib.sha256(fingerprint.encode()).hexdigest() == expected

    @pytest.mark.parametrize("policy", list_policies())
    @pytest.mark.parametrize("backend", list_backends())
    def test_seed2_faulted_queue_matches_digest(self, backend, policy):
        """The same queue under a 10% plan on every site; the sessions'
        fault-recovery counts and ``llm_retries`` usage pin every absorbed
        fault and what its failed attempts were charged."""
        with open(f"{FIXTURE_DIR}/policy_queue_sha256.json") as handle:
            expected = json.load(handle)[f"{backend}/{policy}/faulted"]
        fingerprint = "\n".join(
            queue_fingerprint(
                backend,
                policy,
                2,
                faults=FaultPlan.uniform(0.1, seed=2),
                retry=RetryPolicy(max_retries=10, timeout_budget=1000.0),
            )
        )
        assert hashlib.sha256(fingerprint.encode()).hexdigest() == expected


class TestPolicyBehavior:
    @pytest.mark.parametrize("policy", ["react", "propose_critic"])
    def test_deterministic_and_improving(self, engine, policy):
        workload = get_workload("MDWorkbench_8K")
        first = engine.fresh_copy().tune(workload, seed=5, policy=policy)
        second = engine.fresh_copy().tune(workload, seed=5, policy=policy)
        assert_sessions_byte_identical(first, second)
        assert first.best_speedup > 1.0

    @pytest.mark.parametrize("policy", ["react", "propose_critic"])
    def test_attempts_align_with_reflection(self, engine, policy):
        """Policies park evaluations; they never perturb probe draws."""
        workload = get_workload("MDWorkbench_8K")
        base = engine.fresh_copy().tune(workload, seed=5)
        other = engine.fresh_copy().tune(workload, seed=5, policy=policy)
        base_attempts = [(a.changes, a.seconds) for a in base.attempts]
        other_attempts = [(a.changes, a.seconds) for a in other.attempts]
        # Every attempt the policy *did* run matches an attempt the
        # reflection loop ran, in order (the critic may skip some).
        it = iter(base_attempts)
        assert all(attempt in it for attempt in other_attempts)
        assert other.best_speedup >= 1.0

    def test_react_transcript_interleaves_thoughts(self, engine):
        session = engine.fresh_copy().tune(
            get_workload("IOR_16M"), seed=5, policy="react"
        )
        thoughts = session.transcript.of_kind("react_thought")
        assert thoughts
        assert session.transcript.of_kind("end_tuning")
        assert any(t.detail.startswith("FINAL:") for t in thoughts)

    def test_critic_vetoes_speculative_exploration(self):
        """Seed 15 on lustre IOR_64K makes the reflection loop explore
        speculatively; the critic parks that probe run."""
        cluster = make_cluster(backend="lustre")
        engine = Stellar.build(cluster, seed=0)
        workload = get_workload("IOR_64K")
        base = engine.fresh_copy().tune(workload, seed=15)
        assert any(
            a.rationale.startswith(SPECULATIVE_RATIONALE_PREFIX)
            for a in base.attempts
        )
        critic = engine.fresh_copy().tune(
            workload, seed=15, policy="propose_critic"
        )
        vetoes = critic.transcript.of_kind("critic_veto")
        assert vetoes and "speculative" in vetoes[0].detail
        assert not any(
            a.rationale.startswith(SPECULATIVE_RATIONALE_PREFIX)
            for a in critic.attempts
        )
        # The parked probe run never shifts seeds: the shared attempts and
        # the winning configuration are unchanged.
        assert critic.best_speedup == base.best_speedup
        assert "critic" in critic.usage


class TestReviewProposal:
    PARAMS = [
        ParameterInfo(
            name="osc.max_rpcs_in_flight",
            default=8,
            min_expr="1",
            max_expr="64",
        ),
        ParameterInfo(
            name="lov.stripe_count",
            default=1,
            min_expr="-1",
            max_expr="n_osts",
        ),
    ]

    def test_vetoes_speculative_rationale(self):
        verdict = review_proposal(
            {"osc.max_rpcs_in_flight": 16},
            SPECULATIVE_RATIONALE_PREFIX + " reduces readahead pressure.",
            self.PARAMS,
        )
        assert verdict.startswith("VETO:")

    def test_amends_out_of_range_value(self):
        verdict = review_proposal(
            {"osc.max_rpcs_in_flight": 1024},
            "Deeper RPC pipelining should hide server latency.",
            self.PARAMS,
        )
        head, _, body = verdict.partition("\n")
        assert head == "AMEND"
        assert json.loads(body) == {"osc.max_rpcs_in_flight": 64}

    def test_expression_bounds_left_to_runner(self):
        verdict = review_proposal(
            {"lov.stripe_count": 999},
            "Wider striping should spread the load.",
            self.PARAMS,
        )
        assert verdict == "APPROVE"

    def test_approves_grounded_in_range_proposal(self):
        verdict = review_proposal(
            {"osc.max_rpcs_in_flight": 32},
            "The report shows RPC queue saturation.",
            self.PARAMS,
        )
        assert verdict == "APPROVE"


class ScriptedClient:
    """Replays canned tool turns and critic verdicts; answers reflections
    with fixed text."""

    def __init__(self, turns, reflection="[]", verdicts=()):
        self.turns = list(turns)
        self.reflection = reflection
        self.verdicts = list(verdicts)

    def complete(self, messages, tools=None, agent="generic", session=None):
        if tools:
            return Completion(tool_calls=[self.turns.pop(0)])
        if agent == "critic":
            return Completion(content=self.verdicts.pop(0))
        return Completion(content=self.reflection)


class StaticRunner:
    """Just enough runner surface for prompt assembly and one probe."""

    initial_seconds = 10.0
    execution_count = 1

    def measure(self, changes):
        return 5.0, dict(changes)


def scripted_agent(
    turns, reflection="[]", runner=None, agent_class=TuningAgent, verdicts=(), **kwargs
):
    return agent_class(
        client=ScriptedClient(turns, reflection=reflection, verdicts=verdicts),
        parameters=[],
        hardware_description="one test node",
        facts={"n_clients": 1.0},
        runner=runner if runner is not None else StaticRunner(),
        report=None,
        **kwargs,
    )


class TestUnknownToolDegradation:
    def test_unknown_tool_skips_turn_and_continues(self):
        agent = scripted_agent(
            [
                ToolCall("fetch_weather", {"city": "Hamburg"}),
                ToolCall("end_tuning", {"reason": "done"}),
            ]
        )
        result = agent.run_loop()
        assert result.end_reason == "done"
        events = agent.transcript.of_kind("unknown_tool")
        assert events and "'fetch_weather'" in events[0].detail
        assert any("unknown tool 'fetch_weather'" in d for d in result.degradations)

    VALID = {"osc.max_rpcs_in_flight": 16}
    INVALID_CHANGES = pytest.mark.parametrize(
        "changes, named",
        [
            ({**VALID, "bogus.param": 4}, "unknown parameter 'bogus.param'"),
            ({**VALID, "max_rpcs_in_flight": 16}, "ambiguous parameter basename"),
            ({**VALID, "lov.version": 3}, "parameter lov.version is read-only"),
            ({**VALID, "osc.max_dirty_mb": "lots"}, "value 'lots' for 'osc.max_dirty_mb'"),
            ({**VALID, "osc.max_dirty_mb": None}, "value None for 'osc.max_dirty_mb'"),
            (16, "changes 16 is not a mapping"),
        ],
        ids=["unknown", "ambiguous", "read-only", "not-int", "none", "not-mapping"],
    )

    @INVALID_CHANGES
    def test_invalid_changes_skip_turn_and_continue(self, changes, named):
        """Changes the runner cannot apply are model output, not a crash:
        one ``invalid_changes`` event, one ``llm.tool:`` degradation, no
        probe, and the loop goes on to the next proposal."""
        self._assert_invalid_changes_absorbed(changes, named, TuningAgent)

    @INVALID_CHANGES
    def test_invalid_changes_skip_critic_and_continue(self, changes, named):
        """Under propose/critic the same proposals reach the run handler,
        which absorbs them.  Changes that are not a mapping of integers
        skip the critic; the critic approves the others, as the runner
        alone knows which names it can set."""
        agent = self._assert_invalid_changes_absorbed(
            changes, named, ProposeCriticAgent, verdicts=["APPROVE", "APPROVE"]
        )
        reviewed = 2 - len(agent.client.verdicts)
        assert reviewed == (1 if coerce_changes(changes)[1] else 2)
        assert not agent.transcript.of_kind("critic_veto")

    def _assert_invalid_changes_absorbed(self, changes, named, agent_class, verdicts=()):
        runner = ConfigurationRunner(make_cluster(), get_workload("IOR_16M"), seed=1)
        runner.initial_execution()
        agent = scripted_agent(
            [
                ToolCall("run_configuration", {"changes": changes}),
                ToolCall("run_configuration", {"changes": self.VALID}),
                ToolCall("end_tuning", {"reason": "done"}),
            ],
            runner=runner,
            agent_class=agent_class,
            verdicts=verdicts,
        )
        result = agent.run_loop()
        assert result.end_reason == "done"
        events = agent.transcript.of_kind("invalid_changes")
        assert len(events) == 1 and named in events[0].detail
        assert len(result.degradations) == 1
        assert result.degradations[0].startswith("llm.tool:")
        assert named in result.degradations[0]
        # Only the valid proposal ran, as the first attempt.
        assert runner.execution_count == 2
        assert [a.changes for a in result.attempts] == [self.VALID]
        return agent

    @pytest.mark.parametrize(
        "verdict",
        [
            "AMEND\nnot json",
            "AMEND",
            "AMEND\n[1, 2]",
            'AMEND\n{"osc.max_rpcs_in_flight": "many"}',
        ],
        ids=["not-json", "bare", "not-object", "not-int"],
    )
    def test_malformed_amend_runs_proposal_as_proposed(self, verdict):
        """An AMEND the critic's output parser cannot read falls back like
        an unrecognised verdict: the proposal runs unchanged, with one
        ``critic_malformed`` event and one ``llm.critic:`` degradation."""
        agent = scripted_agent(
            [
                ToolCall("run_configuration", {"changes": self.VALID}),
                ToolCall("end_tuning", {"reason": "done"}),
            ],
            agent_class=ProposeCriticAgent,
            verdicts=[verdict],
        )
        result = agent.run_loop()
        assert result.end_reason == "done"
        assert [a.changes for a in result.attempts] == [self.VALID]
        assert len(agent.transcript.of_kind("critic_malformed")) == 1
        assert not agent.transcript.of_kind("critic_amend")
        assert len(result.degradations) == 1
        assert result.degradations[0].startswith("llm.critic:")


class FixedReply:
    """A merge client whose every reply is ``reply``."""

    def __init__(self, reply):
        self.reply = reply

    def ask(self, prompt, agent, session):
        return self.reply


RULE = {"parameter": "osc.max_dirty_mb", "rule_description": "d", "tuning_context": "c"}


def reflecting_agent(reply):
    """An agent that probes once, ends, and reads ``reply`` as its Reflect &
    Summarize answer."""
    return scripted_agent(
        [
            ToolCall(
                "run_configuration",
                {"changes": {"osc.max_dirty_mb": 256}, "rationale": "x"},
            ),
            ToolCall("end_tuning", {"reason": "done"}),
        ],
        reflection=reply,
        session="tuning:IOR_16M:7",
    )


def rule_reply_error(task, reply):
    """The message of the ``ReflectionFormatError`` that ``reply`` raises as
    a Reflect & Summarize (``task="summarize"``) or rules-merge reply, once
    it is checked to name the agent and the session."""
    if task == "summarize":
        agent = reflecting_agent(reply)
        with pytest.raises(ReflectionFormatError) as exc:
            agent.run_loop()
        assert not agent.transcript.of_kind("reflection")
        named = ("agent 'tuning'", "tuning:IOR_16M:7")
    else:
        with pytest.raises(ReflectionFormatError) as exc:
            merge_rules_via_llm(
                FixedReply(reply),
                [RULE],
                [RULE],
                session="rules-merge:3:1",
                agent="rules_merge",
            )
        named = ("agent 'rules_merge'", "rules-merge:3:1")
    message = str(exc.value)
    assert all(part in message for part in named), message
    return message


class TestReflectionFormatError:
    def test_malformed_payload_names_agent_and_session(self):
        message = rule_reply_error("summarize", "here are some rules!")
        assert "line 1" in message and "column" in message

    @pytest.mark.parametrize(
        "payload",
        ["5", "null", '{"parameter": "x"}', "[1, 2]"],
        ids=["number", "null", "object", "list-of-numbers"],
    )
    def test_non_rule_list_payload_names_agent_and_session(self, payload):
        """Valid JSON that is not a list of rule objects is rejected at the
        boundary, not by a stray ``TypeError`` or later in the journal."""
        message = rule_reply_error("summarize", payload)
        assert "not a JSON list of objects" in message

    def test_merge_reply_must_be_a_rule_list(self):
        for reply in ("the merged rules are attached", '{"parameter": "x"}'):
            rule_reply_error("merge", reply)

    @pytest.mark.parametrize("task", ["summarize", "merge"])
    def test_string_recommended_value_is_refused(self, task):
        """A rule the journal could not load back is refused at the reply."""
        reply = '[{"parameter": "osc.max_rpcs_in_flight", "recommended_value": "64"}]'
        message = rule_reply_error(task, reply)
        assert (
            "rule 0 is invalid: rule field 'recommended_value' is not a number "
            "or null: '64'"
        ) in message

    @pytest.mark.parametrize("task", ["summarize", "merge"])
    @pytest.mark.parametrize(
        "field, key, value",
        [
            ("parameter", "Parameter", ""),
            ("rule_description", "rule_description", 5),
            ("tuning_context", "Tuning Context", None),
            ("context_tags", "context_tags", ["io", 3]),
            ("recommended_value", "recommended_value", [64]),
            ("observed_speedup", "observed_speedup", True),
            ("alternative", "alternative", "yes"),
        ],
        ids=[
            "parameter",
            "rule_description",
            "tuning_context",
            "context_tags",
            "recommended_value",
            "observed_speedup",
            "alternative",
        ],
    )
    def test_ill_typed_field_names_rule_index_and_key(self, task, field, key, value):
        bad = {k: v for k, v in RULE.items() if k != field}
        bad[key] = value
        message = rule_reply_error(task, json.dumps([RULE, bad]))
        assert f"rule 1 is invalid: rule field {key!r} is not" in message

    def test_well_typed_rules_parse_under_either_spelling(self):
        rules = [
            {
                **RULE,
                "context_tags": ["io"],
                "recommended_value": 256,
                "observed_speedup": 1.5,
                "alternative": True,
            },
            {
                "Parameter": "lov.stripe_count",
                "Rule Description": "d",
                "Tuning Context": "c",
            },
            {"parameter": "llite.max_read_ahead_mb", "recommended_value": None},
        ]
        reply = json.dumps(rules)
        assert reflecting_agent(reply).run_loop().rules_json == rules
        merged = merge_rules_via_llm(
            FixedReply(reply), [RULE], [RULE], session="s", agent="rules_merge"
        )
        assert merged == rules


class ExhaustedRunner:
    """Proxies a real runner but every probe exhausts its fault budget."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def initial_seconds(self):
        return self.inner.initial_seconds

    @property
    def execution_count(self):
        return self.inner.execution_count

    def measure(self, changes):
        raise FaultBudgetExhausted(site="probe.run", key="probe:0:1", attempts=5)


class TestPolicyFaultInteraction:
    PLAN = FaultPlan.uniform(0.05, seed=3)

    @pytest.mark.parametrize("policy", list_policies())
    def test_deterministic_under_nonzero_plan(self, engine, policy):
        workload = get_workload("MDWorkbench_8K")
        runs = []
        for _ in range(2):
            faulty = Stellar(
                cluster=engine.cluster,
                model=engine.model,
                extraction=engine.extraction,
                seed=0,
                faults=self.PLAN,
                policy=policy,
            )
            runs.append(faulty.tune(workload, seed=5))
        assert_sessions_byte_identical(*runs)

    @pytest.mark.parametrize("policy", list_policies())
    def test_zero_fault_plan_matches_no_plane(self, engine, policy):
        workload = get_workload("MDWorkbench_8K")
        planned = Stellar(
            cluster=engine.cluster,
            model=engine.model,
            extraction=engine.extraction,
            seed=0,
            faults=FaultPlan.none(),
            policy=policy,
        ).tune(workload, seed=5)
        bare = Stellar(
            cluster=engine.cluster,
            model=engine.model,
            extraction=engine.extraction,
            seed=0,
            policy=policy,
        ).tune(workload, seed=5)
        assert_sessions_byte_identical(planned, bare)

    @pytest.mark.parametrize("policy", list_policies())
    def test_probe_exhaustion_degrades_not_crashes(self, engine, policy):
        state = build_state(engine, "MDWorkbench_8K", max_attempts=2, policy=policy)
        state.runner = ExhaustedRunner(state.runner)
        result = AgentLoopStage().run(state).loop
        assert not result.attempts
        assert result.degradations
        assert all("probe.run" in d for d in result.degradations)
        assert result.end_reason == (
            "tuning degraded: probe failures consumed the turn budget"
        )


MIXED_POLICY_FLEET = [
    TenantSpec("acme-data", backend="lustre", workloads=("IOR_16M",), seed=21),
    TenantSpec(
        "acme-meta",
        backend="lustre",
        workloads=("MDWorkbench_8K",),
        seed=22,
        policy="react",
    ),
    TenantSpec(
        "globex",
        backend="beegfs",
        workloads=("IOR_64K",),
        seed=23,
        policy="propose_critic",
    ),
]


class TestPolicyFleetDimension:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="badco.*chain_of_thought"):
            TenantSpec(
                "badco",
                workloads=("IOR_16M",),
                policy="chain_of_thought",
            )

    def test_render_row_marks_non_default_policy(self):
        result = FleetScheduler(
            MIXED_POLICY_FLEET, seed=0, max_workers=1
        ).run()
        rows = {t.tenant_id: t.render_row() for t in result.tenants}
        assert "policy=" not in rows["acme-data"]
        assert "policy=react" in rows["acme-meta"]
        assert "policy=propose_critic" in rows["globex"]

    def test_mixed_policy_worker_invariance(self):
        baseline = fleet_fingerprint(
            FleetScheduler(MIXED_POLICY_FLEET, seed=0, max_workers=1).run()
        )
        pooled = FleetScheduler(MIXED_POLICY_FLEET, seed=0, max_workers=2).run()
        assert fleet_fingerprint(pooled) == baseline

    def test_mixed_policy_batching_parity(self):
        """The batch fleet at one worker equals the streamed daemon at two."""
        batch = FleetScheduler(MIXED_POLICY_FLEET, seed=0, max_workers=1).run()
        service = TuningService(seed=0, max_workers=2, pump_interval=None)
        for spec in reversed(MIXED_POLICY_FLEET):
            assert service.submit(spec).accepted
        streamed = [o.tenant_id for o in service.iter_results()]
        assert streamed == [t.tenant_id for t in batch.tenants]
        assert fleet_fingerprint(service.drain()) == fleet_fingerprint(batch)

    def test_faulted_mixed_policy_worker_invariance(self):
        plan = FaultPlan.uniform(0.05, seed=3)
        baseline = fleet_fingerprint(
            FleetScheduler(
                MIXED_POLICY_FLEET, seed=0, max_workers=1, faults=plan
            ).run()
        )
        pooled = FleetScheduler(
            MIXED_POLICY_FLEET, seed=0, max_workers=2, faults=plan
        ).run()
        assert fleet_fingerprint(pooled) == baseline


class TestPolicyExperiment:
    def test_single_backend_deterministic(self):
        from repro.experiments import policies

        first = policies.run(seed=0, backends=("lustre",), max_workers=1)
        second = policies.run(seed=0, backends=("lustre",), max_workers=2)
        assert first.render() == second.render()

    def test_every_policy_improves_in_every_cell(self):
        from repro.experiments import policies

        report = policies.run(seed=0)
        assert report.cells and report.policies == list_policies()
        for policy in report.policies:
            assert report.wins(policy) == len(report.cells), policy
        assert report.sweeping_policies == len(report.policies)
        assert (
            f"{len(report.policies)}/{len(report.policies)} policies "
            "improve on defaults in every cell"
        ) in report.render()

    def test_cli_policies_command(self, capsys):
        assert main(["--seed", "2", "policies", "--backend", "lustre"]) == 0
        out = capsys.readouterr().out
        assert "3/3 policies improve on defaults in every cell" in out

    def test_cli_tune_policy_flag(self, capsys):
        assert main(["tune", "IOR_16M", "--policy", "propose_critic"]) == 0
        out = capsys.readouterr().out
        assert "best speedup" in out
