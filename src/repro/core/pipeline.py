"""The staged session pipeline: one Tuning Run as explicit stages.

``Stellar.tune`` used to be one monolithic method; it is now a
:class:`SessionPipeline` — an ordered list of small stage objects, each
taking and returning a :class:`SessionState`.  The decomposition is purely
structural: driving the default stages over a state produces byte-identical
transcripts and sessions to the former inline body (guarded by
``tests/test_pipeline.py`` for every registered backend).

Stages, in order:

1. :class:`ClientSetupStage` — usage ledger, model clients, transcript;
2. :class:`InitialExecutionStage` — runner + instrumented first run with
   Darshan capture;
3. :class:`AnalysisStage` — the Analysis Agent's initial I/O Report
   (skipped under the ``use_analysis=False`` ablation);
4. :class:`ParameterSelectionStage` — tunable surface and hardware facts;
5. :class:`AgentLoopStage` — the Tuning Agent's trial-and-error loop;
6. :class:`SessionAssemblyStage` — the :class:`TuningSession` record.

The contract that keeps stages composable (and the service layer sane):
stages communicate ONLY through :class:`SessionState` fields, never through
module globals, and they read cluster configuration only through facts and
roles (``cluster.config_facts()`` / ``config.role(...)``), never by
backend-specific parameter name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.agents.analysis import AnalysisAgent
from repro.agents.policies import POLICIES
from repro.agents.transcript import Transcript
from repro.agents.tuning import TuningLoopResult
from repro.cluster.hardware import ClusterSpec
from repro.core.runner import ConfigurationRunner
from repro.core.session import TuningSession
from repro.corpus import render_hardware_doc
from repro.darshan import DarshanLog, parse_log
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.llm.client import LLMClient
from repro.llm.promptparse import IOReport, ParameterInfo
from repro.llm.tokens import UsageLedger
from repro.pfs.simulator import RunResult
from repro.rag.extraction import ExtractionResult
from repro.workloads.base import Workload


@dataclass
class SessionState:
    """Everything one Tuning Run reads and produces, stage by stage.

    The first block is the request (filled by the engine before the pipeline
    starts); the rest is populated by the stages in order.  A field is only
    ever written by one stage, so the dataclass doubles as the pipeline's
    dependency graph.
    """

    # -- request (engine-provided) -------------------------------------
    cluster: ClusterSpec
    workload: Workload
    model: str
    analysis_model: str
    extraction: ExtractionResult
    run_seed: int
    rules_json: list[dict] = field(default_factory=list)
    max_attempts: int = 5
    use_descriptions: bool = True
    use_analysis: bool = True
    user_accessible_only: bool = False
    faults: FaultPlan | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Turn-taking strategy for the agent loop: a registered policy name
    #: (see :data:`repro.agents.policies.POLICIES`), or ``None`` for the
    #: default reflection loop.
    policy: str | None = None

    # -- ClientSetupStage ----------------------------------------------
    ledger: UsageLedger | None = None
    tuning_client: LLMClient | None = None
    analysis_client: LLMClient | None = None
    transcript: Transcript | None = None

    # -- InitialExecutionStage -----------------------------------------
    runner: ConfigurationRunner | None = None
    initial_run: RunResult | None = None
    darshan_log: DarshanLog | None = None

    # -- AnalysisStage --------------------------------------------------
    analysis_agent: AnalysisAgent | None = None
    report: IOReport | None = None

    # -- ParameterSelectionStage ---------------------------------------
    parameters: list[ParameterInfo] = field(default_factory=list)
    facts: dict[str, float] = field(default_factory=dict)

    # -- AgentLoopStage -------------------------------------------------
    loop: TuningLoopResult | None = None

    # -- any stage (graceful fallbacks under injected faults) -----------
    degradations: list[str] = field(default_factory=list)

    # -- SessionAssemblyStage -------------------------------------------
    session: TuningSession | None = None


class SessionStage(Protocol):
    """One step of a Tuning Run; mutates and returns the state."""

    name: str

    def run(self, state: SessionState) -> SessionState: ...


class ClientSetupStage:
    """Usage ledger, the two model clients and the transcript.

    Both clients share one ledger so the session's usage accounting spans
    every agent; each client owns an independent RNG stream derived from the
    run seed, so stage order never perturbs model draws.  Both consult the
    session's fault plan (none means the inert one) before every request.
    """

    name = "clients"

    def run(self, state: SessionState) -> SessionState:
        state.ledger = UsageLedger()
        state.tuning_client, state.analysis_client = (
            LLMClient(
                model,
                seed=state.run_seed,
                ledger=state.ledger,
                faults=state.faults,
                retry=state.retry,
            )
            for model in (state.model, state.analysis_model)
        )
        state.transcript = Transcript()
        return state


class InitialExecutionStage:
    """Instrumented first execution under defaults, with Darshan capture."""

    name = "initial_execution"

    def run(self, state: SessionState) -> SessionState:
        state.runner = ConfigurationRunner(
            state.cluster,
            state.workload,
            seed=state.run_seed,
            faults=state.faults,
            retry=state.retry,
        )
        state.initial_run, state.darshan_log = state.runner.initial_execution()
        state.transcript.add(
            "initial_run",
            f"{state.workload.name} under defaults: "
            f"{state.initial_run.seconds:.2f}s",
            seconds=state.initial_run.seconds,
        )
        if state.darshan_log.lost_ranks:
            kept = state.darshan_log.nprocs - state.darshan_log.lost_ranks
            state.transcript.add(
                "darshan_coverage",
                f"darshan capture truncated: {kept}/{state.darshan_log.nprocs} "
                f"rank(s) survive ({state.darshan_log.coverage:.0%} coverage); "
                "analysis proceeds over surviving ranks",
                coverage=state.darshan_log.coverage,
            )
            state.degradations.append(
                f"darshan.truncate: {kept}/{state.darshan_log.nprocs} ranks"
            )
        return state


class AnalysisStage:
    """The Analysis Agent distills the Darshan log into the I/O Report."""

    name = "analysis"

    def run(self, state: SessionState) -> SessionState:
        if not state.use_analysis:
            return state
        parsed = parse_log(state.darshan_log)
        state.analysis_agent = AnalysisAgent(
            state.analysis_client,
            parsed,
            transcript=state.transcript,
            session=f"analysis:{state.workload.name}:{state.run_seed}",
        )
        state.report = state.analysis_agent.initial_report()
        return state


class ParameterSelectionStage:
    """The tunable surface and the hardware facts the agent reasons over."""

    name = "parameters"

    def run(self, state: SessionState) -> SessionState:
        selected = state.extraction.selected
        if state.user_accessible_only:
            registry = state.cluster.backend.registry
            selected = [p for p in selected if registry[p.name].user_settable]
        state.parameters = [
            p.to_info(include_description=state.use_descriptions) for p in selected
        ]
        facts = {
            name: float(value)
            for name, value in state.cluster.config_facts().items()
        }
        facts["n_clients"] = float(state.cluster.n_clients)
        state.facts = facts
        return state


class AgentLoopStage:
    """The agent loop, run by the agent class the state's policy names.

    ``None`` names the reflection loop
    (:class:`~repro.agents.tuning.TuningAgent`).  Every policy's class is
    built from the same state fields, so policies differ only in their
    turn-taking strategy.
    """

    name = "agent_loop"

    def run(self, state: SessionState) -> SessionState:
        agent_class = POLICIES["reflection" if state.policy is None else state.policy]
        agent = agent_class(
            client=state.tuning_client,
            parameters=state.parameters,
            hardware_description=render_hardware_doc(state.cluster),
            facts=state.facts,
            runner=state.runner,
            report=state.report,
            analysis_agent=state.analysis_agent,
            rules_json=state.rules_json,
            max_attempts=state.max_attempts,
            transcript=state.transcript,
            session=f"tuning:{state.workload.name}:{state.run_seed}",
            fs_family=state.cluster.backend.fs_family,
        )
        state.loop = agent.run_loop()
        return state


class SessionAssemblyStage:
    """Assemble the :class:`TuningSession` record from the run's artifacts."""

    name = "assemble"

    def run(self, state: SessionState) -> SessionState:
        fault_recovery: dict[str, int] = {}
        for source in (state.tuning_client, state.analysis_client, state.runner):
            for site, count in source.fault_counts.items():
                fault_recovery[site] = fault_recovery.get(site, 0) + count
        state.session = TuningSession(
            workload=state.workload.name,
            model=state.model,
            initial_seconds=state.runner.initial_seconds,
            attempts=state.loop.attempts,
            end_reason=state.loop.end_reason,
            rules_json=state.loop.rules_json,
            transcript=state.transcript,
            executions=state.runner.execution_count,
            usage=dict(state.ledger.per_agent),
            llm_latency=state.ledger.wall_latency,
            degradations=[*state.degradations, *state.loop.degradations],
            fault_recovery=dict(sorted(fault_recovery.items())),
        )
        return state


@dataclass(frozen=True)
class SessionPipeline:
    """An ordered, immutable sequence of session stages."""

    stages: tuple[SessionStage, ...]

    def run(self, state: SessionState) -> SessionState:
        for stage in self.stages:
            state = stage.run(state)
        return state

    @classmethod
    def default(cls) -> "SessionPipeline":
        return cls(
            stages=(
                ClientSetupStage(),
                InitialExecutionStage(),
                AnalysisStage(),
                ParameterSelectionStage(),
                AgentLoopStage(),
                SessionAssemblyStage(),
            )
        )


#: The canonical pipeline ``Stellar.tune`` drives.  Stages are stateless, so
#: one shared instance serves every engine in the process.
SESSION_PIPELINE = SessionPipeline.default()
