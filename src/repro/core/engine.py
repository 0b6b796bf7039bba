"""The STELLAR engine: offline extraction + online agentic tuning (§4.1).

``Stellar.build`` runs the offline phase once (RAG over the manual,
producing the filtered tunable-parameter list with accurate descriptions
and dependent ranges).  ``tune`` executes one complete Tuning Run by
driving the staged session pipeline (:mod:`repro.core.pipeline`):

1. initial instrumented execution of the target application (Darshan log);
2. the Analysis Agent distills the log into the I/O Report;
3. the Tuning Agent iterates: optional follow-up analyses, configuration
   proposals executed on the real (simulated) system, feedback, and an
   autonomous end decision — at most ``max_attempts`` configurations;
4. Reflect & Summarize distills rules, which ``accumulate`` appends to the
   versioned rule journal used by subsequent runs.

The ablation switches mirror §5.4: ``use_descriptions=False`` removes the
RAG-generated parameter descriptions (keeping ranges), ``use_analysis=False``
removes the Analysis Agent entirely; ``use_rules`` gates the global rule set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.agents.reflection import merge_rules_via_llm
from repro.cluster.hardware import ClusterSpec
from repro.core.pipeline import SESSION_PIPELINE, SessionState
from repro.core.session import TuningSession
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.llm.client import LLMClient
from repro.llm.tokens import TokenUsage, UsageLedger
from repro.rag.extraction import ExtractionResult, ParameterExtractor
from repro.rules.model import RuleSet
from repro.rules.store import RuleJournal
from repro.sim.random import RngStreams
from repro.workloads.base import Workload


@dataclass
class Stellar:
    """The assembled tuning engine."""

    cluster: ClusterSpec
    model: str
    extraction: ExtractionResult
    seed: int = 0
    analysis_model: str | None = None  # defaults to gpt-4o like the paper
    faults: FaultPlan | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Default turn-taking strategy for every run this engine drives: a
    #: policy name, i.e. a key of :data:`repro.agents.policies.POLICIES`,
    #: whose agent class runs the loop, or ``None`` for the reflection
    #: loop; ``tune(policy=...)`` overrides it per run.
    policy: str | None = None

    def __post_init__(self):
        self.journal = RuleJournal()
        self._run_counter = 0

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        cluster: ClusterSpec,
        model: str = "claude-3.7-sonnet",
        seed: int = 0,
        extraction_model: str = "gpt-4o",
        extraction: ExtractionResult | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ) -> "Stellar":
        """Run (or reuse) the offline phase and assemble the engine."""
        if extraction is None:
            client = LLMClient(extraction_model, seed=seed)
            extraction = ParameterExtractor(cluster, client).run()
        return cls(
            cluster=cluster,
            model=model,
            extraction=extraction,
            seed=seed,
            faults=faults,
            retry=retry if retry is not None else RetryPolicy(),
        )

    # ------------------------------------------------------------------
    @property
    def rule_set(self) -> RuleSet:
        """The merged view of the rule journal (the global rule set)."""
        return self.journal.current

    @rule_set.setter
    def rule_set(self, value: RuleSet) -> None:
        # Adopting a flat rule set replaces the journal with one baseline
        # entry — the compatibility path for persisted snapshots and the
        # experiment harness's ``engine.rule_set = ...`` idiom.
        self.journal = RuleJournal.seeded(value, seed=self.seed)

    # ------------------------------------------------------------------
    def tune(
        self,
        workload: Workload,
        max_attempts: int = 5,
        use_rules: bool = True,
        use_descriptions: bool = True,
        use_analysis: bool = True,
        user_accessible_only: bool = False,
        seed: int | None = None,
        policy: str | None = None,
    ) -> TuningSession:
        """One complete Tuning Run for ``workload``.

        ``user_accessible_only`` restricts the tunable surface to parameters
        a user can set without root privileges (``lfs setstripe`` layout
        settings) — the paper's §5.6 deployment direction for production
        systems where ``/proc`` parameters are off limits.  ``policy``
        selects the agent's turn-taking strategy for this run (a name from
        :func:`repro.agents.policies.list_policies`); ``None`` falls back to
        the engine default, then to the reflection loop.
        """
        self._run_counter += 1
        run_seed = (
            RngStreams.rep_seed(self.seed, self._run_counter)
            if seed is None
            else seed
        )
        state = SessionState(
            cluster=self.cluster,
            workload=workload,
            model=self.model,
            analysis_model=self.analysis_model or "gpt-4o",
            extraction=self.extraction,
            run_seed=run_seed,
            rules_json=self.rule_set.to_json() if use_rules else [],
            max_attempts=max_attempts,
            use_descriptions=use_descriptions,
            use_analysis=use_analysis,
            user_accessible_only=user_accessible_only,
            faults=self.faults,
            retry=self.retry,
            policy=policy if policy is not None else self.policy,
        )
        return SESSION_PIPELINE.run(state).session

    # ------------------------------------------------------------------
    def accumulate(self, session: TuningSession) -> None:
        """Append a run's rules to the journal (LLM-mediated merge).

        The merge step's token usage lands in ``session.usage`` under the
        ``rules_merge`` agent, so session accounting covers the whole
        lifecycle of the run's knowledge, not just its generation.
        """
        if not session.rules_json:
            return
        ledger = UsageLedger()
        basis_version = self.journal.version
        client = LLMClient(
            self.model,
            seed=self.seed,
            ledger=ledger,
            faults=self.faults,
            retry=self.retry,
        )
        merged = merge_rules_via_llm(
            client,
            self.rule_set.to_json(),
            session.rules_json,
            # The merge's fault-draw key must differ per merge and per
            # engine, or every merge in the fleet would fail in lockstep.
            session=f"rules-merge:{self.seed}:{basis_version}",
            agent="rules_merge",
        )
        self.journal.append(
            session.rules_json,
            seed=self.seed,
            snapshot=merged,
            basis_version=basis_version,
        )
        for agent, usage in ledger.per_agent.items():
            session.usage[agent] = session.usage.get(agent, TokenUsage()) + usage
        session.llm_latency += ledger.wall_latency
        for site, count in client.fault_counts.items():
            session.fault_recovery[site] = (
                session.fault_recovery.get(site, 0) + count
            )

    def tune_and_accumulate(self, workload: Workload, **kwargs) -> TuningSession:
        session = self.tune(workload, **kwargs)
        self.accumulate(session)
        return session

    def fresh_copy(self) -> "Stellar":
        """An engine sharing the offline extraction but with empty rules."""
        clone = replace(self)
        clone.journal = RuleJournal()
        clone._run_counter = 0
        return clone
