"""The Tuning Agent (§4.3.2): the primary controller of the tuning loop.

Each turn, the agent assembles its full context — tunable parameters,
hardware, the global rule set, the I/O report and the tuning history — and
asks the model for its next environment interaction via three tools:

- ``analysis_question`` — delegate a specific question to the Analysis Agent
  (the minor loop);
- ``run_configuration`` — apply a configuration and rerun the application,
  observing real performance feedback;
- ``end_tuning`` — conclude, with justification, when further tuning is not
  expected to help.

Prompt sections are ordered stable-first so the provider prompt cache hits
on the shared prefix every turn (§5.7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.agents.analysis import AnalysisAgent
from repro.agents.transcript import Transcript
from repro.faults.retry import FaultBudgetExhausted
from repro.llm import promptparse as pp
from repro.llm.api import ChatMessage, ToolSpec
from repro.llm.client import LLMClient
from repro.llm.tasks import (  # noqa: F401 - ReflectionFormatError is re-exported
    SUMMARIZE_RULES,
    TASKS,
    ReflectionFormatError,
    coerce_changes,
)

TOOLS = [
    ToolSpec(
        name="analysis_question",
        description=(
            "Ask the Analysis Agent to run additional analysis over the "
            "application's Darshan trace."
        ),
        parameters={"question": "the specific analysis question"},
    ),
    ToolSpec(
        name="run_configuration",
        description=(
            "Apply a set of parameter values and rerun the target "
            "application to measure performance."
        ),
        parameters={
            "changes": "mapping of parameter name to value",
            "rationale": "documented reasoning for each value",
        },
    ),
    ToolSpec(
        name="end_tuning",
        description=(
            "Conclude the tuning process; only when further tuning is not "
            "expected to deliver additional gains."
        ),
        parameters={"reason": "justification for stopping"},
    ),
]

def system_prompt(fs_family: str = "Lustre") -> str:
    """The Tuning Agent's system prompt, naming the target file system."""
    return (
        f"You are the Tuning Agent of STELLAR, an autonomous tuner for a "
        f"{fs_family} parallel file system. Generate high-quality "
        "configurations, observe measured performance, and reflect on the "
        "outcomes. When generating a configuration, document the rationale "
        "behind each value. Finalize the process only when you believe "
        "further tuning would not elicit further performance gains, and "
        "justify the decision."
    )


class InvalidChanges(KeyError):
    """A proposal names parameters the runner cannot set: unknown or
    ambiguous names, or read-only parameters.  Raised before anything runs;
    ``entries`` holds one message per bad name.  A ``KeyError``, as the
    runner's rejection of unknown names always was."""

    def __init__(self, entries: list[str]):
        super().__init__("; ".join(entries))
        self.entries = entries

    def __str__(self) -> str:
        return self.args[0]


class ConfigurationRunnerLike(Protocol):
    """What the Tuning Agent needs from the environment."""

    initial_seconds: float

    def measure(self, changes: dict[str, int]) -> tuple[float, dict[str, int]]:
        """Run with changes applied; returns (seconds, applied_changes).

        Raises :class:`InvalidChanges` for names it cannot set."""
        ...


@dataclass
class TuningLoopResult:
    """Raw outcome of the agent loop.

    ``degradations`` records graceful fallbacks under injected faults —
    a probe whose retry budget ran dry abandons that attempt (the agent
    keeps its last-good configuration) instead of killing the session.
    """

    attempts: list[pp.AttemptRecord] = field(default_factory=list)
    end_reason: str = ""
    rules_json: list[dict] = field(default_factory=list)
    followups: dict[str, str] = field(default_factory=dict)
    degradations: list[str] = field(default_factory=list)


class TuningAgent:
    """Drives the trial-and-error loop for one application.

    Subclasses (the alternative agent policies in
    :mod:`repro.agents.policies`) reuse the prompt assembly
    (:meth:`_sections`), the tool dispatch (:meth:`_dispatch`) and the
    Reflect & Summarize step; only the turn-taking strategy differs.
    """

    #: Safety-valve headroom beyond ``max_attempts`` tool turns; policies
    #: that spend turns on non-attempt work (e.g. critic vetoes) raise it.
    EXTRA_TURNS = 6

    def __init__(
        self,
        client: LLMClient,
        parameters: list[pp.ParameterInfo],
        hardware_description: str,
        facts: dict[str, float],
        runner: ConfigurationRunnerLike,
        report: pp.IOReport | None,
        analysis_agent: AnalysisAgent | None = None,
        rules_json: list[dict] | None = None,
        max_attempts: int = 5,
        transcript: Transcript | None = None,
        session: str = "tuning",
        fs_family: str = "Lustre",
    ):
        self.client = client
        self._system = system_prompt(fs_family)
        self.parameters = parameters
        self.hardware_description = hardware_description
        self.facts = facts
        self.runner = runner
        self.report = report
        self.analysis_agent = analysis_agent
        self.rules_json = list(rules_json or [])
        self.max_attempts = max_attempts
        self.transcript = transcript if transcript is not None else Transcript()
        self.session = session
        # The hardware, parameter and rules sections never change within a
        # run; build each once instead of on every model turn (the rules
        # section in particular re-serializes the whole rule set as JSON).
        self._static_sections = [
            pp.build_hardware_section(self.hardware_description, self.facts),
            pp.build_parameter_section(self.parameters),
        ]
        self._rules_section = pp.build_rules_section(self.rules_json)
        # The report section changes only when a follow-up answer lands in
        # the report, and each attempt adds one history line; both are
        # rendered once per change rather than on every turn.
        self._report_section: str | None = None
        self._history: tuple[TuningLoopResult | None, list[str]] = (None, [])

    # ------------------------------------------------------------------
    def run_loop(self) -> TuningLoopResult:
        result = TuningLoopResult()
        # Safety valve: tool turns are bounded by attempts + a few
        # analysis/ending turns.
        for _ in range(self.max_attempts + self.EXTRA_TURNS):
            completion = self.client.complete(
                self._messages(result),
                tools=TOOLS,
                agent="tuning",
                session=self.session,
            )
            call = completion.called
            if call is None:
                result.end_reason = "model returned no tool call"
                break
            if self._dispatch(call, result):
                break
        if not result.end_reason and result.degradations:
            result.end_reason = (
                "tuning degraded: probe failures consumed the turn budget"
            )
        result.rules_json = self._reflect(result)
        return result

    # ------------------------------------------------------------------
    def _dispatch(self, call, result: TuningLoopResult) -> bool:
        """Route one tool call; returns True when the loop should end.

        An unknown tool name is absorbed as a degradation (structured
        transcript event, loop continues) rather than killing the session —
        the same contract probe failures follow under injected faults.
        """
        if call.name == "analysis_question":
            self._handle_analysis(call.arguments.get("question", ""), result)
        elif call.name == "run_configuration":
            self._handle_run(call.arguments, result)
        elif call.name == "end_tuning":
            result.end_reason = call.arguments.get("reason", "")
            self.transcript.add("end_tuning", result.end_reason)
            return True
        else:
            self.transcript.add(
                "unknown_tool",
                f"model called unknown tool {call.name!r}; turn skipped",
                tool=call.name,
            )
            result.degradations.append(
                f"llm.tool: unknown tool {call.name!r} skipped"
            )
        return False

    def _handle_analysis(self, question: str, result: TuningLoopResult) -> None:
        if self.analysis_agent is None or self.report is None:
            answer = "analysis unavailable"
            if self.report is not None:
                self.report.followups[question] = answer
                self._report_section = None
            result.followups[question] = answer
            self.transcript.add("followup", f"Q: {question} -> unavailable")
            return
        answer, metrics = self.analysis_agent.answer(question)
        self.report.followups[question] = answer
        self.report.metrics.update(metrics)
        self._report_section = None
        result.followups[question] = answer

    def _handle_run(self, arguments: dict, result: TuningLoopResult) -> None:
        requested, invalid = coerce_changes(arguments.get("changes", {}))
        rationale = str(arguments.get("rationale", ""))
        try:
            if invalid:
                raise InvalidChanges(invalid)
            seconds, applied = self.runner.measure(requested)
        except InvalidChanges as exc:
            # Model output the runner cannot apply: skip the turn without
            # a probe, like an unknown tool.
            self.transcript.add(
                "invalid_changes",
                f"run_configuration rejected: {exc}; turn skipped",
                entries=exc.entries,
            )
            result.degradations.append(
                f"llm.tool: run_configuration with invalid changes skipped ({exc})"
            )
            return
        except FaultBudgetExhausted as exc:
            # Graceful degradation: abandon this attempt, keep the
            # last-good configuration, and let the loop continue.
            self.transcript.add(
                "probe_failed",
                f"probe failed after {exc.attempts} attempt(s) ({exc.site}); "
                "keeping last-good configuration",
                changes=requested,
            )
            result.degradations.append(
                f"probe.run: attempt with {sorted(requested)} abandoned"
            )
            return
        speedup = self.runner.initial_seconds / seconds if seconds > 0 else 0.0
        attempt = pp.AttemptRecord(
            index=len(result.attempts) + 1,
            changes=applied,
            seconds=seconds,
            speedup=speedup,
            rationale=rationale,
        )
        result.attempts.append(attempt)
        self.transcript.add(
            "config",
            f"attempt {attempt.index}: {applied} -> {seconds:.2f}s "
            f"({speedup:.2f}x)",
            rationale=rationale,
            changes=applied,
            seconds=seconds,
            speedup=speedup,
        )

    # ------------------------------------------------------------------
    def _report_and_history(self, result: TuningLoopResult) -> list[str]:
        """The I/O report (if any) and tuning history sections."""
        sections = []
        if self.report is not None:
            if self._report_section is None:
                self._report_section = pp.build_io_report_section(self.report)
            sections.append(self._report_section)
        owner, lines = self._history
        if owner is not result:
            lines = []
            self._history = (result, lines)
        lines.extend(pp.history_line(a) for a in result.attempts[len(lines):])
        sections.append(pp.join_history_section(self.runner.initial_seconds, lines))
        return sections

    def _sections(self, result: TuningLoopResult) -> list[str]:
        """The prompt sections of one tool turn, stable-prefix first."""
        sections = [
            *self._static_sections,
            self._rules_section,
            *self._report_and_history(result),
        ]
        sections.append(
            f"You may try at most {self.max_attempts} configurations. "
            "Choose your next action."
        )
        return sections

    def _messages(self, result: TuningLoopResult) -> list[ChatMessage]:
        return [
            ChatMessage(role="system", content=self._system),
            ChatMessage(role="user", content="\n\n".join(self._sections(result))),
        ]

    def _reflect(self, result: TuningLoopResult) -> list[dict]:
        """Reflect & Summarize: distill the run into rules (§4.4)."""
        if not result.attempts:
            return []
        sections = [*self._static_sections, *self._report_and_history(result)]
        sections.append(
            f"{SUMMARIZE_RULES}\n"
            "Summarize what was learned during this tuning run as a strict "
            "JSON rule set (a list of objects with parameter, "
            "rule_description and tuning_context). Exclude the application "
            "name; make recommendations general rather than specific."
        )
        content = self.client.complete(
            [
                ChatMessage(role="system", content=self._system),
                ChatMessage(role="user", content="\n\n".join(sections)),
            ],
            agent="tuning",
            session=self.session,
        ).content
        rules = TASKS[SUMMARIZE_RULES].read(content, "tuning", self.session)
        self.transcript.add(
            "reflection", f"distilled {len(rules)} rule(s)", rules=rules
        )
        return rules

