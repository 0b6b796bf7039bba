"""The ReACT policy: explicit REASON | TOOL | HALT decide-then-act turns.

Each cycle the agent first asks the model which *mode* comes next over a
compact running transcript of Thought / Action / Observation lines, then
either writes a thought (a reasoning-only model turn) or takes a real tool
turn through the shared dispatch.  A concluding ``FINAL:`` thought halts
the run with that justification.

Determinism contract: thought turns draw from the model's dedicated
``react`` stream while act turns use the same ``tuning`` stream (and the
exact tool-turn prompt) as the default policy — thinking between actions
never perturbs when probes run, their seeds, or their operand order.
"""

from __future__ import annotations

import json

from repro.agents.tuning import TOOLS, TuningAgent, TuningLoopResult
from repro.llm.api import ChatMessage, ToolCall
from repro.llm.reasoning import (
    REACT_DECIDE_TASK,
    REACT_THOUGHT_TASK,
    build_react_transcript_section,
)
from repro.llm.tasks import REACT_DECIDE, REACT_THOUGHT, TASKS


class ReACTAgent(TuningAgent):
    """Drives the decide-then-act loop for one application."""

    def run_loop(self) -> TuningLoopResult:
        result = TuningLoopResult()
        lines: list[str] = []
        # Each attempt costs at most a decide/thought/decide/act quartet;
        # the budget also bounds a runaway REASON chain.
        for _ in range(4 * self.max_attempts + 16):
            mode = self._decide_mode(lines)
            if mode == "HALT":
                result.end_reason = self._final_reason(lines)
                self.transcript.add("end_tuning", result.end_reason)
                break
            if mode == "REASON":
                thought = self._think(lines, result)
                lines.append(f"Thought: {thought}")
                self.transcript.add("react_thought", thought)
                continue
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
            attempts_before = len(result.attempts)
            if self._dispatch(call, result):
                break
            lines.append(f"Action: {call.name}")
            lines.append(
                f"Observation: {self._observe(call, result, attempts_before)}"
            )
        if not result.end_reason and result.degradations:
            result.end_reason = (
                "tuning degraded: probe failures consumed the turn budget"
            )
        result.rules_json = self._reflect(result)
        return result

    # ------------------------------------------------------------------
    def _decide_mode(self, lines: list[str]) -> str:
        sections = [
            *self._static_sections,
            build_react_transcript_section(lines),
            REACT_DECIDE_TASK,
        ]
        content = self.client.complete(
            [
                ChatMessage(role="system", content=self._system),
                ChatMessage(role="user", content="\n\n".join(sections)),
            ],
            agent="tuning",
            session=self.session,
        ).content
        return TASKS[REACT_DECIDE].parse(content)

    def _think(self, lines: list[str], result: TuningLoopResult) -> str:
        # The thought sees the full tuning context (minus the tool-turn
        # closing instruction) plus the running ReACT transcript.
        sections = self._sections(result)[:-1]
        sections.append(
            f"You may try at most {self.max_attempts} configurations."
        )
        sections.append(build_react_transcript_section(lines))
        sections.append(REACT_THOUGHT_TASK)
        content = self.client.complete(
            [
                ChatMessage(role="system", content=self._system),
                ChatMessage(role="user", content="\n\n".join(sections)),
            ],
            agent="tuning",
            session=self.session,
        ).content
        return TASKS[REACT_THOUGHT].parse(content)

    def _final_reason(self, lines: list[str]) -> str:
        for line in reversed(lines):
            if line.startswith("Thought: FINAL:"):
                return line[len("Thought: FINAL:"):].strip()
        return "the agent concluded the run"

    def _observe(
        self, call: ToolCall, result: TuningLoopResult, attempts_before: int
    ) -> str:
        if call.name == "run_configuration":
            if len(result.attempts) > attempts_before:
                attempt = result.attempts[-1]
                return (
                    f"attempt {attempt.index}: "
                    f"{json.dumps(attempt.changes, sort_keys=True)} -> "
                    f"{attempt.seconds:.2f}s ({attempt.speedup:.2f}x)"
                )
            return "the probe failed; the attempt was abandoned"
        if call.name == "analysis_question":
            question = call.arguments.get("question", "")
            return f"analysis recorded an answer for {question!r}"
        return f"unknown tool {call.name!r} was skipped"
