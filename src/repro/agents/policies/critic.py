"""The propose/critic policy: a second model pass gates every probe run.

The proposer's turn is exactly the default tool turn; when it drafts a
``run_configuration`` the critic reviews the proposal (against the same
hardware and parameter sections, for the shared prompt-cache prefix)
before the probe spends a real execution:

- **APPROVE** — the run proceeds unchanged;
- **VETO: <reason>** — the proposal is recorded in a ``VETOED PROPOSALS``
  prompt section (the proposer treats it as tried, so vetoes can never
  livelock the loop) and the turn ends without a probe run;
- **AMEND** + corrected JSON — the run proceeds with the critic's values;
  an AMEND whose body is not a JSON object of integers runs the proposal
  as proposed and is recorded as a ``critic_malformed`` event plus an
  ``llm.critic:`` degradation.

A proposal whose changes cannot be applied (not a mapping, or a value that
is not an integer) skips the critic and goes straight to the shared run
handler, which absorbs it as ``invalid_changes``.

Vetoes park evaluations the default policy would have spent on speculative
exploration; they never change probe seeds or operand order — attempts
still derive their seeds from the execution count alone.
"""

from __future__ import annotations

import json

from repro.agents.tuning import TuningAgent, TuningLoopResult
from repro.llm.api import ChatMessage, ToolCall
from repro.llm.reasoning import (
    CRITIC_TASK,
    build_proposed_section,
    build_vetoed_section,
)
from repro.llm.tasks import CRITIC_REVIEW, TASKS, coerce_changes


class ProposeCriticAgent(TuningAgent):
    """The default loop with a critic between proposal and probe."""

    #: Vetoed turns consume no attempt, so the loop needs extra headroom.
    EXTRA_TURNS = 10

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._vetoed: list[dict[str, int]] = []

    def _sections(self, result: TuningLoopResult) -> list[str]:
        sections = super()._sections(result)
        if self._vetoed:
            # Before the closing instruction, after the (stable) history —
            # the cacheable prefix is untouched.
            sections.insert(len(sections) - 1, build_vetoed_section(self._vetoed))
        return sections

    def _dispatch(self, call: ToolCall, result: TuningLoopResult) -> bool:
        if call.name == "run_configuration":
            reviewed = self._review(call, result)
            if reviewed is None:
                return False
            call = reviewed
        return super()._dispatch(call, result)

    def _review(self, call: ToolCall, result: TuningLoopResult) -> ToolCall | None:
        """The critic's verdict; ``None`` means the proposal was vetoed.

        A proposal whose changes the runner could not apply skips the
        critic: the run handler absorbs it as ``invalid_changes``.
        """
        requested, invalid = coerce_changes(call.arguments.get("changes", {}))
        if invalid:
            return call
        rationale = str(call.arguments.get("rationale", ""))
        sections = [
            *self._static_sections,
            build_proposed_section(requested, rationale),
            CRITIC_TASK,
        ]
        content = self.client.complete(
            [
                ChatMessage(role="system", content=self._system),
                ChatMessage(role="user", content="\n\n".join(sections)),
            ],
            agent="critic",
            session=self.session,
        ).content
        verdict = TASKS[CRITIC_REVIEW].parse(content)
        if verdict.kind == "veto":
            self._vetoed.append(requested)
            self.transcript.add(
                "critic_veto",
                f"critic vetoed {json.dumps(requested, sort_keys=True)}: "
                f"{verdict.reason}",
                changes=requested,
                reason=verdict.reason,
            )
            return None
        if verdict.kind == "amend":
            self.transcript.add(
                "critic_amend",
                f"critic amended {json.dumps(requested, sort_keys=True)} -> "
                f"{json.dumps(verdict.changes, sort_keys=True)}",
                proposed=requested,
                amended=verdict.changes,
            )
            return ToolCall(
                "run_configuration",
                {"changes": verdict.changes, "rationale": rationale},
            )
        if verdict.kind == "malformed":
            # Like an unrecognised verdict, the proposal runs as proposed;
            # the unreadable reply is recorded, not raised.
            self.transcript.add(
                "critic_malformed",
                f"critic reply unreadable ({verdict.reason}); running "
                f"{json.dumps(requested, sort_keys=True)} as proposed",
                changes=requested,
            )
            result.degradations.append(
                f"llm.critic: malformed verdict ignored ({verdict.reason})"
            )
        return call
