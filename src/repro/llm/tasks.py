"""The model-I/O task table: one entry per ``## TASK:`` marker.

Every prompt that asks the model for something other than a tool turn
closes with a ``## TASK: <NAME>`` header.  :data:`TASKS` maps each marker
to its :class:`Task`: the :class:`~repro.llm.backend.MockLLM` method that
answers it, and the output parser through which agents read the reply,
together with the value that parser falls back to on a reply it cannot
read.  Renderers import their marker from here, so the string a prompt
carries and the key the mock dispatches on cannot drift apart.

Output parsers are trust boundaries: on any text they return a value, their
fallback, or (for the strict rule-list tasks) a :class:`ModelOutputError`,
never a stray ``KeyError``/``TypeError``/``JSONDecodeError``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Callable

from repro.rules.model import rule_field_error

SUMMARIZE_RULES = "## TASK: SUMMARIZE RULES"
MERGE_RULES = "## TASK: MERGE RULES"
JUDGE_DOCUMENTATION = "## TASK: JUDGE DOCUMENTATION"
DESCRIBE_PARAMETER = "## TASK: DESCRIBE PARAMETER"
JUDGE_IMPACT = "## TASK: JUDGE IMPACT"
PARAM_INFO = "## TASK: PARAM INFO"
REACT_DECIDE = "## TASK: REACT DECIDE"
REACT_THOUGHT = "## TASK: REACT THOUGHT"
CRITIC_REVIEW = "## TASK: CRITIC REVIEW"
ANALYZE_IO = "## TASK: ANALYZE IO"
FOLLOWUP_ANALYSIS = "## TASK: FOLLOWUP ANALYSIS"


class ModelOutputError(ValueError):
    """A reply a strict task's parser cannot read."""


class ReflectionFormatError(ModelOutputError):
    """A Reflect & Summarize or rules-merge payload was not the strict JSON
    rule list the protocol demands; the message names the agent and session
    so a fleet operator can locate the offending run without replaying it."""


@dataclass(frozen=True)
class Task:
    """One model task: its marker, mock handler and output parser."""

    marker: str
    #: Name used in error messages ("a <name> payload").
    name: str
    #: The :class:`~repro.llm.backend.MockLLM` method answering the task.
    handler: str
    #: Reply text -> value.  Strict tasks raise :class:`ModelOutputError`.
    parse: Callable[[str], Any]
    #: What ``parse`` returns for a reply it cannot read; ``None`` with
    #: ``error`` set means the task is strict and raises instead.
    fallback: Any = None
    error: type[ModelOutputError] | None = None

    def read(self, text: str, agent: str, session: str) -> Any:
        """``parse(text)``; a strict task's error names agent and session."""
        try:
            return self.parse(text)
        except ModelOutputError as exc:
            raise (self.error or ModelOutputError)(
                f"agent {agent!r} (session {session!r}) returned a "
                f"{self.name} payload {exc}"
            ) from exc


# ---------------------------------------------------------------------------
# Output parsers
# ---------------------------------------------------------------------------
def parse_rule_list(text: str) -> list[dict]:
    """``text`` as a JSON list of well-typed rule objects (the fields
    :func:`~repro.rules.model.rule_field_error` checks, as the rule journal
    does on load), else :class:`ModelOutputError`."""
    try:
        rules = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelOutputError(
            f"that is not valid JSON at line {exc.lineno} column "
            f"{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(rules, list) or not all(isinstance(r, dict) for r in rules):
        raise ModelOutputError(
            f"that is not a JSON list of objects: {text.strip()[:60]}"
        )
    for index, rule in enumerate(rules):
        problem = rule_field_error(rule)
        if problem is not None:
            raise ModelOutputError(f"whose rule {index} is invalid: {problem}")
    return rules


def coerce_changes(changes) -> tuple[dict[str, int], list[str]]:
    """``({name: int(value)}, [bad entry, ...])`` for a proposal's
    ``changes``; entries ``int()`` rejects are named, not coerced."""
    try:
        items = dict(changes).items()
    except (TypeError, ValueError):
        return {}, [f"changes {changes!r} is not a mapping"]
    requested, invalid = {}, []
    for name, value in items:
        try:
            requested[str(name)] = int(value)
        except (TypeError, ValueError, OverflowError):
            invalid.append(f"value {value!r} for {str(name)!r} is not an integer")
    return requested, invalid


def parse_sufficient(text: str) -> bool:
    return text.startswith("SUFFICIENT")


def parse_significant(text: str) -> bool:
    return text.startswith("SIGNIFICANT")


def parse_parameter_description(text: str) -> dict[str, Any] | None:
    """The fields of a DESCRIBE PARAMETER reply, or ``None`` when it names
    no parameter or range, or its default is not a finite number."""
    fields: dict[str, str] = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    if "parameter" not in fields or "range" not in fields:
        return None
    try:
        default = int(float(fields.get("default", "0")))
    except (ValueError, OverflowError):
        return None
    low, _, high = fields["range"].partition("..")
    return {
        "name": fields["parameter"],
        "description": fields.get("description", ""),
        "default": default,
        "min_expr": low.strip(),
        "max_expr": high.strip(),
        "unit": fields.get("unit", "count"),
        "binary": fields.get("binary", "no") == "yes",
        "grounded": fields.get("grounded", "yes") == "yes",
    }


REACT_MODES = ("REASON", "TOOL", "HALT")


def parse_react_mode(text: str) -> str:
    """The mode a REACT DECIDE reply names; ``TOOL`` for anything else."""
    words = text.split()
    token = words[0].upper() if words else ""
    return token if token in REACT_MODES else "TOOL"


def parse_text(text: str) -> str:
    return text.strip()


@dataclass(frozen=True)
class CriticVerdict:
    """A parsed CRITIC REVIEW reply.

    ``kind`` is ``approve``, ``veto`` (with ``reason``), ``amend`` (with the
    corrected ``changes``) or ``malformed``: an AMEND whose body is not a
    JSON object of integers.  A reply that opens with no known verdict
    approves, as a model's free-form assent would.
    """

    kind: str
    reason: str = ""
    changes: dict[str, int] | None = None


def parse_critic_verdict(text: str) -> CriticVerdict:
    verdict = text.strip()
    if verdict.startswith("VETO"):
        return CriticVerdict("veto", reason=verdict.partition(":")[2].strip())
    if not verdict.startswith("AMEND"):
        return CriticVerdict("approve")
    body = verdict.partition("\n")[2]
    try:
        payload = json.loads(body)
    except json.JSONDecodeError:
        return CriticVerdict("malformed", reason=f"AMEND body {body[:60]!r} is not JSON")
    if not isinstance(payload, dict):
        return CriticVerdict(
            "malformed", reason=f"AMEND body {body[:60]!r} is not a JSON object"
        )
    changes, invalid = coerce_changes(payload)
    if invalid:
        return CriticVerdict("malformed", reason="AMEND " + "; ".join(invalid))
    return CriticVerdict("amend", changes=changes)


CODE_BLOCK_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def parse_code_reply(text: str) -> str | None:
    """The Python an analysis reply asks to run; ``None`` for a final answer."""
    match = CODE_BLOCK_RE.search(text)
    return match.group(1) if match else None


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------
TASKS: dict[str, Task] = {
    task.marker: task
    for task in (
        Task(
            SUMMARIZE_RULES, "Reflect & Summarize", "_summarize_rules",
            parse_rule_list, error=ReflectionFormatError,
        ),
        Task(
            MERGE_RULES, "rules-merge", "_merge_rules",
            parse_rule_list, error=ReflectionFormatError,
        ),
        Task(
            JUDGE_DOCUMENTATION, "documentation judgment", "_judge_documentation",
            parse_sufficient, fallback=False,
        ),
        Task(
            DESCRIBE_PARAMETER, "parameter description", "_describe_parameter",
            parse_parameter_description,
        ),
        Task(
            JUDGE_IMPACT, "impact judgment", "_judge_impact",
            parse_significant, fallback=False,
        ),
        Task(PARAM_INFO, "parameter info", "_param_info", parse_text, fallback=""),
        Task(
            REACT_DECIDE, "ReACT mode", "_react_decide",
            parse_react_mode, fallback="TOOL",
        ),
        Task(
            REACT_THOUGHT, "ReACT thought", "_react_thought",
            parse_text, fallback="",
        ),
        Task(
            CRITIC_REVIEW, "critic verdict", "_critic_review",
            parse_critic_verdict, fallback=CriticVerdict("malformed"),
        ),
        Task(ANALYZE_IO, "analysis", "_analyze_io", parse_code_reply),
        Task(
            FOLLOWUP_ANALYSIS, "follow-up analysis", "_followup_analysis",
            parse_code_reply,
        ),
    )
}
