"""Model I/O seams: the per-session conversation view and the task table.

- The view is differential-tested against the from-scratch reference:
  ``split_sections`` of the joined conversation and each section parser
  applied to its body.  Hypothesis draws prompt sequences per session with
  sections appended, edited in place, removed and reordered, duplicate
  names, header-like lines inside bodies, text before the first header and
  an unterminated last line.
- Every entry of ``TASKS`` is dispatched by the mock, and every output
  parser (and every prompt-section parser the mock's handlers read) returns
  a value, its fallback or its descriptive error on drawn text.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import LLMClient
from repro.llm import promptparse as pp
from repro.llm.api import ChatMessage
from repro.llm.backend import MockLLM
from repro.llm.reasoning import (
    S_PROPOSED,
    S_REACT_TRANSCRIPT,
    S_VETOED,
    parse_proposed_section,
    parse_react_transcript,
    parse_vetoed_section,
)
from repro.llm.tasks import TASKS, CriticVerdict, ModelOutputError
from repro.llm.view import ConversationView

#: Every prompt-section parser the mock's handlers read, by section.
SECTION_PARSERS = {
    pp.S_HARDWARE: pp.parse_hardware_facts,
    pp.S_PARAMETERS: pp.parse_parameter_section,
    pp.S_IO_REPORT: pp.parse_io_report,
    pp.S_RULES: pp.parse_rules_section,
    pp.S_HISTORY: pp.parse_history_section,
    S_PROPOSED: parse_proposed_section,
    S_VETOED: parse_vetoed_section,
    S_REACT_TRANSCRIPT: parse_react_transcript,
}

NAMES = [*SECTION_PARSERS, "TASK: REACT DECIDE", "TASK: MERGE RULES", "EXTRA"]

#: Body lines each parser reads, plus lines that look like headers but are
#: not (lowercase, no space, indented, bad characters, empty name).
LINES = [
    "fact n_ost = 4",
    "fact bad = 1.2.3",
    "- parameter: osc.max_rpcs_in_flight",
    "  default: 8",
    "  range: 1 .. 256",
    "summary: shared-file writes",
    "metric shared_file = 1",
    "followup 'why?': because",
    '[{"parameter": "p", "rule_description": "d"}]',
    "[1, 2]",
    "initial run (default configuration): 10.000s",
    'attempt 1: changes {"a": 2} -> runtime 5.000s (speedup 2.000x)',
    'attempt 2: changes {"a": "x"} -> runtime 5.000s (speedup 2.000x)',
    'changes: {"a": 3}',
    "changes: [1, 2]",
    "rationale: deeper pipelines",
    '- {"a": 4}',
    "- [5]",
    "Thought: keep going",
    "You may try at most 7 configurations. Choose your next action.",
    "at most 3 configurations",
    "## lower case",
    "##NOSPACE",
    " ## INDENTED",
    "## BAD-NAME",
    "## ",
    "##  TASK: SPACED",
    "## TASK: X lower",
    "plain text",
    "",
]

lines = st.lists(st.sampled_from(LINES), max_size=4)
sections = st.tuples(st.sampled_from(NAMES), lines)


def render(preamble: list[str], blocks: list[tuple[str, list[str]]], tail: str) -> str:
    parts = list(preamble)
    for name, body in blocks:
        parts.append(f"## {name}")
        parts.extend(body)
    return "\n".join(parts) + tail


@st.composite
def edits(draw, blocks):
    """One edit of a session's next prompt."""
    blocks = list(blocks)
    kind = draw(st.sampled_from(["append", "edit", "remove", "swap", "same"]))
    if kind == "append" or not blocks:
        blocks.insert(draw(st.integers(0, len(blocks))), draw(sections))
    elif kind == "edit":
        i = draw(st.integers(0, len(blocks) - 1))
        blocks[i] = (blocks[i][0], draw(lines))
    elif kind == "remove":
        del blocks[draw(st.integers(0, len(blocks) - 1))]
    elif kind == "swap":
        i = draw(st.integers(0, len(blocks) - 1))
        j = draw(st.integers(0, len(blocks) - 1))
        blocks[i], blocks[j] = blocks[j], blocks[i]
    return blocks


def messages_for(text: str, cuts: list[int]) -> list[ChatMessage]:
    """``text`` as messages whose ``"\\n"``-join is ``text`` again."""
    pieces = text.split("\n")
    bounds = sorted({min(c, len(pieces)) for c in cuts} | {0, len(pieces)})
    contents = ["\n".join(pieces[a:b]) for a, b in zip(bounds, bounds[1:])]
    roles = ["system"] + ["user"] * (len(contents) - 1)
    return [ChatMessage(role=r, content=c) for r, c in zip(roles, contents)]


def reference_task(text: str) -> str:
    names = [m.group(1) for m in pp.SECTION_RE.finditer(text)]
    tasks = [n.strip() for n in names if n.startswith("TASK:")]
    return f"## {tasks[-1]}" if tasks else ""


def outcome(parser, body):
    try:
        return ("value", parser(body))
    except ValueError as exc:
        return ("error", type(exc), str(exc))


CHECKS = ("sections", "task", "budget", "parsed")


def assert_matches_reference(view: ConversationView, text: str, checks) -> None:
    """The view's answers for ``text``; only ``checks`` are asked, since
    the view computes bodies and the budget lazily."""
    assert view.text == text
    reference = pp.split_sections(text)
    if "sections" in checks:
        assert view.sections == reference
        assert list(view.sections) == list(reference)
    if "task" in checks:
        assert view.task == reference_task(text)
    if "budget" in checks:
        budget = re.search(r"at most (\d+) configurations", text)
        assert view.max_attempts == (int(budget.group(1)) if budget else 5)
    if "parsed" in checks:
        for name, parser in SECTION_PARSERS.items():
            expected = outcome(parser, reference.get(name, ""))
            assert outcome(lambda body: view.parsed(name, parser), None) == expected


class TestConversationView:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_from_scratch_parse(self, data):
        view = ConversationView()
        blocks = data.draw(st.lists(sections, max_size=5))
        preamble = data.draw(lines)
        steps = data.draw(st.integers(1, 6))
        for step in range(steps):
            tail = data.draw(st.sampled_from(["", "\n", "\ntrailing", "\n## TASK: X"]))
            text = render(preamble, blocks, tail)
            cuts = data.draw(st.lists(st.integers(0, 40), max_size=3))
            view.update(messages_for(text, cuts))
            last = step + 1 == steps
            checks = CHECKS if last else data.draw(st.sets(st.sampled_from(CHECKS)))
            assert_matches_reference(view, text, checks)
            if data.draw(st.booleans()):
                blocks = data.draw(edits(blocks))
            else:
                # A pure extension of the previous prompt (the fast path).
                blocks = blocks + [data.draw(sections)]
            if data.draw(st.integers(0, 4)) == 0:
                preamble = data.draw(lines)

    def test_sessions_keep_separate_views(self):
        llm = MockLLM(LLMClient("gpt-4o").profile)
        for session in ("a", "b"):
            prompt = f"## TASK: PARAM INFO\nPARAMETER: llite.statahead_max\nasked by {session}"
            llm.complete([ChatMessage(role="user", content=prompt)], session=session)
        assert set(llm._views) == {"a", "b"}
        assert llm._views["a"].last_user.endswith("asked by a")


#: Text a strict or lenient reply parser might meet.
REPLIES = st.one_of(
    st.text(max_size=60),
    st.sampled_from(
        [
            "",
            "AMEND",
            "AMEND\nnot json",
            "AMEND\n[1, 2]",
            'AMEND\n{"a": "x"}',
            'AMEND\n{"a": 1e999}',
            'AMEND\n{"a": 3}',
            "VETO: speculative",
            "APPROVE",
            "REASON",
            "halt now",
            "SUFFICIENT: yes",
            "SIGNIFICANT: yes",
            "parameter: a\nrange: 1 .. 2\ndefault: abc",
            "parameter: a\nrange: 1 .. 2\ndefault: inf",
            "parameter: a\nrange: 1 .. 2\ndefault: 7",
            "```python\nprint(1)\n```",
            "null",
            "5",
            '{"parameter": "x"}',
            '[{"parameter": "x"}]',
            "[1, 2]",
        ]
    ),
)


class TestTaskTable:
    def test_every_marker_is_dispatched_to_its_handler(self):
        llm = MockLLM(LLMClient("gpt-4o").profile)
        for marker, task in TASKS.items():
            assert task.marker == marker and marker.startswith("## TASK: ")
            assert callable(getattr(llm, task.handler))

    @pytest.mark.parametrize("marker", list(TASKS))
    @settings(max_examples=60, deadline=None)
    @given(text=REPLIES)
    def test_output_parser_returns_value_fallback_or_descriptive_error(
        self, marker, text
    ):
        task = TASKS[marker]
        try:
            value = task.parse(text)
        except ModelOutputError:
            assert task.error is not None  # only strict tasks raise
            with pytest.raises(task.error, match="agent 'fuzz' \\(session 's'\\)"):
                task.read(text, "fuzz", "s")
            return
        if isinstance(task.fallback, CriticVerdict):
            assert value.kind in ("approve", "veto", "amend", "malformed")
        elif task.fallback is not None:
            assert type(value) is type(task.fallback)

    @pytest.mark.parametrize("name", list(SECTION_PARSERS))
    @settings(max_examples=60, deadline=None)
    @given(body=st.one_of(st.text(max_size=80), st.lists(st.sampled_from(LINES)).map("\n".join)))
    def test_section_parser_returns_value_or_descriptive_error(self, name, body):
        try:
            SECTION_PARSERS[name](body)
        except ValueError as exc:
            # Only the rule set is strict, and it names itself.
            assert name == pp.S_RULES and pp.S_RULES in str(exc)

    @pytest.mark.parametrize(
        "line",
        ['changes: {"a": "x"}', "changes: [1, 2]", "changes: 5", "changes: {oops"],
    )
    def test_proposed_section_skips_unreadable_changes(self, line):
        assert parse_proposed_section(f"{line}\nrationale: r") == ({}, "r")

    @pytest.mark.parametrize("line", ['- {"a": "x"}', "- [1, 2]", "- null", "- {oops"])
    def test_vetoed_section_skips_unreadable_lines(self, line):
        assert parse_vetoed_section(f'{line}\n- {{"b": 2}}') == [{"b": 2}]
