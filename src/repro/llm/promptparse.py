"""The structured prompt contract between agents and the mock LLM.

Agents assemble prompts from canonical ``## SECTION`` blocks; the mock
backend "attends" to them by parsing the same blocks back out.  Keeping the
builders and parsers in one module makes the contract explicit and testable —
and mirrors how real agent frameworks pin context formats to keep models
grounded.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

SECTION_RE = re.compile(r"^## ([A-Z0-9 _:?]+)$", re.MULTILINE)

#: ``SECTION_RE``'s name group on its own.
_NAME_RE = re.compile(r"[A-Z0-9 _:?]+")

S_HARDWARE = "HARDWARE"
S_PARAMETERS = "PFS TUNABLE PARAMETERS"
S_IO_REPORT = "IO REPORT"
S_RULES = "GLOBAL RULE SET"
S_HISTORY = "TUNING HISTORY"
S_TASK = "TASK"


def split_sections(text: str) -> dict[str, str]:
    """Map section name -> body for every ``## NAME`` block in ``text``.

    A later block of the same name replaces the earlier body in place.
    Text before the first header belongs to no section.
    """
    headers = scan_headers(text)
    sections: dict[str, str] = {}
    for i, (start, name, body_start) in enumerate(headers):
        end = headers[i + 1][0] if i + 1 < len(headers) else len(text)
        sections[name] = text[body_start:end].strip()
    return sections


def scan_headers(text: str, start: int = 0) -> list[tuple[int, str, int]]:
    """``(line start, name, body start)`` of every header line of ``text``
    at or after ``start``, which must be a line start.

    Candidate headers are located with ``str.find`` and their names
    validated with ``SECTION_RE``'s name pattern — the accepted language is
    identical to running the regex.
    """
    find = text.find
    positions = [start] if text.startswith("## ", start) else []
    pos = find("\n## ", start)
    while pos != -1:
        positions.append(pos + 1)
        pos = find("\n## ", pos + 1)
    headers = []
    for begin in positions:
        header = header_line(text, begin)
        if header is not None:
            headers.append((begin, *header))
    return headers


def header_line(text: str, begin: int) -> tuple[str, int] | None:
    """``(name, end of line)`` when the line of ``text`` that starts at
    ``begin`` with ``"## "`` is a header line, else ``None``."""
    eol = text.find("\n", begin)
    if eol == -1:
        eol = len(text)
    name = text[begin + 3 : eol]
    return (name.strip(), eol) if _NAME_RE.fullmatch(name) else None


# ---------------------------------------------------------------------------
# Hardware facts
# ---------------------------------------------------------------------------
def build_hardware_section(description: str, facts: dict[str, float]) -> str:
    lines = [f"## {S_HARDWARE}", description.strip(), ""]
    for key, value in sorted(facts.items()):
        lines.append(f"fact {key} = {value:g}")
    return "\n".join(lines)


def to_float(text: str) -> float | None:
    """``float(text)``, or ``None`` when the text is not a number.  The
    parsers' number patterns accept every character a float may hold, so
    they also accept strings like ``1.2.3`` that conversion rejects."""
    try:
        return float(text)
    except ValueError:
        return None


_FACT_RE = re.compile(r"^fact (\w+) = ([-\d.eE+]+)$", re.MULTILINE)


def parse_hardware_facts(body: str) -> dict[str, float]:
    facts: dict[str, float] = {}
    for match in _FACT_RE.finditer(body):
        value = to_float(match.group(2))
        if value is not None:
            facts[match.group(1)] = value
    return facts


# ---------------------------------------------------------------------------
# Tunable parameter descriptions (output of the offline RAG phase)
# ---------------------------------------------------------------------------
@dataclass
class ParameterInfo:
    """One tunable parameter as presented to the Tuning Agent."""

    name: str
    default: int
    min_expr: str  # number or expression string
    max_expr: str
    description: str = ""  # empty in the No-Descriptions ablation
    unit: str = "count"


def build_parameter_section(params: list[ParameterInfo]) -> str:
    lines = [f"## {S_PARAMETERS}"]
    for p in params:
        lines.append(f"- parameter: {p.name}")
        lines.append(f"  unit: {p.unit}")
        lines.append(f"  default: {p.default}")
        lines.append(f"  range: {p.min_expr} .. {p.max_expr}")
        if p.description:
            lines.append(f"  description: {p.description}")
    return "\n".join(lines)


@lru_cache(maxsize=64)
def parse_parameter_section(body: str) -> list[ParameterInfo]:
    """Parse the tunable-parameter block.

    Memoized: every session of a backend sends the same parameter section
    (a conversation view re-parses it once per session, ~50 µs), and there
    are only a handful of distinct sections per process (ablations toggle
    descriptions, §5.6 restricts the surface).  Callers treat the returned
    infos as read-only.  A ``default:`` field that is not a finite number is
    skipped, keeping the entry's default of 0.
    """
    params: list[ParameterInfo] = []
    current: ParameterInfo | None = None
    for raw in body.splitlines():
        line = raw.strip()
        if line.startswith("- parameter:"):
            current = ParameterInfo(
                name=line.split(":", 1)[1].strip(),
                default=0,
                min_expr="0",
                max_expr="0",
            )
            params.append(current)
        elif current is not None and ":" in line:
            key, _, value = line.partition(":")
            key = key.strip()
            value = value.strip()
            if key == "default":
                number = to_float(value)
                if number is not None and math.isfinite(number):
                    current.default = int(number)
            elif key == "range":
                low, _, high = value.partition("..")
                current.min_expr = low.strip()
                current.max_expr = high.strip()
            elif key == "description":
                current.description = value
            elif key == "unit":
                current.unit = value
    return params


# ---------------------------------------------------------------------------
# I/O report
# ---------------------------------------------------------------------------
@dataclass
class IOReport:
    """The Analysis Agent's distilled view of application I/O behaviour."""

    summary: str = ""
    metrics: dict[str, float] = field(default_factory=dict)
    followups: dict[str, str] = field(default_factory=dict)  # question -> answer

    def get(self, name: str, default: float = 0.0) -> float:
        return self.metrics.get(name, default)

    def has(self, name: str) -> bool:
        return name in self.metrics


def build_io_report_section(report: IOReport) -> str:
    lines = [f"## {S_IO_REPORT}", f"summary: {report.summary}"]
    for key, value in sorted(report.metrics.items()):
        lines.append(f"metric {key} = {value:.12g}")
    for question, answer in report.followups.items():
        lines.append(f"followup {question!r}: {answer}")
    return "\n".join(lines)


_METRIC_RE = re.compile(r"metric (\w+) = ([-\d.eE+]+)")
_FOLLOWUP_RE = re.compile(r"followup '(.*)': (.*)")


def parse_io_report(body: str) -> IOReport:
    report = IOReport()
    for raw in body.splitlines():
        line = raw.strip()
        if line.startswith("summary:"):
            report.summary = line.split(":", 1)[1].strip()
        elif line.startswith("metric "):
            match = _METRIC_RE.match(line)
            value = to_float(match.group(2)) if match else None
            if value is not None:
                report.metrics[match.group(1)] = value
        elif line.startswith("followup "):
            match = _FOLLOWUP_RE.match(line)
            if match:
                report.followups[match.group(1)] = match.group(2)
    return report


# ---------------------------------------------------------------------------
# Rule set (strict JSON structure, §4.4.1)
# ---------------------------------------------------------------------------
#: ``indent=1`` renders keyed by the payload's compact JSON — rule sets
#: repeat verbatim across turns and sessions (an engine's merged set is the
#: next session's rule-set section), and ``indent`` rules out the C
#: encoder, so pretty-printing is one of the costlier string builds in the
#: loop.  Two payloads with equal compact JSON have equal pretty JSON.  A
#: full memo evicts its oldest entry.
_DUMPS_CACHE: dict[str, str] = {}
_DUMPS_CACHE_MAX = 256


def dumps_indented(payload: Any) -> str:
    """``json.dumps(payload, indent=1)``, memoized on content."""
    key = json.dumps(payload)
    text = _DUMPS_CACHE.get(key)
    if text is None:
        if len(_DUMPS_CACHE) >= _DUMPS_CACHE_MAX:
            del _DUMPS_CACHE[next(iter(_DUMPS_CACHE))]
        text = _DUMPS_CACHE[key] = json.dumps(payload, indent=1)
    return text


def build_rules_section(rules_json: list[dict[str, Any]]) -> str:
    return f"## {S_RULES}\n" + dumps_indented(rules_json)


def parse_rules_section(body: str) -> list[dict[str, Any]]:
    """The rule objects of a rule-set section; ``[]`` when empty.

    Raises a ``ValueError`` naming the section when the body is not JSON or
    is JSON other than a list of objects.
    """
    body = body.strip()
    if not body or body == "(empty)":
        return []
    try:
        rules = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{S_RULES} section is not valid JSON ({exc.msg}): {body[:80]!r}"
        ) from None
    if not isinstance(rules, list) or not all(isinstance(r, dict) for r in rules):
        raise ValueError(
            f"{S_RULES} section must be a JSON list of rule objects, "
            f"got {body[:80]!r}"
        )
    return rules


# ---------------------------------------------------------------------------
# Tuning history
# ---------------------------------------------------------------------------
@dataclass
class AttemptRecord:
    """One configuration trial the Tuning Agent has observed."""

    index: int
    changes: dict[str, int]  # parameter -> value (diff against defaults)
    seconds: float
    speedup: float  # vs the initial (default-config) run
    rationale: str = ""


def history_line(attempt: AttemptRecord) -> str:
    """One attempt's line of the history section."""
    return (
        f"attempt {attempt.index}: changes {json.dumps(attempt.changes, sort_keys=True)} "
        f"-> runtime {attempt.seconds:.3f}s (speedup {attempt.speedup:.3f}x)"
    )


def join_history_section(initial_seconds: float, lines: list[str]) -> str:
    """The history section around already rendered attempt lines."""
    return "\n".join(
        [
            f"## {S_HISTORY}",
            f"initial run (default configuration): {initial_seconds:.3f}s",
            *lines,
        ]
    )


def build_history_section(initial_seconds: float, attempts: list[AttemptRecord]) -> str:
    return join_history_section(initial_seconds, [history_line(a) for a in attempts])


_INITIAL_RE = re.compile(r"([\d.]+)s")
_ATTEMPT_RE = re.compile(
    r"attempt (\d+): changes (\{.*\}) -> runtime ([\d.]+)s \(speedup ([\d.]+)x\)"
)


def parse_history_section(body: str) -> tuple[float, list[AttemptRecord]]:
    """The initial runtime and attempt records of a history section.

    Lines that do not parse are skipped: an attempt whose changes are not a
    JSON object of integer-convertible values, or whose runtime or speedup
    is not a number, is dropped whole.
    """
    initial = 0.0
    attempts: list[AttemptRecord] = []
    for raw in body.splitlines():
        line = raw.strip()
        if line.startswith("initial run"):
            match = _INITIAL_RE.search(line)
            value = to_float(match.group(1)) if match else None
            if value is not None:
                initial = value
        elif line.startswith("attempt "):
            match = _ATTEMPT_RE.match(line)
            if match:
                try:
                    record = AttemptRecord(
                        index=int(match.group(1)),
                        changes={k: int(v) for k, v in json.loads(match.group(2)).items()},
                        seconds=float(match.group(3)),
                        speedup=float(match.group(4)),
                    )
                except (ValueError, TypeError, OverflowError):
                    continue  # JSONDecodeError is a ValueError
                attempts.append(record)
    return initial, attempts
