"""The Analysis Agent (§4.3.1).

A code-executing agent: given the parsed Darshan frames (and their column
descriptions) it asks the model for analysis code, executes it in the
sandbox, feeds the printed output back, and repeats until the model declares
the report ready.  A secondary entry point answers specific follow-up
questions from the Tuning Agent the same way.
"""

from __future__ import annotations

import re

from repro.agents.sandbox import SandboxError, run_in_sandbox
from repro.agents.transcript import Transcript
from repro.darshan.parser import ParsedLog
from repro.llm.api import ChatMessage
from repro.llm.client import LLMClient
from repro.llm.promptparse import (
    S_IO_REPORT,
    IOReport,
    parse_io_report,
    split_sections,
    to_float,
)
from repro.llm.tasks import ANALYZE_IO, FOLLOWUP_ANALYSIS, TASKS

_SYSTEM = (
    "You are the Analysis Agent of an autonomous parallel file system "
    "tuner. You are given pandas-like dataframes holding Darshan counters "
    "(variables: posix, mpiio when present) plus column description dicts "
    "(posix_columns, mpiio_columns) and the log header string (header). "
    "Write Python to inspect them, then summarize the application's I/O "
    "behaviour, highlighting anything useful for tuning file system "
    "parameters."
)

MAX_CODE_ROUNDS = 4


class AnalysisAgent:
    """Runs analyses over one parsed Darshan log."""

    def __init__(
        self,
        client: LLMClient,
        parsed: ParsedLog,
        transcript: Transcript | None = None,
        session: str = "analysis",
    ):
        self.client = client
        self.parsed = parsed
        self.transcript = transcript if transcript is not None else Transcript()
        self.session = session
        self._namespace = parsed.namespace()

    # ------------------------------------------------------------------
    def initial_report(self) -> IOReport:
        """Produce the high-level I/O Report for the Tuning Agent."""
        task = (
            f"{ANALYZE_IO}\n"
            f"header: {self.parsed.header}\n"
            "Available variables: "
            + ", ".join(sorted(self._namespace))
            + "\nColumn descriptions:\n"
            + self._describe_columns()
            + "\nData preview (first rows of each module frame):\n"
            + self._preview_frames()
            + "\nProvide a high-level summary of the application's I/O "
            "behaviour with quantitative metrics."
        )
        content = self._run_conversation(ANALYZE_IO, task)
        report = self._parse_report(content)
        self.transcript.add(
            "io_report", report.summary, metrics=dict(report.metrics)
        )
        return report

    def answer(self, question: str) -> tuple[str, dict[str, float]]:
        """Answer a Tuning Agent follow-up; returns (text, new metrics)."""
        task = (
            f"{FOLLOWUP_ANALYSIS}\n"
            f"header: {self.parsed.header}\n"
            f"QUESTION: {question}\n"
            "Available variables: "
            + ", ".join(sorted(self._namespace))
        )
        content = self._run_conversation(FOLLOWUP_ANALYSIS, task)
        metrics = {}
        for match in re.finditer(r"ANSWER metric=(\w+) value=([-\d.eE+]+)", content):
            value = to_float(match.group(2))
            if value is not None:
                metrics[match.group(1)] = value
        answer_text = "; ".join(
            f"{name} = {value:g}" for name, value in metrics.items()
        ) or (content.strip().splitlines() or ["(empty answer)"])[0]
        self.transcript.add("followup", f"Q: {question} -> {answer_text}", metrics=metrics)
        return answer_text, metrics

    # ------------------------------------------------------------------
    def _run_conversation(self, marker: str, task: str) -> str:
        messages = [
            ChatMessage(role="system", content=_SYSTEM),
            ChatMessage(role="user", content=task),
        ]
        read_code = TASKS[marker].parse
        for _ in range(MAX_CODE_ROUNDS):
            completion = self.client.complete(
                messages, agent="analysis", session=self.session
            )
            code = read_code(completion.content)
            if code is None:
                return completion.content
            try:
                output = run_in_sandbox(code, self._namespace)
                status = "ok"
            except SandboxError as exc:
                output = f"ERROR: {exc}"
                status = "error"
            self.transcript.add(
                "analysis_code",
                f"executed {len(code.splitlines())} lines ({status})",
                output=output[:500],
            )
            messages.append(ChatMessage(role="assistant", content=completion.content))
            messages.append(
                ChatMessage(role="user", content=f"EXECUTION OUTPUT:\n{output}")
            )
        raise RuntimeError("Analysis Agent did not converge to a report")

    def _parse_report(self, content: str) -> IOReport:
        sections = split_sections(content)
        if S_IO_REPORT in sections:
            return parse_io_report(sections[S_IO_REPORT])
        raise RuntimeError(f"model produced no IO report: {content[:200]}")

    def _describe_columns(self) -> str:
        lines = []
        for module, columns in self.parsed.descriptions.items():
            for name, description in columns.items():
                lines.append(f"{module}.{name}: {description}")
        return "\n".join(lines)

    def _preview_frames(self, rows: int = 8) -> str:
        parts = []
        for module, frame in self.parsed.frames.items():
            parts.append(f"{module} ({len(frame)} records):")
            parts.append(frame.head(rows).to_csv())
        return "\n".join(parts)
