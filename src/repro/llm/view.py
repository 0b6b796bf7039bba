"""One incremental, parsed view of a session's conversation.

The mock model re-reads the whole conversation on every turn, but agent
prompts change only at their tail: every Tuning Agent turn re-sends the
same hardware, parameter and rule-set sections, and an analysis conversation
only appends.  A :class:`ConversationView` keeps the previous turn's text,
section headers and parsed section values.  Each update re-scans only the
lines after the prefix the new text shares with the previous one, and
:meth:`ConversationView.parsed` re-runs a section parser only when that
section's body changed.

What it returns is exactly what a from-scratch parse returns:
:attr:`sections` equals :func:`~repro.llm.promptparse.split_sections` of
the joined messages, :meth:`parsed` equals the parser applied to that
section, :attr:`task` is the last header line that opens with
``## TASK:`` and :attr:`max_attempts` the budget of the first "at most N
configurations" instruction (default 5).  Headers, bodies and the budget
are worked out on first use, so a request whose handler reads only the
task scans nothing else.  Parsed values are shared between turns and are
read-only to their consumers.
"""

from __future__ import annotations

import re
from typing import Any, Callable

from repro.llm.api import ChatMessage
from repro.llm.promptparse import header_line, scan_headers
from repro.llm.tokens import shared_prefix_len

#: The closing instruction of tool and thought turns states the budget.
BUDGET_RE = re.compile(r"at most (\d+) configurations")
DEFAULT_MAX_ATTEMPTS = 5
TASK_PREFIX = "## TASK:"


class ConversationView:
    """The parsed state of one session's latest conversation."""

    def __init__(self):
        self.text = ""
        #: Content of the final message, and of the last user or tool
        #: message ("" if none).
        self.last_message = ""
        self.last_user = ""
        #: ``[start, name, body start, body or None]`` per header, in text
        #: order, for the headers before ``_scan_from``; the scan from it
        #: is owed while it is set.  Bodies are sliced on first use.
        self._headers: list[list] = []
        self._scan_from: int | None = 0
        self._sections: dict[str, str] | None = None
        #: The first budget match, or ``None`` for none; while
        #: ``_budget_from`` is set, no match starts before that offset and
        #: the search from it is still owed.
        self._budget: re.Match | None = None
        self._budget_from: int | None = 0
        self._parsed: dict[tuple[str, Callable], tuple[str, Any]] = {}

    def update(self, messages: list[ChatMessage]) -> None:
        """Advance the view to ``messages``, the session's next request."""
        text = "\n".join(m.content for m in messages)
        self.last_message = messages[-1].content if messages else ""
        self.last_user = next(
            (m.content for m in reversed(messages) if m.role in ("user", "tool")),
            "",
        )
        shared = shared_prefix_len(self.text, text)
        # Lines that end inside the shared prefix read the same as before;
        # everything from the first line reaching past it is re-scanned.
        rescan = text.rfind("\n", 0, shared) + 1
        if self._scan_from is not None:
            self._scan_from = min(self._scan_from, rescan)
        else:
            self._scan_from = rescan
        self._headers = [h for h in self._headers if h[0] < self._scan_from]
        self._sections = None
        if self._budget_from is not None:
            self._budget_from = min(self._budget_from, rescan)
        elif self._budget is None or self._budget.end() > shared:
            # A budget line inside the shared prefix is still the first;
            # otherwise no line before the re-scan point holds one.
            self._budget_from = rescan
        self.text = text

    @property
    def sections(self) -> dict[str, str]:
        """Section name -> body, as ``split_sections`` maps the text."""
        if self._sections is None:
            text, headers = self.text, self._headers
            if self._scan_from is not None:
                if headers:
                    # The last kept section now runs to the first fresh header.
                    last = headers[-1]
                    headers[-1] = [last[0], last[1], last[2], None]
                headers.extend([*h, None] for h in scan_headers(text, self._scan_from))
                self._scan_from = None
            sections: dict[str, str] = {}
            for i, header in enumerate(headers):
                body = header[3]
                if body is None:
                    end = headers[i + 1][0] if i + 1 < len(headers) else len(text)
                    body = header[3] = text[header[2] : end].strip()
                sections[header[1]] = body
            self._sections = sections
        return self._sections

    @property
    def task(self) -> str:
        """The last header line that opens with ``## TASK:``, or ``""``."""
        text = self.text
        end = len(text)
        start = text.rfind(TASK_PREFIX, 0, end)
        while start != -1:
            if start == 0 or text[start - 1] == "\n":
                header = header_line(text, start)
                if header is not None:
                    return f"## {header[0]}"
            end = start + len(TASK_PREFIX) - 1
            start = text.rfind(TASK_PREFIX, 0, end)
        return ""

    @property
    def max_attempts(self) -> int:
        if self._budget_from is not None:
            self._budget = BUDGET_RE.search(self.text, self._budget_from)
            self._budget_from = None
        budget = self._budget
        return int(budget.group(1)) if budget is not None else DEFAULT_MAX_ATTEMPTS

    def parsed(self, name: str, parser: Callable[[str], Any], default: str = "") -> Any:
        """``parser(sections.get(name, default))``, re-run only when that
        body changed since the last call with this name and parser."""
        body = self.sections.get(name, default)
        key = (name, parser)
        memo = self._parsed.get(key)
        if memo is not None and memo[0] == body:
            return memo[1]
        value = parser(body)
        self._parsed[key] = (body, value)
        return value

