"""Chat/tool-call API types (provider-neutral)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.llm.tokens import TokenUsage


@dataclass
class ChatMessage:
    """One conversation turn."""

    role: str  # "system" | "user" | "assistant" | "tool"
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant", "tool"):
            raise ValueError(f"invalid role {self.role!r}")


@dataclass(frozen=True)
class ToolSpec:
    """A tool the model may call."""

    name: str
    description: str
    parameters: dict[str, str] = field(default_factory=dict)  # arg -> description

    def render(self) -> str:
        args = ", ".join(f"{k}: {v}" for k, v in self.parameters.items())
        return f"- {self.name}({args}): {self.description}"


@dataclass
class ToolCall:
    """A tool invocation emitted by the model."""

    name: str
    arguments: dict[str, Any] = field(default_factory=dict)


@dataclass
class Completion:
    """Model response: text content and/or tool calls, plus usage."""

    content: str = ""
    tool_calls: list[ToolCall] = field(default_factory=list)
    usage: TokenUsage = field(default_factory=TokenUsage)
    model: str = ""

    @property
    def called(self) -> ToolCall | None:
        return self.tool_calls[0] if self.tool_calls else None

