"""Token counting, usage accounting and prompt-cache simulation."""

from __future__ import annotations

from dataclasses import dataclass, field

#: Average characters per token for English/technical text.
CHARS_PER_TOKEN = 4.0

#: Providers cache prompt prefixes at block granularity.
CACHE_BLOCK_TOKENS = 64


def count_tokens(text: str) -> int:
    """Approximate token count (length-based, deterministic)."""
    return tokens_for_length(len(text))


def tokens_for_length(n: int) -> int:
    """The token count of any ``n``-character text."""
    if not n:
        return 0
    return max(1, round(n / CHARS_PER_TOKEN))


@dataclass
class TokenUsage:
    """Usage for one request (or an accumulated total)."""

    input_tokens: int = 0
    output_tokens: int = 0
    cached_input_tokens: int = 0

    def __add__(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(
            input_tokens=self.input_tokens + other.input_tokens,
            output_tokens=self.output_tokens + other.output_tokens,
            cached_input_tokens=self.cached_input_tokens + other.cached_input_tokens,
        )

    @property
    def cache_hit_rate(self) -> float:
        if self.input_tokens == 0:
            return 0.0
        return self.cached_input_tokens / self.input_tokens


class PromptCache:
    """Prefix cache: repeated conversation prefixes are served from cache.

    Keyed by session; stores the most recent prompt per session and reports
    the shared prefix (in whole cache blocks) of the next prompt as cached —
    the way provider-side prompt caching behaves for append-only agent
    conversations.
    """

    def __init__(self):
        self._last_prompt: dict[str, str] = {}

    def lookup_and_store(self, session: str, prompt: str) -> int:
        """Cached token count for this prompt; records it for next time."""
        previous = self._last_prompt.get(session, "")
        shared = shared_prefix_len(previous, prompt)
        self._last_prompt[session] = prompt
        cached_tokens = tokens_for_length(shared)
        return (cached_tokens // CACHE_BLOCK_TOKENS) * CACHE_BLOCK_TOKENS

    def reset(self, session: str | None = None) -> None:
        if session is None:
            self._last_prompt.clear()
        else:
            self._last_prompt.pop(session, None)


#: Block sizes of :func:`shared_prefix_len`'s walk, largest first.
_BLOCKS = (2048, 256, 32, 4, 1)


def shared_prefix_len(a: str, b: str) -> int:
    """Length of the longest common prefix of ``a`` and ``b``.

    Agent conversations are append-only, so ``a`` is usually a prefix of
    ``b`` and one ``startswith`` decides.  Otherwise the walk compares
    blocks of ``b`` in place against ``a`` (``str.startswith`` at an
    offset), moving to the next smaller block size at the first mismatch:
    it copies about one prompt length in all, where bisecting
    ``a[:mid] == b[:mid]`` copied two per step.
    """
    if len(a) <= len(b):
        if b.startswith(a):
            return len(a)
    elif a.startswith(b):
        return len(b)
    limit = min(len(a), len(b))
    pos = 0
    for block in _BLOCKS:
        while pos + block <= limit and a.startswith(b[pos : pos + block], pos):
            pos += block
    return pos


#: Ledger key under which retried/timed-out request waste accumulates.
RETRY_AGENT = "llm_retries"


@dataclass
class UsageLedger:
    """Aggregates usage per logical agent (tuning, analysis, extraction).

    Failed request attempts (injected transients, timeouts, malformed
    responses) are counted apart from successful traffic: their wasted
    tokens accumulate under the :data:`RETRY_AGENT` key and ``retries``
    counts the attempts, so a degraded session's overhead is visible in
    cost accounting without polluting any real agent's numbers.
    """

    per_agent: dict[str, TokenUsage] = field(default_factory=dict)
    requests: int = 0
    wall_latency: float = 0.0
    retries: int = 0

    def record(self, agent: str, usage: TokenUsage, latency: float = 0.0) -> None:
        current = self.per_agent.setdefault(agent, TokenUsage())
        self.per_agent[agent] = current + usage
        self.requests += 1
        self.wall_latency += latency

    def record_retry(self, usage: TokenUsage, latency: float = 0.0) -> None:
        """One failed/abandoned request attempt: wasted tokens + wall time."""
        current = self.per_agent.setdefault(RETRY_AGENT, TokenUsage())
        self.per_agent[RETRY_AGENT] = current + usage
        self.retries += 1
        self.wall_latency += latency

    def total(self) -> TokenUsage:
        out = TokenUsage()
        for usage in self.per_agent.values():
            out = out + usage
        return out

    def agent(self, name: str) -> TokenUsage:
        return self.per_agent.get(name, TokenUsage())

    def summary(self) -> str:
        lines = []
        for name, usage in sorted(self.per_agent.items()):
            lines.append(
                f"{name}: {usage.input_tokens} in / {usage.output_tokens} out "
                f"({usage.cache_hit_rate:.0%} cache hits)"
            )
        total = self.total()
        lines.append(
            f"total: {total.input_tokens} in / {total.output_tokens} out "
            f"across {self.requests} requests, {self.wall_latency:.1f}s LLM latency"
        )
        if self.retries:
            wasted = self.agent(RETRY_AGENT)
            lines.append(
                f"retries: {self.retries} failed attempt(s) wasted "
                f"{wasted.input_tokens} in / {wasted.output_tokens} out"
            )
        return "\n".join(lines)
