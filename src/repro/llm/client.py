"""Client facade over an LLM backend.

What the agents program against: a ``complete`` call with usage recording,
simulated inference latency accounting, seeded determinism and the fault
plane's LLM sites.  Swapping in a real provider SDK would only touch this
module.

Before each attempt of a request the client consults its fault plan: a
fired LLM site means that attempt never reaches the backend (the provider
errored, timed out, or returned an undecodable payload), so the mock's
prompt-cache state and the successful request's usage match an unfaulted
run.  Failed attempts are charged separately: wasted tokens land on the
ledger under the ``llm_retries`` agent and backoff/timeout wall time
accrues to LLM latency.  While the plan is inert (a client built without
one gets :data:`~repro.faults.plan.NO_FAULTS`) every request goes straight
to the backend, so the zero-fault plan is the plain path by construction.
"""

from __future__ import annotations

from repro.faults.plan import LLM_SITES, NO_FAULTS, FaultPlan
from repro.faults.retry import RetryPolicy, TransientFault
from repro.llm.api import ChatMessage, Completion, ToolSpec
from repro.llm.backend import MockLLM, render_prompt
from repro.llm.profiles import ModelProfile, get_profile
from repro.llm.tokens import TokenUsage, UsageLedger, count_tokens

#: Stand-in payload for a malformed response; only its token cost matters.
MALFORMED_PAYLOAD = '{"oops": truncated garbage that no parser accepts'


class LLMClient:
    """One logical API client bound to a model profile and a usage ledger."""

    def __init__(
        self,
        model: str | ModelProfile = "claude-3.7-sonnet",
        seed: int = 0,
        ledger: UsageLedger | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.profile = model if isinstance(model, ModelProfile) else get_profile(model)
        self.backend = MockLLM(self.profile, seed=seed)
        self.ledger = ledger if ledger is not None else UsageLedger()
        self.faults = faults if faults is not None else NO_FAULTS
        self.retry = retry if retry is not None else RetryPolicy()
        #: Absorbed faults per site (feeds the session's recovery record).
        self.fault_counts: dict[str, int] = {}
        self._request_index: dict[str, int] = {}

    def complete(
        self,
        messages: list[ChatMessage],
        tools: list[ToolSpec] | None = None,
        agent: str = "generic",
        session: str | None = None,
    ) -> Completion:
        """One chat completion; usage is recorded under ``agent``.

        Under an armed plan the request is retried through the client's
        retry policy, and exhausting it raises
        :class:`~repro.faults.retry.FaultBudgetExhausted`.
        """
        if not self.faults.active:
            return self._send(messages, tools, agent, session)
        # Logical request identity: the session's name plus this client's
        # per-session call index.  Session names embed workload and run
        # seed, so the key — hence the fault draw — is stable across
        # worker counts and interleavings.
        session_key = session or agent
        index = self._request_index.get(session_key, 0) + 1
        self._request_index[session_key] = index
        key = f"llm:{session_key}:{index}"

        def attempt(n: int) -> Completion:
            for site in LLM_SITES:
                if self.faults.should_fire(site, f"{key}:a{n}"):
                    raise TransientFault(site, key=f"{key}:a{n}")
            return self._send(messages, tools, agent, session)

        def record(fault: TransientFault, n: int, delay: float) -> None:
            # A failed attempt sent the prompt the backend bills, so it is
            # charged that prompt's count.
            wasted = TokenUsage(
                input_tokens=count_tokens(render_prompt(messages, tools))
            )
            latency = delay + self.profile.latency_per_request
            if fault.site == "llm.timeout":
                latency = delay + self.retry.request_timeout
            elif fault.site == "llm.malformed":
                wasted = wasted + TokenUsage(
                    output_tokens=count_tokens(MALFORMED_PAYLOAD)
                )
            self.ledger.record_retry(wasted, latency=latency)
            self.fault_counts[fault.site] = self.fault_counts.get(fault.site, 0) + 1

        return self.retry.execute(attempt, site="llm", key=key, plan=self.faults, record=record)

    def _send(
        self,
        messages: list[ChatMessage],
        tools: list[ToolSpec] | None,
        agent: str,
        session: str | None,
    ) -> Completion:
        """One request that reaches the backend, recorded under ``agent``."""
        completion = self.backend.complete(
            messages, tools=tools, session=session or agent
        )
        self.ledger.record(
            agent, completion.usage, latency=self.profile.latency_per_request
        )
        return completion

    def ask(self, prompt: str, agent: str = "generic", session: str | None = None) -> str:
        """Single-turn convenience wrapper."""
        completion = self.complete(
            [ChatMessage(role="user", content=prompt)], agent=agent, session=session
        )
        return completion.content

    def cost_usd(self) -> float:
        """Total API cost of everything this client has done."""
        total = self.ledger.total()
        return self.profile.cost_usd(
            total.input_tokens, total.output_tokens, total.cached_input_tokens
        )
