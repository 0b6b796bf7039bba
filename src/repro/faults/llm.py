"""A fault-absorbing LLM client.

:class:`ResilientLLMClient` wraps :class:`repro.llm.client.LLMClient` with
the retry policy: before each attempt of a request it consults the fault
plan — a fired LLM site means that attempt never reaches the backend (the
provider errored, timed out, or returned an undecodable payload the caller
rejects before parsing), so the mock backend's prompt-cache state and the
successful request's usage are byte-identical to an unfaulted run.  Failed
attempts are charged separately: wasted tokens land on the ledger under
the ``llm_retries`` agent and backoff/timeout wall time accrues to LLM
latency, so degraded sessions are visible in cost accounting without
perturbing any other agent's numbers.
"""

from __future__ import annotations

from repro.faults.plan import LLM_SITES, FaultPlan
from repro.faults.retry import RetryPolicy, TransientFault
from repro.llm.api import ChatMessage, Completion, ToolSpec
from repro.llm.backend import render_prompt
from repro.llm.client import LLMClient
from repro.llm.tokens import TokenUsage, UsageLedger, count_tokens

#: Stand-in payload for a malformed response; only its token cost matters.
MALFORMED_PAYLOAD = '{"oops": truncated garbage that no parser accepts'


class ResilientLLMClient(LLMClient):
    """An :class:`LLMClient` that survives the plan's LLM fault sites."""

    def __init__(
        self,
        model="claude-3.7-sonnet",
        seed: int = 0,
        ledger: UsageLedger | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ):
        super().__init__(model, seed=seed, ledger=ledger)
        self.faults = faults if faults is not None else FaultPlan.none()
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
        if not self.faults.active:
            return super().complete(messages, tools=tools, agent=agent, session=session)
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
            return LLMClient.complete(
                self, messages, tools=tools, agent=agent, session=session
            )

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
