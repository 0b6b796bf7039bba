"""The MockLLM backend.

Every request first advances the session's
:class:`~repro.llm.view.ConversationView`, one incremental parsed view per
session, shared by every handler and dropped with this model (hence with
its client).  Then:

- a request that offers tools is the Tuning Agent's tool turn: the
  :class:`~repro.llm.reasoning.TuningPolicy` decides over the parsed prompt
  context and answers with one tool call;
- any other request is answered by the handler that
  :data:`repro.llm.tasks.TASKS` names for the conversation's ``## TASK:``
  marker.  The analysis tasks follow the code-execute-summarize state
  machine of a code-executing agent; the extraction judgments answer from
  the retrieved chunks when they contain the documentation and fall back
  to (possibly hallucinated) parametric beliefs when they do not; PARAM
  INFO answers from parametric knowledge alone (the Figure 2 no-RAG
  baseline); the rule tasks produce and merge strict-JSON rule sets; the
  ReACT and critic tasks serve the alternative agent policies.  A request
  with no known marker gets a generic reply.

Every request is token-accounted against the session prompt cache.
"""

from __future__ import annotations

import json
import re

from repro.backends import detect_backend
from repro.backends.base import PfsBackend
from repro.llm import analysis_codegen as codegen
from repro.llm import promptparse as pp
from repro.llm.api import ChatMessage, Completion, ToolCall, ToolSpec
from repro.llm.knowledge import parametric_belief
from repro.llm.profiles import ModelProfile
from repro.llm.reasoning import (
    S_PROPOSED,
    S_REACT_TRANSCRIPT,
    S_VETOED,
    Decision,
    TuningContext,
    TuningPolicy,
    parse_proposed_section,
    parse_react_transcript,
    parse_vetoed_section,
    react_mode,
    render_react_thought,
    review_proposal,
)
from repro.llm.tasks import TASKS
from repro.llm.tokens import PromptCache, TokenUsage, count_tokens
from repro.llm.view import ConversationView
from repro.rules.merge import merge_rule_sets
from repro.rules.model import RuleSet
from repro.sim.random import RngStreams

#: The reply to a request that carries no known task.
NO_TASK_REPLY = (
    "I can help with parallel file system tuning tasks; please provide a "
    "structured task section."
)


def render_prompt(messages: list[ChatMessage], tools: list[ToolSpec] | None) -> str:
    """The prompt text a request is billed for.

    Tools are rendered after the conversation so that tool-bearing and
    tool-free requests in the same session share a cacheable prefix.
    """
    parts = [f"[{m.role}]\n{m.content}" for m in messages]
    if tools:
        parts.append("AVAILABLE TOOLS:\n" + "\n".join(t.render() for t in tools))
    return "\n\n".join(parts)


def _section_backend(body: str) -> PfsBackend:
    """The backend a parameter section's names belong to."""
    return detect_backend([p.name for p in pp.parse_parameter_section(body)])


class MockLLM:
    """Deterministic model backend for one profile."""

    def __init__(self, profile: ModelProfile, seed: int = 0):
        self.profile = profile
        # Different models must not share random draws for the same seed.
        self.rng_streams = RngStreams(seed).spawn(f"model:{profile.name}")
        self.cache = PromptCache()
        self._views: dict[str, ConversationView] = {}

    # ------------------------------------------------------------------
    def complete(
        self,
        messages: list[ChatMessage],
        tools: list[ToolSpec] | None = None,
        session: str = "default",
    ) -> Completion:
        prompt = render_prompt(messages, tools)
        cached = self.cache.lookup_and_store(session, prompt)
        view = self._views.get(session)
        if view is None:
            view = self._views[session] = ConversationView()
        view.update(messages)

        tool_calls: list[ToolCall] = []
        if tools:
            decision = self._decide(view, "tuning")
            tool_calls = [self._decision_to_call(decision)]
            content = decision.rationale or decision.reason
        else:
            task = TASKS.get(view.task)
            content = (
                NO_TASK_REPLY if task is None else getattr(self, task.handler)(view)
            )

        output_text = content + "".join(
            json.dumps({"tool": c.name, "arguments": c.arguments}) for c in tool_calls
        )
        input_tokens = count_tokens(prompt)
        usage = TokenUsage(
            input_tokens=input_tokens,
            output_tokens=count_tokens(output_text),
            cached_input_tokens=min(cached, input_tokens),
        )
        return Completion(
            content=content, tool_calls=tool_calls, usage=usage, model=self.profile.name
        )

    # -- tuning ----------------------------------------------------------
    def _tuning_context(self, view: ConversationView) -> TuningContext:
        """The full tuning context shared by every agent-policy task."""
        sections = view.sections
        initial, attempts = view.parsed(pp.S_HISTORY, pp.parse_history_section)
        return TuningContext(
            parameters=view.parsed(pp.S_PARAMETERS, pp.parse_parameter_section),
            report=(
                view.parsed(pp.S_IO_REPORT, pp.parse_io_report)
                if pp.S_IO_REPORT in sections
                else None
            ),
            rules=(
                view.parsed(pp.S_RULES, pp.parse_rules_section)
                if pp.S_RULES in sections
                else []
            ),
            facts=view.parsed(pp.S_HARDWARE, pp.parse_hardware_facts),
            initial_seconds=initial,
            attempts=attempts,
            max_attempts=view.max_attempts,
            vetoed=(
                view.parsed(S_VETOED, parse_vetoed_section)
                if S_VETOED in sections
                else []
            ),
        )

    def _decide(self, view: ConversationView, stream: str) -> Decision:
        ctx = self._tuning_context(view)
        ctx.backend = view.parsed(pp.S_PARAMETERS, _section_backend)
        return TuningPolicy(self.profile, self.rng_streams.stream(stream)).decide(ctx)

    def _react_thought(self, view: ConversationView) -> str:
        # Thought turns draw from their own stream: a policy that thinks
        # between actions must not perturb the act decisions other policies
        # (and the parity fixtures) take from the "tuning" stream.
        return render_react_thought(self._decide(view, "react"))

    def _react_decide(self, view: ConversationView) -> str:
        return react_mode(view.parsed(S_REACT_TRANSCRIPT, parse_react_transcript))

    def _critic_review(self, view: ConversationView) -> str:
        parameters = view.parsed(pp.S_PARAMETERS, pp.parse_parameter_section)
        changes, rationale = view.parsed(S_PROPOSED, parse_proposed_section)
        return review_proposal(changes, rationale, parameters)

    @staticmethod
    def _decision_to_call(decision: Decision) -> ToolCall:
        if decision.kind == "analyze":
            return ToolCall("analysis_question", {"question": decision.question})
        if decision.kind == "run":
            return ToolCall(
                "run_configuration",
                {"changes": decision.changes, "rationale": decision.rationale},
            )
        return ToolCall("end_tuning", {"reason": decision.reason})

    # -- rules -------------------------------------------------------------
    def _summarize_rules(self, view: ConversationView) -> str:
        policy = TuningPolicy(self.profile, self.rng_streams.stream("reflection"))
        return json.dumps(policy.summarize_rules(self._tuning_context(view)), indent=1)

    def _merge_rules(self, view: ConversationView) -> str:
        existing = RuleSet.from_json(
            view.parsed(pp.S_RULES, pp.parse_rules_section, "[]")
        )
        new_body = _tail_after(view.last_user, "NEW RULES:")
        new = RuleSet.loads(new_body) if new_body.strip() else RuleSet()
        # Rendered through the rule-set memo: the merged set is the next
        # session's rule-set section, whose render is then a memo hit.
        return pp.dumps_indented(merge_rule_sets(existing, new).to_json())

    # -- extraction judgments ----------------------------------------------
    def _judge_documentation(self, view: ConversationView) -> str:
        task_text = view.last_user
        param = _named_parameter(task_text)
        chunks = _tail_after(task_text, "RETRIEVED CONTEXT:")
        base = param.rsplit(".", 1)[-1]
        body = _parameter_section_body(chunks, base, param)
        section_present = bool(body) and f"Parameter name: {param}" in body
        has_range = section_present and "Valid range:" in body
        if section_present and has_range:
            return (
                f"SUFFICIENT: the documentation defines {param} and states "
                "its valid range."
            )
        if section_present:
            return (
                f"INSUFFICIENT: {param} is mentioned but no valid range is "
                "documented."
            )
        return f"INSUFFICIENT: the retrieved context does not document {param}."

    def _describe_parameter(self, view: ConversationView) -> str:
        task_text = view.last_user
        param = _named_parameter(task_text)
        chunks = _tail_after(task_text, "RETRIEVED CONTEXT:")
        base = param.rsplit(".", 1)[-1]
        body = _parameter_section_body(chunks, base, param)
        if body and "Definition:" in body:
            definition = " ".join(_line_after(body, "Definition:").split())
            perf = " ".join(_line_after(body, "Performance notes:").split())
            range_match = re.search(
                r"Valid range: (.+?) \.\. (.+?)\. Default: (\d+)\.", body
            )
            unit_match = re.search(r"Unit: (\w+)\.", body)
            if range_match:
                low = _strip_expression(range_match.group(1))
                high = _strip_expression(range_match.group(2))
                default = range_match.group(3)
            else:
                low, high, default = "0", "0", "0"
            description = definition + (f" {perf}" if perf else "")
            binary = "yes" if (low == "0" and high == "1") else "no"
            return (
                f"grounded: yes\n"
                f"parameter: {param}\n"
                f"unit: {unit_match.group(1) if unit_match else 'count'}\n"
                f"default: {default}\n"
                f"range: {low} .. {high}\n"
                f"binary: {binary}\n"
                f"description: {description}"
            )
        # No grounding available: answer from (possibly hallucinated)
        # parametric knowledge.
        belief = parametric_belief(self.profile, param)
        return (
            f"grounded: no\n"
            f"parameter: {param}\n"
            f"unit: count\n"
            f"default: 0\n"
            f"range: {belief.min_value:g} .. {belief.max_value:g}\n"
            f"binary: no\n"
            f"description: {belief.definition}"
        )

    _POSITIVE_IMPACT = (
        "throughput",
        "bandwidth",
        "concurrency",
        "latency",
        "readahead",
        "prefetch",
        "operation rate",
        "creation and deletion",
        "metadata-intensive",
        "pipelin",
        "coalesce",
        "re-read",
        "into one rpc",
        "directly",
        "amortize",
        "lever",
    )
    _NEGATIVE_IMPACT = (
        "memory usage",
        "housekeeping",
        "testing",
        "availability",
        "fault handling",
        "accounting",
        "not a performance",
        "keep-alive",
    )

    def _judge_impact(self, view: ConversationView) -> str:
        task_text = view.last_user
        param = _named_parameter(task_text)
        description = _tail_after(task_text, "DESCRIPTION:").lower()
        positive = sum(k in description for k in self._POSITIVE_IMPACT)
        negative = sum(k in description for k in self._NEGATIVE_IMPACT)
        if positive > negative and positive > 0:
            return (
                f"SIGNIFICANT: the documented behaviour of {param} directly "
                "influences I/O performance "
                f"({positive} performance-related aspects identified)."
            )
        return (
            f"MINOR: {param} primarily concerns resource management or "
            "testing rather than I/O performance."
        )

    def _param_info(self, view: ConversationView) -> str:
        belief = parametric_belief(self.profile, _named_parameter(view.last_user))
        return belief.render()

    # -- analysis state machine ---------------------------------------------
    def _analyze_io(self, view: ConversationView) -> str:
        return self._analysis_turn(view, followup=False)

    def _followup_analysis(self, view: ConversationView) -> str:
        return self._analysis_turn(view, followup=True)

    def _analysis_turn(self, view: ConversationView, followup: bool) -> str:
        last = view.last_message
        if "EXECUTION OUTPUT:" in last:
            output = _tail_after(last, "EXECUTION OUTPUT:")
            metrics = codegen.metrics_from_output(output)
            if not metrics:
                # The code failed (or printed nothing usable): try again
                # rather than fabricating a report from thin air.
                if followup:
                    return (
                        "ANALYSIS FAILED: execution produced no metrics "
                        f"({output.strip()[:120]})"
                    )
                return f"```python\n{codegen.BASE_ANALYSIS_CODE}\n```"
            if followup:
                lines = [
                    f"ANSWER metric={name} value={value:g}"
                    for name, value in metrics.items()
                ]
                lines.append(
                    "These values were computed directly from the Darshan "
                    "counter dataframes."
                )
                return "\n".join(lines)
            header_match = re.search(r"header: (.+)", view.text)
            header = header_match.group(1) if header_match else "the trace"
            report = codegen.report_from_metrics(metrics, header)
            return "REPORT READY\n" + pp.build_io_report_section(report)
        if followup:
            question_match = re.search(r"QUESTION: (.+)", view.text)
            question = question_match.group(1) if question_match else ""
            code = codegen.code_for_task(question)
        else:
            code = codegen.BASE_ANALYSIS_CODE
        return f"```python\n{code}\n```"


# ---------------------------------------------------------------------------
def _named_parameter(text: str) -> str:
    match = re.search(r"PARAMETER: ([\w.]+)", text)
    if not match:
        raise ValueError("task text names no PARAMETER")
    return match.group(1)


def _tail_after(text: str, marker: str) -> str:
    index = text.find(marker)
    return text[index + len(marker):] if index >= 0 else ""


def _parameter_section_body(chunks: str, basename: str, fullname: str | None = None) -> str:
    """The section body for a parameter; disambiguates shared basenames
    (osc. and mdc. both expose max_rpcs_in_flight) via the full dotted name."""
    marker = f"=== The {basename} parameter ==="
    start = 0
    fallback = ""
    while True:
        start = chunks.find(marker, start)
        if start < 0:
            return fallback
        rest = chunks[start + len(marker):]
        end = rest.find("=== The ")
        body = rest[:end] if end >= 0 else rest
        if fullname is None or f"Parameter name: {fullname}" in body:
            return body
        if not fallback:
            fallback = body
        start += len(marker)


_FIELD_BOUNDARY = r"(?=Performance notes:|Valid range:|Refer to|Default:|===|$)"


def _line_after(body: str, marker: str) -> str:
    # Chunking collapses newlines, so fields are delimited by the next known
    # marker rather than by end-of-line.
    match = re.search(re.escape(marker) + r"\s*(.+?)" + _FIELD_BOUNDARY, body, re.DOTALL)
    return match.group(1).strip() if match else ""


def _strip_expression(token: str) -> str:
    token = token.strip()
    match = re.match(r"\(expression: (.+)\)", token)
    return match.group(1) if match else token
