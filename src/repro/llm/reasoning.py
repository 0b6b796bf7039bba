"""The Tuning Agent's decision policy (the mock LLM's "reasoning").

Given the parsed prompt context — tunable parameters (with or without
accurate descriptions), the Analysis Agent's I/O report (or none), the
global rule set, hardware facts and the tuning history — decide the next
environment interaction:

- ask the Analysis Agent a follow-up question,
- propose and run a new configuration (with documented rationale), or
- end tuning (with justification), per §4.3.2 of the paper.

The policy is file-system-agnostic: it detects which backend the prompt's
parameters belong to (:func:`repro.backends.detect_backend`) and applies
that backend's :class:`~repro.backends.base.TuningHeuristics` — the target
ladders, secondary refinements, misguided actions and ungrounded traps that
encode what an LLM proposes for that file system.

Grounding semantics: when a parameter's prompt context includes an accurate
description, the engine uses the ground-truth effect direction; when
descriptions are missing (No-Descriptions ablation) it falls back to the
model's corrupted parametric beliefs (:mod:`repro.llm.knowledge`), which is
exactly how hallucinated definitions turn into misguided tuning decisions.
When no I/O report is available (No-Analysis ablation), workload
classification falls back to the model's generic prior — a large sequential
shared-file workload — and the engine tunes readahead and RPC-size style
parameters that do nothing for metadata-bound applications.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.backends import detect_backend
from repro.backends.base import KiB, MiB, PfsBackend
from repro.llm.knowledge import believed_direction_is_correct
from repro.llm.profiles import ModelProfile
from repro.llm.promptparse import AttemptRecord, IOReport, ParameterInfo
from repro.llm.tasks import CRITIC_REVIEW, REACT_DECIDE, REACT_THOUGHT, coerce_changes

#: Improvement (vs best so far) below which returns are "diminishing".
DIMINISHING_RETURNS = 0.05
#: Improvement that encourages a more aggressive step in the same direction.
ENCOURAGING_IMPROVEMENT = 0.08

WORKLOAD_CLASSES = (
    "metadata_small_files",
    "shared_random_small",
    "shared_seq_large",
    "fpp_data",
    "mixed",
)

# ---------------------------------------------------------------------------
# Prompt shapes of the alternative agent policies (ReACT, propose/critic).
#
# The sections below are backend-agnostic by construction: they carry only
# JSON change maps, free-text thoughts and the standard parameter section —
# the mock controller re-detects the backend from parameter names exactly
# like the tuning policy does.  Every policy prompt keeps the stable
# sections (hardware, parameters) first so the provider prompt cache keeps
# hitting on the shared prefix (§5.7).
# ---------------------------------------------------------------------------
S_REACT_TRANSCRIPT = "REACT TRANSCRIPT"
S_PROPOSED = "PROPOSED CONFIGURATION"
S_VETOED = "VETOED PROPOSALS"

REACT_DECIDE_TASK = (
    f"{REACT_DECIDE}\n"
    "You are operating as a ReACT agent. Review the transcript above and "
    "reply with exactly one token: REASON to think before acting, TOOL to "
    "take an environment action now, or HALT when the final thought has "
    "concluded the run."
)
REACT_THOUGHT_TASK = (
    f"{REACT_THOUGHT}\n"
    "Write the next thought for the transcript above: one short passage of "
    "reasoning about the tuning state. Prefix a concluding thought with "
    "'FINAL:' followed by the justification for stopping."
)
CRITIC_TASK = (
    f"{CRITIC_REVIEW}\n"
    "You are the critic of a propose/critic tuning pair. Review the "
    "proposed configuration against the documented parameter ranges and "
    "the grounding of its rationale. Reply APPROVE, VETO: <reason>, or "
    "AMEND followed by a corrected JSON changes object on the next line."
)

#: The tuning policy's speculative noise-exploration rationale opens with
#: this prefix; it is the one proposal class the critic refuses outright.
SPECULATIVE_RATIONALE_PREFIX = "Exploring whether a smaller client cache"


def build_react_transcript_section(lines: list[str]) -> str:
    body = "\n".join(lines) if lines else "(empty)"
    return f"## {S_REACT_TRANSCRIPT}\n{body}"


def parse_react_transcript(body: str) -> list[str]:
    body = body.strip()
    if not body or body == "(empty)":
        return []
    return body.splitlines()


def react_mode(lines: list[str]) -> str:
    """The ReACT turn controller: REASON | TOOL | HALT.

    Deterministic and draw-free: a fresh transcript (or one ending in an
    Observation) earns a thought first; a thought earns an action; a
    concluding ``FINAL:`` thought halts the run.
    """
    last = lines[-1] if lines else ""
    if last.startswith("Thought:"):
        return "HALT" if "FINAL:" in last else "TOOL"
    return "REASON"


def render_react_thought(decision: "Decision") -> str:
    """Verbalize a tuning decision as the transcript's next thought."""
    if decision.kind == "analyze":
        return (
            "I still need information from the trace before proposing: "
            f"{decision.question}"
        )
    if decision.kind == "run":
        return (
            f"{decision.rationale} I will test "
            f"{json.dumps(decision.changes, sort_keys=True)} next."
        )
    return f"FINAL: {decision.reason}"


def build_proposed_section(changes: dict[str, int], rationale: str) -> str:
    return (
        f"## {S_PROPOSED}\n"
        f"changes: {json.dumps(changes, sort_keys=True)}\n"
        f"rationale: {rationale}"
    )


def _changes_line(text: str) -> dict[str, int] | None:
    """A rendered changes map, or ``None`` when ``text`` is not a JSON
    object of integer-convertible values."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, dict):
        return None
    changes, invalid = coerce_changes(payload)
    return None if invalid else changes


def parse_proposed_section(body: str) -> tuple[dict[str, int], str]:
    """The proposal's changes and rationale; a changes line that is not a
    JSON object of integers is skipped."""
    changes: dict[str, int] = {}
    rationale = ""
    for line in body.splitlines():
        if line.startswith("changes: "):
            parsed = _changes_line(line[len("changes: "):])
            if parsed is not None:
                changes = parsed
        elif line.startswith("rationale: "):
            rationale = line[len("rationale: "):]
    return changes, rationale


def build_vetoed_section(vetoed: list[dict[str, int]]) -> str:
    lines = [f"## {S_VETOED}"]
    lines.extend(f"- {json.dumps(changes, sort_keys=True)}" for changes in vetoed)
    return "\n".join(lines)


def parse_vetoed_section(body: str) -> list[dict[str, int]]:
    """The vetoed change maps; lines that are not a JSON object of integers
    are skipped."""
    vetoed = []
    for raw in body.splitlines():
        line = raw.strip()
        if line.startswith("- "):
            parsed = _changes_line(line[2:])
            if parsed is not None:
                vetoed.append(parsed)
    return vetoed


def review_proposal(
    changes: dict[str, int], rationale: str, parameters: list[ParameterInfo]
) -> str:
    """The critic's deterministic, draw-free review of one proposal.

    Vetoes the speculative noise exploration (its rationale names no
    mechanism grounded in the I/O report); amends values that escape a
    purely numeric documented range (expression-valued bounds are left to
    the runner's clip, which knows the hardware facts); approves the rest.
    """
    if rationale.startswith(SPECULATIVE_RATIONALE_PREFIX):
        return (
            "VETO: the rationale is speculative — shrinking the client "
            "cache has no mechanism grounded in the I/O report, and the "
            "probe run it would consume is better spent on a documented "
            "lever."
        )
    by_name = {p.name: p for p in parameters}
    amended: dict[str, int] = {}
    for name, value in changes.items():
        info = by_name.get(name)
        if info is None:
            continue
        try:
            low, high = int(float(info.min_expr)), int(float(info.max_expr))
        except ValueError:
            continue
        if low > high or (low == 0 and high == 0):
            continue
        clipped = min(max(value, low), high)
        if clipped != value:
            amended[name] = clipped
    if amended:
        corrected = {**changes, **amended}
        return "AMEND\n" + json.dumps(corrected, sort_keys=True)
    return "APPROVE"


@dataclass
class TuningContext:
    """Everything the policy knows, parsed from the prompt."""

    parameters: list[ParameterInfo]
    report: IOReport | None
    rules: list[dict[str, Any]]
    facts: dict[str, float]
    initial_seconds: float
    attempts: list[AttemptRecord]
    max_attempts: int = 5
    #: Proposals a critic refused this run (propose/critic policy only);
    #: the policy treats them as tried so a veto can never livelock the loop.
    vetoed: list[dict[str, int]] = field(default_factory=list)
    #: The backend the parameters belong to, when the caller has already
    #: detected it for this parameter list; ``None`` detects it on use.
    backend: PfsBackend | None = None

    def parameter(self, name: str) -> ParameterInfo | None:
        for p in self.parameters:
            if p.name == name:
                return p
        return None

    def has_descriptions(self) -> bool:
        return any(p.description for p in self.parameters)


@dataclass
class Decision:
    """The policy's chosen environment interaction."""

    kind: str  # "analyze" | "run" | "end"
    question: str = ""
    changes: dict[str, int] = field(default_factory=dict)
    rationale: str = ""
    reason: str = ""


# ---------------------------------------------------------------------------
# Workload classification
# ---------------------------------------------------------------------------
def classify_workload(report: IOReport | None) -> str:
    """Map I/O report metrics to a workload class.

    Without a report (No-Analysis ablation) the generic prior is a large
    sequential shared-file workload.
    """
    if report is None or not report.metrics:
        return "shared_seq_large"
    meta_fraction = report.get("meta_time_fraction")
    xfer = report.get("common_access_size", MiB)
    seq = report.get("seq_fraction", 1.0)
    shared = report.get("shared_file") >= 1.0
    data_bytes = report.get("total_bytes_read") + report.get("total_bytes_written")
    file_count = report.get("file_count", 1)

    if meta_fraction >= 0.6:
        return "metadata_small_files"
    if (
        meta_fraction >= 0.05
        and file_count > 10_000
        and data_bytes > 1 << 30
    ):
        # Substantial data movement plus a very large file population:
        # bandwidth-heavy and metadata-heavy phases coexist (IO500-style).
        return "mixed"
    if shared and seq < 0.5 and xfer < MiB:
        return "shared_random_small"
    if not shared:
        return "fpp_data"
    return "shared_seq_large"


def context_tags(workload_class: str, report: IOReport | None) -> list[str]:
    """Descriptive tags attached to rules and used to match them later.

    For metadata-dominated workloads the access-pattern and transfer-size
    tags are meaningless (they describe tiny payload writes, not the I/O
    that matters), so they are omitted — which prevents rules learned on
    data-heavy workloads from being transplanted onto metadata storms.
    """
    tags = [workload_class]
    if report is None:
        return tags
    if report.get("file_count", 1) > 1000:
        tags.append("many_small_files")
    if workload_class == "metadata_small_files":
        return tags
    if report.get("shared_file") >= 1.0:
        tags.append("shared_file")
    if report.get("seq_fraction", 1.0) < 0.5:
        tags.append("random_access")
    else:
        tags.append("sequential_access")
    xfer = report.get("common_access_size", MiB)
    if xfer >= 4 * MiB:
        tags.append("large_transfers")
    elif xfer <= 256 * KiB:
        tags.append("small_transfers")
    return tags


#: Tags relevant to data-path parameter rules vs. metadata-path rules.
_DATA_RULE_TAGS = {
    "shared_file",
    "random_access",
    "sequential_access",
    "large_transfers",
    "small_transfers",
}
_META_RULE_TAGS = {"many_small_files"}


def rule_tags_for(
    parameter: str, workload_class: str, tags: list[str], backend: PfsBackend
) -> list[str]:
    """Tags attached to a rule about ``parameter``: the workload class plus
    the tag subset relevant to that parameter's domain."""
    relevant = (
        _META_RULE_TAGS
        if parameter in backend.tuning.meta_params
        else _DATA_RULE_TAGS
    )
    return [workload_class] + [t for t in tags if t in relevant]

#: Metrics the Tuning Agent wants before committing to a first config; if the
#: initial report lacks them it asks the Analysis Agent (the minor loop).
_DESIRED_METRICS = [
    ("avg_file_size", "What is the distribution of file sizes accessed by the application?"),
    ("meta_data_op_ratio", "What is the ratio of metadata operations to data operations?"),
]


class TuningPolicy:
    """Deterministic, profile-aware tuning decisions."""

    def __init__(self, profile: ModelProfile, rng: np.random.Generator):
        self.profile = profile
        self.rng = rng

    # -- main entry ------------------------------------------------------
    def decide(self, ctx: TuningContext) -> Decision:
        report = ctx.report
        backend = _backend_of(ctx)
        # Minor loop: request missing analysis before the first proposal.
        if report is not None and not ctx.attempts:
            for metric, question in _DESIRED_METRICS:
                if not report.has(metric) and question not in report.followups:
                    return Decision(kind="analyze", question=question)

        workload_class = classify_workload(report)
        if len(ctx.attempts) >= ctx.max_attempts:
            return Decision(
                kind="end",
                reason=(
                    "The configured attempt budget is exhausted; the best "
                    "observed configuration is retained."
                ),
            )

        if not ctx.attempts:
            return self._initial_proposal(ctx, workload_class, backend)
        return self._followup_proposal(ctx, workload_class, backend)

    # -- proposals ---------------------------------------------------------
    def _values_for(
        self, ctx: TuningContext, backend: PfsBackend, ladder, aggressive: bool
    ) -> dict[str, int]:
        """Instantiate a ladder, routing through beliefs when ungrounded."""
        heur = backend.tuning
        grounded = ctx.has_descriptions()
        changes: dict[str, int] = {}
        for name, moderate_fn, aggressive_fn in ladder:
            info = ctx.parameter(name)
            if info is None:
                continue
            fn = aggressive_fn if aggressive else moderate_fn
            if not grounded and not believed_direction_is_correct(
                self.profile, name, backend
            ):
                fn = heur.misguided_actions.get(name, fn)
            value = fn(ctx.report, ctx.facts)
            if value is None:
                continue
            changes[name] = int(value)
        if not grounded:
            # Without accurate descriptions, flawed parametric definitions
            # make additional parameters look relevant to this workload.
            workload_class = classify_workload(ctx.report)
            for name, value in heur.ungrounded_traps.get(workload_class, ()):
                if ctx.parameter(name) is None or name in changes:
                    continue
                if not believed_direction_is_correct(self.profile, name, backend):
                    changes[name] = value
        return changes

    def _initial_proposal(
        self, ctx: TuningContext, workload_class: str, backend: PfsBackend
    ) -> Decision:
        applied_rules = self._matching_rules(ctx, workload_class)
        if applied_rules:
            # One value per parameter: among matching rules (including
            # alternatives) prefer the best-evidenced recommendation.
            best_by_param: dict[str, dict[str, Any]] = {}
            for rule in applied_rules:
                value = rule.get("recommended_value")
                name = rule.get("parameter", "")
                if value is None or ctx.parameter(name) is None:
                    continue
                current = best_by_param.get(name)
                if current is None or (rule.get("observed_speedup") or 0) > (
                    current.get("observed_speedup") or 0
                ):
                    best_by_param[name] = rule
            changes = {
                name: int(rule["recommended_value"])
                for name, rule in best_by_param.items()
            }
            if changes:
                rationale = (
                    f"The I/O report matches the tuning context of "
                    f"{len(applied_rules)} accumulated rule(s) "
                    f"({workload_class}); applying their recommendations "
                    f"directly as the first configuration."
                )
                return Decision(kind="run", changes=changes, rationale=rationale)
        ladder = backend.tuning.ladders[workload_class]
        changes = self._values_for(ctx, backend, ladder, aggressive=False)
        # Less calibrated models occasionally omit a secondary lever from
        # their first proposal (recovered in later iterations).
        if len(changes) > 2 and self.rng.random() < self.profile.reasoning_noise:
            changes.pop(sorted(changes)[-1])
        rationale = self._explain(ctx, workload_class, changes, first=True)
        return Decision(kind="run", changes=changes, rationale=rationale)

    def _followup_proposal(
        self, ctx: TuningContext, workload_class: str, backend: PfsBackend
    ) -> Decision:
        heur = backend.tuning
        attempts = ctx.attempts
        best = max(attempts, key=lambda a: a.speedup)
        last = attempts[-1]
        previous_best = max(
            [a.speedup for a in attempts[:-1]] + [1.0]
        )
        improvement = last.speedup / max(previous_best, 1e-9) - 1.0

        vetoed = [frozenset(v.items()) for v in ctx.vetoed]

        # Occasional suboptimal exploration (model-specific noise).
        if self.rng.random() < self.profile.reasoning_noise:
            noise_param = ctx.parameter(heur.noise_param)
            if noise_param is not None and heur.noise_param not in best.changes:
                changes = dict(best.changes)
                changes[heur.noise_param] = heur.noise_value
                if frozenset(changes.items()) not in vetoed:
                    return Decision(
                        kind="run",
                        changes=changes,
                        rationale=(
                            "Exploring whether a smaller client cache frees "
                            "memory bandwidth for the I/O path."
                        ),
                    )

        tried = [frozenset(a.changes.items()) for a in attempts] + vetoed

        def untried(changes: dict[str, int]) -> bool:
            return bool(changes) and frozenset(changes.items()) not in tried

        if last.speedup < 0.98 * best.speedup:
            # Regression: revert to the best configuration and refine from it.
            candidate = self._next_candidate(
                ctx, workload_class, backend, base=best.changes
            )
            if candidate is not None and untried(candidate):
                return Decision(
                    kind="run",
                    changes=candidate,
                    rationale=(
                        "The last attempt regressed; reverting to the best "
                        "configuration observed so far and refining a "
                        "different dimension."
                    ),
                )
            return Decision(
                kind="end",
                reason=(
                    "The last change regressed performance and no promising "
                    "unexplored dimension remains; keeping the best observed "
                    "configuration."
                ),
            )

        if improvement >= ENCOURAGING_IMPROVEMENT or last.speedup <= 1.02:
            # Clear progress (or nothing gained yet): push the same direction
            # harder, or pivot if already at the aggressive tier.
            aggressive = self._values_for(
                ctx, backend, heur.ladders[workload_class], aggressive=True
            )
            merged = dict(best.changes)
            merged.update(aggressive)
            if untried(merged):
                return Decision(
                    kind="run",
                    changes=merged,
                    rationale=(
                        "Performance improved in the expected direction; "
                        "testing a more aggressive configuration along the "
                        "same parameters."
                    ),
                )

        # Diminishing returns: one secondary refinement, then stop.
        candidate = self._next_candidate(
            ctx, workload_class, backend, base=best.changes
        )
        if candidate is not None and untried(candidate) and improvement >= DIMINISHING_RETURNS:
            return Decision(
                kind="run",
                changes=candidate,
                rationale=(
                    "Gains are tapering; probing one secondary dimension "
                    "before concluding."
                ),
            )
        if best.speedup > 1.02:
            reason = (
                f"Performance has improved {best.speedup:.2f}x over the "
                "default configuration and the most recent changes show "
                "diminishing returns; further tuning is unlikely to help."
            )
        else:
            reason = (
                "No tried configuration outperformed the defaults and the "
                "explored directions are exhausted; retaining the default "
                "configuration."
            )
        return Decision(kind="end", reason=reason)

    def _next_candidate(
        self,
        ctx: TuningContext,
        workload_class: str,
        backend: PfsBackend,
        base: dict[str, int],
    ) -> dict[str, int] | None:
        heur = backend.tuning
        grounded = ctx.has_descriptions()
        for name, fn in heur.secondary.get(workload_class, ()):
            info = ctx.parameter(name)
            if info is None:
                continue
            if not grounded and not believed_direction_is_correct(
                self.profile, name, backend
            ):
                fn = heur.misguided_actions.get(name, fn)
            value = int(fn(ctx.report, ctx.facts))
            if base.get(name) == value:
                continue
            changes = dict(base)
            changes[name] = value
            return changes
        return None

    def _matching_rules(
        self, ctx: TuningContext, workload_class: str
    ) -> list[dict[str, Any]]:
        """Rules whose recorded tuning context matches this workload.

        A match requires the workload-class tag itself, or at least two
        shared descriptive tags — a lone generic tag like ``shared_file``
        is not enough to transplant guidance across behaviour classes.
        """
        tags = set(context_tags(workload_class, ctx.report))
        matched = []
        for rule in ctx.rules:
            rule_tags = set(rule.get("context_tags", []))
            if workload_class in rule_tags or len(rule_tags & tags) >= 2:
                matched.append(rule)
        return matched

    def _explain(
        self,
        ctx: TuningContext,
        workload_class: str,
        changes: dict[str, int],
        first: bool,
    ) -> str:
        narrative = {
            "metadata_small_files": (
                "The I/O report shows metadata operations dominate the run "
                "time across many small files; raising the client metadata "
                "concurrency limits and the statahead window should lift "
                "the per-client operation rate, while the stripe count is "
                "deliberately kept at 1 to avoid per-file object overhead."
            ),
            "shared_random_small": (
                "The application issues small random accesses against a "
                "shared file; striping the file across all OSTs spreads the "
                "per-request overhead, and more RPCs in flight plus inline "
                "short I/O reduce per-request latency."
            ),
            "shared_seq_large": (
                "Large sequential transfers against a shared file are "
                "bandwidth-bound; striping across all OSTs, larger bulk "
                "RPCs and a deeper in-flight window raise aggregate "
                "throughput."
            ),
            "fpp_data": (
                "Each process writes its own file; larger RPCs and deeper "
                "pipelines improve per-stream efficiency while round-robin "
                "file placement already balances the OSTs."
            ),
            "mixed": (
                "The workload mixes bandwidth-heavy and metadata-heavy "
                "phases; the configuration balances striping and RPC sizing "
                "for the data phases with metadata concurrency and "
                "statahead for the file-count-heavy phases."
            ),
        }[workload_class]
        stage = "Initial configuration" if first else "Refined configuration"
        return f"{stage} for a {workload_class.replace('_', ' ')} workload. {narrative}"

    # -- reflection --------------------------------------------------------
    def summarize_rules(self, ctx: TuningContext) -> list[dict[str, Any]]:
        """Distill the tuning run into reusable rules (§4.4)."""
        if not ctx.attempts:
            return []
        backend = _backend_of(ctx)
        workload_class = classify_workload(ctx.report)
        tags = context_tags(workload_class, ctx.report)
        best = max(ctx.attempts, key=lambda a: a.speedup)
        rules: list[dict[str, Any]] = []
        if best.speedup <= 1.02:
            return rules
        context_text = self._context_text(workload_class, ctx.report)
        for name, value in sorted(best.changes.items()):
            description = self._rule_text(name, value, workload_class, backend)
            rules.append(
                {
                    "parameter": name,
                    "rule_description": description,
                    "tuning_context": context_text,
                    "context_tags": rule_tags_for(name, workload_class, tags, backend),
                    "recommended_value": value,
                    "observed_speedup": round(best.speedup, 3),
                }
            )
        # Negative knowledge: record regressions caused by a single change.
        for attempt in ctx.attempts:
            if attempt.speedup < 0.9:
                for name, value in attempt.changes.items():
                    if best.changes.get(name) == value:
                        continue
                    rules.append(
                        {
                            "parameter": name,
                            "rule_description": (
                                f"Avoid setting {name} to {value} in this "
                                "context; it regressed performance "
                                f"({attempt.speedup:.2f}x)."
                            ),
                            "tuning_context": context_text,
                            "context_tags": rule_tags_for(
                                name, workload_class, tags, backend
                            ),
                            "recommended_value": None,
                            "observed_speedup": round(attempt.speedup, 3),
                        }
                    )
                break
        return rules

    def _context_text(self, workload_class: str, report: IOReport | None) -> str:
        if report is None:
            return workload_class.replace("_", " ")
        bits = [workload_class.replace("_", " ")]
        if report.get("file_count", 1) > 1000:
            bits.append(f"~{int(report.get('file_count'))} files accessed")
        xfer = report.get("common_access_size", 0)
        if xfer:
            bits.append(f"dominant access size ~{_human_bytes(xfer)}")
        if report.get("shared_file") >= 1:
            bits.append("shared-file access")
        meta = report.get("meta_time_fraction", 0)
        if meta >= 0.2:
            bits.append(f"{meta:.0%} of I/O time in metadata operations")
        return "; ".join(bits)

    def _rule_text(
        self, name: str, value: int, workload_class: str, backend: PfsBackend
    ) -> str:
        role = backend.role_of.get(name)
        if role == "stripe_size_bytes":
            return (
                "Choose the stripe size based on the dominant transfer and "
                "file size: large streaming transfers benefit from stripes "
                "at least as large as one transfer, while small-file "
                "workloads should keep the default."
            )
        if role == "stripe_count":
            targets = backend.hardware_terms.get("storage_targets", "OSTs")
            return (
                f"Stripe heavily shared data files across all available "
                f"{targets} to multiply bandwidth and spread lock traffic; "
                "keep the stripe count at 1 for workloads creating many "
                "small files."
            )
        if name in backend.tuning.meta_params:
            return (
                f"For metadata-dominated workloads raise {name} well above "
                "its default so per-client operation concurrency matches "
                "the number of processes per node (observed effective "
                f"value: {value})."
            )
        return (
            f"Set {name} toward {value} for workloads with this I/O "
            "behaviour; the direction was validated by measured speedups "
            "during tuning."
        )


def _backend_of(ctx: TuningContext) -> PfsBackend:
    # The policy infers which file system it is tuning from the parameter
    # names in the prompt (as a real model would).
    if ctx.backend is None:
        ctx.backend = detect_backend([p.name for p in ctx.parameters])
    return ctx.backend


def _human_bytes(n: float) -> str:
    if n >= MiB:
        return f"{n / MiB:g} MiB"
    if n >= KiB:
        return f"{n / KiB:g} KiB"
    return f"{int(n)} B"
