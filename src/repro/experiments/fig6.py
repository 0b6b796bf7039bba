"""Figure 6: rule-set interpolation.

All five benchmarks are tuned once (accumulating the global rule set), then
tuned again with the rule set applied.  Per-iteration speedup series show
the improved first guess and earlier conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.cluster.hardware import ClusterSpec
from repro.experiments.harness import (
    DEFAULT_REPS,
    accumulate_rules,
    mean_series,
    run_sessions,
    shared_extraction,
)
from repro.experiments.parallel import pmap
from repro.rag.extraction import ExtractionResult
from repro.rules.model import RuleSet
from repro.workloads.registry import BENCHMARKS


@dataclass
class SeriesComparison:
    workload: str
    without_rules: list[float]
    with_rules: list[float]
    attempts_without: float
    attempts_with: float

    def render(self) -> str:
        wo = " ".join(f"{x:5.2f}" for x in self.without_rules)
        wi = " ".join(f"{x:5.2f}" for x in self.with_rules)
        return (
            f"{self.workload:16s}\n"
            f"    no rules   [{wo}] ({self.attempts_without:.1f} attempts)\n"
            f"    with rules [{wi}] ({self.attempts_with:.1f} attempts)"
        )


@dataclass
class Fig6Result:
    comparisons: list[SeriesComparison] = field(default_factory=list)
    rule_count: int = 0

    def get(self, workload: str) -> SeriesComparison:
        return next(c for c in self.comparisons if c.workload == workload)

    def render(self) -> str:
        lines = [
            "Figure 6 — speedup vs iteration, with and without the global "
            f"rule set ({self.rule_count} rules accumulated):"
        ]
        lines += [c.render() for c in self.comparisons]
        return "\n".join(lines)


def compare_with_rules(
    name: str,
    cluster: ClusterSpec,
    reps: int,
    seed: int,
    extraction: ExtractionResult,
    rule_set: RuleSet,
) -> SeriesComparison:
    """One workload's without/with-rules session pair (fig6 and fig7 body).

    Takes the bare ``rule_set`` (not the engine carrying it) so pool workers
    only ship the rules, not a second copy of cluster + extraction.
    """
    without = run_sessions(
        cluster, name, reps=reps, seed=seed, extraction=extraction
    )
    with_rules = run_sessions(
        cluster,
        name,
        reps=reps,
        seed=seed + 500,
        extraction=extraction,
        rule_set=rule_set,
    )
    return SeriesComparison(
        workload=name,
        without_rules=mean_series(without),
        with_rules=mean_series(with_rules),
        attempts_without=sum(len(s.attempts) for s in without) / len(without),
        attempts_with=sum(len(s.attempts) for s in with_rules) / len(with_rules),
    )


def run(
    cluster: ClusterSpec,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
    workloads: list[str] | None = None,
    max_workers: int | None = None,
) -> Fig6Result:
    extraction = shared_extraction(cluster)
    names = workloads or BENCHMARKS
    rule_engine = accumulate_rules(cluster, names, seed=seed, extraction=extraction)
    body = partial(
        compare_with_rules,
        cluster=cluster,
        reps=reps,
        seed=seed,
        extraction=extraction,
        rule_set=rule_engine.rule_set,
    )
    return Fig6Result(
        rule_count=len(rule_engine.rule_set),
        comparisons=pmap(body, names, max_workers=max_workers),
    )
