"""Figure 7: rule-set extrapolation to previously unseen applications.

The rule set accumulated from the five *benchmarks* only is applied when
tuning the real applications (AMReX, MACSio) — testing whether knowledge
transfers to unseen workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.cluster.hardware import ClusterSpec
from repro.experiments.fig6 import SeriesComparison, compare_with_rules
from repro.experiments.harness import (
    DEFAULT_REPS,
    accumulate_rules,
    shared_extraction,
)
from repro.experiments.parallel import pmap
from repro.workloads.registry import BENCHMARKS, REAL_APPS


@dataclass
class Fig7Result:
    comparisons: list[SeriesComparison] = field(default_factory=list)
    rule_count: int = 0

    def get(self, workload: str) -> SeriesComparison:
        return next(c for c in self.comparisons if c.workload == workload)

    def render(self) -> str:
        lines = [
            "Figure 7 — rule-set extrapolation to unseen real applications "
            f"(rules learned from benchmarks only; {self.rule_count} rules):"
        ]
        lines += [c.render() for c in self.comparisons]
        return "\n".join(lines)


def run(
    cluster: ClusterSpec,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
    apps: list[str] | None = None,
    max_workers: int | None = None,
) -> Fig7Result:
    extraction = shared_extraction(cluster)
    rule_engine = accumulate_rules(
        cluster, BENCHMARKS, seed=seed, extraction=extraction
    )
    body = partial(
        compare_with_rules,
        cluster=cluster,
        reps=reps,
        seed=seed,
        extraction=extraction,
        rule_set=rule_engine.rule_set,
    )
    return Fig7Result(
        rule_count=len(rule_engine.rule_set),
        comparisons=pmap(body, apps or REAL_APPS, max_workers=max_workers),
    )
