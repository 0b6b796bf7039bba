"""Figure 5: STELLAR vs. default and human expert on the five benchmarks.

Bars are mean wall time over eight repetitions with 90% confidence
intervals; STELLAR bars use the best configuration found by a fresh (no
rule set) tuning run capped at five attempts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.baselines import expert_updates
from repro.cluster.hardware import ClusterSpec
from repro.experiments.harness import (
    DEFAULT_REPS,
    Measurement,
    measure_config,
    run_sessions,
    shared_extraction,
)
from repro.experiments.parallel import pmap
from repro.rag.extraction import ExtractionResult
from repro.workloads.registry import BENCHMARKS


@dataclass
class WorkloadComparison:
    workload: str
    default: Measurement
    expert: Measurement
    stellar: Measurement
    attempts_used: list[int] = field(default_factory=list)

    @property
    def stellar_speedup(self) -> float:
        return self.default.mean / self.stellar.mean

    @property
    def expert_speedup(self) -> float:
        return self.default.mean / self.expert.mean

    def render(self) -> str:
        return (
            f"{self.workload:16s} default={self.default.mean:8.2f}s "
            f"expert={self.expert.mean:8.2f}s ({self.expert_speedup:4.2f}x) "
            f"stellar={self.stellar.mean:8.2f}s ({self.stellar_speedup:4.2f}x) "
            f"attempts={sum(self.attempts_used) / len(self.attempts_used):.1f}"
        )


@dataclass
class Fig5Result:
    comparisons: list[WorkloadComparison] = field(default_factory=list)

    def get(self, workload: str) -> WorkloadComparison:
        return next(c for c in self.comparisons if c.workload == workload)

    def render(self) -> str:
        lines = ["Figure 5 — tuning performance vs default and expert (wall time):"]
        lines += [c.render() for c in self.comparisons]
        return "\n".join(lines)


def _one_workload(
    name: str,
    cluster: ClusterSpec,
    reps: int,
    seed: int,
    extraction: ExtractionResult,
) -> WorkloadComparison:
    default = measure_config(cluster, name, {}, "default", reps=reps, seed=seed)
    expert = measure_config(
        cluster,
        name,
        expert_updates(name, cluster.backend),
        "expert",
        reps=reps,
        seed=seed + 1,
    )
    sessions = run_sessions(
        cluster, name, reps=reps, seed=seed, extraction=extraction
    )
    stellar = Measurement(label="stellar", times=[s.best_seconds for s in sessions])
    return WorkloadComparison(
        workload=name,
        default=default,
        expert=expert,
        stellar=stellar,
        attempts_used=[len(s.attempts) for s in sessions],
    )


def run(
    cluster: ClusterSpec,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
    workloads: list[str] | None = None,
    max_workers: int | None = None,
) -> Fig5Result:
    extraction = shared_extraction(cluster)
    body = partial(
        _one_workload, cluster=cluster, reps=reps, seed=seed, extraction=extraction
    )
    return Fig5Result(
        comparisons=pmap(body, workloads or BENCHMARKS, max_workers=max_workers)
    )
