"""Figure 8: component ablations on MDWorkbench_8K.

- *No Descriptions*: the RAG-generated parameter descriptions are removed
  (valid ranges are kept, as the paper notes they are required to avoid
  outright failures); the agent falls back to parametric beliefs and their
  misconceptions.
- *No Analysis*: the Analysis Agent is removed entirely — no I/O report and
  no follow-up answers; the agent tunes from its generic workload prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.hardware import ClusterSpec
from repro.experiments.harness import DEFAULT_REPS, run_sessions, shared_extraction
from repro.experiments.stats import mean_ci90

WORKLOAD = "MDWorkbench_8K"


@dataclass
class AblationOutcome:
    label: str
    best_speedups: list[float] = field(default_factory=list)

    @property
    def mean_speedup(self) -> float:
        return mean_ci90(self.best_speedups)[0]

    @property
    def ci90(self) -> float:
        return mean_ci90(self.best_speedups)[1]

    def render(self) -> str:
        return (
            f"{self.label:16s} best speedup {self.mean_speedup:.2f}x "
            f"+/- {self.ci90:.2f}"
        )


@dataclass
class Fig8Result:
    full: AblationOutcome
    no_descriptions: AblationOutcome
    no_analysis: AblationOutcome

    def render(self) -> str:
        return "\n".join(
            [
                f"Figure 8 — ablations on {WORKLOAD}:",
                "  " + self.full.render(),
                "  " + self.no_descriptions.render(),
                "  " + self.no_analysis.render(),
            ]
        )


def run(
    cluster: ClusterSpec,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
    max_workers: int | None = None,
) -> Fig8Result:
    extraction = shared_extraction(cluster)

    def outcome(label: str, **kwargs) -> AblationOutcome:
        sessions = run_sessions(
            cluster,
            WORKLOAD,
            reps=reps,
            seed=seed,
            extraction=extraction,
            max_workers=max_workers,
            **kwargs,
        )
        return AblationOutcome(
            label=label, best_speedups=[s.best_speedup for s in sessions]
        )

    return Fig8Result(
        full=outcome("full"),
        no_descriptions=outcome("no descriptions", use_descriptions=False),
        no_analysis=outcome("no analysis", use_analysis=False),
    )
