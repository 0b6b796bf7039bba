"""Figure 9: different LLMs as the Tuning Agent on IOR_16M.

Any tool-calling model can drive STELLAR; Claude-3.7-Sonnet, GPT-4o and the
much smaller Llama-3.1-70B all reach similar near-optimal configurations
within five iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.hardware import ClusterSpec
from repro.experiments.harness import DEFAULT_REPS, run_sessions, shared_extraction
from repro.experiments.stats import mean_ci90

WORKLOAD = "IOR_16M"
MODELS = ("claude-3.7-sonnet", "gpt-4o", "llama-3.1-70b")


@dataclass
class ModelOutcome:
    model: str
    best_speedups: list[float] = field(default_factory=list)
    attempts: list[int] = field(default_factory=list)

    @property
    def mean_speedup(self) -> float:
        return mean_ci90(self.best_speedups)[0]

    @property
    def mean_attempts(self) -> float:
        return sum(self.attempts) / len(self.attempts)

    def render(self) -> str:
        return (
            f"{self.model:20s} best speedup {self.mean_speedup:.2f}x "
            f"(mean attempts {self.mean_attempts:.1f})"
        )


@dataclass
class Fig9Result:
    outcomes: list[ModelOutcome] = field(default_factory=list)

    def get(self, model: str) -> ModelOutcome:
        return next(o for o in self.outcomes if o.model == model)

    def render(self) -> str:
        lines = [f"Figure 9 — tuning {WORKLOAD} with different LLMs:"]
        lines += ["  " + o.render() for o in self.outcomes]
        return "\n".join(lines)


def run(
    cluster: ClusterSpec,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
    max_workers: int | None = None,
) -> Fig9Result:
    extraction = shared_extraction(cluster)
    result = Fig9Result()
    for model in MODELS:
        sessions = run_sessions(
            cluster,
            WORKLOAD,
            reps=reps,
            seed=seed,
            model=model,
            extraction=extraction,
            max_attempts=5,
            max_workers=max_workers,
        )
        result.outcomes.append(
            ModelOutcome(
                model=model,
                best_speedups=[s.best_speedup for s in sessions],
                attempts=[len(s.attempts) for s in sessions],
            )
        )
    return result
