"""Oracle coordinate-descent search over the backend's tunable parameters.

A stand-in for the traditional autotuners the paper declines to compare
against directly (they need hundreds to thousands of evaluations): this
search measures real simulated runs and greedily improves one parameter at
a time.  It serves two purposes: (1) calibrating how close the expert and
STELLAR land to the attainable optimum, and (2) demonstrating the iteration
cost gap — the search's evaluation count is reported alongside its result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.hardware import ClusterSpec
from repro.pfs.config import PfsConfig
from repro.pfs.simulator import Simulator
from repro.sim.random import RngStreams
from repro.workloads.base import Workload

KiB = 1024
MiB = 1024 * KiB


@dataclass
class SearchResult:
    """Outcome of an oracle search."""

    best_updates: dict[str, int]
    best_seconds: float
    default_seconds: float
    evaluations: int
    trace: list[tuple[str, int, float]] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        return self.default_seconds / self.best_seconds


class OracleSearch:
    """Greedy coordinate descent with a bounded evaluation budget.

    Each coordinate's whole candidate grid is evaluated as one
    :meth:`~repro.pfs.simulator.Simulator.run_sweep` call (classic
    sweep-then-move coordinate descent): all candidates are measured against
    the current best configuration and the coordinate moves to the best
    improving value, if any.  Every candidate run still draws its own
    seeded noise — evaluation ``i`` runs under ``RngStreams.rep_seed(seed,
    i)``, the shared repeated-measurement derivation — and the evaluation
    counter prices each simulated run exactly as the sequential search
    did.  Like every simulated run, the search's runs are served from the
    process-wide :data:`~repro.sim.cache.RUN_CACHE`, which keeps each
    configuration's noise-free model evaluation: re-measuring a
    configuration (a candidate revisited under a later seed, a repeated
    search, a cell another strategy already measured) skips the model and
    pays only its seed's noise and result assembly.
    """

    def __init__(self, cluster: ClusterSpec, seed: int = 0, max_rounds: int = 2):
        self.cluster = cluster
        self.seed = seed
        self.max_rounds = max_rounds
        self.sim = Simulator(cluster)
        #: the cluster backend's candidate grids (coordinate sweep order)
        self.candidates = cluster.backend.search_candidates

    def _config(self, updates: dict[str, int]) -> PfsConfig:
        facts = self.cluster.config_facts()
        return (
            PfsConfig(facts=facts, backend=self.cluster.backend)
            .with_updates(updates)
            .clipped()
        )

    def _measure(self, workload: Workload, updates: dict[str, int], rep: int) -> float:
        config = self._config(updates)
        return self.sim.run(
            workload, config, seed=RngStreams.rep_seed(self.seed, rep)
        ).seconds

    def run(self, workload: Workload) -> SearchResult:
        evaluations = 0
        best: dict[str, int] = {}
        default_seconds = self._measure(workload, {}, rep=evaluations)
        evaluations += 1
        best_seconds = default_seconds
        trace: list[tuple[str, int, float]] = []
        for _ in range(self.max_rounds):
            improved = False
            for name, candidates in self.candidates.items():
                trials = [
                    dict(best, **{name: value})
                    for value in candidates
                    if best.get(name) != value
                ]
                if not trials:
                    continue
                seeds = [
                    RngStreams.rep_seed(self.seed, evaluations + i)
                    for i in range(len(trials))
                ]
                runs = self.sim.run_sweep(
                    workload, [self._config(t) for t in trials], seeds
                )
                evaluations += len(runs)
                sweep_best: tuple[float, dict[str, int]] | None = None
                for trial, run in zip(trials, runs):
                    trace.append((name, trial[name], run.seconds))
                    if run.seconds < best_seconds * 0.995 and (
                        sweep_best is None or run.seconds < sweep_best[0]
                    ):
                        sweep_best = (run.seconds, trial)
                if sweep_best is not None:
                    best_seconds, best = sweep_best
                    improved = True
            if not improved:
                break
        return SearchResult(
            best_updates=best,
            best_seconds=best_seconds,
            default_seconds=default_seconds,
            evaluations=evaluations,
            trace=trace,
        )

    #: Alias of :meth:`run`; perfbench's search check calls ``_run``.
    _run = run
