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
    process-wide :data:`~repro.sim.cache.RUN_CACHE`.  It keeps each
    configuration's noise-free model evaluation: re-measuring a
    configuration (a candidate revisited under a later seed, a repeated
    search, a cell another strategy already measured) skips the model and
    pays only its seed's noise and result assembly.  Below that it keeps
    phase results per values of the roles each phase kind reads, so a new
    configuration costs only the phases its move reaches: a metadata-path
    move re-costs no data phase, and the reverse.

    Noise is seeded one batch per round
    (:meth:`~repro.pfs.simulator.Simulator.seed_noise`), before the round's
    first run: the default run (rep 0) and round 1 together, then each later
    round's seeds when it starts.  The search lists a round's sweeps, each
    coordinate's candidates other than the best's value of it, when the
    round starts.  A sweep moves only its own coordinate, so that list is
    exact and the batch holds exactly the seeds the round will use: its
    runs find their noise memoized and draw none of their own.  A sweep's
    trial configs are built from one unclipped config of the current best,
    each with the swept value written, then clipped: the values
    :meth:`_config` gives for the same updates.
    """

    def __init__(self, cluster: ClusterSpec, seed: int = 0, max_rounds: int = 2):
        self.cluster = cluster
        self.seed = seed
        self.max_rounds = max_rounds
        self.sim = Simulator(cluster)
        #: the cluster backend's candidate grids (coordinate sweep order)
        self.candidates = cluster.backend.search_candidates

    def _unclipped(self, updates: dict[str, int]) -> PfsConfig:
        facts = self.cluster.config_facts()
        return PfsConfig(facts=facts, backend=self.cluster.backend).with_updates(
            updates
        )

    def _config(self, updates: dict[str, int]) -> PfsConfig:
        return self._unclipped(updates).clipped()

    def _measure(self, workload: Workload, updates: dict[str, int], rep: int) -> float:
        config = self._config(updates)
        return self.sim.run(
            workload, config, seed=RngStreams.rep_seed(self.seed, rep)
        ).seconds

    def _rep_seeds(self, first: int, count: int) -> list[int]:
        return [RngStreams.rep_seed(self.seed, first + i) for i in range(count)]

    def _sweeps(self, best: dict[str, int]) -> list[tuple[str, list[int]]]:
        """Each coordinate's trial values, in sweep order, for a round that
        starts from ``best``.  A sweep moves only its own coordinate, so
        each list is already fixed when the round starts."""
        return [
            (name, [value for value in candidates if best.get(name) != value])
            for name, candidates in self.candidates.items()
        ]

    def run(self, workload: Workload) -> SearchResult:
        best: dict[str, int] = {}
        sweeps = self._sweeps(best) if self.max_rounds else []
        count = 1 + sum(len(values) for _name, values in sweeps)
        self.sim.seed_noise(workload, self._rep_seeds(0, count))
        default_seconds = self._measure(workload, {}, rep=0)
        evaluations = 1
        best_seconds = default_seconds
        trace: list[tuple[str, int, float]] = []
        for round_index in range(self.max_rounds):
            if round_index:
                sweeps = self._sweeps(best)
                count = sum(len(values) for _name, values in sweeps)
                self.sim.seed_noise(workload, self._rep_seeds(evaluations, count))
            improved = False
            for name, values in sweeps:
                if not values:
                    continue
                base = self._unclipped(best)
                runs = self.sim.run_sweep(
                    workload,
                    [base.with_updates({name: value}).clipped() for value in values],
                    self._rep_seeds(evaluations, len(values)),
                )
                evaluations += len(runs)
                sweep_best: tuple[float, int] | None = None
                for value, run in zip(values, runs):
                    trace.append((name, value, run.seconds))
                    if run.seconds < best_seconds * 0.995 and (
                        sweep_best is None or run.seconds < sweep_best[0]
                    ):
                        sweep_best = (run.seconds, value)
                if sweep_best is not None:
                    best_seconds, value = sweep_best
                    best = dict(best, **{name: value})
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
