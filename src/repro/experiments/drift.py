"""Workload drift: static one-shot tuning vs online re-tuning vs oracle.

The scenario the online-tuning literature (IOPathTune, DIAL) attacks and a
static tuner cannot: the workload changes *under* the configuration.  For
every (backend, schedule) cell this experiment compares three strategies on
the same seeded :class:`~repro.workloads.dynamic.Schedule`:

- **static** — the paper's protocol: one tuning run on the first segment's
  workload, configuration frozen for the whole schedule;
- **online** — the same initial tune, then the
  :class:`~repro.agents.online.OnlineController` watches the monitor stream
  and re-tunes (bounded sessions, accumulated rules) when drift leaves the
  hysteresis band; the new configuration applies from the next segment;
- **oracle** — an upper bound: every segment runs under a configuration tuned
  specifically for its workload (clairvoyant per-segment re-tuning with no
  detection lag).

Strategies are decided once (a deterministic decision pass), then their
per-segment configuration sequences are measured with ``reps`` repetitions of
:meth:`Simulator.run_schedule` under shared seeds — so totals differ only
through the configurations, never the noise draws.  Tuning-probe executions
are reported separately (``retunes``, ``tuning_executions``); the headline
totals measure serving time only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.online import DriftDetector, OnlineController
from repro.backends import list_backends
from repro.cluster.hardware import ClusterSpec, make_cluster
from repro.core.engine import Stellar
from repro.experiments.harness import DEFAULT_REPS, Measurement, shared_extraction
from repro.pfs.config import PfsConfig
from repro.pfs.simulator import Simulator
from repro.sim.random import RngStreams
from repro.workloads.dynamic import (
    DEFAULT_SEGMENTS,
    SCHEDULE_KINDS,
    Schedule,
    build_schedule,
)

#: The full grid covers every registered backend.
BACKENDS = tuple(list_backends())


@dataclass
class DriftCell:
    """One (backend, schedule) comparison."""

    backend: str
    schedule: Schedule
    static: Measurement
    online: Measurement
    oracle: Measurement
    retunes: int = 0
    retune_segments: list[int] = field(default_factory=list)
    tuning_executions: int = 0

    @property
    def online_speedup(self) -> float:
        return self.static.mean / self.online.mean

    @property
    def oracle_speedup(self) -> float:
        return self.static.mean / self.oracle.mean

    def render(self) -> str:
        return (
            f"  {self.backend:8s} {self.schedule.name:12s} "
            f"static {self.static.mean:7.1f}s | "
            f"online {self.online.mean:7.1f}s ({self.online_speedup:.2f}x, "
            f"{self.retunes} retune(s) at {self.retune_segments}, "
            f"{self.tuning_executions} probe runs) | "
            f"oracle {self.oracle.mean:7.1f}s ({self.oracle_speedup:.2f}x)"
        )


@dataclass
class DriftResult:
    cells: list[DriftCell] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            "Workload drift: static one-shot vs online re-tuning vs "
            "oracle-per-segment (schedule wall time, lower is better)"
        ]
        lines.extend(cell.render() for cell in self.cells)
        online_wins = sum(1 for c in self.cells if c.online_speedup > 1.0)
        lines.append(
            f"  online re-tuning beats the static tune in "
            f"{online_wins}/{len(self.cells)} (backend, schedule) cells"
        )
        return "\n".join(lines)


def _decision_root(seed: int) -> int:
    """Seed space for the online decision pass, disjoint from measurement."""
    return RngStreams(seed).spawn("drift:decision").seed


def _measure(
    sim: Simulator, schedule: Schedule, configs, reps: int, seed: int, label: str
) -> Measurement:
    """``reps`` schedule runs; rep ``r`` replays seed ``rep_seed(seed, r)``."""
    outcome = Measurement(label=label)
    for rep in range(reps):
        runs = sim.run_schedule(schedule, configs, seed=RngStreams.rep_seed(seed, rep))
        outcome.times.append(sum(run.seconds for run in runs))
    return outcome


def run_cell(
    cluster: ClusterSpec,
    schedule: Schedule,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
    band: float = 0.5,
    max_retunes: int = 3,
) -> DriftCell:
    """Compare the three strategies on one backend and one schedule.

    The three strategies measure the same segments under shared seeds, so
    wherever their configurations coincide (the online arm before its first
    re-tune repeats the static arm, the oracle arm repeats whole tuning
    sessions) the process-wide run cache serves the noise-free model
    evaluations instead of re-costing them.  Serving measurements go
    through :meth:`Simulator.run_schedule`, which costs each workload's
    distinct per-segment configurations once.
    """
    extraction = shared_extraction(cluster, seed=seed)
    sim = Simulator(cluster)
    base = PfsConfig(facts=cluster.config_facts(), backend=cluster.backend)

    def engine() -> Stellar:
        return Stellar(
            cluster=cluster,
            model="claude-3.7-sonnet",
            extraction=extraction,
            seed=seed,
        )

    # -- static: one-shot tune on the first segment, frozen ----------------
    static_session = engine().tune(schedule[0].workload)
    static_config = base.with_updates(static_session.best_config).clipped()

    # -- online: decision pass over the schedule ---------------------------
    controller = OnlineController(
        engine(),
        detector=DriftDetector(band=band),
        max_retunes=max_retunes,
    )
    controller.start(schedule[0].workload)
    decision_root = _decision_root(seed)
    online_configs = []
    for segment in schedule:
        config = controller.config(base)
        online_configs.append(config)
        if segment.index == schedule[-1].index:
            # No segment follows, so a re-tune triggered here could never
            # be applied — don't spend probe runs (or a re-tune slot) on it.
            break
        controller.probe(
            sim,
            segment.index,
            segment.workload,
            config,
            seed=RngStreams.rep_seed(decision_root, segment.index),
        )

    # -- oracle: clairvoyant per-segment tuning ----------------------------
    oracle_engine = engine()
    oracle_by_workload: dict[tuple, PfsConfig] = {}
    oracle_configs = []
    for segment in schedule:
        key = segment.workload.cache_key()
        if key not in oracle_by_workload:
            session = oracle_engine.tune_and_accumulate(segment.workload)
            oracle_by_workload[key] = base.with_updates(session.best_config).clipped()
        oracle_configs.append(oracle_by_workload[key])

    return DriftCell(
        backend=cluster.backend_name,
        schedule=schedule,
        static=_measure(sim, schedule, static_config, reps, seed, "static"),
        online=_measure(sim, schedule, online_configs, reps, seed, "online"),
        oracle=_measure(sim, schedule, oracle_configs, reps, seed, "oracle"),
        retunes=len(controller.retunes),
        retune_segments=[event.segment_index for event in controller.retunes],
        tuning_executions=controller.tuning_executions,
    )


def run(
    cluster: ClusterSpec | None = None,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
    schedules=SCHEDULE_KINDS,
    backends=BACKENDS,
    n_segments: int = DEFAULT_SEGMENTS,
) -> DriftResult:
    """Every (backend, schedule) cell.

    ``cluster`` (if given) serves as the testbed for its own backend; the
    other backends get an identically-sized default testbed — the same
    convention as the cross-backend transfer experiment.
    """
    result = DriftResult()
    for backend_name in backends:
        if cluster is not None and cluster.backend_name == backend_name:
            testbed = cluster
        else:
            testbed = make_cluster(seed=seed, backend=backend_name)
        for kind in schedules:
            schedule = build_schedule(kind, seed=seed, n_segments=n_segments)
            result.cells.append(
                run_cell(testbed, schedule, reps=reps, seed=seed)
            )
    return result
