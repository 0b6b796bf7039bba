"""The simulator facade: run a workload under a configuration.

``Simulator.run`` compiles the workload to phases, costs each with the
analytic model, applies seeded run-to-run noise, and returns a
:class:`RunResult` carrying everything downstream consumers need (total wall
time, per-phase breakdown, and the phase objects the Darshan tracer reads).

Run hygiene (the paper's between-run protocol: delete data files, drop client
caches, remount, wait for sync) maps to every ``run`` starting from a fresh
:class:`~repro.pfs.model.RunState` — see :mod:`repro.core.hygiene` for the
orchestration-level record of those steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.cluster.hardware import ClusterSpec
from repro.cluster.mpi import MpiJob
from repro.pfs.config import PfsConfig
from repro.pfs.model import AnalyticModel, RunState
from repro.pfs.phases import Phase, PhaseResult
from repro.sim.cache import RUN_CACHE
from repro.sim.random import RngStreams

#: Multiplicative lognormal sigma applied per phase and per run.
PHASE_NOISE_SIGMA = 0.02
RUN_NOISE_SIGMA = 0.025

#: Memoized noise factors keyed by ``(seed, workload name, n_phases)``.
#: A run's noise is a pure function of that key — the streams are named
#: ``phase:i``/``run`` under ``spawn:run:<workload>`` and never depend on the
#: configuration — so one cache serves the scalar, batch and sweep engines
#: (the sweep bulk-seeds misses and stores them here).  Reads and writes are
#: single dict ops, safe under the GIL for threaded callers; the
#: size cap stops inserts rather than evicting, keeping behavior
#: deterministic.
_NOISE_CACHE: dict[tuple[int, str, int], tuple[tuple[float, ...], float]] = {}
_NOISE_CACHE_MAX = 1 << 15


def run_noise(
    seed: int, workload_name: str, n_phases: int
) -> tuple[tuple[float, ...], float]:
    """``([phase factors...], run factor)`` for one simulated run.

    Bit-identical to drawing ``lognormal_noise("phase:i")`` per phase and
    ``lognormal_noise("run")`` from ``RngStreams(seed).spawn(f"run:{name}")``
    — which is exactly how cache misses are computed.
    """
    key = (seed, workload_name, n_phases)
    noise = _NOISE_CACHE.get(key)
    if noise is None:
        rng = RngStreams(seed).spawn(f"run:{workload_name}")
        noise = (
            tuple(
                rng.lognormal_noise(f"phase:{index}", PHASE_NOISE_SIGMA)
                for index in range(n_phases)
            ),
            rng.lognormal_noise("run", RUN_NOISE_SIGMA),
        )
        if len(_NOISE_CACHE) < _NOISE_CACHE_MAX:
            _NOISE_CACHE[key] = noise
    return noise


class WorkloadLike(Protocol):
    """What the simulator needs from a workload object."""

    name: str
    n_ranks: int

    def compile(self, cluster: ClusterSpec) -> list[Phase]: ...

    def cache_key(self) -> tuple: ...


@dataclass
class RunResult:
    """Outcome of one application execution on the simulated cluster."""

    workload: str
    config: PfsConfig
    seconds: float
    phases: list[PhaseResult] = field(default_factory=list)
    seed: int = 0

    @property
    def bytes_written(self) -> int:
        return sum(p.bytes_written for p in self.phases)

    @property
    def bytes_read(self) -> int:
        return sum(p.bytes_read for p in self.phases)

    @property
    def mds_ops(self) -> int:
        return sum(p.mds_ops for p in self.phases)

    def phase_summary(self) -> str:
        lines = []
        for result in self.phases:
            lines.append(
                f"{result.phase.name}: {result.seconds:.3f}s "
                f"(bottleneck: {result.bottleneck})"
            )
        return "\n".join(lines)


def bind_run_config(cluster: ClusterSpec, config: PfsConfig) -> PfsConfig:
    """Per-run copy of ``config`` bound to ``cluster``'s facts, not yet
    validated.

    The sweep engine validates many bound copies columnar in one pass; every
    other caller goes through :func:`prepare_run_config`, which validates
    immediately.  Any new injected fact or backend guard belongs here so the
    sequential, batch and sweep paths stay bit-identical.
    """
    if config.backend.name != cluster.backend_name:
        raise ValueError(
            f"config targets backend {config.backend.name!r} but the "
            f"cluster runs {cluster.backend_name!r}"
        )
    config = config.copy()
    config.facts.setdefault("n_ost", cluster.n_ost)
    config.facts["system_memory_mb"] = cluster.system_memory_mb
    return config


def prepare_run_config(cluster: ClusterSpec, config: PfsConfig) -> PfsConfig:
    """Validated per-run copy of ``config`` bound to ``cluster``'s facts.

    The single setup path shared by :meth:`Simulator.run` and the batch
    engine — the two must stay bit-identical (see ``tests/test_batch.py``).
    """
    config = bind_run_config(cluster, config)
    config.validate()
    return config


class Simulator:
    """Runs workloads against the modeled cluster."""

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster

    def run(self, workload: WorkloadLike, config: PfsConfig, seed: int = 0) -> RunResult:
        """Execute one (simulated) application run.

        The configuration is validated first; out-of-range values raise, as a
        real ``lctl set_param`` would fail — callers that want real-system
        clipping semantics should pass ``config.clipped()``.

        When the :data:`~repro.sim.cache.RUN_CACHE` is enabled, the
        (deterministic) result is served from and stored into it; cached
        results are shared objects and immutable to consumers.
        """
        cache_key = None
        if RUN_CACHE.active:
            cache_key = RUN_CACHE.key(self.cluster, workload, config, seed)
            cached = RUN_CACHE.get(cache_key)
            if cached is not None:
                return cached
        config = prepare_run_config(self.cluster, config)

        job = MpiJob.launch(workload.name, workload.n_ranks, self.cluster)
        model = AnalyticModel(self.cluster, config)
        state = RunState()
        phases = workload.compile(self.cluster)
        phase_noise, run_factor = run_noise(seed, workload.name, len(phases))

        results: list[PhaseResult] = []
        total = 0.0
        for phase, noise in zip(phases, phase_noise):
            result = model.evaluate(phase, job, state)
            result.seconds *= noise
            results.append(result)
            total += result.seconds
        total *= run_factor
        result = RunResult(
            workload=workload.name,
            config=config,
            seconds=total,
            phases=results,
            seed=seed,
        )
        if cache_key is not None:
            RUN_CACHE.put(cache_key, result)
        return result

    def run_batch(self, items) -> list[RunResult]:
        """Evaluate many ``(workload, config, seed)`` tuples in one pass.

        Runs sharing a (workload, config) pair are costed once by the model
        with only per-seed noise re-applied; results are bit-identical to
        sequential :meth:`run` calls with the same seeds.  See
        :mod:`repro.sim.batch`.
        """
        from repro.sim.batch import run_batch

        return run_batch(self, items)

    def run_sweep(
        self, workload: WorkloadLike, configs, seeds
    ) -> list[RunResult]:
        """Evaluate aligned ``(config, seed)`` pairs of one workload through
        the columnar sweep engine.

        Bit-identical to :meth:`run_batch` on ``sweep_items(workload,
        configs, seeds)`` — the candidate-grid fast path.  See
        :mod:`repro.sim.sweep`.
        """
        from repro.sim.sweep import run_sweep

        return run_sweep(self, workload, configs, seeds)

    def run_schedule(
        self, schedule, configs, seed: int = 0
    ) -> list[RunResult]:
        """Execute a time-segmented schedule: segment ``i`` under config ``i``.

        ``schedule`` is a :class:`~repro.workloads.dynamic.Schedule` (or any
        iterable of segments/workloads); ``configs`` is one configuration for
        the whole schedule or a per-segment sequence.  Segment ``i`` runs with
        ``RngStreams.rep_seed(seed, i)`` and results come back in schedule
        order — bit-identical to sequential per-segment :meth:`run` calls
        (guarded per backend by ``tests/test_dynamic.py``).  Segments route
        through the workload-grouped columnar sweep, so a schedule measuring
        many distinct per-segment configurations (the drift experiment's
        oracle arm) shares one structure-of-arrays evaluation per workload.
        """
        from repro.sim.batch import schedule_items
        from repro.sim.sweep import run_items

        return run_items(self, schedule_items(schedule, configs, seed=seed))

    def run_repetitions(
        self, workload: WorkloadLike, config: PfsConfig, n: int, seed: int = 0
    ) -> list[RunResult]:
        """The paper's eight-repetition protocol (fresh hygiene per run).

        Rep seeds come from :meth:`RngStreams.rep_seed`; the batch path keeps
        results identical to ``n`` sequential :meth:`run` calls.
        """
        from repro.sim.batch import repetition_items

        return self.run_batch(repetition_items(workload, config, n, seed=seed))
