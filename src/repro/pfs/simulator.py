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

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Protocol

from repro.cluster.hardware import ClusterSpec
from repro.cluster.mpi import MpiJob
from repro.pfs.config import PfsConfig
from repro.pfs.model import (
    DATA_ROLES,
    META_ROLES,
    AnalyticModel,
    RunState,
    ranks_per_client,
    role_values,
)
from repro.pfs.phases import DataPhase, Phase, PhaseResult
from repro.sim.cache import RUN_CACHE
from repro.sim.random import RngStreams

#: Multiplicative lognormal sigma applied per phase and per run.
PHASE_NOISE_SIGMA = 0.02
RUN_NOISE_SIGMA = 0.025

#: Memoized noise factors keyed by ``(seed, workload name, n_phases)``.
#: A run's noise is a pure function of that key — the streams are named
#: ``phase:i``/``run`` under ``spawn:run:<workload>`` and never depend on the
#: configuration — so one cache serves ``Simulator.run`` and the sweep
#: engine, which seeds its misses per call.  Both store through
#: :func:`remember_noise`, which keeps the newest ``_NOISE_CACHE_MAX``
#: entries (the ``RUN_CACHE`` bound) and drops the oldest insert beyond
#: them.  A dropped entry changes a later hit into a re-draw of the same
#: factors, never a value.  Reads are single dict ops, safe under the GIL
#: for threaded callers; inserts and drops run under ``_NOISE_LOCK``.
#: An ``OrderedDict`` because finding a plain dict's first key scans the
#: slots its earlier drops left empty (~5.6 vs 0.7 µs per insert at the cap).
_NOISE_CACHE: OrderedDict[tuple[int, str, int], tuple[tuple[float, ...], float]] = (
    OrderedDict()
)
_NOISE_CACHE_MAX = 4096
_NOISE_LOCK = threading.Lock()


def remember_noise(key: tuple[int, str, int], noise: tuple) -> None:
    """Store one run's noise factors, dropping the oldest inserts (first in
    iteration order) past ``_NOISE_CACHE_MAX``."""
    cache = _NOISE_CACHE
    with _NOISE_LOCK:
        cache[key] = noise
        while len(cache) > _NOISE_CACHE_MAX:
            del cache[next(iter(cache))]


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
        remember_noise(key, noise)
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


#: The validated config copy and noise-free phase results of one model
#: evaluation: what :func:`evaluate_phases` returns and the run cache stores.
Evaluation = tuple[PfsConfig, list[PhaseResult]]


def evaluate_phases(
    cluster: ClusterSpec,
    workload: WorkloadLike,
    config: PfsConfig,
    group_key: tuple | None = None,
) -> Evaluation:
    """Validate a per-run copy of ``config`` and cost every phase, noise-free.

    The scalar model evaluation: a copy of ``config``'s values built with
    ``cluster``'s facts (``config``'s own ``n_ost`` wins when it has one;
    ``system_memory_mb`` is always the cluster's), validation, and one
    pass over the compiled phases from a fresh :class:`RunState`.  The copy
    comes back without its validation memos (env dict, ``cache_key()``
    tuple): evaluations may sit in the ``RUN_CACHE``, and the memos would
    ride along with each one.

    Callers the run cache serves pass ``group_key``, the
    :meth:`~repro.sim.cache.RunCache.group_key` of ``cluster`` and
    ``workload``.  Each phase is then looked up in the cache's phase store
    under ``(group_key, position, values of its kind's roles)``
    (:data:`~repro.pfs.model.DATA_ROLES`, :data:`~repro.pfs.model.META_ROLES`)
    and only the misses are costed; every phase's :class:`RunState` write is
    applied, hit or miss, since it never depends on the config.  Those phase
    results are shared with the store and other evaluations, and
    :func:`noisy_run` applies noise to copies.  Without ``group_key`` the
    model costs every phase afresh: :meth:`Simulator.run`'s cache-off path
    applies noise to those results in place.
    """
    if config.backend.name != cluster.backend_name:
        raise ValueError(
            f"config targets backend {config.backend.name!r} but the "
            f"cluster runs {cluster.backend_name!r}"
        )
    facts = dict(config.facts)
    facts.setdefault("n_ost", cluster.n_ost)
    facts["system_memory_mb"] = cluster.system_memory_mb
    config = config._with_facts(facts)
    config.validate()
    job = MpiJob.launch(workload.name, workload.n_ranks, cluster)
    state = RunState()
    if group_key is None:
        model = AnalyticModel(cluster, config)
        phases = [
            model.evaluate(phase, job, state) for phase in workload.compile(cluster)
        ]
    else:
        data_values = role_values(config, DATA_ROLES)
        meta_values = role_values(config, META_ROLES)
        ranks_pc = ranks_per_client(job, cluster)
        model = None
        phases = []
        for index, phase in enumerate(workload.compile(cluster)):
            key = (
                group_key,
                index,
                data_values if isinstance(phase, DataPhase) else meta_values,
            )
            result = RUN_CACHE.phase(key)
            if result is None:
                if model is None:
                    model = AnalyticModel(cluster, config)
                result = model.cost(phase, job, state)
                RUN_CACHE.put_phase(key, result)
            state.record_phase(phase, ranks_pc)
            phases.append(result)
    config._invalidate()
    return config, phases


def noisy_run(
    workload_name: str, evaluation: Evaluation, seed: int, noise: tuple
) -> RunResult:
    """One run's result from a shared evaluation and the seed's
    :func:`run_noise`: :meth:`Simulator.run`'s noise arithmetic on fresh
    :class:`PhaseResult` copies.  The copies skip dataclass-``__init__``
    (positive factors keep ``seconds`` non-negative) and set every field in
    declaration order, so no per-copy ``__dict__`` is allocated."""
    config, base = evaluation
    phase_noise, run_factor = noise
    phases = []
    total = 0.0
    for result, factor in zip(base, phase_noise):
        copy = PhaseResult.__new__(PhaseResult)
        copy.phase = result.phase
        copy.seconds = seconds = result.seconds * factor
        copy.bottleneck = result.bottleneck
        copy.bounds = result.bounds
        copy.bytes_read = result.bytes_read
        copy.bytes_written = result.bytes_written
        copy.mds_ops = result.mds_ops
        copy.rpcs = result.rpcs
        phases.append(copy)
        total += seconds
    total *= run_factor
    return RunResult(
        workload=workload_name, config=config, seconds=total, phases=phases, seed=seed
    )


class Simulator:
    """Runs workloads against the modeled cluster."""

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster

    def run(self, workload: WorkloadLike, config: PfsConfig, seed: int = 0) -> RunResult:
        """Execute one (simulated) application run.

        The configuration is validated first; out-of-range values raise, as a
        real ``lctl set_param`` would fail — callers that want real-system
        clipping semantics should pass ``config.clipped()``.

        The seedless evaluation is served from and stored into the
        :data:`~repro.sim.cache.RUN_CACHE`, and :func:`noisy_run` builds
        the run, so a repeated configuration costs only its seed's noise,
        and a new one only the phases its role values are new to.  Inside a
        ``RUN_CACHE.disabled()`` scope the model costs every phase every
        time: that cache-off path below is the reference every parity test
        compares against.
        """
        if RUN_CACHE.active:
            key = RUN_CACHE.key(self.cluster, workload, config)
            evaluation = RUN_CACHE.fetch(
                key, evaluate_phases, self.cluster, workload, config, key[:-1]
            )
            noise = run_noise(seed, workload.name, len(evaluation[1]))
            return noisy_run(workload.name, evaluation, seed, noise)
        config, phases = evaluate_phases(self.cluster, workload, config)
        phase_noise, run_factor = run_noise(seed, workload.name, len(phases))
        total = 0.0
        for result, noise in zip(phases, phase_noise):
            result.seconds *= noise
            total += result.seconds
        total *= run_factor
        return RunResult(
            workload=workload.name,
            config=config,
            seconds=total,
            phases=phases,
            seed=seed,
        )

    def run_items(self, items) -> list[RunResult]:
        """Evaluate many ``(workload, config, seed)`` items, grouped per
        workload; results in item order.

        Each group costs its distinct configurations once.  Bit-identical
        to one :meth:`run` call per item.  See
        :func:`repro.sim.sweep.run_items`.
        """
        from repro.sim.sweep import run_items

        return run_items(self, items)

    def run_sweep(
        self, workload: WorkloadLike, configs, seeds
    ) -> list[RunResult]:
        """Evaluate aligned ``(config, seed)`` pairs of one workload — the
        candidate-grid path, through :meth:`run_items`."""
        from repro.sim.sweep import sweep_items

        return self.run_items(sweep_items(workload, configs, seeds))

    def seed_noise(self, workload: WorkloadLike, seeds) -> None:
        """Draw the noise of runs of ``workload`` under ``seeds`` ahead of
        them: every seed the noise memo lacks, in one batch, so those runs
        find their factors memoized.  See :func:`repro.sim.sweep.seed_noise`.
        """
        from repro.sim.sweep import seed_noise

        seed_noise(workload.name, len(workload.compile(self.cluster)), seeds)

    def run_schedule(
        self, schedule, configs, seed: int = 0
    ) -> list[RunResult]:
        """Execute a time-segmented schedule: segment ``i`` under config ``i``.

        ``schedule`` is a :class:`~repro.workloads.dynamic.Schedule` (or any
        iterable of segments/workloads); ``configs`` is one configuration for
        the whole schedule or a per-segment sequence.  Segment ``i`` runs with
        ``RngStreams.rep_seed(seed, i)`` and results come back in schedule
        order — bit-identical to sequential per-segment :meth:`run` calls
        (guarded per backend by ``tests/test_dynamic.py``).  Segments go
        through :meth:`run_items`, so segments sharing a (workload, config)
        pair are costed once.
        """
        from repro.sim.sweep import schedule_items

        return self.run_items(schedule_items(schedule, configs, seed=seed))

    def run_repetitions(
        self, workload: WorkloadLike, config: PfsConfig, n: int, seed: int = 0
    ) -> list[RunResult]:
        """The paper's eight-repetition protocol (fresh hygiene per run).

        Rep seeds come from :meth:`RngStreams.rep_seed`; results are
        identical to ``n`` sequential :meth:`run` calls, with the model
        costed once.
        """
        from repro.sim.sweep import repetition_items

        return self.run_items(repetition_items(workload, config, n, seed=seed))
