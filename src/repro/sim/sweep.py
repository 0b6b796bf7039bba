"""Multi-item runs: many (workload, config, seed) items, each distinct
configuration costed once.

Every multi-item entry point — ``Simulator.run_items``/``run_sweep``/
``run_schedule``/``run_repetitions``, ``measure_configs``, the search
baselines, the drift experiment — goes through :func:`run_items`, which
groups items per workload, dedups each group's configurations and costs
each distinct one with the scalar model
(:func:`~repro.pfs.simulator.evaluate_phases`).  A config x seed grid thus
pays one model evaluation per configuration, not one per item; each
distinct configuration is looked up once per group under its seedless key
in the :data:`~repro.sim.cache.RUN_CACHE`, so only configurations no
earlier run costed reach the model.  Inside ``RUN_CACHE.disabled()`` every
group costs its distinct configurations afresh.

Noise happens here.  The per-item noise re-derives exactly the seeds and
streams the scalar path uses (``RngStreams`` named streams) and takes each
stream's single draw from ``np.random.default_rng(seed)``
(:func:`first_normals`); factors are shared with the scalar path through
the ``run_noise`` memo, which both paths fill through
:func:`~repro.pfs.simulator.remember_noise`.  The memo keeps its newest
4,096 entries, so a run repeated within that many noise inserts finds its
factors however long the process has been running; an entry it dropped is
re-drawn to the same factors.  :func:`~repro.pfs.simulator.noisy_run`
builds each item's ``RunResult``, as for cached ``Simulator.run`` calls.
Results are **bit-identical** to one ``Simulator.run`` per item — asserted
per registered backend by ``tests/test_sweep.py``.

Sharing caveats: items with equal configurations share one validated
``PfsConfig`` and phase results share ``phase`` / ``bounds`` objects, with
the cache entry too; consumers treat both as immutable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.pfs.config import PfsConfig
from repro.sim.cache import RUN_CACHE
from repro.sim.random import RngStreams, _derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle with the facade module
    from repro.pfs.simulator import Evaluation, RunResult, Simulator, WorkloadLike

BatchItem = tuple["WorkloadLike", PfsConfig, int]


def run_sweep(
    sim: "Simulator",
    workload: "WorkloadLike",
    configs: Sequence[PfsConfig],
    seeds: Sequence[int],
) -> list["RunResult"]:
    """Evaluate aligned ``(config, seed)`` pairs of one workload.

    Bit-identical to one ``sim.run(workload, config, seed)`` per pair; each
    distinct configuration is costed once.
    """
    return run_items(sim, sweep_items(workload, configs, seeds))


def run_items(sim: "Simulator", items: Iterable["BatchItem"]) -> list["RunResult"]:
    """Arbitrary batch items, grouped per workload.

    Items are grouped by workload key, computed once per distinct workload
    object, and each group costs its distinct configurations once with the
    scalar model.  Results come back in item order, bit-identical to one
    ``Simulator.run`` per item.
    """
    items = list(items)
    workload_keys: dict[int, tuple] = {}
    groups: dict[tuple, list[int]] = {}
    for index, (workload, _config, _seed) in enumerate(items):
        key = workload_keys.get(id(workload))
        if key is None:
            key = workload_keys[id(workload)] = workload.cache_key()
        groups.setdefault(key, []).append(index)
    results: list = [None] * len(items)
    for workload_key, indices in groups.items():
        workload = items[indices[0]][0]
        swept = _sweep_group(sim, workload, workload_key, [items[i] for i in indices])
        for index, result in zip(indices, swept):
            results[index] = result
    return results


# ---------------------------------------------------------------------------
# Item builders
# ---------------------------------------------------------------------------
def repetition_items(
    workload: "WorkloadLike", config: PfsConfig, n: int, seed: int = 0
) -> list[BatchItem]:
    """The paper's n-repetition protocol as a batch: rep ``i`` runs with
    ``RngStreams.rep_seed(seed, i)``."""
    return [(workload, config, RngStreams.rep_seed(seed, i)) for i in range(n)]


def sweep_items(
    workload: "WorkloadLike",
    configs: Sequence[PfsConfig],
    seeds: Sequence[int],
) -> list[BatchItem]:
    """One run per aligned (config, seed) pair — the candidate-grid shape
    used by the coordinate-descent baseline.

    ``configs`` and ``seeds`` pair up elementwise; for "every config under
    every seed" use :func:`grid_items`, whose cartesian contract is harder
    to misuse.
    """
    if len(configs) != len(seeds):
        raise ValueError("configs and seeds must align")
    return [(workload, c, s) for c, s in zip(configs, seeds)]


def grid_items(
    workload: "WorkloadLike",
    configs: Sequence[PfsConfig],
    seeds: Sequence[int],
) -> list[BatchItem]:
    """The cartesian candidate grid: every config under every seed.

    Config-major order — item ``i * len(seeds) + j`` is config ``i`` under
    seed ``j`` — so measuring config ``i`` with ``reps`` seeds derived via
    :meth:`RngStreams.rep_seed` is bit-identical to ``repetition_items`` per
    config, and callers can slice results per config.
    """
    return [(workload, c, s) for c in configs for s in seeds]


def schedule_items(
    schedule: Iterable,
    configs: "PfsConfig | Sequence[PfsConfig]",
    seed: int = 0,
) -> list[BatchItem]:
    """A time-segmented schedule as a batch: segment ``i`` runs with
    ``RngStreams.rep_seed(seed, i)``.

    ``schedule`` yields segments (anything with a ``workload`` attribute, or
    bare workloads); ``configs`` is a single configuration applied to every
    segment, or one configuration per segment (the online controller's
    evolving sequence).  Seeds index the segment's *position*, so the same
    ``seed`` replays the same noise regardless of which strategy chose the
    configs — what makes strategy totals comparable.
    """
    workloads = [getattr(item, "workload", item) for item in schedule]
    if isinstance(configs, PfsConfig):
        configs = [configs] * len(workloads)
    else:
        configs = list(configs)
    if len(configs) != len(workloads):
        raise ValueError(
            f"schedule has {len(workloads)} segment(s) but {len(configs)} "
            "config(s); pass one config, or one per segment"
        )
    return [
        (workload, config, RngStreams.rep_seed(seed, index))
        for index, (workload, config) in enumerate(zip(workloads, configs))
    ]


# ---------------------------------------------------------------------------
# Group evaluation
# ---------------------------------------------------------------------------
def _sweep_group(
    sim: "Simulator",
    workload: "WorkloadLike",
    workload_key: tuple,
    group_items: list["BatchItem"],
) -> list["RunResult"]:
    """All items of one workload: dedup configs, evaluate each distinct one
    (through the run cache unless it is disabled), apply noise."""
    from repro.pfs.simulator import (
        _NOISE_CACHE,
        PHASE_NOISE_SIGMA,
        RUN_NOISE_SIGMA,
        evaluate_phases,
        noisy_run,
        remember_noise,
    )

    head = RUN_CACHE.group_key(sim.cluster, workload_key) if RUN_CACHE.active else None
    by_config: dict[tuple, "Evaluation"] = {}
    evaluations: list["Evaluation"] = []
    for _workload, config, _seed in group_items:
        config_key = config.cache_key()
        evaluation = by_config.get(config_key)
        if evaluation is None:
            if head is None:
                evaluation = evaluate_phases(sim.cluster, workload, config)
            else:
                evaluation = RUN_CACHE.fetch(
                    head + (config_key,), evaluate_phases, sim.cluster, workload, config
                )
            by_config[config_key] = evaluation
        evaluations.append(evaluation)

    # -- per-item noise: dedup by seed, seed only the cache misses --------
    # Noise depends on (seed, workload, n_phases) alone — never the config —
    # so a config×seed grid computes each seed's factors once, and the
    # shared memo in the simulator module carries them across groups and
    # ``Simulator.run`` calls (both fill and read the same dict).
    name = workload.name
    n_phases = len(evaluations[0][1])
    noise_by_seed: dict[int, tuple[tuple[float, ...], float]] = {}
    for _workload, _config, seed in group_items:
        if seed not in noise_by_seed:
            noise_by_seed[seed] = _NOISE_CACHE.get((seed, name, n_phases))
    missing = [seed for seed, noise in noise_by_seed.items() if noise is None]
    if missing:
        roots = [_derive_seed(seed, f"spawn:run:{name}") for seed in missing]
        phase_names = [f"phase:{i}" for i in range(n_phases)]
        if PHASE_NOISE_SIGMA > 0:
            phase_noises = np.exp(
                first_normals(
                    [_derive_seed(root, pn) for root in roots for pn in phase_names],
                    PHASE_NOISE_SIGMA,
                )
            ).reshape(len(missing), n_phases)
        else:
            phase_noises = np.ones((len(missing), n_phases))
        if RUN_NOISE_SIGMA > 0:
            run_noises = np.exp(
                first_normals(
                    [_derive_seed(root, "run") for root in roots], RUN_NOISE_SIGMA
                )
            )
        else:
            run_noises = np.ones(len(missing))
        for index, seed in enumerate(missing):
            noise = (
                tuple(phase_noises[index].tolist()),
                float(run_noises[index]),
            )
            noise_by_seed[seed] = noise
            remember_noise((seed, name, n_phases), noise)

    return [
        noisy_run(name, evaluation, seed, noise_by_seed[seed])
        for (_workload, _config, seed), evaluation in zip(group_items, evaluations)
    ]


def first_normals(seeds, sigma: float) -> np.ndarray:
    """``np.random.default_rng(seed).normal(0.0, sigma)`` for every seed —
    the one draw each named noise stream makes."""
    return np.array(
        [np.random.default_rng(seed).normal(0.0, sigma) for seed in seeds]
    )
