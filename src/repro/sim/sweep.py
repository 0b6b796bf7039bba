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
earlier run costed reach the model, and those cost only the phases whose
kind's role values no earlier evaluation of the group costed (the run
cache's phase store; the group's key head is passed along).  Inside
``RUN_CACHE.disabled()`` every group costs every phase of its distinct
configurations afresh.

Noise happens here.  The per-item noise re-derives exactly the seeds and
streams the scalar path uses (``RngStreams`` named streams).
:func:`seed_noise` is the one batched seeding path.  It derives the
stream seeds of every seed the noise memo lacks into one digest buffer,
read as one uint64 array, and draws them in one :func:`first_normals`
batch.  That hashes the batch's ``SeedSequence`` state words as uint32
arrays (:func:`seed_words`), seeds each stream's ``PCG64`` from its words
through one seed object per call, and scales one standard normal by
sigma, bit-identical to ``np.random.default_rng(seed).normal(0.0,
sigma)``.  The scalar path (:func:`~repro.pfs.simulator.run_noise`) still
seeds through ``default_rng`` and is the reference.  Two callers draw
batches:

- each workload group, for the seeds of its items the memo lacks;
- the oracle search (:class:`~repro.baselines.search.OracleSearch`,
  through :meth:`~repro.pfs.simulator.Simulator.seed_noise`), once per
  round before the round runs: the default run and round 1 together, then
  each later round's seeds.  The count is exact, because a sweep moves
  only its own coordinate: each sweep's trials, the candidates other than
  the current best's value of that coordinate, are known when the round
  starts.  The round's groups and the default run then find every factor
  memoized and draw nothing, and no stream is drawn for a run that never
  happens.

Factors are shared with the scalar path through the ``run_noise`` memo,
which both paths fill through :func:`~repro.pfs.simulator.remember_noise`.
The memo keeps its newest 4,096 entries, so a run repeated within that
many noise inserts finds its factors however long the process has been
running; an entry it dropped is re-drawn to the same factors.
:func:`~repro.pfs.simulator.noisy_run` builds each item's ``RunResult``,
as for cached ``Simulator.run`` calls.  Results are **bit-identical** to
one ``Simulator.run`` per item — asserted per registered backend by
``tests/test_sweep.py``.

Sharing caveats: items with equal configurations share one validated
``PfsConfig``, evaluations share the phase results the phase store served
them, and run results share ``phase`` / ``bounds`` objects with those;
consumers treat all of them as immutable.
"""

from __future__ import annotations

from hashlib import sha256
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
    from repro.pfs.simulator import evaluate_phases, noisy_run

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
                    head + (config_key,),
                    evaluate_phases,
                    sim.cluster,
                    workload,
                    config,
                    head,
                )
            by_config[config_key] = evaluation
        evaluations.append(evaluation)

    # -- per-item noise: dedup by seed, seed only the memo misses ---------
    # Noise depends on (seed, workload, n_phases) alone — never the config —
    # so a config×seed grid computes each seed's factors once, and the
    # shared memo in the simulator module carries them across groups and
    # ``Simulator.run`` calls (both fill and read the same dict).
    name = workload.name
    noise_by_seed = seed_noise(
        name, len(evaluations[0][1]), [seed for _w, _c, seed in group_items]
    )
    return [
        noisy_run(name, evaluation, seed, noise_by_seed[seed])
        for (_workload, _config, seed), evaluation in zip(group_items, evaluations)
    ]


def seed_noise(
    workload_name: str, n_phases: int, seeds: Iterable[int]
) -> dict[int, tuple[tuple[float, ...], float]]:
    """Each seed's :func:`~repro.pfs.simulator.run_noise` factors for runs
    of one workload, keyed by seed.

    Factors the memo holds are read as they are.  The ``phase:i`` then
    ``run`` streams of every other seed take their seeds from one digest
    buffer and are drawn in one :func:`first_normals` batch, and the
    factors are remembered.  The only batched seeding
    path: :func:`_sweep_group` calls it per workload group, and
    :meth:`~repro.pfs.simulator.Simulator.seed_noise` ahead of the runs an
    oracle-search round will make.
    """
    from repro.pfs.simulator import (
        _NOISE_CACHE,
        PHASE_NOISE_SIGMA,
        RUN_NOISE_SIGMA,
        remember_noise,
    )

    noise_by_seed: dict[int, tuple[tuple[float, ...], float]] = {}
    for seed in seeds:
        if seed not in noise_by_seed:
            noise_by_seed[seed] = _NOISE_CACHE.get((seed, workload_name, n_phases))
    missing = [seed for seed, noise in noise_by_seed.items() if noise is None]
    if missing:
        # Each stream seed is ``_derive_seed(root, stream)``: the first 8
        # SHA-256 bytes of ``f"{root}:{stream}"``, read little-endian and
        # masked to 63 bits.  Every stream's bytes go into one buffer, read
        # as one uint64 array.
        suffixes = [f":phase:{i}".encode() for i in range(n_phases)] + [b":run"]
        spawn = f"spawn:run:{workload_name}"
        digests = bytearray()
        for seed in missing:
            root = str(_derive_seed(seed, spawn)).encode()
            for suffix in suffixes:
                digests += sha256(root + suffix).digest()[:8]
        stream_seeds = np.frombuffer(digests, "<u8") & np.uint64(2**63 - 1)
        sigmas = [PHASE_NOISE_SIGMA] * n_phases + [RUN_NOISE_SIGMA]
        factors = np.exp(first_normals(stream_seeds, sigmas * len(missing)))
        for seed, row in zip(missing, factors.reshape(len(missing), -1).tolist()):
            noise = (tuple(row[:n_phases]), row[n_phases])
            noise_by_seed[seed] = noise
            remember_noise((seed, workload_name, n_phases), noise)
    return noise_by_seed


# ---------------------------------------------------------------------------
# Noise seeding
# ---------------------------------------------------------------------------
# ``np.random.default_rng(seed)`` is ``Generator(PCG64(SeedSequence(seed)))``,
# and PCG64 seeds itself from ``generate_state(4, np.uint64)``.  For an
# integer seed below 2**64 (no spawn key) SeedSequence hashes the seed's two
# 32-bit words and two zero words into a 4-word pool, mixes each pool word
# into the other three, and hashes the pool out into 8 uint32 words.  Each
# hash call's constants depend only on its position, so a batch of seeds
# runs as uint32 array ops, which wrap on overflow without a warning.
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)


def _hash_constants(value: int, multiplier: int, n: int):
    """The xor and multiply constants of ``n`` successive hash calls."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(value)
        value = value * multiplier & 0xFFFFFFFF
        mults.append(value)
    return np.array(xors, np.uint32), np.array(mults, np.uint32)


_POOL_XOR, _POOL_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_XOR, _OUT_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _round_constants(src: int):
    """Round ``src`` mixes pool word ``src`` into the other three, in
    ascending order, with hash calls ``4 + 3 * src`` onwards.  The pool
    turns one place left per round, so word ``src`` leads it and the rest
    follow as ``src + 1``, ``src + 2``, ``src + 3`` (mod 4): the constants
    come in that order."""
    others = [dst for dst in range(4) if dst != src]
    calls = [4 + 3 * src + others.index((src + k) % 4) for k in (1, 2, 3)]
    return _POOL_XOR[calls], _POOL_MULT[calls]


_ROUNDS = [_round_constants(src) for src in range(4)]


def seed_words(seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every seed,
    one row each, computed for the whole batch at once."""
    if len(seeds):
        # An array's range by array reductions: the builtins would iterate
        # it as numpy scalars, which costs more than the hash below.
        if isinstance(seeds, np.ndarray):
            low, high = seeds.min(), seeds.max()
        else:
            low, high = min(seeds), max(seeds)
        if not (0 <= low and high < 2**64):
            raise ValueError(f"seed {low if low < 0 else high} is outside [0, 2**64)")
    wide = np.zeros((len(seeds), 2), "<u8")
    wide[:, 0] = seeds
    pool = wide.view("<u4")
    pool ^= _POOL_XOR[:4]
    pool *= _POOL_MULT[:4]
    pool ^= pool >> 16
    for xors, mults in _ROUNDS:
        mixed = pool[:, :1] ^ xors
        mixed *= mults
        mixed ^= mixed >> 16
        mixed *= _MIX_R
        others = pool[:, 1:] * _MIX_L
        others -= mixed
        others ^= others >> 16
        pool = np.concatenate((others, pool[:, :1]), axis=1)
    state = np.concatenate((pool, pool), axis=1)
    state ^= _OUT_XOR
    state *= _OUT_MULT
    state ^= state >> 16
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _Words(ISeedSequence):
    """A seed sequence that answers PCG64's one request,
    ``generate_state(4, np.uint64)``, with the words it points at."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def first_normals(seeds: Sequence[int] | np.ndarray, sigmas) -> np.ndarray:
    """``np.random.default_rng(seed).normal(0.0, sigma)`` for every seed —
    the one draw each named noise stream makes — bit for bit.

    ``seeds`` is a sequence of ints or a uint64 array.  One
    :class:`_Words` object serves the call: it points at each seed's
    :func:`seed_words` row in turn while that stream's ``PCG64`` seeds
    itself from it, and the draw is ``0.0 + sigma * standard_normal()``,
    the arithmetic numpy's ``normal`` performs for loc 0.0.  ``sigmas`` is
    one sigma for every seed or one per seed; a sigma ≤ 0 draws nothing
    and gives 0.0, whose factor ``exp(0.0)`` is the 1.0
    :meth:`RngStreams.lognormal_noise` returns.  Raises ``ValueError`` for
    a seed outside ``[0, 2**64)``.
    """
    if np.ndim(sigmas) == 0:
        sigmas = [sigmas] * len(seeds)
    state = _Words()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    draws = []
    for words, sigma in zip(seed_words(seeds), sigmas, strict=True):
        if sigma > 0:
            state.words = words
            draws.append(0.0 + sigma * generator(pcg64(state)).standard_normal())
        else:
            draws.append(0.0)
    return np.array(draws)
