"""Bit-identical bulk seeding of first-draw noise streams.

Every simulated run draws one lognormal factor per phase plus one per run,
each from its own freshly-seeded ``np.random.default_rng(seed)`` stream
(:mod:`repro.sim.random`).  Constructing a ``SeedSequence`` + ``PCG64`` +
``Generator`` per stream costs ~10-20us — the single largest per-run cost in
the simulation hot path once the model itself is amortized.

This module replicates numpy's seeding arithmetic in vectorized form:

1. ``SeedSequence`` entropy pooling (the O'Neill seed-sequence hash) runs
   across all requested seeds at once on uint32 columns — the hash-constant
   schedule is seed-independent, so every step is one elementwise op;
2. ``PCG64``'s 128-bit ``srandom`` (state = ((inc + initstate) * MULT + inc))
   runs on uint64 hi/lo limb columns;
3. one process-wide ``PCG64`` bit generator is re-pointed at each computed
   state through its ``.state`` setter, and a shared ``Generator`` takes the
   stream's first ``normal`` draw through the normal C ziggurat path.

Step 3 keeps the draw itself inside numpy — the ziggurat tables are not
exposed — so the result is **bit-identical** to
``np.random.default_rng(seed).normal(0.0, sigma)`` for every seed, which
``tests/test_sweep.py`` asserts against the generic path.  Seeds below
2**32 entropy-pool differently (one entropy word instead of two) and are
rare for SHA-derived stream seeds; they fall back to ``default_rng``.

The shared generator is guarded by a lock so concurrent threads can both
seed noise here; sequential callers never contend.
"""

from __future__ import annotations

import threading

import numpy as np

_U32_MASK = np.uint64(0xFFFFFFFF)
_U64_1 = np.uint64(1)
_U64_16 = np.uint64(16)
_U64_32 = np.uint64(32)
_U64_63 = np.uint64(63)

# SeedSequence pooling constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_POOL_SIZE = 4

#: PCG64's default 128-bit multiplier, split into uint64 limbs.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO = np.uint64(_PCG_MULT & ((1 << 64) - 1))

#: The reused bit generator + generator pair.  Guarded by a lock, since two
#: threads may reach the shared generator; the lock is uncontended in every
#: sequential path.
_GEN_LOCK = threading.Lock()
_PCG = np.random.PCG64(0)
_GEN = np.random.Generator(_PCG)
_STATE_TEMPLATE = {
    "bit_generator": "PCG64",
    "state": None,
    "has_uint32": 0,
    "uinteger": 0,
}


def _seed_pools(seeds: np.ndarray) -> list[np.ndarray]:
    """The mixed 4-word entropy pool per seed (all seeds in [2**32, 2**63))."""
    entropy0 = (seeds & _U32_MASK).astype(np.uint32)
    entropy1 = (seeds >> _U64_32).astype(np.uint32)
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = (_MIX_MULT_L * x) - (_MIX_MULT_R * y)
        return result ^ (result >> np.uint32(16))

    zeros = np.zeros(len(seeds), dtype=np.uint32)
    pool = [hashmix(entropy0), hashmix(entropy1), hashmix(zeros), hashmix(zeros)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    return pool


def _generated_u64(pool: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence.generate_state(4, uint64)`` per seed, as hi/lo columns."""
    hash_const = _INIT_B
    words = []
    for index in range(8):
        value = pool[index % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        words.append(value ^ (value >> np.uint32(16)))
    return [
        words[2 * i].astype(np.uint64) | (words[2 * i + 1].astype(np.uint64) << _U64_32)
        for i in range(4)
    ]


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """``(a * b) mod 2**128`` on uint64 hi/lo limb columns."""
    a0 = a_lo & _U32_MASK
    a1 = a_lo >> _U64_32
    b0 = b_lo & _U32_MASK
    b1 = b_lo >> _U64_32
    t00 = a0 * b0
    t10 = a1 * b0
    t01 = a0 * b1
    mid = (t00 >> _U64_32) + (t10 & _U32_MASK) + (t01 & _U32_MASK)
    lo = (t00 & _U32_MASK) | (mid << _U64_32)
    hi = (
        a1 * b1
        + (t10 >> _U64_32)
        + (t01 >> _U64_32)
        + (mid >> _U64_32)
        + a_lo * b_hi
        + a_hi * b_lo
    )
    return hi, lo


def _pcg64_states(seeds: np.ndarray):
    """Post-``srandom`` (state, inc) hi/lo columns for every seed."""
    seed0_hi, seed0_lo, seq_hi, seq_lo = _generated_u64(_seed_pools(seeds))
    # pcg64_set_seed: initstate = u64[0]<<64 | u64[1]; initseq likewise.
    inc_lo = (seq_lo << _U64_1) | _U64_1
    inc_hi = (seq_hi << _U64_1) | (seq_lo >> _U64_63)
    state_hi, state_lo = _add128(inc_hi, inc_lo, seed0_hi, seed0_lo)
    state_hi, state_lo = _mul128(state_hi, state_lo, _PCG_MULT_HI, _PCG_MULT_LO)
    state_hi, state_lo = _add128(state_hi, state_lo, inc_hi, inc_lo)
    return state_hi, state_lo, inc_hi, inc_lo


def first_normals(seeds, sigma: float) -> np.ndarray:
    """``default_rng(seed).normal(0.0, sigma)`` for every seed, bulk-seeded.

    Bit-identical to the per-seed construction for every input; seeds below
    2**32 go through ``default_rng`` directly (their entropy pools one word,
    not two).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    count = len(seeds)
    out = np.empty(count)
    if count == 0:
        return out
    small = seeds < np.uint64(1 << 32)
    if small.any():
        for index in np.flatnonzero(small):
            out[index] = np.random.default_rng(int(seeds[index])).normal(0.0, sigma)
        if small.all():
            return out
        indices = np.flatnonzero(~small).tolist()
        state_hi, state_lo, inc_hi, inc_lo = _pcg64_states(seeds[indices])
    else:
        state_hi, state_lo, inc_hi, inc_lo = _pcg64_states(seeds)
        indices = range(count)
    template = dict(_STATE_TEMPLATE)
    pcg, gen = _PCG, _GEN
    set_state = type(pcg).state.__set__
    with _GEN_LOCK:
        normal = gen.normal
        for state_h, state_l, inc_h, inc_l, index in zip(
            state_hi.tolist(), state_lo.tolist(), inc_hi.tolist(), inc_lo.tolist(), indices
        ):
            template["state"] = {
                "state": (state_h << 64) | state_l,
                "inc": (inc_h << 64) | inc_l,
            }
            set_state(pcg, template)
            out[index] = normal(0.0, sigma)
    return out
