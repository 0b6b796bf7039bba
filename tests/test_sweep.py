"""Sweep engine and run cache: bit-identity with sequential
``Simulator.run`` on every registered backend and randomized groups, one
model evaluation per distinct config, seedless cache hits that equal
uncached runs and cold cached configs, bounded LRU, config bounds against an
unmemoized oracle, and the sweep's noise draws."""

import dataclasses
import pickle
import sys
import threading
from functools import lru_cache
from typing import Mapping

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import get_backend, list_backends
from repro.cluster import make_cluster
from repro.experiments.harness import measure_config, measure_configs
from repro.pfs import simulator as simulator_module
from repro.pfs.config import PfsConfig
from repro.pfs.expressions import ExpressionError, compile_expression
from repro.pfs.phases import PhaseResult
from repro.pfs.simulator import Simulator
from repro.sim import sweep as sweep_module
from repro.sim.cache import DEFAULT_MAXSIZE, RUN_CACHE, RunCache
from repro.sim.random import RngStreams
from repro.sim.sweep import (
    first_normals,
    grid_items,
    repetition_items,
    run_items,
    run_sweep,
    seed_words,
    sweep_items,
)
from repro.workloads import get_workload

PARITY_WORKLOADS = ("IOR_64K", "IOR_16M", "MDWorkbench_2K", "IO500", "AMReX")


def random_config(base: PfsConfig, rng: np.random.Generator) -> PfsConfig:
    """A random in-bounds configuration: a handful of writable parameters
    drawn uniformly inside their (dependently) resolved ranges."""
    config = base.copy()
    specs = [s for s in config.backend.writable_specs()]
    chosen = rng.choice(len(specs), size=min(4, len(specs)), replace=False)
    for index in chosen:
        spec = specs[index]
        if spec.ptype == "bool":
            config[spec.name] = int(rng.integers(0, 2))
            continue
        low, high = config.bounds(spec.name)
        low = int(max(low, -1)) if low != float("-inf") else 0
        high = int(min(high, 1 << 34)) if high != float("inf") else 1 << 20
        if high < low:
            continue
        value = int(rng.integers(low, high + 1))
        if value == 0 and low == -1:
            # -1 is an "all targets" sentinel; 0 validates but no real admin
            # tool accepts it (resolve_stripe_count raises in both paths).
            value = -1
        config[spec.name] = value
    return config.clipped()


def assert_runs_identical(expected, actual):
    assert len(actual) == len(expected)
    for exp, act in zip(expected, actual):
        assert act.seconds == exp.seconds
        assert act.seed == exp.seed
        assert act.workload == exp.workload
        assert act.config == exp.config
        assert [p.seconds for p in act.phases] == [p.seconds for p in exp.phases]
        assert [p.bottleneck for p in act.phases] == [
            p.bottleneck for p in exp.phases
        ]
        assert [p.bounds for p in act.phases] == [p.bounds for p in exp.phases]
        assert [
            (p.bytes_read, p.bytes_written, p.mds_ops, p.rpcs) for p in act.phases
        ] == [(p.bytes_read, p.bytes_written, p.mds_ops, p.rpcs) for p in exp.phases]


def sequential(sim, items):
    """The scalar reference: one cache-off ``Simulator.run`` per item.  It
    disables the cache ``Simulator.run`` reads, which a test may have
    swapped for a fresh one (:func:`fresh_run_cache`)."""
    with simulator_module.RUN_CACHE.disabled():
        return [
            sim.run(workload, config, seed=seed) for workload, config, seed in items
        ]


def empty_noise_memo(monkeypatch):
    """Point the shared noise memo at a fresh dict, so the next engine draws
    every noise factor itself instead of reading factors cached earlier."""
    monkeypatch.setattr(simulator_module, "_NOISE_CACHE", {})


@lru_cache(maxsize=None)
def config_pool(backend: str, size: int = 12):
    """``size`` distinct random in-bounds configurations of ``backend``."""
    cluster = make_cluster(seed=2, backend=backend)
    base = PfsConfig(facts=cluster.config_facts(), backend=cluster.backend)
    rng = np.random.default_rng(7)
    pool, seen = [], set()
    while len(pool) < size:
        config = random_config(base, rng)
        if config.cache_key() not in seen:
            seen.add(config.cache_key())
            pool.append(config)
    return cluster, tuple(pool)


def count_evaluations(monkeypatch) -> list:
    """Record every scalar model evaluation from here on; returns the list
    the calls are appended to."""
    calls = []
    real = simulator_module.evaluate_phases

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(simulator_module, "evaluate_phases", counting)
    return calls


def assert_no_memos(config: PfsConfig):
    """The config carries none of the validation memos (env dict,
    ``cache_key()`` tuple)."""
    assert config._env_cache is None
    assert config._cache_key is None


@st.composite
def sweep_groups(draw):
    """One workload group of distinct configurations on either backend, with
    equal-content duplicate configs and duplicate seeds mixed in."""
    backend = draw(st.sampled_from(list_backends()))
    _cluster, pool = config_pool(backend)
    chosen = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, unique=True)
    )
    repeats = draw(st.lists(st.sampled_from(chosen), max_size=len(chosen)))
    order = draw(st.permutations(chosen + repeats))
    seeds = draw(
        st.lists(st.integers(0, 3), min_size=len(order), max_size=len(order))
    )
    workload = draw(st.sampled_from(PARITY_WORKLOADS))
    return backend, workload, [pool[i].copy() for i in order], seeds


class TestSweepParity:
    @pytest.mark.parametrize("backend", list_backends())
    def test_randomized_configs_bit_identical_to_batch(self, backend, monkeypatch):
        """Property-style: random in-bounds candidate grids sweep
        bit-identically to sequential ``Simulator.run`` for every registered
        backend."""
        cluster = make_cluster(seed=2, backend=backend)
        sim = Simulator(cluster)
        base = PfsConfig(facts=cluster.config_facts(), backend=cluster.backend)
        rng = np.random.default_rng(42)
        configs = [random_config(base, rng) for _ in range(10)]
        for name in PARITY_WORKLOADS:
            workload = get_workload(name)
            seeds = [int(s) for s in rng.integers(0, 10**9, size=len(configs))]
            empty_noise_memo(monkeypatch)
            expected = sequential(sim, sweep_items(workload, configs, seeds))
            empty_noise_memo(monkeypatch)
            swept = run_sweep(sim, workload, configs, seeds)
            assert_runs_identical(expected, swept)

    def test_duplicate_configs_and_seeds_dedup_like_batch(self, monkeypatch):
        cluster = make_cluster(seed=0)
        sim = Simulator(cluster)
        base = PfsConfig(facts=cluster.config_facts())
        tuned = base.with_updates({"osc.max_rpcs_in_flight": 32})
        workload = get_workload("IOR_64K")
        configs = [base, tuned, base.copy(), tuned, base]
        seeds = [1, 2, 3, 2, 1]
        empty_noise_memo(monkeypatch)
        expected = sequential(sim, sweep_items(workload, configs, seeds))
        empty_noise_memo(monkeypatch)
        evaluations = count_evaluations(monkeypatch)
        swept = run_sweep(sim, workload, configs, seeds)
        assert_runs_identical(expected, swept)
        assert len(evaluations) == 2  # base and tuned, each costed once

    def test_mixed_workload_items_group_correctly(self, monkeypatch):
        cluster = make_cluster(seed=0)
        sim = Simulator(cluster)
        base = PfsConfig(facts=cluster.config_facts())
        tuned = base.with_updates({"lov.stripe_count": -1})
        items = [
            (get_workload("IOR_16M"), base, 5),
            (get_workload("MDWorkbench_2K"), tuned, 6),
            (get_workload("IOR_16M"), tuned, 7),
            (get_workload("MDWorkbench_2K"), base, 8),
        ]
        empty_noise_memo(monkeypatch)
        expected = sequential(sim, items)
        empty_noise_memo(monkeypatch)
        assert_runs_identical(expected, run_items(sim, items))

    def test_heterogeneous_facts_fall_back_to_scalar_validation(self, monkeypatch):
        cluster = make_cluster(seed=0)
        sim = Simulator(cluster)
        base = PfsConfig(facts=cluster.config_facts())
        other = PfsConfig(
            values={"osc.max_dirty_mb": 128},
            facts={**cluster.config_facts(), "extra_fact": 1.0},
        )
        workload = get_workload("IOR_64K")
        configs = [base, other]
        seeds = [1, 2]
        empty_noise_memo(monkeypatch)
        expected = sequential(sim, sweep_items(workload, configs, seeds))
        empty_noise_memo(monkeypatch)
        swept = run_sweep(sim, workload, configs, seeds)
        assert_runs_identical(expected, swept)

    def test_invalid_config_raises_like_batch(self):
        cluster = make_cluster(seed=0)
        sim = Simulator(cluster)
        base = PfsConfig(facts=cluster.config_facts())
        bad = base.copy()
        bad._set_raw("osc.max_rpcs_in_flight", 100000)
        workload = get_workload("IOR_64K")
        with pytest.raises(ValueError, match="invalid configuration") as scalar_err:
            sim.run(workload, bad, seed=1)
        with pytest.raises(ValueError, match="invalid configuration") as sweep_err:
            run_sweep(sim, workload, [base, bad], [0, 1])
        assert str(sweep_err.value) == str(scalar_err.value)

    @settings(max_examples=40, deadline=None)
    @given(group=sweep_groups())
    def test_any_group_matches_sequential_run(self, group):
        backend, name, configs, seeds = group
        cluster, _pool = config_pool(backend)
        sim = Simulator(cluster)
        items = sweep_items(get_workload(name), configs, seeds)
        with pytest.MonkeyPatch.context() as patch:
            empty_noise_memo(patch)
            expected = sequential(sim, items)
            empty_noise_memo(patch)
            assert_runs_identical(expected, run_items(sim, items))

    def test_run_sweep_requires_alignment(self):
        cluster = make_cluster(seed=0)
        sim = Simulator(cluster)
        config = PfsConfig(facts=cluster.config_facts())
        with pytest.raises(ValueError):
            run_sweep(sim, get_workload("IOR_64K"), [config], [1, 2])


class TestGridItems:
    def test_cartesian_config_major_shape(self):
        cluster = make_cluster(seed=0)
        base = PfsConfig(facts=cluster.config_facts())
        tuned = base.with_updates({"osc.max_dirty_mb": 256})
        workload = get_workload("IOR_64K")
        items = grid_items(workload, [base, tuned], [7, 8, 9])
        assert len(items) == 6
        assert [seed for _w, _c, seed in items] == [7, 8, 9, 7, 8, 9]
        assert [config is base for _w, config, _s in items] == [
            True, True, True, False, False, False,
        ]

    def test_grid_slice_matches_repetition_items(self):
        """Config ``i``'s slice of the grid is that config's repetition
        protocol — what makes ``measure_configs`` bit-identical to
        per-config ``measure_config``."""
        cluster = make_cluster(seed=0)
        base = PfsConfig(facts=cluster.config_facts())
        workload = get_workload("IOR_64K")
        seeds = [RngStreams.rep_seed(3, i) for i in range(4)]
        items = grid_items(workload, [base], seeds)
        assert items == repetition_items(workload, base, 4, seed=3)


#: Hardware for the run-cache property test: the config pool's cluster and
#: one with fewer metadata threads, which costs ``CACHE_WORKLOADS``
#: differently under the same config facts.
CACHE_HARDWARE = ({}, {"mds_service_threads": 8})
CACHE_WORKLOADS = ("MDWorkbench_2K", "AMReX")


@lru_cache(maxsize=None)
def cache_cluster(backend: str, hardware: int):
    return make_cluster(seed=2, backend=backend, **CACHE_HARDWARE[hardware])


@st.composite
def cached_call_sequences(draw):
    """``Simulator.run`` and ``run_items`` calls over both backends, two
    clusters and two workloads, ending with one exact repeat of a drawn item
    and its config under a new seed.  Item ``(workload, config index,
    widened facts, seed)``; small ranges make repeated configs likely."""
    item = st.tuples(
        st.sampled_from(CACHE_WORKLOADS),
        st.integers(0, 3),
        st.booleans(),
        st.integers(0, 3),
    )
    calls = []
    for _ in range(draw(st.integers(1, 5))):
        target = (
            draw(st.sampled_from(list_backends())),
            draw(st.integers(0, len(CACHE_HARDWARE) - 1)),
        )
        if draw(st.booleans()):
            calls.append((target, "run", [draw(item)]))
        else:
            items = draw(st.lists(item, min_size=1, max_size=5))
            calls.append((target, "items", items))
    target, _kind, items = calls[draw(st.integers(0, len(calls) - 1))]
    workload, config, widened, seed = draw(st.sampled_from(items))
    repeats = [(workload, config, widened, seed), (workload, config, widened, seed + 4)]
    calls.append((target, draw(st.sampled_from(["run", "items"])), repeats))
    return calls


def fresh_run_cache(monkeypatch, maxsize: int = DEFAULT_MAXSIZE) -> RunCache:
    """Point ``Simulator.run`` and the sweep at one new, empty run cache,
    whose counters start at zero."""
    cache = RunCache(maxsize=maxsize)
    monkeypatch.setattr(simulator_module, "RUN_CACHE", cache)
    monkeypatch.setattr(sweep_module, "RUN_CACHE", cache)
    return cache


class TestRunCache:
    def test_cache_hit_returns_equal_result_without_model(self, monkeypatch):
        cluster = make_cluster(seed=0)
        sim = Simulator(cluster)
        base = PfsConfig(facts=cluster.config_facts())
        configs = [
            base,
            base.with_updates({"osc.max_rpcs_in_flight": 32}),
            base.with_updates({"osc.max_dirty_mb": 512}),
            base.copy(),
        ]
        workload = get_workload("IOR_16M")
        seeds = [11, 12, 13, 14]
        fresh_seeds = [21, 22, 23, 24]
        distinct = 3

        evaluations = count_evaluations(monkeypatch)
        cache = fresh_run_cache(monkeypatch)
        first = run_sweep(sim, workload, configs, seeds)
        assert len(evaluations) == distinct
        second = run_sweep(sim, workload, configs, seeds)
        # A full hit: no model evaluation ran, one lookup per distinct
        # config, and the results equal the first pass's.
        assert len(evaluations) == distinct
        assert cache.hits == distinct
        assert_runs_identical(first, second)
        # Keys carry no seed: fresh seeds skip the model too.
        fresh = run_sweep(sim, workload, configs, fresh_seeds)
        assert len(evaluations) == distinct
        assert_runs_identical(
            sequential(sim, sweep_items(workload, configs, fresh_seeds)), fresh
        )

    def test_cache_serves_simulator_run(self, monkeypatch):
        cluster = make_cluster(seed=0)
        sim = Simulator(cluster)
        config = PfsConfig(facts=cluster.config_facts())
        workload = get_workload("IOR_64K")
        with RUN_CACHE.disabled():
            cold = sim.run(workload, config, seed=9)
            cold_new_seed = sim.run(workload, config, seed=10)
        cache = fresh_run_cache(monkeypatch)
        primed = sim.run(workload, config, seed=9)
        evaluations = count_evaluations(monkeypatch)
        served = sim.run(workload, config, seed=9)
        new_seed = sim.run(workload, config, seed=10)
        assert evaluations == []
        assert_runs_identical([cold, primed], [primed, served])
        assert_runs_identical([cold_new_seed], [new_seed])

    def test_cached_results_carry_no_validation_memos(self, monkeypatch):
        """Validated per-run copies come back cold, so the ``RUN_CACHE``
        never holds validation memos: ``Simulator.run`` and the sweep."""
        cluster, pool = config_pool("lustre")
        sim = Simulator(cluster)
        workload = get_workload("IOR_64K")
        cache = fresh_run_cache(monkeypatch)
        runs = [sim.run(workload, pool[0], seed=0)]
        runs += run_sweep(sim, workload, list(pool[1:4]), [1, 2, 3])
        assert len(cache) == len(runs)  # every run evaluated, none served
        for run in runs:
            assert_no_memos(run.config)

    def test_key_leads_with_backend_name(self):
        cluster = make_cluster(seed=0, backend="beegfs")
        config = PfsConfig(facts=cluster.config_facts(), backend="beegfs")
        key = RunCache.key(cluster, get_workload("IOR_64K"), config)
        assert key[0] == "beegfs"
        assert key[1][0] == "beegfs"  # cluster key leads with it too
        assert key[3][0] == "beegfs"  # consistent with PfsConfig.cache_key()
        assert key[-1] == config.cache_key()  # no trailing seed

    def test_lru_bound_and_eviction_order(self):
        cache = RunCache(maxsize=3)
        for index in range(5):
            cache.put(("k", index), index)
        assert len(cache) == 3
        assert cache.evictions == 2
        assert cache.get(("k", 0)) is None
        assert cache.get(("k", 4)) == 4
        # Touching an entry protects it from the next eviction.
        cache.get(("k", 2))
        cache.put(("k", 9), 9)
        assert cache.get(("k", 2)) == 2
        assert cache.get(("k", 3)) is None

    def test_inactive_cache_stores_nothing(self, monkeypatch):
        """Inside ``disabled()`` neither ``Simulator.run`` nor the sweep
        reads or fills the cache: every run reaches the model."""
        cluster = make_cluster(seed=0)
        sim = Simulator(cluster)
        config = PfsConfig(facts=cluster.config_facts())
        workload = get_workload("IOR_64K")
        primed = sim.run(workload, config, seed=3)
        entries, hits = len(RUN_CACHE), RUN_CACHE.hits
        evaluations = count_evaluations(monkeypatch)
        with RUN_CACHE.disabled():
            assert not RUN_CACHE.active
            a = sim.run(workload, config, seed=3)
            b = sim.run(workload, config, seed=3)
            swept = run_items(sim, [(workload, config, 3), (workload, config, 4)])
        assert RUN_CACHE.active
        assert a is not b and a.seconds == b.seconds == primed.seconds
        assert swept[0].seconds == a.seconds
        assert len(evaluations) == 3
        assert (len(RUN_CACHE), RUN_CACHE.hits) == (entries, hits)

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            RunCache(maxsize=0)

    @settings(max_examples=30, deadline=None)
    @given(calls=cached_call_sequences())
    def test_cached_calls_match_uncached_run(self, calls):
        """Any sequence of ``run``/``run_items`` calls under a fresh cache
        equals cache-off sequential ``Simulator.run`` bit for bit (config
        facts included), and costs each distinct evaluation once."""

        def resolve(target, item):
            backend, hardware = target
            workload, index, widened, seed = item
            config = config_pool(backend)[1][index].copy()
            if widened:
                # Valid either way (n_ost caps stripe counts); only the facts
                # and thus the cache key differ.
                config = PfsConfig(
                    values=config.as_dict(),
                    facts={**config.facts, "n_ost": 8},
                    backend=config.backend,
                )
            cluster = cache_cluster(backend, hardware)
            return cluster, (get_workload(workload), config, seed)

        flat = [
            resolve(target, item) for target, _kind, items in calls for item in items
        ]
        with pytest.MonkeyPatch.context() as patch:
            empty_noise_memo(patch)
            with RUN_CACHE.disabled():
                expected = [Simulator(cluster).run(*item) for cluster, item in flat]
            empty_noise_memo(patch)
            cache = fresh_run_cache(patch)
            evaluations = count_evaluations(patch)
            actual = []
            for target, kind, items in calls:
                sim = Simulator(cache_cluster(*target))
                resolved = [resolve(target, item)[1] for item in items]
                if kind == "run":
                    actual += [sim.run(*item) for item in resolved]
                else:
                    actual += run_items(sim, resolved)
        assert_runs_identical(expected, actual)
        assert [dict(run.config.facts) for run in actual] == [
            dict(run.config.facts) for run in expected
        ]
        distinct = {
            RunCache.key(cluster, workload, config)
            for cluster, (workload, config, _seed) in flat
        }
        assert len(evaluations) == len(distinct) == len(cache)

    def test_mutating_a_run_leaves_later_hits_intact(self, monkeypatch):
        cluster, pool = config_pool("lustre")
        sim = Simulator(cluster)
        workload = get_workload("IOR_16M")
        with RUN_CACHE.disabled():
            expected = sim.run(workload, pool[0], seed=1)
        cache = fresh_run_cache(monkeypatch)
        for run in (
            sim.run(workload, pool[0], seed=1),
            run_sweep(sim, workload, [pool[0]], [1])[0],
        ):
            for phase in run.phases:
                phase.seconds *= 1000.0
        served = [
            sim.run(workload, pool[0], seed=1),
            run_sweep(sim, workload, [pool[0]], [1])[0],
        ]
        assert cache.hits == 3
        assert_runs_identical([expected, expected], served)
        # The copies carry every PhaseResult field (noisy_run lists them).
        names = {field.name for field in dataclasses.fields(PhaseResult)}
        assert all(set(vars(phase)) == names for phase in served[0].phases)

    def test_invalid_config_raises_on_every_call_and_stores_nothing(
        self, monkeypatch
    ):
        cluster = make_cluster(seed=0)
        sim = Simulator(cluster)
        bad = PfsConfig(facts=cluster.config_facts())
        bad._set_raw("osc.max_rpcs_in_flight", 100000)
        workload = get_workload("IOR_64K")
        cache = fresh_run_cache(monkeypatch)
        for seed in (1, 1, 2):
            with pytest.raises(ValueError, match="invalid configuration"):
                sim.run(workload, bad, seed=seed)
            with pytest.raises(ValueError, match="invalid configuration"):
                run_items(sim, [(workload, bad, seed)])
        assert len(cache) == 0
        assert cache.hits == 0


class TestMeasureConfigs:
    def test_matches_measure_config_per_entry(self):
        cluster = make_cluster(seed=0)
        updates_list = [{}, {"osc.max_rpcs_in_flight": 32}]
        together = measure_configs(
            cluster, "IOR_16M", updates_list, ["a", "b"], reps=3, seed=4
        )
        separate = [
            measure_config(cluster, "IOR_16M", updates, label, reps=3, seed=4)
            for updates, label in zip(updates_list, ["a", "b"])
        ]
        assert [m.times for m in together] == [m.times for m in separate]

    def test_requires_aligned_labels(self):
        cluster = make_cluster(seed=0)
        with pytest.raises(ValueError):
            measure_configs(cluster, "IOR_16M", [{}], ["a", "b"])


class TestNoiseMemo:
    """The ``run_noise`` memo keeps its newest ``_NOISE_CACHE_MAX`` entries."""

    CAP = 4

    @staticmethod
    def reference_noise(seed: int, name: str, n_phases: int) -> tuple:
        """A cache-off draw: the named streams ``run_noise`` documents."""
        rng = RngStreams(seed).spawn(f"run:{name}")
        return (
            tuple(
                rng.lognormal_noise(f"phase:{i}", simulator_module.PHASE_NOISE_SIGMA)
                for i in range(n_phases)
            ),
            rng.lognormal_noise("run", simulator_module.RUN_NOISE_SIGMA),
        )

    def count_draws(self, monkeypatch) -> list:
        """Record every scalar and sweep noise draw from here on."""
        draws = []
        scalar, sweep = RngStreams.lognormal_noise, sweep_module.first_normals

        def scalar_draw(streams, *args):
            draws.append("scalar")
            return scalar(streams, *args)

        def sweep_draw(seeds, sigma):
            draws.append("sweep")
            return sweep(seeds, sigma)

        monkeypatch.setattr(RngStreams, "lognormal_noise", scalar_draw)
        monkeypatch.setattr(sweep_module, "first_normals", sweep_draw)
        return draws

    @pytest.mark.parametrize("path", ["run", "run_sweep"])
    def test_repeat_past_the_cap_draws_no_noise(self, monkeypatch, path):
        monkeypatch.setattr(simulator_module, "_NOISE_CACHE_MAX", self.CAP)
        memo = simulator_module._NOISE_CACHE
        cluster, pool = config_pool("lustre")
        sim = Simulator(cluster)
        workload = get_workload("IOR_64K")

        def measure(config, seed):
            if path == "run":
                return sim.run(workload, config, seed=seed)
            return run_sweep(sim, workload, [config], [seed])[0]

        draws = self.count_draws(monkeypatch)
        for seed in range(3 * self.CAP):
            config = pool[seed % len(pool)]
            first = measure(config, seed)
            assert len(memo) <= self.CAP
            del draws[:]
            repeat = measure(config, seed)
            assert draws == [], f"seed {seed}: a repeat right after its run drew noise"
            assert repeat.seconds == first.seconds
        assert len(memo) == self.CAP
        assert [key[0] for key in memo] == list(range(2 * self.CAP, 3 * self.CAP))
        for (seed, name, n_phases), noise in memo.items():
            assert noise == self.reference_noise(seed, name, n_phases)

    def test_concurrent_inserts_keep_the_cap(self, monkeypatch):
        """Threads filling the memo past its cap lose no drop and raise
        nothing: inserts and drops run under the module lock."""
        monkeypatch.setattr(simulator_module, "_NOISE_CACHE_MAX", self.CAP)
        memo = simulator_module._NOISE_CACHE
        errors = []

        def fill(offset):
            try:
                for seed in range(offset, offset + 5000):
                    simulator_module.remember_noise((seed, "w", 1), ((1.0,), 1.0))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=fill, args=(k * 10_000,)) for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) == self.CAP


class TestFastRng:
    def test_first_normals_matches_default_rng(self):
        rng = np.random.default_rng(5)
        seeds = [int(s) for s in rng.integers(0, 2**63, size=64, dtype=np.uint64)]
        seeds += [0, 1, 7, 2**32 - 1, 2**32, 2**63 - 1]  # both sides of 2**32
        for sigma in (0.02, 0.025):
            fast = first_normals(seeds, sigma)
            reference = [
                np.random.default_rng(seed).normal(0.0, sigma) for seed in seeds
            ]
            assert fast.tolist() == reference

    EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**64 - 1), st.sampled_from((0.02, 0.025, 0.0))
            ),
            max_size=64,
        )
    )
    @example([(seed, 0.02) for seed in EDGE_SEEDS])
    @example([(seed, sigma) for seed in EDGE_SEEDS for sigma in (0.025, 0.0)])
    def test_batch_matches_seed_sequence_and_default_rng(self, batch):
        """Each seed's words are ``SeedSequence``'s, and each draw, with its
        own sigma, has the bytes of a ``default_rng`` draw."""
        seeds = [seed for seed, _sigma in batch]
        words = seed_words(seeds)
        assert words.dtype == np.uint64
        assert words.shape == (len(seeds), 4)
        for seed, row in zip(seeds, words):
            expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert row.tobytes() == expected.tobytes(), seed
        reference = np.array(
            [np.random.default_rng(seed).normal(0.0, sigma) for seed, sigma in batch],
            dtype=float,
        )
        drawn = first_normals(seeds, [sigma for _seed, sigma in batch])
        assert drawn.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_is_refused(self, seed):
        """A uint64 replica cannot seed -1 or 2**64 as numpy does."""
        with pytest.raises(ValueError, match=f"seed {seed} "):
            first_normals([0, seed], 0.02)

    def test_generator_pcg64_equals_default_rng(self):
        """``default_rng(seed)`` is ``Generator(PCG64(seed))``, the stream
        every named noise stream draws from."""
        for seed in (0, 123, 2**62 + 17):
            direct = np.random.Generator(np.random.PCG64(seed)).normal(0.0, 0.02)
            generic = np.random.default_rng(seed).normal(0.0, 0.02)
            assert direct == generic


def _oracle_resolve(
    expr: float | str | None, env: Mapping[str, float], default: float
) -> float:
    """The resolver ``PfsConfig.bounds`` used while it memoized, verbatim."""
    if expr is None:
        return default
    if isinstance(expr, (int, float)):
        return float(expr)
    return compile_expression(expr)(env)


class BoundsOracle:
    """A config's values and facts as plain dicts, with bounds resolved from
    scratch on every call (env = values ∪ facts) and the ``violations`` /
    ``clipped`` loops of the memoized resolver on top."""

    def __init__(self, backend):
        self.backend = backend
        self.values = backend.defaults()
        self.facts = {"system_memory_mb": 196 * 1024, "n_ost": 5}

    def bounds(self, name, values=None):
        spec = self.backend.param(name)
        env = {n: float(v) for n, v in (values or self.values).items()}
        env.update(self.facts)
        low = _oracle_resolve(spec.min_expr, env, default=float("-inf"))
        high = _oracle_resolve(spec.max_expr, env, default=float("inf"))
        return (low, high)

    def violations(self):
        out = []
        for name, value in self.values.items():
            spec = self.backend.registry[name]
            try:
                low, high = self.bounds(name)
            except ExpressionError as exc:
                out.append((name, value, f"range expression error: {exc}"))
                continue
            if spec.ptype == "bool" and value not in (0, 1):
                out.append((name, value, "boolean parameter accepts 0 or 1"))
            elif value < low:
                out.append((name, value, f"below minimum {low:g}"))
            elif value > high:
                out.append((name, value, f"above maximum {high:g}"))
        return out

    def clipped(self):
        values = dict(self.values)
        for _ in range(4):
            changed = False
            for name in list(values):
                low, high = self.bounds(name, values)
                value = values[name]
                clipped_value = int(min(max(value, low), high))
                if clipped_value != value:
                    values[name] = clipped_value
                    changed = True
            if not changed:
                break
        return values


def outcome(fn, *args):
    """``fn(*args)``, or the message of the ``ExpressionError`` it raised."""
    try:
        return fn(*args)
    except ExpressionError as exc:
        return ("ExpressionError", str(exc))


FACT_KEYS = ("n_ost", "system_memory_mb", "extra")


@st.composite
def bounds_programs(draw):
    """A backend and a sequence of config changes: parameter writes (in and
    out of range, the parameters range expressions reference and their
    dependents weighted up), rebuilds with other facts (any of them missing
    or added, or none at all), and copy, ``with_updates`` and pickle round
    trips."""
    backend = get_backend(draw(st.sampled_from(list_backends())))
    writable = [spec.name for spec in backend.writable_specs()]
    expressions = [
        (spec.name, expr)
        for spec in backend.specs
        for expr in (spec.min_expr, spec.max_expr)
        if isinstance(expr, str)
    ]
    linked = sorted(
        {name for name, _ in expressions}
        | {other for other in writable for _, expr in expressions if other in expr}
    )
    name = st.one_of(st.sampled_from(linked), st.sampled_from(writable))
    value = st.one_of(
        st.integers(-2, 70), st.integers(0, 1 << 20), st.sampled_from([1 << 31])
    )
    fact = st.integers(0, 1 << 18)
    op = st.one_of(
        st.tuples(st.just("write"), name, value, st.booleans()),
        st.tuples(st.just("with_updates"), name, value),
        st.tuples(
            st.just("facts"),
            st.dictionaries(st.sampled_from(FACT_KEYS), fact),
        ),
        st.tuples(st.sampled_from(["copy", "pickle"])),
    )
    return backend.name, draw(st.lists(op, min_size=1, max_size=12))


class TestDependencyAwareInvalidation:
    def _counting_evaluators(self, monkeypatch):
        """Count every call of each backend's bounds-table evaluators."""
        calls = []

        def counting(evaluate):
            def counted(env):
                calls.append(env)
                return evaluate(env)

            return counted

        for name in list_backends():
            backend = get_backend(name)
            table = {
                param: (constant, low, high)
                if constant is not None
                else (constant, counting(low), counting(high))
                for param, (constant, low, high) in backend.bounds_table.items()
            }
            monkeypatch.setitem(backend.__dict__, "bounds_table", table)
        return calls

    def test_unrelated_write_keeps_cached_bounds(self, monkeypatch):
        """Constant ranges are resolved once per backend: no write, rebuild
        with other facts, copy or basename lookup makes a constant-bounded
        parameter call a bounds-table evaluator; an expression-bounded one
        evaluates both sides on every call."""
        calls = self._counting_evaluators(monkeypatch)
        for backend in list_backends():
            config = PfsConfig(backend=backend)
            constant = config.backend.constant_bounds
            assert constant
            for name in list(config):
                config[name] = config[name] + 1
                config = PfsConfig(
                    values=config.as_dict(),
                    facts={**config.facts, "n_ost": config.facts["n_ost"] + 1},
                    backend=backend,
                ).copy()
                for other in constant:
                    spec = config.backend.registry[other]
                    assert config.bounds(other) == constant[other]
                    if spec.basename in config.backend and (
                        config.backend.param(spec.basename) is spec
                    ):
                        assert config.bounds(spec.basename) == constant[other]
        assert calls == []
        config = PfsConfig()
        config.bounds("lov.stripe_count")
        config.bounds("lov.stripe_count")
        assert len(calls) == 4  # min and max, on both calls

    def test_dependency_write_invalidates_dependents(self):
        config = PfsConfig()
        config.bounds("llite.max_read_ahead_per_file_mb")
        assert config.bounds("mdc.max_mod_rpcs_in_flight") == (1.0, 7.0)
        config["llite.max_read_ahead_mb"] = 1024
        assert config.bounds("llite.max_read_ahead_per_file_mb")[1] == 512.0
        # ...while the unrelated mdc bounds are unchanged.
        assert config.bounds("mdc.max_mod_rpcs_in_flight") == (1.0, 7.0)

    @settings(max_examples=60, deadline=None)
    @given(program=bounds_programs())
    def test_bounds_match_memoized_oracle(self, program):
        """``bounds`` values, ``violations`` messages, ``clipped`` results
        and expression errors equal the oracle's after every change."""
        backend_name, ops = program
        backend = get_backend(backend_name)
        config = PfsConfig(backend=backend)
        oracle = BoundsOracle(backend)
        for op in ops:
            kind = op[0]
            if kind == "write":
                _, name, value, by_basename = op
                spec = backend.registry[name]
                unique = spec.basename in backend and (
                    backend.param(spec.basename) is spec
                )
                if by_basename and unique:
                    name = spec.basename
                config[name] = value
                oracle.values[spec.name] = value
            elif kind == "with_updates":
                _, name, value = op
                config = config.with_updates({name: value})
                oracle.values[name] = value
            elif kind == "facts":
                config = PfsConfig(config.as_dict(), facts=op[1], backend=backend)
                oracle.facts = dict(op[1])
            elif kind == "copy":
                config = config.copy()
            else:
                config = pickle.loads(pickle.dumps(config))
            for spec in backend.specs:
                assert outcome(config.bounds, spec.name) == outcome(
                    oracle.bounds, spec.name
                ), (op, spec.name)
            assert [
                (v.name, v.value, v.reason) for v in config.violations()
            ] == oracle.violations(), op
            clipped = outcome(config.clipped)
            if isinstance(clipped, PfsConfig):
                clipped = clipped.as_dict()
            assert clipped == outcome(oracle.clipped), op

    def test_uncompilable_expression_raises_on_every_call(self):
        """A range expression that does not compile raises its
        ``ExpressionError`` from every ``bounds`` and ``clipped`` call and
        is reported by ``violations``; the other parameters resolve."""
        lustre = get_backend("lustre")
        broken = "llite.max_read_ahead_whole_mb"
        backend = dataclasses.replace(
            lustre,
            specs=tuple(
                dataclasses.replace(spec, max_expr="max_read_ahead_mb +")
                if spec.name == broken
                else spec
                for spec in lustre.specs
            ),
        )
        config = PfsConfig(backend=backend)
        for _ in range(2):
            with pytest.raises(ExpressionError, match="bad expression"):
                config.bounds(broken)
            with pytest.raises(ExpressionError, match="bad expression"):
                config.clipped()
        assert config.bounds("lov.stripe_count") == (-1.0, 5.0)
        (violation,) = config.violations()
        assert violation.name == broken
        assert violation.reason.startswith("range expression error: bad expression")

    def test_clipped_still_converges_with_targeted_invalidation(self):
        config = PfsConfig()
        config["llite.max_read_ahead_mb"] = 100
        config["llite.max_read_ahead_per_file_mb"] = 9999
        clipped = config.clipped()
        assert clipped["llite.max_read_ahead_per_file_mb"] == 50
        assert not clipped.violations()
