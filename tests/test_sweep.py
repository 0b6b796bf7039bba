"""Sweep engine and run cache: bit-identity with sequential
``Simulator.run`` on every registered backend and randomized groups, one
model evaluation per distinct config, cache-hit semantics and cold cached
configs, bounded LRU, dependency-aware bounds invalidation, and the sweep's
noise draws."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import list_backends
from repro.cluster import make_cluster
from repro.experiments.harness import measure_config, measure_configs
from repro.pfs import simulator as simulator_module
from repro.pfs.config import PfsConfig
from repro.pfs.simulator import Simulator
from repro.sim import sweep as sweep_module
from repro.sim.cache import RUN_CACHE, RunCache
from repro.sim.random import RngStreams
from repro.sim.sweep import (
    first_normals,
    grid_items,
    repetition_items,
    run_items,
    run_sweep,
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
    """The scalar reference: one ``Simulator.run`` per item."""
    return [sim.run(workload, config, seed=seed) for workload, config, seed in items]


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
    """The config carries none of the validation memos (env dict, resolved
    bounds, ``cache_key()`` tuple)."""
    assert config._env_cache is None
    assert config._bounds_cache == {}
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
        other = base.copy()
        other.facts["extra_fact"] = 1.0
        other["osc.max_dirty_mb"] = 128
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


class TestRunCache:
    def test_cache_hit_returns_equal_result_without_model(self, monkeypatch):
        cluster = make_cluster(seed=0)
        sim = Simulator(cluster)
        base = PfsConfig(facts=cluster.config_facts())
        configs = [
            base,
            base.with_updates({"osc.max_rpcs_in_flight": 32}),
            base.with_updates({"osc.max_dirty_mb": 512}),
        ]
        workload = get_workload("IOR_16M")
        seeds = [11, 12, 13]

        evaluations = count_evaluations(monkeypatch)
        cache = RunCache()
        monkeypatch.setattr(sweep_module, "RUN_CACHE", cache)
        with cache.enabled():
            first = run_sweep(sim, workload, configs, seeds)
            assert len(evaluations) == len(configs)
            second = run_sweep(sim, workload, configs, seeds)
        # A full hit: no model evaluation ran, results are the shared objects.
        assert len(evaluations) == len(configs)
        assert [b is a for a, b in zip(first, second)] == [True] * len(first)
        assert_runs_identical(first, second)
        assert cache.hits == len(first)

    def test_cache_serves_simulator_run(self):
        cluster = make_cluster(seed=0)
        sim = Simulator(cluster)
        config = PfsConfig(facts=cluster.config_facts())
        workload = get_workload("IOR_64K")
        cold = sim.run(workload, config, seed=9)
        with RUN_CACHE.enabled():
            primed = sim.run(workload, config, seed=9)
            served = sim.run(workload, config, seed=9)
        assert served is primed
        assert primed.seconds == cold.seconds

    def test_cached_results_carry_no_validation_memos(self, monkeypatch):
        """Validated per-run copies come back cold, so the ``RUN_CACHE``
        never holds validation memos: ``Simulator.run`` and the sweep."""
        cluster, pool = config_pool("lustre")
        sim = Simulator(cluster)
        workload = get_workload("IOR_64K")
        cache = RunCache()
        monkeypatch.setattr(simulator_module, "RUN_CACHE", cache)
        monkeypatch.setattr(sweep_module, "RUN_CACHE", cache)
        with cache.enabled():
            runs = [sim.run(workload, pool[0], seed=0)]
            runs += run_sweep(sim, workload, list(pool[1:4]), [1, 2, 3])
        assert len(cache) == len(runs)  # every run evaluated, none served
        for run in runs:
            assert_no_memos(run.config)

    def test_key_leads_with_backend_name(self):
        cluster = make_cluster(seed=0, backend="beegfs")
        config = PfsConfig(facts=cluster.config_facts(), backend="beegfs")
        key = RunCache.key(cluster, get_workload("IOR_64K"), config, 5)
        assert key[0] == "beegfs"
        assert key[1][0] == "beegfs"  # cluster key leads with it too
        assert key[3][0] == "beegfs"  # consistent with PfsConfig.cache_key()
        assert key[-1] == 5

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

    def test_inactive_cache_stores_nothing(self):
        cluster = make_cluster(seed=0)
        sim = Simulator(cluster)
        config = PfsConfig(facts=cluster.config_facts())
        workload = get_workload("IOR_64K")
        entries = len(RUN_CACHE)
        a = sim.run(workload, config, seed=3)
        b = sim.run(workload, config, seed=3)
        assert a is not b and a.seconds == b.seconds
        assert len(RUN_CACHE) == entries

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            RunCache(maxsize=0)


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

    def test_generator_pcg64_equals_default_rng(self):
        """``default_rng(seed)`` is ``Generator(PCG64(seed))``, the stream
        every named noise stream draws from."""
        for seed in (0, 123, 2**62 + 17):
            direct = np.random.Generator(np.random.PCG64(seed)).normal(0.0, 0.02)
            generic = np.random.default_rng(seed).normal(0.0, 0.02)
            assert direct == generic


class TestDependencyAwareInvalidation:
    def _counting_resolve(self, monkeypatch):
        from repro.pfs import config as config_module

        calls = []
        original = config_module._resolve

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(config_module, "_resolve", counting)
        # Observe the per-instance cache directly: the content-keyed shared
        # map would (correctly) serve repeated contents without resolving.
        monkeypatch.setattr(config_module, "_SHARED_BOUNDS", {})
        monkeypatch.setattr(config_module, "_SHARED_BOUNDS_MAX", 0)
        return calls

    def test_unrelated_write_keeps_cached_bounds(self, monkeypatch):
        calls = self._counting_resolve(monkeypatch)
        config = PfsConfig()
        config.bounds("llite.max_read_ahead_per_file_mb")
        warm = len(calls)
        # osc.max_dirty_mb appears in no range expression of the readahead
        # params — its write must not drop their cached bounds.
        config["osc.max_dirty_mb"] = 256
        config.bounds("llite.max_read_ahead_per_file_mb")
        assert len(calls) == warm

    def test_dependency_write_invalidates_dependents(self, monkeypatch):
        calls = self._counting_resolve(monkeypatch)
        config = PfsConfig()
        config.bounds("llite.max_read_ahead_per_file_mb")
        config.bounds("mdc.max_mod_rpcs_in_flight")
        warm = len(calls)
        config["llite.max_read_ahead_mb"] = 1024
        assert config.bounds("llite.max_read_ahead_per_file_mb")[1] == 512.0
        assert len(calls) > warm
        # ...while the unrelated mdc bounds stayed cached.
        settled = len(calls)
        config.bounds("mdc.max_mod_rpcs_in_flight")
        assert len(calls) == settled

    def test_facts_mutation_still_invalidates_wholesale(self, monkeypatch):
        calls = self._counting_resolve(monkeypatch)
        config = PfsConfig()
        config.bounds("lov.stripe_count")
        config.bounds("llite.max_read_ahead_mb")
        warm = len(calls)
        config.facts["n_ost"] = 12
        assert config.bounds("lov.stripe_count")[1] == 12.0
        config.bounds("llite.max_read_ahead_mb")
        assert len(calls) > warm + 1  # both re-resolved

    @pytest.mark.parametrize("backend", list_backends())
    def test_dependents_map_is_conservative(self, backend):
        """Every parameter referenced by another's range expression edges its
        dependents; the map never misses an edge the expressions declare."""
        from repro.backends import get_backend
        from repro.pfs.expressions import referenced_names

        resolved = get_backend(backend)
        dependents = resolved.bounds_dependents
        for spec in resolved.specs:
            for expr in (spec.min_expr, spec.max_expr):
                if not isinstance(expr, str):
                    continue
                for ident in referenced_names(expr):
                    for other in resolved.specs:
                        if other.name == ident or other.basename == ident:
                            assert spec.name in dependents[other.name]

    def test_clipped_still_converges_with_targeted_invalidation(self):
        config = PfsConfig()
        config["llite.max_read_ahead_mb"] = 100
        config["llite.max_read_ahead_per_file_mb"] = 9999
        clipped = config.clipped()
        assert clipped["llite.max_read_ahead_per_file_mb"] == 50
        assert not clipped.violations()
