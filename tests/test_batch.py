"""Batch/parallel execution: equivalence with the sequential paths, cache
invalidation, and seed-stream unification."""

import gc
import operator
import pickle
import random
import weakref

import pytest

from repro.cluster import make_cluster
from repro.experiments import harness, parallel
from repro.pfs.config import PfsConfig
from repro.pfs.expressions import compile_expression
from repro.pfs.simulator import Simulator, evaluate_phases
from repro.sim.cache import RUN_CACHE
from repro.sim.random import REP_STRIDE, RngStreams
from repro.sim.sweep import repetition_items, sweep_items
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def cluster():
    return make_cluster(seed=0)


@pytest.fixture(scope="module")
def sim(cluster):
    return Simulator(cluster)


class TestRunBatch:
    def test_bit_identical_to_sequential(self, cluster, sim, monkeypatch):
        """Same seeds -> identical totals, phase times and breakdowns.

        Each side starts from an empty noise memo, so the sweep draws its
        own noise instead of reading the scalar side's."""
        for name in ("IOR_16M", "MDWorkbench_2K", "IO500"):
            workload = get_workload(name)
            config = PfsConfig(facts=cluster.config_facts())
            seeds = [RngStreams.rep_seed(3, i) for i in range(4)]
            monkeypatch.setattr("repro.pfs.simulator._NOISE_CACHE", {})
            with RUN_CACHE.disabled():
                sequential = [sim.run(workload, config, seed=s) for s in seeds]
            monkeypatch.setattr("repro.pfs.simulator._NOISE_CACHE", {})
            batched = sim.run_items([(workload, config, s) for s in seeds])
            for seq, bat in zip(sequential, batched):
                assert bat.seconds == seq.seconds
                assert bat.seed == seq.seed
                assert bat.config == seq.config
                assert [p.seconds for p in bat.phases] == [
                    p.seconds for p in seq.phases
                ]
                assert [p.bottleneck for p in bat.phases] == [
                    p.bottleneck for p in seq.phases
                ]
                assert [p.bounds for p in bat.phases] == [
                    p.bounds for p in seq.phases
                ]

    def test_mixed_configs_and_workloads(self, cluster, sim, monkeypatch):
        """Dedup across heterogeneous items must not cross-contaminate."""
        base = PfsConfig(facts=cluster.config_facts())
        tuned = base.with_updates({"osc.max_rpcs_in_flight": 32})
        items = [
            (get_workload("IOR_64K"), base, 11),
            (get_workload("IOR_16M"), base, 12),
            (get_workload("IOR_64K"), tuned, 13),
            (get_workload("IOR_64K"), base, 14),  # dedups with item 0's group
        ]
        monkeypatch.setattr("repro.pfs.simulator._NOISE_CACHE", {})
        with RUN_CACHE.disabled():
            sequential = [sim.run(w, c, seed=s) for w, c, s in items]
        monkeypatch.setattr("repro.pfs.simulator._NOISE_CACHE", {})
        batched = sim.run_items(items)
        for seq, bat in zip(sequential, batched):
            assert bat.seconds == seq.seconds
            assert bat.workload == seq.workload

    def test_run_repetitions_uses_rep_seeds(self, cluster, sim):
        workload = get_workload("IOR_64K")
        config = PfsConfig(facts=cluster.config_facts())
        runs = sim.run_repetitions(workload, config, n=3, seed=5)
        assert [r.seed for r in runs] == [RngStreams.rep_seed(5, i) for i in range(3)]
        # Distinct reps must draw distinct noise.
        assert len({r.seconds for r in runs}) == 3

    def test_sweep_items_requires_alignment(self, cluster):
        config = PfsConfig(facts=cluster.config_facts())
        with pytest.raises(ValueError):
            sweep_items(get_workload("IOR_64K"), [config], [1, 2])

    def test_repetition_items_shape(self, cluster):
        workload = get_workload("IOR_64K")
        config = PfsConfig(facts=cluster.config_facts())
        items = repetition_items(workload, config, 2, seed=9)
        assert [(w.name, s) for w, _c, s in items] == [
            ("IOR_64K", RngStreams.rep_seed(9, 0)),
            ("IOR_64K", RngStreams.rep_seed(9, 1)),
        ]


class TestBoundsCache:
    def test_bounds_follow_setitem(self):
        config = PfsConfig()
        config["llite.max_read_ahead_mb"] = 1024
        assert config.bounds("llite.max_read_ahead_per_file_mb")[1] == 512.0
        config["llite.max_read_ahead_mb"] = 2048
        assert config.bounds("llite.max_read_ahead_per_file_mb")[1] == 1024.0

    def test_bounds_follow_with_updates(self):
        config = PfsConfig()
        updated = config.with_updates({"mdc.max_rpcs_in_flight": 64})
        assert updated.bounds("mdc.max_mod_rpcs_in_flight")[1] == 63.0
        # The source config's cache must be untouched.
        assert config.bounds("mdc.max_mod_rpcs_in_flight")[1] == 7.0

    def test_bounds_follow_facts(self):
        """Bounds, violations, clipping and the cache key follow the facts a
        config is built with."""
        values = {"lov.stripe_count": 7, "llite.max_read_ahead_mb": 1024}
        wide = PfsConfig(values, facts={"system_memory_mb": 196 * 1024, "n_ost": 12})
        small = PfsConfig(values, facts={"system_memory_mb": 1024, "n_ost": 3})
        assert wide.bounds("lov.stripe_count")[1] == 12.0
        assert small.bounds("lov.stripe_count")[1] == 3.0
        assert small.bounds("llite.max_read_ahead_mb")[1] == 512.0
        assert wide.violations() == []
        assert [v.name for v in small.violations()] == [
            "lov.stripe_count",
            "llite.max_read_ahead_mb",
            "llite.max_cached_mb",
        ]
        assert wide.clipped() == wide
        clipped = small.clipped()
        assert small.diff(clipped) == {
            "lov.stripe_count": (7, 3),
            "llite.max_read_ahead_mb": (1024, 512),
            "llite.max_cached_mb": (147456, 1024),
        }
        assert clipped.facts == small.facts and not clipped.violations()
        assert wide == small and wide.cache_key() != small.cache_key()

    def test_clipped_recomputes_dependent_bounds(self):
        config = PfsConfig()
        config["llite.max_read_ahead_mb"] = 100
        config["llite.max_read_ahead_per_file_mb"] = 9999
        clipped = config.clipped()
        assert clipped["llite.max_read_ahead_per_file_mb"] == 50
        assert not clipped.violations()

    def test_copy_and_pickle_roundtrip(self):
        import pickle

        config = PfsConfig(values={"osc.max_dirty_mb": 256})
        config.bounds("osc.max_dirty_mb")  # warm the caches
        for clone in (config.copy(), pickle.loads(pickle.dumps(config))):
            assert clone == config
            assert clone.facts == config.facts
            clone["osc.max_dirty_mb"] = 128
            assert config["osc.max_dirty_mb"] == 256


def _merge_facts(config):
    config.facts |= {"n_ost": 12}


#: Every way to edit a config's facts, and what it raises: the read-only
#: view refuses item writes, deletes and ``|=``, has no mutating methods,
#: and ``facts`` has no setter.
FACTS_EDITS = {
    "setitem": (lambda c: operator.setitem(c.facts, "n_ost", 12), TypeError),
    "delitem": (lambda c: operator.delitem(c.facts, "n_ost"), TypeError),
    "update": (lambda c: c.facts.update({"n_ost": 12}), AttributeError),
    "setdefault": (lambda c: c.facts.setdefault("x", 1.0), AttributeError),
    "pop": (lambda c: c.facts.pop("n_ost", None), AttributeError),
    "popitem": (lambda c: c.facts.popitem(), AttributeError),
    "clear": (lambda c: c.facts.clear(), AttributeError),
    "rebind": (lambda c: setattr(c, "facts", {"n_ost": 12}), AttributeError),
    "merge_in_place": (_merge_facts, TypeError),
}


class TestFixedFacts:
    @pytest.mark.parametrize("edit", list(FACTS_EDITS))
    def test_facts_edits_raise(self, cluster, edit):
        """No edit reaches a config's facts, however it was built, and a
        refused edit keeps its env and ``cache_key()`` memos; nor does an
        edit of the dict the config was built from."""
        apply, error = FACTS_EDITS[edit]
        facts = cluster.config_facts()
        base = PfsConfig(facts=facts)
        facts["n_ost"] = 12
        facts["extra"] = 1.0
        name, values = next(iter(cluster.backend.search_candidates.items()))
        built = {
            "init": base,
            "copy": base.copy(),
            "with_updates": base.with_updates({name: values[-1]}),
            "clipped": base.clipped(),
            "evaluate_phases": evaluate_phases(
                cluster, get_workload("IOR_16M"), base
            )[0],
            "pickle": pickle.loads(pickle.dumps(base)),
        }
        for how, config in built.items():
            env, key = config._env(), config.cache_key()
            with pytest.raises(error):
                apply(config)
            assert config.facts == cluster.config_facts(), how
            assert config._env() is env and config.cache_key() is key, how
        assert base.bounds("lov.stripe_count")[1] == cluster.n_ost
        for how in ("copy", "with_updates", "clipped"):
            assert built[how]._facts is base._facts, how  # one shared mapping


@pytest.fixture
def gc_off():
    """Run with the cyclic collector off, so only reference counting frees."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


class TestConfigLifetime:
    """A config is in no reference cycle: reference counting frees it."""

    @pytest.mark.parametrize("backend", ["lustre", "beegfs"])
    def test_configs_freed_by_reference_counting(self, backend, gc_off):
        cluster = make_cluster(seed=0, backend=backend)
        base = PfsConfig(facts=cluster.config_facts(), backend=backend)
        name, values = next(iter(cluster.backend.search_candidates.items()))
        built = {
            "init": PfsConfig(facts=cluster.config_facts(), backend=backend),
            "copy": base.copy(),
            "with_updates": base.with_updates({name: values[-1]}),
            "clipped": base.with_updates({name: values[-1]}).clipped(),
            "evaluate_phases": evaluate_phases(
                cluster, get_workload("IOR_16M"), base
            )[0],
        }
        refs = {how: weakref.ref(config) for how, config in built.items()}
        built.clear()
        assert {how: ref() for how, ref in refs.items()} == dict.fromkeys(refs)


class TestConfigCacheKey:
    """``cache_key()`` carries the values as one tuple in registry order."""

    @pytest.mark.parametrize("backend", ["lustre", "beegfs"])
    def test_equal_values_give_equal_keys(self, backend):
        cluster = make_cluster(seed=0, backend=backend)
        facts = cluster.config_facts()
        grids = cluster.backend.search_candidates
        updates = {name: values[-1] for name, values in list(grids.items())[:4]}
        forward = PfsConfig(values=updates, facts=facts, backend=backend)
        backward = PfsConfig(
            values=dict(reversed(list(updates.items()))), facts=facts, backend=backend
        )
        stepwise = PfsConfig(facts=facts, backend=backend)
        for name in reversed(list(updates)):
            stepwise = stepwise.with_updates({name: updates[name]})
        state = forward.__getstate__()
        shuffled_values = list(state["values"].items())
        random.Random(3).shuffle(shuffled_values)
        shuffled = PfsConfig.__new__(PfsConfig)
        shuffled.__setstate__(dict(state, values=dict(shuffled_values)))
        key = forward.cache_key()
        for other in (
            backward,
            stepwise,
            forward.copy(),
            pickle.loads(pickle.dumps(forward)),
            shuffled,
        ):
            assert other == forward
            assert other.cache_key() == key
            assert list(other.as_dict()) == list(cluster.backend.defaults())
        name = next(iter(updates))
        changed = forward.with_updates({name: grids[name][0]})
        assert changed.cache_key() != key

    def test_values_are_one_tuple_in_registry_order(self):
        config = PfsConfig(values={"osc.max_dirty_mb": 256})
        key = config.cache_key()
        assert key[0] == "lustre"
        assert key[1] == tuple(config.as_dict().values())
        assert list(config.as_dict()) == list(config.backend.defaults())
        assert key[2] == tuple(sorted(config.facts.items()))


class TestExpressionCompilation:
    def test_compiled_is_shared_and_correct(self):
        fn_a = compile_expression("system_memory_mb / 2")
        fn_b = compile_expression("system_memory_mb / 2")
        assert fn_a is fn_b
        assert fn_a({"system_memory_mb": 64}) == 32.0

    def test_value_errors_surface_at_call_time(self):
        from repro.pfs.expressions import ExpressionError

        fn = compile_expression("a / b")
        assert fn({"a": 6, "b": 3}) == 2.0
        with pytest.raises(ExpressionError):
            fn({"a": 6, "b": 0})
        with pytest.raises(ExpressionError):
            fn({"a": 6})


class TestSeedUnification:
    def test_rep_seed_derivation(self):
        assert RngStreams.rep_seed(0, 0) == 0
        assert RngStreams.rep_seed(2, 7) == 2 * REP_STRIDE + 7

    def test_rep_seed_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RngStreams.rep_seed(1, REP_STRIDE)
        with pytest.raises(ValueError):
            RngStreams.rep_seed(1, -1)

    def test_distinct_roots_never_collide(self):
        seeds = {
            RngStreams.rep_seed(root, rep)
            for root in range(5)
            for rep in range(8)
        }
        assert len(seeds) == 40


class TestConfigFacts:
    def test_cluster_facts_single_source(self, cluster):
        facts = cluster.config_facts()
        assert facts == {
            "system_memory_mb": cluster.system_memory_mb,
            "n_ost": cluster.n_ost,
        }
        # A fresh dict every call — mutating one must not leak.
        facts["n_ost"] = 99
        assert cluster.config_facts()["n_ost"] == cluster.n_ost


class TestParallelHarness:
    def test_pmap_orders_results(self):
        assert parallel.pmap(str.upper, ["a", "b", "c"], max_workers=2) == [
            "A",
            "B",
            "C",
        ]

    def test_effective_workers_clamps(self, monkeypatch):
        monkeypatch.delenv(parallel.WORKERS_ENV, raising=False)
        assert parallel.effective_workers(4, n_items=2) == 2
        monkeypatch.setenv(parallel.WORKERS_ENV, "3")
        assert parallel.effective_workers(None, n_items=10) == 3

    def test_effective_workers_rejects_bad_env(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV, "not-a-number")
        with pytest.raises(ValueError, match="not an integer"):
            parallel.effective_workers(None)
        monkeypatch.setenv(parallel.WORKERS_ENV, "0")
        with pytest.raises(ValueError, match="positive worker count"):
            parallel.effective_workers(None)
        monkeypatch.setenv(parallel.WORKERS_ENV, "-2")
        with pytest.raises(ValueError, match="positive worker count"):
            parallel.effective_workers(None)

    def test_effective_workers_rejects_nonpositive_arg(self, monkeypatch):
        monkeypatch.delenv(parallel.WORKERS_ENV, raising=False)
        with pytest.raises(ValueError, match="positive worker count"):
            parallel.effective_workers(0)
        with pytest.raises(ValueError, match="positive worker count"):
            parallel.effective_workers(-2)

    def test_parallel_sessions_match_sequential(self, cluster):
        extraction = harness.shared_extraction(cluster)
        sequential = harness.run_sessions(
            cluster, "IOR_64K", reps=2, seed=4, extraction=extraction
        )
        pooled = harness.run_sessions(
            cluster,
            "IOR_64K",
            reps=2,
            seed=4,
            extraction=extraction,
            max_workers=2,
        )
        assert [s.best_seconds for s in pooled] == [
            s.best_seconds for s in sequential
        ]
        assert [s.initial_seconds for s in pooled] == [
            s.initial_seconds for s in sequential
        ]
        assert [len(s.attempts) for s in pooled] == [
            len(s.attempts) for s in sequential
        ]

    def test_parallel_sessions_match_sequential_with_rules(self, cluster):
        extraction = harness.shared_extraction(cluster)
        rule_engine = harness.accumulate_rules(
            cluster, ["IOR_64K"], seed=1, extraction=extraction
        )
        kwargs = dict(
            reps=2, seed=4, extraction=extraction, rule_engine=rule_engine
        )
        sequential = harness.run_sessions(cluster, "IOR_16M", **kwargs)
        pooled = harness.run_sessions(
            cluster, "IOR_16M", max_workers=2, **kwargs
        )
        assert [s.best_seconds for s in pooled] == [
            s.best_seconds for s in sequential
        ]
        assert [s.rules_json for s in pooled] == [
            s.rules_json for s in sequential
        ]
