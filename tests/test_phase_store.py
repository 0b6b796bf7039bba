"""The run cache's phase store: a phase result is served to an evaluation
only under the values of every role its kind reads.

- The role sets cover the model: every role read while building the model
  is in both sets, and every role a phase's costing reads is in its kind's
  set, for every phase of every catalog workload on both backends.
- Chains of single-parameter moves over every writable parameter, with the
  store warm across the chain, equal the cache-off reference bit for bit,
  and every served phase was costed under the values of each role its
  costing reads now.
- The store's counters, its bound and its evictions.
- Model work as untimed counts: the oracle search's evaluations and the
  phases the model costs for them.
"""

from contextlib import contextmanager
from dataclasses import dataclass

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.backends import list_backends
from repro.baselines.search import OracleSearch
from repro.cluster import MpiJob, make_cluster
from repro.pfs.config import PfsConfig
from repro.pfs.model import (
    DATA_ROLES,
    META_ROLES,
    AnalyticModel,
    RunState,
    ranks_per_client,
)
from repro.pfs.phases import DataPhase, FileSet, MetaPhase
from repro.pfs.simulator import Simulator
from repro.sim.cache import PHASES_PER_ENTRY, RUN_CACHE
from repro.sim.sweep import run_items
from repro.workloads import get_workload, list_workloads
from repro.workloads.base import Workload
from test_sweep import count_evaluations, fresh_run_cache

SEARCH_WORKLOADS = ("IOR_64K", "MDWorkbench_8K", "IO500")


@contextmanager
def role_reads():
    """Record the name of every ``PfsConfig.role`` read inside the scope."""
    reads = []
    real = PfsConfig.role

    def recording(self, role, default=None):
        reads.append(role)
        return real(self, role, default)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PfsConfig, "role", recording)
        yield reads


def costing_reads(cluster, workload, config):
    """The roles building the model reads, and those costing each phase of
    ``workload`` reads, with the earlier phases' writes applied as a run
    applies them."""
    job = MpiJob.launch(workload.name, workload.n_ranks, cluster)
    state = RunState()
    ranks = ranks_per_client(job, cluster)
    per_phase = []
    with role_reads() as reads:
        model = AnalyticModel(cluster, config)
        setup = set(reads)
        for phase in workload.compile(cluster):
            reads.clear()
            model.cost(phase, job, state)
            per_phase.append(set(reads))
            state.record_phase(phase, ranks)
    return setup, per_phase


def kind_roles(phase):
    return DATA_ROLES if isinstance(phase, DataPhase) else META_ROLES


@dataclass
class SmallFileReread(Workload):
    """Small files written through the metadata path, then re-read from the
    client cache: the only reader of the ``RunState`` and of ``cached_bytes``
    (no catalog workload re-reads its own data)."""

    name: str = "small_file_reread"

    def build_phases(self, cluster):
        fileset = FileSet(name="small", n_files=5_000, file_size=8192, shared=False)
        return [
            MetaPhase("create", fileset, ("create", "write_small", "close"), 100, 8192),
            DataPhase("reread", fileset, "read", 8192, 100 * 8192, reuse=True),
        ]


def search_configs(cluster):
    """The defaults and every single search-candidate move from them."""
    base = PfsConfig(facts=cluster.config_facts(), backend=cluster.backend)
    yield base
    for name, values in cluster.backend.search_candidates.items():
        for value in values:
            yield base.with_updates({name: value}).clipped()


class TestRoleSets:
    @pytest.mark.parametrize("backend", list_backends())
    def test_costing_reads_only_its_kinds_roles(self, backend):
        cluster = make_cluster(seed=0, backend=backend)
        workloads = [*map(get_workload, list_workloads()), SmallFileReread()]
        read = {DATA_ROLES: set(), META_ROLES: set()}
        for config in search_configs(cluster):
            for workload in workloads:
                setup, per_phase = costing_reads(cluster, workload, config)
                assert setup <= set(DATA_ROLES) & set(META_ROLES), setup
                for phase, roles in zip(workload.compile(cluster), per_phase):
                    assert roles <= set(kind_roles(phase)), (phase.name, roles)
                    read[kind_roles(phase)] |= setup | roles
        # Nor does a set hold a role no phase of its kind reads, which would
        # only cost hits.
        assert {roles: set(roles) for roles in read} == read


def outcome(run):
    """A run's every field, or the error it raised."""
    try:
        result = run()
    except ValueError as exc:
        return ("ValueError", str(exc))
    return [
        (
            r.workload,
            r.seed,
            r.seconds,
            r.config.as_dict(),
            [
                (
                    p.phase,
                    p.seconds,
                    p.bottleneck,
                    p.bounds,
                    p.bytes_read,
                    p.bytes_written,
                    p.mds_ops,
                    p.rpcs,
                )
                for p in r.phases
            ],
        )
        for r in result
    ]


def draw_move(data, config):
    """One writable parameter of ``config`` set to another value in its
    current range (a flag flips), then clipped as the oracle search does."""
    name = data.draw(
        st.sampled_from([spec.name for spec in config.backend.writable_specs()])
    )
    return config.with_updates({name: draw_value(data, config, name)}).clipped()


def draw_value(data, config, name):
    current = config[name]
    if config.backend.registry[name].ptype == "bool":
        return 1 - current
    low, high = (int(bound) for bound in config.bounds(name))
    if low == high:
        return low
    return data.draw(st.integers(low, high).filter(lambda v: v != current), label=name)


class TestPhaseStoreParity:
    # No shrinking: a failure already names its step, parameter and
    # workload, and shrinking a chain of ~28 moves takes minutes.
    @pytest.mark.parametrize("backend", list_backends())
    @settings(
        max_examples=8,
        deadline=None,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),
    )
    @given(data=st.data())
    def test_move_chains_match_cache_off(self, backend, data):
        """From a drawn valid config, move every writable parameter once, in
        a drawn order, to a drawn value, running every catalog workload and
        the small-file re-read after each move (``Simulator.run`` and
        ``run_items`` in turn).  The runs equal cache-off ``Simulator.run``
        bit for bit, so a served metadata phase must still leave its write
        for the re-read.  And each phase the store serves was costed under
        the values of every role its costing reads now: a role missing from
        its kind's set fails this even where, as with
        ``read_ahead_whole_bytes`` under its range bound, the value it
        misses changes no result."""
        cluster = make_cluster(seed=0, backend=backend)
        sim = Simulator(cluster)
        workloads = [*map(get_workload, list_workloads()), SmallFileReread()]
        config = PfsConfig(facts=cluster.config_facts(), backend=backend)
        for _ in range(data.draw(st.integers(0, 4), label="start moves")):
            config = draw_move(data, config)
        names = data.draw(
            st.permutations([spec.name for spec in config.backend.writable_specs()])
        )
        RUN_CACHE.clear()
        # ``noisy_run`` shares each stored result's bounds dict with every
        # copy, so the dict tells which stored result served a phase.
        served = {}
        for step, name in enumerate(names):
            config = config.with_updates({name: draw_value(data, config, name)})
            config = config.clipped()
            items = [(workload, config, step) for workload in workloads]
            with RUN_CACHE.disabled():
                expected = outcome(lambda: [sim.run(*item) for item in items])
            if step % 2:
                actual = outcome(lambda: run_items(sim, items))
            else:
                actual = outcome(lambda: [sim.run(*item) for item in items])
            assert actual == expected, (step, name)
            if isinstance(expected, tuple):
                continue  # an invalid stripe count raises on both paths
            for workload, (_, _, _, _, phases) in zip(workloads, actual):
                setup, per_phase = costing_reads(cluster, workload, config)
                for roles, phase in zip(per_phase, phases):
                    read = {role: config.role(role, 0) for role in setup | roles}
                    bounds = phase[3]
                    first = served.setdefault(id(bounds), (bounds, read))
                    assert first[1] == read, (step, name, workload.name)


def counted_cost(monkeypatch) -> list:
    """Record every phase the model costs from here on."""
    costed = []
    real = AnalyticModel.cost

    def counting(self, phase, job, state):
        costed.append(phase)
        return real(self, phase, job, state)

    monkeypatch.setattr(AnalyticModel, "cost", counting)
    return costed


class TestPhaseStoreCounters:
    def test_search_counts_every_phase_of_its_evaluations(self, monkeypatch):
        cluster = make_cluster(seed=0)
        workload = get_workload("IO500")
        cache = fresh_run_cache(monkeypatch)
        calls = count_evaluations(monkeypatch)
        costed = counted_cost(monkeypatch)
        OracleSearch(cluster, seed=3).run(workload)
        stats = cache.stats()
        phases = len(workload.compile(cluster))
        assert stats["phase_hits"] + stats["phase_misses"] == len(calls) * phases
        assert stats["phase_misses"] == len(costed) == stats["phase_entries"]
        assert stats["phase_hits"] > 0
        assert (stats["misses"], stats["entries"]) == (len(calls), len(calls))

    def test_bounded_store_never_exceeds_its_bound(self, monkeypatch):
        cache = fresh_run_cache(monkeypatch, maxsize=3)
        assert cache.phase_maxsize == 3 * PHASES_PER_ENTRY
        sizes = []
        real = cache.put_phase

        def put_phase(key, result):
            real(key, result)
            sizes.append(len(cache._phases))

        monkeypatch.setattr(cache, "put_phase", put_phase)
        OracleSearch(make_cluster(seed=0), seed=3).run(get_workload("IO500"))
        assert max(sizes) == cache.phase_maxsize
        stats = cache.stats()
        assert stats["phase_entries"] == cache.phase_maxsize
        assert stats["phase_evictions"] == stats["phase_misses"] - cache.phase_maxsize
        assert len(cache) <= 3

    def test_evicted_phase_recosts_to_an_equal_result(self, monkeypatch):
        cluster = make_cluster(seed=0)
        sim = Simulator(cluster)
        workload = get_workload("IO500")
        base = PfsConfig(facts=cluster.config_facts())
        configs = [base, base.with_updates({"osc.max_rpcs_in_flight": 32}), base]
        with RUN_CACHE.disabled():
            expected = outcome(lambda: [sim.run(workload, c, seed=5) for c in configs])
        cache = fresh_run_cache(monkeypatch, maxsize=1)
        runs = [sim.run(workload, config, seed=5) for config in configs[:2]]
        # The second config's phases evicted the first's, and its evaluation
        # the first's, so the repeat costs evicted phases again.
        assert cache.phase_evictions > 0
        costed = counted_cost(monkeypatch)
        runs.append(sim.run(workload, configs[2], seed=5))
        assert costed
        assert outcome(lambda: runs) == expected
        assert all(
            again.bounds is not first.bounds
            for first, again in zip(runs[0].phases, runs[2].phases)
        )

    def test_disabled_scope_bypasses_the_store(self):
        cluster = make_cluster(seed=0)
        config = PfsConfig(facts=cluster.config_facts())
        with RUN_CACHE.disabled():
            Simulator(cluster).run(get_workload("IO500"), config)
        assert RUN_CACHE.stats()["phase_entries"] == 0
        Simulator(cluster).run(get_workload("IO500"), config)
        assert RUN_CACHE.stats()["phase_entries"] == 11
        RUN_CACHE.clear()
        assert RUN_CACHE.stats()["phase_entries"] == 0


class TestModelWorkCounts:
    def test_oracle_search_model_work(self, monkeypatch):
        """From an empty cache, the six search cells (both backends, then
        ``IOR_64K``, ``MDWorkbench_8K``, ``IO500``) make a fixed number of
        model evaluations, look up every phase of each, and cost 1,330 of
        those 2,499 phases."""
        cache = fresh_run_cache(monkeypatch)
        calls = count_evaluations(monkeypatch)
        costed = counted_cost(monkeypatch)
        per_cell = []
        for backend in ("lustre", "beegfs"):
            cluster = make_cluster(seed=0, backend=backend)
            for name in SEARCH_WORKLOADS:
                before = len(calls)
                OracleSearch(cluster, seed=0).run(get_workload(name))
                per_cell.append(len(calls) - before)
        stats = cache.stats()
        assert per_cell == [38, 50, 52, 26, 52, 43]
        assert stats["phase_hits"] + stats["phase_misses"] == 2_499
        assert len(costed) == stats["phase_misses"] == 1_330
