"""Fleet scheduler determinism and the versioned rule journal.

Three contracts from the service-layer refactor:

- :class:`FleetScheduler` results are a pure function of the tenant specs —
  independent of worker count, completion order and the shared run cache;
- :class:`RuleJournal` replay-merge is order-deterministic (entries land in
  seed order however they arrived) and round-trips through save/load;
- the service layer stays backend-agnostic (never imports
  ``repro.pfs.params``).
"""

import json
import threading
from pathlib import Path

import pytest

from repro import Stellar, get_workload, make_cluster
from repro.rules.model import Rule, RuleSet
from repro.rules.store import RuleJournal, session_to_dict
from repro.service import FleetScheduler, TenantSpec
from repro.service.tenant import TenantResult
from repro.sim.cache import RUN_CACHE


def _rule(parameter="osc.max_pages_per_rpc", value=1024, tag="shared_seq_large"):
    return {
        "parameter": parameter,
        "rule_description": f"set {parameter} to {value}",
        "tuning_context": "large sequential shared-file writes",
        "context_tags": [tag],
        "recommended_value": value,
        "observed_speedup": 2.0,
    }


SMALL_FLEET = [
    TenantSpec("acme-data", backend="lustre", workloads=("IOR_16M",), seed=21),
    TenantSpec("acme-meta", backend="lustre", workloads=("MDWorkbench_8K",), seed=22),
    TenantSpec("globex", backend="beegfs", workloads=("IOR_64K", "IO500"), seed=23),
    TenantSpec("drifty", backend="beegfs", schedule="regime_flip", seed=24),
]


def fleet_fingerprint(result) -> str:
    """Everything deterministic about a fleet result, as one JSON blob."""
    return json.dumps(
        {
            "tenants": [
                {
                    "id": t.tenant_id,
                    "sessions": [session_to_dict(s) for s in t.sessions],
                    "journal": t.journal.to_json(),
                }
                for t in result.tenants
            ],
            "journal": result.journal.to_json(),
        }
    )


class TestFleetScheduler:
    @pytest.fixture(scope="class")
    def inline_result(self):
        return FleetScheduler(SMALL_FLEET, seed=0, max_workers=1).run()

    def test_results_in_submission_order(self, inline_result):
        assert [t.tenant_id for t in inline_result.tenants] == [
            spec.tenant_id for spec in SMALL_FLEET
        ]

    def test_worker_count_invariance(self, inline_result):
        """Explicit pool sizes (forcing real pools) change nothing."""
        baseline = fleet_fingerprint(inline_result)
        for workers in (2, 4):
            pooled = FleetScheduler(
                SMALL_FLEET, seed=0, max_workers=workers
            ).run()
            assert fleet_fingerprint(pooled) == baseline, workers

    def test_env_override_invariance(self, inline_result, monkeypatch):
        """REPRO_MAX_WORKERS drives sizing without changing results."""
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        pooled = FleetScheduler(SMALL_FLEET, seed=0).run()
        assert fleet_fingerprint(pooled) == fleet_fingerprint(inline_result)

    def test_cache_invariance(self, inline_result):
        """The shared run cache short-circuits work, never changes it."""
        with RUN_CACHE.disabled():
            uncached = FleetScheduler(SMALL_FLEET, seed=0, max_workers=1).run()
        assert fleet_fingerprint(uncached) == fleet_fingerprint(inline_result)

    def test_matches_single_operator_path(self, inline_result):
        """A tenant's sessions are exactly what a lone engine produces."""
        spec = SMALL_FLEET[2]
        cluster = make_cluster(seed=0, backend=spec.backend)
        engine = Stellar.build(cluster, model=spec.model, seed=spec.seed)
        solo = [
            engine.tune_and_accumulate(get_workload(name))
            for name in spec.workloads
        ]
        fleet_sessions = inline_result.get("globex").sessions
        assert [session_to_dict(s) for s in solo] == [
            session_to_dict(s) for s in fleet_sessions
        ]

    def test_fleet_journal_merges_in_seed_order(self, inline_result):
        origins = [e.origin for e in inline_result.journal.entries]
        assert origins == sorted(origins)
        assert [o[0] for o in origins] == sorted(
            spec.seed
            for spec in SMALL_FLEET
            for _ in inline_result.get(spec.tenant_id).sessions
        )

    def test_every_tenant_improves(self, inline_result):
        for tenant in inline_result.tenants:
            assert tenant.mean_speedup > 1.0, tenant.tenant_id

    def test_tenant_journal_tracks_sessions(self, inline_result):
        for tenant in inline_result.tenants:
            with_rules = [s for s in tenant.sessions if s.rules_json]
            assert len(tenant.journal) == len(with_rules), tenant.tenant_id

    def test_aggregate_accounting(self, inline_result):
        assert inline_result.total_sessions == sum(
            len(t.sessions) for t in inline_result.tenants
        )
        assert inline_result.sessions_per_sec > 0
        render = inline_result.render()
        assert "aggregate:" in render and "fleet journal:" in render

    def test_duplicate_tenant_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FleetScheduler([SMALL_FLEET[0], SMALL_FLEET[0]])

    def test_spec_requires_workloads_xor_schedule(self):
        with pytest.raises(ValueError, match="exactly one"):
            TenantSpec("bad")
        with pytest.raises(ValueError, match="exactly one"):
            TenantSpec("bad", workloads=("IOR_16M",), schedule="regime_flip")

    def test_schedule_queue_is_first_appearance_distinct(self):
        spec = SMALL_FLEET[3]
        queue = spec.session_queue()
        keys = [w.cache_key() for w in queue]
        assert len(keys) == len(set(keys))
        assert len(queue) >= 2  # a regime flip has at least two regimes

    def test_service_layer_never_imports_pfs_params(self):
        import repro.service as service
        import repro.service.admission as admission
        import repro.service.daemon as daemon
        import repro.service.scheduler as scheduler
        import repro.service.tenant as tenant

        for module in (service, admission, daemon, scheduler, tenant):
            source = Path(module.__file__).read_text()
            assert "pfs.params" not in source, module.__name__


class TestRuleJournal:
    def test_append_versions_monotonic(self):
        journal = RuleJournal()
        first = journal.append([_rule()], seed=5)
        second = journal.append([_rule(value=2048)], seed=5)
        assert (first.version, second.version) == (1, 2)
        assert first.origin == (5, 1)
        assert second.origin == (5, 2)
        assert journal.version == 2

    def test_entries_are_immutable_snapshots(self):
        rules = [_rule()]
        journal = RuleJournal()
        journal.append(rules, seed=0)
        rules[0]["recommended_value"] = -1
        assert journal.entries[0].rules[0]["recommended_value"] == 1024

    def test_replay_merge_is_order_deterministic(self):
        """The same entries, arriving in any order, replay identically."""
        contributions = [
            (3, [_rule(value=256)]),
            (1, [_rule(value=1024)]),
            (2, [_rule("mdc.max_rpcs_in_flight", 64, "metadata_small")]),
        ]
        forward, backward = RuleJournal(), RuleJournal()
        for seed, rules in contributions:
            forward.append(rules, seed=seed)
        for seed, rules in reversed(contributions):
            backward.append(rules, seed=seed)
        assert forward.replay().to_json() == backward.replay().to_json()

    def test_replay_matches_llm_snapshot(self):
        """The deterministic replay reproduces the engine's LLM merges."""
        cluster = make_cluster()
        engine = Stellar.build(cluster, seed=0)
        for name in ("IOR_16M", "MDWorkbench_8K", "IOR_64K"):
            engine.tune_and_accumulate(get_workload(name))
        assert engine.journal.replay().to_json() == engine.rule_set.to_json()

    def test_replay_historical_prefix(self):
        journal = RuleJournal()
        journal.append([_rule(value=1024)], seed=0)
        journal.append([_rule("mdc.max_rpcs_in_flight", 64)], seed=0)
        past = journal.replay(up_to_version=1)
        assert [r.parameter for r in past] == ["osc.max_pages_per_rpc"]
        assert len(journal.replay()) == 2

    def test_save_load_round_trip(self, tmp_path):
        cluster = make_cluster()
        engine = Stellar.build(cluster, seed=0)
        engine.tune_and_accumulate(get_workload("IOR_16M"))
        engine.tune_and_accumulate(get_workload("MDWorkbench_8K"))
        path = tmp_path / "journal.json"
        engine.journal.save(path)
        loaded = RuleJournal.load(path)
        assert loaded.to_json() == engine.journal.to_json()
        assert loaded.current.to_json() == engine.rule_set.to_json()

    def test_merged_invariant_under_journal_order(self):
        a, b = RuleJournal(), RuleJournal()
        a.append([_rule(value=1024)], seed=7)
        b.append([_rule("mdc.max_rpcs_in_flight", 64)], seed=3)
        merged_ab = RuleJournal.merged([a, b])
        merged_ba = RuleJournal.merged([b, a])
        assert merged_ab.to_json() == merged_ba.to_json()
        assert [e.origin[0] for e in merged_ab.entries] == [3, 7]

    def test_seeded_baseline_replays_verbatim(self):
        rule_set = RuleSet([Rule.from_dict(_rule())])
        journal = RuleJournal.seeded(rule_set, seed=9)
        assert journal.current.to_json() == rule_set.to_json()
        # A later contribution lands after the baseline.
        journal.append([_rule(value=2048)], seed=9)
        assert journal.entries[0].origin == (9, 0)
        assert journal.entries[1].origin == (9, 1)

    def test_engine_rule_set_setter_resets_journal(self):
        cluster = make_cluster()
        engine = Stellar.build(cluster, seed=0)
        engine.tune_and_accumulate(get_workload("IOR_16M"))
        snapshot = engine.rule_set
        engine.rule_set = snapshot
        assert engine.journal.version == 1
        assert engine.rule_set.to_json() == snapshot.to_json()

    def test_stale_snapshot_discarded(self):
        """A snapshot computed against an outdated head never becomes the
        view — the lazily rebuilt replay (which sees every entry) does."""
        journal = RuleJournal()
        basis = journal.version
        # Another contributor lands first.
        journal.append([_rule("mdc.max_rpcs_in_flight", 64, "metadata_small")], seed=1)
        journal.append(
            [_rule(value=1024)],
            seed=2,
            snapshot=[_rule(value=1024)],  # merged view missing seed 1's rule
            basis_version=basis,
        )
        parameters = {r.parameter for r in journal.current}
        assert parameters == {"osc.max_pages_per_rpc", "mdc.max_rpcs_in_flight"}

    def test_fresh_snapshot_installed(self):
        journal = RuleJournal()
        snapshot = [_rule(value=512)]
        journal.append([_rule(value=512)], seed=1, snapshot=snapshot, basis_version=0)
        assert journal.current.to_json() == RuleSet.from_json(snapshot).to_json()

    def test_concurrent_appends_are_safe(self):
        journal = RuleJournal()

        def contribute(seed):
            for value in (256, 512, 1024):
                journal.append([_rule(value=value)], seed=seed)

        threads = [
            threading.Thread(target=contribute, args=(seed,)) for seed in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert journal.version == 24
        assert sorted(e.version for e in journal.entries) == list(range(1, 25))
        # Replay is well-defined regardless of interleaving.
        assert journal.replay().to_json() == journal.replay().to_json()

    def test_journal_pickles_without_lock(self):
        import pickle

        journal = RuleJournal()
        journal.append([_rule()], seed=1)
        clone = pickle.loads(pickle.dumps(journal))
        assert clone.to_json() == journal.to_json()
        clone.append([_rule(value=2048)], seed=1)
        assert clone.version == journal.version + 1
