"""Tests for rule set / session persistence."""

import json
import re

import pytest

from repro import Stellar, get_workload, make_cluster
from repro.rules import Rule, RuleSet
from repro.faults import RetryPolicy
from repro.rules.store import (
    JournalCorruptError,
    RuleJournal,
    atomic_write_text,
    load_rule_set,
    load_session_summary,
    save_rule_set,
    save_session,
    session_from_dict,
    session_to_dict,
)
from repro.service import TenantResult, TenantSpec
from repro.service.scheduler import (
    CheckpointStore,
    _outcome_to_json,
    fleet_stamp,
    spec_digest,
)


@pytest.fixture(scope="module")
def session():
    cluster = make_cluster()
    engine = Stellar.build(cluster, seed=0)
    return engine.tune(get_workload("IOR_16M"))


class TestRuleSetStore:
    def test_round_trip(self, tmp_path):
        rule_set = RuleSet(
            [
                Rule(
                    parameter="lov.stripe_count",
                    rule_description="stripe shared files wide",
                    tuning_context="large shared streaming",
                    context_tags=["shared_seq_large"],
                    recommended_value=-1,
                    observed_speedup=5.1,
                )
            ]
        )
        path = tmp_path / "rules.json"
        save_rule_set(rule_set, path)
        loaded = load_rule_set(path)
        assert loaded.rules == rule_set.rules

    def test_engine_rules_persist(self, tmp_path):
        cluster = make_cluster()
        engine = Stellar.build(cluster, seed=0)
        engine.tune_and_accumulate(get_workload("IOR_16M"))
        path = tmp_path / "global_rules.json"
        save_rule_set(engine.rule_set, path)
        restored = load_rule_set(path)
        assert len(restored) == len(engine.rule_set)
        # A new engine can adopt the persisted knowledge.
        fresh = engine.fresh_copy()
        fresh.rule_set = restored
        session = fresh.tune(get_workload("MACSio_16M"))
        assert session.attempts[0].speedup > 4.0


class TestSessionStore:
    def test_session_to_dict_complete(self, session):
        data = session_to_dict(session)
        assert data["workload"] == "IOR_16M"
        assert data["attempts"]
        assert data["best_speedup"] > 1.0
        assert data["usage"]["tuning"]["input_tokens"] > 0
        assert data["transcript"]

    def test_save_and_load(self, session, tmp_path):
        path = tmp_path / "session.json"
        save_session(session, path)
        loaded = load_session_summary(path)
        assert loaded["workload"] == session.workload
        assert len(loaded["attempts"]) == len(session.attempts)
        assert loaded["attempts"][0].changes == session.attempts[0].changes

    def test_session_dict_round_trip(self, session):
        raw = session_to_dict(session)
        assert session_to_dict(session_from_dict(raw)) == raw

    @pytest.mark.parametrize(
        "body",
        ['{"workload": "IOR_16M", "attem', '["IOR_16M"]', '{"attempts": 5}'],
        ids=["truncated", "not-an-object", "attempts-not-a-list"],
    )
    def test_corrupt_session_file_is_descriptive(self, tmp_path, body):
        path = tmp_path / "session.json"
        path.write_text(body)
        with pytest.raises(JournalCorruptError, match=re.escape(str(path))):
            load_session_summary(path)


def _populated_journal() -> RuleJournal:
    journal = RuleJournal()
    journal.append(
        [
            {
                "parameter": "osc.max_pages_per_rpc",
                "rule_description": "use maximum RPC size for streaming",
                "tuning_context": "large sequential shared-file writes",
                "context_tags": ["shared_seq_large"],
                "recommended_value": 1024,
                "observed_speedup": 2.0,
            }
        ],
        seed=1,
    )
    return journal


class TestAtomicJournalStore:
    """Satellite: torn writes can't corrupt persisted state, and corrupt
    files fail loudly with a descriptive error instead of a traceback
    from deep inside the JSON layer."""

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "journal.json"
        journal = _populated_journal()
        journal.save(path)
        assert RuleJournal.load(path).to_json() == journal.to_json()

    def test_save_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "journal.json"
        _populated_journal().save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["journal.json"]

    def test_save_replaces_atomically_over_existing(self, tmp_path):
        path = tmp_path / "journal.json"
        first = _populated_journal()
        first.save(path)
        second = _populated_journal()
        second.append([], seed=2)
        second.save(path)
        assert RuleJournal.load(path).to_json() == second.to_json()

    def test_torn_write_is_descriptive(self, tmp_path):
        path = tmp_path / "journal.json"
        _populated_journal().save(path)
        # Simulate a crash mid-write: a truncated prefix of valid JSON.
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(JournalCorruptError, match="truncated or corrupt"):
            RuleJournal.load(path)

    def test_garbage_json_is_descriptive(self, tmp_path):
        path = tmp_path / "journal.json"
        path.write_text("%PDF-1.4 definitely not a journal")
        with pytest.raises(JournalCorruptError, match="not valid JSON"):
            RuleJournal.load(path)

    def test_wrong_structure_is_descriptive(self, tmp_path):
        path = tmp_path / "journal.json"
        path.write_text('{"some": "other", "file": ["entirely"]}')
        with pytest.raises(JournalCorruptError, match="journal structure"):
            RuleJournal.load(path)

    def test_failed_rename_removes_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "j.json"
        path.write_text("previous")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr("repro.rules.store.os.replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write_text(path, "next")
        assert path.read_text() == "previous"
        assert [p.name for p in tmp_path.iterdir()] == ["j.json"]


#: Each persisted-file loader, as path -> loaded data.
LOADERS = {
    "journal": RuleJournal.load,
    "session": load_session_summary,
    "checkpoint": lambda path: CheckpointStore(
        path, fleet_stamp(None, 0, None), RetryPolicy()
    ).load(),
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_non_utf8_file_is_descriptive(tmp_path, loader):
    path = tmp_path / "state.json"
    path.write_bytes(b'{"format": 1, "entries": ["\xff\xfe"]}')
    with pytest.raises(JournalCorruptError, match=re.escape(str(path))):
        LOADERS[loader](path)


def _load_journal(tmp_path, journal_json):
    path = tmp_path / "journal.json"
    path.write_text(json.dumps(journal_json))
    return RuleJournal.load(path)


def _adopt_journal(tmp_path, journal_json):
    spec = TenantSpec("acme", workloads=("IOR_16M",), seed=1)
    result = TenantResult(spec=spec, sessions=[], journal=RuleJournal())
    raw = _outcome_to_json(result, spec_digest(spec))
    raw["journal"] = journal_json
    store = CheckpointStore(
        tmp_path / "fleet.ckpt", fleet_stamp(None, 0, None), RetryPolicy()
    )
    return store.adopt(spec, raw)


#: Both loaders that decode a persisted rule journal.
JOURNAL_LOADERS = {"journal": _load_journal, "checkpoint": _adopt_journal}


@pytest.mark.parametrize("origin", [[0], "12", [0, 1, 2]], ids=repr)
@pytest.mark.parametrize("loader", sorted(JOURNAL_LOADERS))
def test_malformed_entry_origin_is_corrupt(tmp_path, loader, origin):
    """An origin must be exactly ``[engine_seed, sequence]``: a short one
    used to crash the resume with a stray IndexError, and a string or a
    longer list loaded silently."""
    journal_json = _populated_journal().to_json()
    journal_json["entries"][0]["origin"] = origin
    with pytest.raises(JournalCorruptError, match="origin"):
        JOURNAL_LOADERS[loader](tmp_path, journal_json)


@pytest.mark.parametrize(
    "field, value",
    [
        ("version", "7"),
        ("version", 1.9),
        ("version", True),
        ("rules", [["ab"]]),
        ("rules", [[["k", "v"]]]),
    ],
    ids=repr,
)
@pytest.mark.parametrize("loader", sorted(JOURNAL_LOADERS))
def test_malformed_entry_version_or_rules_is_corrupt(tmp_path, loader, field, value):
    """A version must be an integer (not a bool) and every rule a JSON
    object: ``int()`` and ``dict()`` used to load ``"7"``, ``1.9`` and
    ``true`` as 7, 1 and 1, and ``[["ab"]]`` as ``{"a": "b"}``."""
    journal_json = _populated_journal().to_json()
    journal_json["entries"][0][field] = value
    with pytest.raises(JournalCorruptError, match=field):
        JOURNAL_LOADERS[loader](tmp_path, journal_json)


@pytest.mark.parametrize(
    "rule, key",
    [
        ({}, "parameter"),
        ({"parameter": 5}, "parameter"),
        (
            {"parameter": "osc.max_pages_per_rpc", "observed_speedup": "fast"},
            "observed_speedup",
        ),
        ({"Parameter": ""}, "Parameter"),
        ({"parameter": "p", "Rule Description": 3}, "Rule Description"),
        ({"parameter": "p", "tuning_context": None}, "tuning_context"),
        ({"parameter": "p", "context_tags": "shared"}, "context_tags"),
        ({"parameter": "p", "context_tags": ["shared", 1]}, "context_tags"),
        ({"parameter": "p", "recommended_value": True}, "recommended_value"),
        ({"parameter": "p", "recommended_value": "64"}, "recommended_value"),
        ({"parameter": "p", "alternative": 1}, "alternative"),
    ],
    ids=repr,
)
@pytest.mark.parametrize("loader", sorted(JOURNAL_LOADERS))
def test_malformed_rule_field_is_corrupt(tmp_path, loader, rule, key):
    """Each rule field must have the type ``Rule.from_dict`` gives it, read
    under whichever key spelling it accepts: ``[{}]``, ``[{"parameter": 5}]``
    and ``"observed_speedup": "fast"`` used to load and replay into
    ``Rule(parameter='')``, ``Rule(parameter=5)`` and a string speedup."""
    journal_json = _populated_journal().to_json()
    journal_json["entries"][0]["rules"] = [rule]
    with pytest.raises(JournalCorruptError, match=re.escape(f"rule field {key!r}")):
        JOURNAL_LOADERS[loader](tmp_path, journal_json)


@pytest.mark.parametrize("loader", sorted(JOURNAL_LOADERS))
def test_well_typed_rules_load_under_either_spelling(tmp_path, loader):
    rules = [
        {
            "Parameter": "osc.max_pages_per_rpc",
            "Rule Description": "use maximum RPC size",
            "Tuning Context": "large sequential writes",
        },
        {
            "parameter": "lov.stripe_count",
            "context_tags": [],
            "recommended_value": None,
            "observed_speedup": 0.8,
            "alternative": True,
        },
    ]
    journal_json = _populated_journal().to_json()
    journal_json["entries"][0]["rules"] = rules
    loaded = JOURNAL_LOADERS[loader](tmp_path, journal_json)
    journal = loaded if loader == "journal" else loaded[0].journal
    assert [dict(rule) for rule in journal.entries[0].rules] == rules
    assert [rule.parameter for rule in journal.replay()] == [
        "osc.max_pages_per_rpc",
        "lov.stripe_count",
    ]
