"""Persistence for rule sets, the rule journal, and tuning sessions.

The global rule set is STELLAR's accumulated platform knowledge.  It used
to live as one mutable, last-write-wins ``RuleSet`` on the engine; it is now
derived from a :class:`RuleJournal` — an append-only, versioned store of
every rule contribution, replay-merged deterministically.  Operators keep
either form across engine restarts (``save_rule_set``/``load_rule_set`` for
a flat snapshot, :meth:`RuleJournal.save`/:meth:`RuleJournal.load` for the
full history).  Tuning sessions are exported as JSON for offline inspection
and for the experiment artifacts.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.llm.promptparse import AttemptRecord
from repro.llm.tokens import TokenUsage
from repro.rules.merge import merge_rule_sets
from repro.rules.model import RuleSet, rule_field_error

if TYPE_CHECKING:  # pragma: no cover - the engine imports us at runtime
    from repro.core.session import TuningSession


class JournalCorruptError(RuntimeError):
    """A persisted journal/checkpoint could not be decoded.

    Raised with a description of *what* is wrong with the file (truncated
    JSON, wrong structure) instead of surfacing a raw decoding traceback —
    a torn write or a garbage file is an operational condition the service
    layer reports, not a bug.
    """


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    Readers either see the previous complete file or the new complete
    file, never a torn intermediate — the property journal and fleet
    checkpoint persistence rely on.  A failed write or rename removes the
    temp file and re-raises, leaving ``path`` as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_rule_set(rule_set: RuleSet, path: str | Path) -> None:
    atomic_write_text(path, rule_set.dumps())


def load_rule_set(path: str | Path) -> RuleSet:
    return RuleSet.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# The versioned rule journal.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JournalEntry:
    """One appended rule contribution.

    ``version`` is the 1-based arrival position in its journal; ``origin``
    is the deterministic replay key ``(engine_seed, sequence)`` — replay
    sorts by it, so contributions from concurrently running tenants land in
    seed order no matter which finished first.  ``rules`` is the
    contribution itself (the session's distilled rules as JSON dicts),
    treated as immutable once appended.
    """

    version: int
    origin: tuple[int, int]
    rules: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "origin": list(self.origin),
            "rules": [dict(rule) for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "JournalEntry":
        origin = raw["origin"]
        if type(origin) is not list or [type(part) for part in origin] != [int, int]:
            raise ValueError(f"journal entry origin is not two integers: {origin!r}")
        version = raw["version"]
        if type(version) is not int:
            raise ValueError(f"journal entry version is not an integer: {version!r}")
        rules = raw["rules"]
        if type(rules) is not list or not all(type(rule) is dict for rule in rules):
            raise ValueError(f"journal entry rules are not JSON objects: {rules!r}")
        for index, rule in enumerate(rules):
            problem = rule_field_error(rule)
            if problem is not None:
                raise ValueError(f"journal entry rule {index}: {problem}")
        return cls(
            version=version,
            origin=tuple(origin),
            rules=tuple(dict(rule) for rule in rules),
        )


#: Sequence number reserved for baseline (adopted) rule sets; appended
#: contributions start at 1, so a baseline always replays first for its seed.
BASELINE_SEQUENCE = 0


class RuleJournal:
    """Append-only, versioned, concurrency-safe store of tuning rules.

    Contract:

    - **Append-only versions.**  Every contribution becomes an immutable
      :class:`JournalEntry`; nothing is ever rewritten in place, so the
      journal is a complete audit trail of where the platform knowledge
      came from.
    - **Deterministic replay-merge.**  The merged view folds entries in
      ``origin`` order (engine seed, then sequence) through
      :func:`repro.rules.merge.merge_rule_sets` — the exact semantics the
      LLM-mediated merge implements — so replaying a journal, or merging
      the journals of tenants that ran concurrently, always lands in seed
      order regardless of completion order.
    - **Concurrency-safe.**  Appends and view computation hold an internal
      lock, so threads sharing one journal never observe a torn view; the
      lock is dropped on pickle (each process re-creates its own).
    - **Persisted/reloadable.**  :meth:`save`/:meth:`load` round-trip the
      full entry history, not just the merged snapshot.

    An engine may install a *snapshot view* alongside an append (the result
    of its LLM-mediated merge); :meth:`replay` always reconstructs the view
    from the entries alone, and the two agree for the deterministic mock
    (asserted in ``tests/test_fleet.py``).
    """

    def __init__(self, entries: Iterable[JournalEntry] = ()):
        self._entries: list[JournalEntry] = list(entries)
        self._lock = threading.RLock()
        self._view: RuleSet | None = None
        self._sequence = max(
            (entry.origin[1] for entry in self._entries), default=0
        )

    # -- pickling (the lock is process-local) ---------------------------
    def __getstate__(self) -> dict:
        with self._lock:
            return {"entries": list(self._entries)}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["entries"])

    # -- introspection ---------------------------------------------------
    @property
    def entries(self) -> tuple[JournalEntry, ...]:
        with self._lock:
            return tuple(self._entries)

    @property
    def version(self) -> int:
        """The journal's head version (number of appended entries)."""
        with self._lock:
            return len(self._entries)

    def __len__(self) -> int:
        return self.version

    # -- writing ---------------------------------------------------------
    def append(
        self,
        rules: Sequence[dict],
        seed: int = 0,
        snapshot: Sequence[dict] | None = None,
        basis_version: int | None = None,
    ) -> JournalEntry:
        """Append one contribution; returns the new immutable entry.

        ``snapshot`` (optional) installs the contributor's own merged view
        of the journal after this entry — the engine passes its
        LLM-mediated merge result here so the serving view is exactly what
        the model produced.  ``basis_version`` names the head version the
        snapshot was computed against: if another contributor appended in
        the meantime the snapshot is stale, so it is discarded and the view
        lazily rebuilt by :meth:`replay` (which includes every entry).
        Without a snapshot the view is always rebuilt lazily.
        """
        with self._lock:
            stale = (
                basis_version is not None and basis_version != len(self._entries)
            )
            self._sequence += 1
            entry = JournalEntry(
                version=len(self._entries) + 1,
                origin=(seed, self._sequence),
                rules=tuple(dict(rule) for rule in rules),
            )
            self._entries.append(entry)
            self._view = (
                RuleSet.from_json(list(snapshot))
                if snapshot is not None and not stale
                else None
            )
            return entry

    @classmethod
    def seeded(cls, rule_set: RuleSet, seed: int = 0) -> "RuleJournal":
        """A journal adopting ``rule_set`` verbatim as its baseline."""
        journal = cls()
        if len(rule_set):
            entry = JournalEntry(
                version=1,
                origin=(seed, BASELINE_SEQUENCE),
                rules=tuple(rule_set.to_json()),
            )
            journal._entries.append(entry)
        return journal

    # -- reading ---------------------------------------------------------
    @property
    def current(self) -> RuleSet:
        """The merged view at the journal's head version."""
        with self._lock:
            if self._view is None:
                self._view = self.replay()
            return self._view

    def replay(self, up_to_version: int | None = None) -> RuleSet:
        """Deterministically rebuild the merged view from the entries.

        Entries fold in ``(origin, version)`` order — seed order first, so
        two journals holding the same entries merge identically no matter
        the order the entries arrived in.  ``up_to_version`` replays a
        historical prefix (by arrival version), which is what makes every
        past state of the knowledge reconstructible.
        """
        with self._lock:
            entries = self._entries
            if up_to_version is not None:
                entries = [e for e in entries if e.version <= up_to_version]
            ordered = sorted(entries, key=lambda e: (e.origin, e.version))
        merged = RuleSet()
        for entry in ordered:
            merged = _fold(merged, entry.rules)
        return merged

    # -- persistence -----------------------------------------------------
    def to_json(self) -> dict:
        return {
            "format": 1,
            "version": self.version,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_json(cls, raw: dict) -> "RuleJournal":
        return cls(JournalEntry.from_dict(entry) for entry in raw["entries"])

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, json.dumps(self.to_json(), indent=1))

    @classmethod
    def load(cls, path: str | Path) -> "RuleJournal":
        path = Path(path)
        try:
            raw = json.loads(path.read_bytes().decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
            raise JournalCorruptError(
                f"rule journal at {path} is not valid JSON ({exc}); "
                "the file is truncated or corrupt"
            ) from exc
        try:
            return cls.from_json(raw)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise JournalCorruptError(
                f"rule journal at {path} does not have journal structure "
                f"({type(exc).__name__}: {exc})"
            ) from exc

    # -- cross-journal merge ---------------------------------------------
    @classmethod
    def merged(cls, journals: Sequence["RuleJournal"]) -> "RuleJournal":
        """One journal holding every entry of ``journals``, renumbered.

        Entries are ordered by ``(origin, source position)`` and assigned
        fresh arrival versions, so merging the per-tenant journals of a
        fleet run yields the same combined journal for any completion
        order or worker count.
        """
        tagged = [
            (entry.origin, index, entry.version, entry)
            for index, journal in enumerate(journals)
            for entry in journal.entries
        ]
        tagged.sort(key=lambda item: item[:3])
        return cls(
            JournalEntry(version=i + 1, origin=entry.origin, rules=entry.rules)
            for i, (_, _, _, entry) in enumerate(tagged)
        )


def _fold(current: RuleSet, rules: Sequence[dict]) -> RuleSet:
    """Fold one contribution into the merged view.

    Mirrors :func:`repro.agents.reflection.merge_rules_via_llm` exactly —
    including its empty-side short-circuits — so a journal replay is
    byte-for-byte the rule set the engine's chained LLM merges produced.
    """
    if not rules:
        return current
    if not len(current):
        return RuleSet.from_json(list(rules))
    return merge_rule_sets(current, RuleSet.from_json(list(rules)))


def session_to_dict(session: TuningSession) -> dict:
    """JSON-serializable view of a tuning session."""
    out = {
        "workload": session.workload,
        "model": session.model,
        "initial_seconds": session.initial_seconds,
        "attempts": [
            {
                "index": a.index,
                "changes": a.changes,
                "seconds": a.seconds,
                "speedup": a.speedup,
                "rationale": a.rationale,
            }
            for a in session.attempts
        ],
        "best_config": session.best_config,
        "best_speedup": session.best_speedup,
        "end_reason": session.end_reason,
        "rules": session.rules_json,
        "executions": session.executions,
        "usage": {
            agent: {
                "input_tokens": usage.input_tokens,
                "output_tokens": usage.output_tokens,
                "cached_input_tokens": usage.cached_input_tokens,
            }
            for agent, usage in session.usage.items()
        },
        "transcript": [
            {"kind": e.kind, "detail": e.detail} for e in session.transcript.events
        ],
    }
    # Fault-plane fields appear only when a run actually degraded, so
    # unfaulted sessions serialize byte-identically to the pre-fault format.
    if session.degradations or session.fault_recovery:
        out["degradations"] = list(session.degradations)
        out["fault_recovery"] = dict(session.fault_recovery)
    return out


def session_from_dict(raw: dict) -> TuningSession:
    """Rebuild a :class:`TuningSession` from :func:`session_to_dict` output.

    The round trip preserves everything the dict format carries —
    ``session_to_dict(session_from_dict(d)) == d`` — which is what lets a
    fleet checkpoint restore completed tenants without re-running them.
    (Rendered transcripts survive; per-event payloads, which the dict
    format never carried, do not.)
    """
    from repro.agents.transcript import Transcript
    from repro.core.session import TuningSession

    transcript = Transcript()
    for event in raw.get("transcript", []):
        transcript.add(event["kind"], event["detail"])
    return TuningSession(
        workload=raw["workload"],
        model=raw["model"],
        initial_seconds=raw["initial_seconds"],
        attempts=[
            AttemptRecord(
                index=a["index"],
                changes={k: int(v) for k, v in a["changes"].items()},
                seconds=a["seconds"],
                speedup=a["speedup"],
                rationale=a.get("rationale", ""),
            )
            for a in raw.get("attempts", [])
        ],
        end_reason=raw.get("end_reason", ""),
        rules_json=[dict(rule) for rule in raw.get("rules", [])],
        transcript=transcript,
        executions=int(raw.get("executions", 0)),
        usage={
            agent: TokenUsage(
                input_tokens=int(u.get("input_tokens", 0)),
                output_tokens=int(u.get("output_tokens", 0)),
                cached_input_tokens=int(u.get("cached_input_tokens", 0)),
            )
            for agent, u in raw.get("usage", {}).items()
        },
        degradations=list(raw.get("degradations", [])),
        fault_recovery={
            site: int(count)
            for site, count in raw.get("fault_recovery", {}).items()
        },
    )


def save_session(session: TuningSession, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(session_to_dict(session), indent=1))


def load_session_summary(path: str | Path) -> dict:
    """Load a previously saved session export (as plain data).

    A torn or foreign file raises a descriptive :class:`JournalCorruptError`
    naming the path, like :meth:`RuleJournal.load`.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_bytes().decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise JournalCorruptError(
            f"session export at {path} is not valid JSON ({exc}); "
            "the file is truncated or corrupt"
        ) from exc
    try:
        raw["attempts"] = [
            AttemptRecord(
                index=a["index"],
                changes={k: int(v) for k, v in a["changes"].items()},
                seconds=a["seconds"],
                speedup=a["speedup"],
                rationale=a.get("rationale", ""),
            )
            for a in raw.get("attempts", [])
        ]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise JournalCorruptError(
            f"session export at {path} does not have session structure "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    return raw
