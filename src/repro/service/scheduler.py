"""The fleet's execution primitives: tenant body, pool route, checkpoints.

Both faces of the fleet run on what this module holds.  The long-lived
:class:`~repro.service.daemon.TuningService` admits, queues and folds
tenants; the batch :class:`~repro.service.daemon.FleetScheduler` is a
closed fleet drained through that same daemon.  Neither owns tuning
logic — underneath them:

- :func:`run_tenant` is THE per-tenant body and the tenant's fault
  boundary (a raising tenant becomes a :class:`TenantFailure`);
- :func:`execute_jobs` is the one pooled route: an ordered fan-out over
  :func:`repro.experiments.parallel.imap`, the same deterministic warm
  pool the figure experiments use;
- :class:`ArtifactCatalog` turns specs into offline-bundle keys, clusters
  and extractions;
- :class:`CheckpointStore` appends each fingerprinted outcome to a
  log so a killed fleet resumes without re-running completed tenants;
- :class:`FleetResult` is what a drained fleet reports.

What tenants share, and how:

- **Immutable offline artifacts.**  A tenant's cluster and RAG extraction
  are a pure function of its bundle key, built once per process by
  :func:`repro.service.artifacts.publish`; a job carries the key, and a
  worker that did not inherit the bundle from the parent builds it once —
  tenants never redo the offline phase.  Manuals and the RAG index live
  behind the extraction and the backend registry, both immutable at
  serving time.
- **The run cache.**  Every simulated run is served from the process-wide
  ``RUN_CACHE``, so tenants co-located on a worker share noise-free model
  evaluations.  The cache only ever skips re-costing an identical
  (backend, cluster, workload, config), and every run still applies its
  own seed's noise, so sharing never changes results — worker-count and
  cache independence are asserted by ``tests/test_fleet.py``.
- **Rule knowledge, after the fact.**  Each tenant accumulates into its own
  :class:`~repro.rules.store.RuleJournal`; a drained fleet replay-merges
  them (:meth:`RuleJournal.merged`) so concurrent tenants' contributions
  land in seed order — the fleet-wide journal is identical for any
  execution interleaving.

Fault domains: each tenant is its own blast radius.  A tenant whose queue
exhausts a retry budget (or raises outright) becomes a structured
:class:`~repro.service.tenant.TenantFailure` — quarantined, excluded from
the merged journal — while every other tenant completes; there is no
fleet-wide abort path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.cluster.hardware import ClusterSpec
from repro.core.engine import Stellar
from repro.core.session import TuningSession
from repro.experiments.parallel import imap
from repro.faults.plan import FaultPlan
from repro.faults.retry import FaultBudgetExhausted, RetryPolicy, TransientFault
from repro.rag.extraction import ExtractionResult
from repro.rules.store import (
    JournalCorruptError,
    RuleJournal,
    atomic_write_text,
    session_from_dict,
    session_to_dict,
)
from repro.service import artifacts
from repro.service.tenant import TenantFailure, TenantResult, TenantSpec
from repro.sim.cache import RUN_CACHE

#: Version tag of the fleet checkpoint file format.  Format 3 is an
#: append-only JSON-lines log: a header line stamps the fleet fingerprint
#: (tenant ids + seed + plan digest) and each arrival appends one line
#: whose outcome carries its spec digest, so a checkpoint written by a
#: *different* fleet is rejected loudly instead of silently partially
#: applied.
CHECKPOINT_FORMAT = 3


def spec_digest(spec: TenantSpec) -> str:
    """Stable content digest of one tenant spec (checkpoint identity)."""
    payload = json.dumps(dataclasses.asdict(spec), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def plan_digest(plan: FaultPlan | None) -> str:
    """Stable digest of a fault plan; inert plans all digest to ``"none"``.

    An unarmed plan is byte-identical to no plan at all (the plane's
    standing contract), so both fingerprint the same way.
    """
    if plan is None or not plan.active:
        return "none"
    payload = json.dumps(
        {"seed": plan.seed, "rates": dict(sorted(plan.rates.items()))},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def fleet_stamp(
    tenant_ids: Sequence[str] | None, seed: int, plan: FaultPlan | None
) -> dict:
    """The fleet fingerprint stamped into every checkpoint.

    ``tenant_ids`` is ``None`` for a dynamic fleet (the service daemon,
    whose tenant set grows with submissions) — then only seed and plan
    participate in the identity check.
    """
    return {
        "tenants": sorted(tenant_ids) if tenant_ids is not None else None,
        "seed": seed,
        "plan": plan_digest(plan),
    }


def _merge_recovery(sessions: Sequence[TuningSession]) -> dict[str, int]:
    merged: dict[str, int] = {}
    for session in sessions:
        for site, count in session.fault_recovery.items():
            merged[site] = merged.get(site, 0) + count
    return merged


def run_tenant(
    spec: TenantSpec,
    cluster: ClusterSpec,
    extraction: ExtractionResult,
    use_cache: bool = True,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
) -> TenantResult | TenantFailure:
    """One tenant's whole session queue — THE per-tenant body.

    Module-level and dependent only on its arguments, so the inline and
    pooled paths cannot drift.  ``use_cache=False`` runs the queue inside
    ``RUN_CACHE.disabled()``, a scope that ends with the call; the fleet
    and the service always run with the cache.

    This function is the tenant's fault boundary: anything the resilience
    machinery could not absorb surfaces here and becomes a
    :class:`TenantFailure` instead of propagating into the pool — a raising
    tenant can never abort the fleet.
    """
    engine = Stellar(
        cluster=cluster,
        model=spec.model,
        extraction=extraction,
        seed=spec.seed,
        faults=faults,
        retry=retry if retry is not None else RetryPolicy(),
        policy=spec.policy,
    )
    scope = nullcontext() if use_cache else RUN_CACHE.disabled()
    sessions: list[TuningSession] = []
    current = ""
    try:
        with scope:
            for workload in spec.session_queue():
                current = workload.name
                sessions.append(
                    engine.tune_and_accumulate(
                        workload, max_attempts=spec.max_attempts
                    )
                )
    except FaultBudgetExhausted as exc:
        return TenantFailure(
            spec=spec,
            site=exc.site,
            error=str(exc),
            failed_workload=current,
            attempts=exc.attempts,
            completed_sessions=len(sessions),
            fault_recovery=_merge_recovery(sessions),
        )
    except Exception as exc:  # noqa: BLE001 - the quarantine boundary
        return TenantFailure(
            spec=spec,
            site="exception",
            error=f"{type(exc).__name__}: {exc}",
            failed_workload=current,
            completed_sessions=len(sessions),
            fault_recovery=_merge_recovery(sessions),
        )
    return TenantResult(spec=spec, sessions=sessions, journal=engine.journal)


def _tenant_job(args: tuple) -> TenantResult | TenantFailure:
    """Picklable adapter: one jobs-tuple -> :func:`run_tenant`."""
    spec, key, faults, retry = args
    bundle = artifacts.publish(key)
    return run_tenant(
        spec, bundle.cluster, bundle.extraction, faults=faults, retry=retry
    )


def _broken_pool_failure(spec: TenantSpec) -> TenantFailure:
    """The quarantine report for a tenant stranded by a dead pool."""
    return TenantFailure(
        spec=spec,
        site="pool.broken",
        error=(
            "worker pool broke (BrokenProcessPool); the pool was retired "
            "and the wave's unfinished tenants quarantined"
        ),
    )


def execute_jobs(
    jobs: Sequence[tuple],
    max_workers: int | None = None,
) -> Iterator[tuple[int, TenantResult | TenantFailure]]:
    """THE tenant-execution core: run job tuples over the warm pool.

    ``jobs`` are :func:`run_tenant` payload tuples
    ``(spec, key, faults, retry)``, where ``key`` names the
    tenant's offline bundle (:meth:`ArtifactCatalog.payload_for`).  Each
    entry carries its *own* retry policy, which is how the service daemon
    applies per-tenant deadlines and degraded modes without forking the
    execution path.
    Yields ``(index, outcome)`` in job order, each as soon as it and every
    job before it have finished, so a consumer that orders its jobs the
    way it reports them hands the first one back after one tenant's queue.
    Every outcome is deterministic for its job tuple alone, so consumers
    may checkpoint incrementally.

    A ``BrokenProcessPool`` (a worker died) retires the pool and
    quarantines every job that had not arrived yet as
    ``site="pool.broken"``; jobs that arrived before it keep their
    outcomes.

    The service daemon — and through it the batch fleet — routes every
    wave through this one generator; the daemon owns no tuning logic.
    """
    jobs = list(jobs)
    arrived = 0
    try:
        for outcome in imap(_tenant_job, jobs, max_workers=max_workers):
            yield arrived, outcome
            arrived += 1
    except BrokenProcessPool:
        for index in range(arrived, len(jobs)):
            yield index, _broken_pool_failure(jobs[index][0])


@dataclass
class FleetResult:
    """Per-tenant outcomes (submission order) plus the fleet-wide journal.

    ``outcomes`` interleaves completed :class:`TenantResult`\\ s and
    quarantined :class:`TenantFailure`\\ s in tenant submission order;
    ``tenants``/``failures`` are the filtered views.  The merged journal
    is built from completed tenants only — a quarantined tenant's partial
    knowledge never contaminates the fleet.
    """

    outcomes: list = field(default_factory=list)
    journal: RuleJournal = field(default_factory=RuleJournal)
    elapsed: float = 0.0
    workers: int = 1
    checkpoint_write_failures: int = 0
    #: Lazy id -> outcome map; built once, outcomes are append-complete by
    #: the time anyone looks tenants up.
    _by_id: dict | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def tenants(self) -> list[TenantResult]:
        return [o for o in self.outcomes if isinstance(o, TenantResult)]

    @property
    def failures(self) -> list[TenantFailure]:
        return [o for o in self.outcomes if isinstance(o, TenantFailure)]

    @property
    def total_sessions(self) -> int:
        return sum(len(t.sessions) for t in self.tenants)

    @property
    def sessions_per_sec(self) -> float:
        return self.total_sessions / self.elapsed if self.elapsed > 0 else 0.0

    def _index(self) -> dict:
        if self._by_id is None or len(self._by_id) != len(self.outcomes):
            self._by_id = {o.tenant_id: o for o in self.outcomes}
        return self._by_id

    def get(self, tenant_id: str) -> TenantResult:
        found = self._index().get(tenant_id)
        if not isinstance(found, TenantResult):
            raise KeyError(tenant_id)
        return found

    def failure(self, tenant_id: str) -> TenantFailure:
        found = self._index().get(tenant_id)
        if not isinstance(found, TenantFailure):
            raise KeyError(tenant_id)
        return found

    def render(self) -> str:
        """Per-tenant rows are deterministic; the aggregate line (wall time,
        throughput, worker count) is machine-dependent and stays last so
        smoke checks can diff everything above it."""
        lines = [
            "Fleet: per-tenant tuning sessions over shared offline artifacts"
        ]
        lines.extend(outcome.render_row() for outcome in self.outcomes)
        lines.append(
            f"  fleet journal: {len(self.journal)} rule version(s), "
            f"{len(self.journal.current)} merged rule(s)"
        )
        if self.failures:
            lines.append(
                f"  quarantined: {len(self.failures)}/{len(self.outcomes)} "
                "tenant(s) (reports above); other tenants unaffected"
            )
        lines.append(
            f"  aggregate: {self.total_sessions} sessions in "
            f"{self.elapsed:.2f}s ({self.sessions_per_sec:.2f} sessions/sec, "
            f"{self.workers} worker(s))"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fleet checkpoint serialization (resume without re-running tenants).
# ---------------------------------------------------------------------------


def _outcome_to_json(
    outcome: TenantResult | TenantFailure,
    spec_fingerprint: str | None = None,
    degraded_sites: Iterable[str] = (),
) -> dict:
    if isinstance(outcome, TenantFailure):
        raw: dict = {"kind": "failure", "report": outcome.to_dict()}
    else:
        raw = {
            "kind": "result",
            "tenant_id": outcome.tenant_id,
            "sessions": [session_to_dict(s) for s in outcome.sessions],
            "journal": outcome.journal.to_json(),
        }
    if spec_fingerprint is not None:
        raw["spec_digest"] = spec_fingerprint
    sites = sorted(degraded_sites)
    if sites:
        raw["degraded_sites"] = sites
    return raw


def _outcome_from_json(raw: dict, spec: TenantSpec) -> TenantResult | TenantFailure:
    if raw["kind"] == "failure":
        return TenantFailure.from_dict(raw["report"], spec)
    return TenantResult(
        spec=spec,
        sessions=[session_from_dict(s) for s in raw["sessions"]],
        journal=RuleJournal.from_json(raw["journal"]),
    )


class CheckpointStore:
    """Incremental, fingerprinted fleet checkpoints (an append-only log).

    The file is JSON lines.  The first successful persist writes the
    header ``{"format": 3, "fleet": <stamp>}`` through
    :func:`~repro.rules.store.atomic_write_text`, so a kill can never tear
    it; each arrival then appends one ``{"tenant": <id>, "outcome":
    <record>}`` line with a single ``write``.  Every record is encoded and
    written once, so a fleet of T tenants writes O(T) bytes in all —
    nothing is rewritten or renamed per arrival, and the store keeps no
    encoded copy of a record already on disk.  A later line for a tenant
    supersedes an earlier one (a canonical fold re-ran it).

    The header carries the owning fleet's fingerprint (see
    :func:`fleet_stamp`); :meth:`load` refuses — with a descriptive
    :class:`JournalCorruptError` — to hand a different fleet's outcomes
    back.  Only the last line may be incomplete: it is an append a kill
    cut short, so :meth:`load` drops it (its tenant re-runs
    deterministically) and the next append first truncates the file back
    to its last newline.  Writes go through the armed ``journal.write``
    fault site with the caller's retry policy; an exhausted write budget
    is only *counted* (``write_failures``), never raised — the record
    waits in memory and goes out with the next successful append, and a
    resume meanwhile just re-runs one more tenant.
    """

    def __init__(
        self,
        path: str | Path,
        stamp: dict,
        retry: RetryPolicy,
        plan: FaultPlan | None = None,
    ):
        self.path = Path(path)
        self.stamp = stamp
        self.retry = retry
        self.plan = plan if plan is not None else FaultPlan.none()
        self.write_failures = 0
        #: Encoded lines whose write budget ran dry, by tenant id.
        self._unwritten: dict[str, str] = {}
        #: Whether the file holds this fleet's header (:meth:`load` found
        #: it, or this store wrote it); until then a persist starts a
        #: fresh log.
        self._header_written = False
        #: Length of the file's complete lines when :meth:`load` found a
        #: torn last line; the next append truncates back to it.
        self._truncate_to: int | None = None

    # -- read side ------------------------------------------------------
    def load(self) -> dict[str, dict]:
        """Raw outcome dicts from disk, keyed by tenant id.

        Validates the header line (format version, fleet fingerprint)
        and every complete record line; a later line for the same tenant
        wins.  An unterminated last line is an append a kill cut short
        and is dropped.  Returns ``{}`` when no checkpoint exists yet.
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return {}
        complete = data.rfind(b"\n") + 1
        lines = data[:complete].split(b"\n")[:-1]
        # With no complete line, the whole file stands in for the header
        # so a foreign file (an older format) is named by its format.
        self._check_header(
            self._decode(lines[0] if lines else data, "header line"),
            terminated=bool(lines),
        )
        outcomes: dict[str, dict] = {}
        for number, line in enumerate(lines[1:], start=2):
            record = self._decode(line, f"line {number}")
            if (
                not isinstance(record, dict)
                or record.keys() != {"tenant", "outcome"}
                or not isinstance(record["tenant"], str)
            ):
                raise JournalCorruptError(
                    f"fleet checkpoint at {self.path}: line {number} is not "
                    'a {"tenant", "outcome"} record; the file is truncated '
                    "or corrupt"
                )
            outcomes[record["tenant"]] = record["outcome"]
        self._header_written = True
        self._truncate_to = complete if complete < len(data) else None
        return outcomes

    def _decode(self, line: bytes, what: str) -> object:
        try:
            return json.loads(line.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
            raise JournalCorruptError(
                f"fleet checkpoint at {self.path}: {what} is not valid JSON "
                f"({exc}); the file is truncated or corrupt"
            ) from exc

    def _check_header(self, header: object, terminated: bool) -> None:
        if not isinstance(header, dict):
            raise JournalCorruptError(
                f"fleet checkpoint at {self.path} starts with a JSON "
                f"{type(header).__name__}, not a checkpoint header; the file "
                "is truncated or corrupt"
            )
        if header.get("format") != CHECKPOINT_FORMAT:
            raise JournalCorruptError(
                f"fleet checkpoint at {self.path} has format "
                f"{header.get('format')!r}, expected {CHECKPOINT_FORMAT}"
            )
        recorded = header.get("fleet")
        if not terminated or not isinstance(recorded, dict):
            raise JournalCorruptError(
                f"fleet checkpoint at {self.path} has no complete header "
                "line with a fleet fingerprint; the file is truncated or "
                "corrupt"
            )
        for part in ("seed", "plan"):
            if recorded.get(part) != self.stamp[part]:
                raise JournalCorruptError(
                    f"fleet checkpoint at {self.path} was written by a "
                    f"different fleet: {part} {recorded.get(part)!r} != "
                    f"{self.stamp[part]!r}; delete the file (or point the "
                    "fleet at a fresh path) to start over"
                )
        mine, theirs = self.stamp.get("tenants"), recorded.get("tenants")
        if mine is not None and theirs is not None and mine != theirs:
            raise JournalCorruptError(
                f"fleet checkpoint at {self.path} was written by a "
                f"different fleet: tenant ids {theirs!r} != {mine!r}; "
                "delete the file (or point the fleet at a fresh path) to "
                "start over"
            )

    def adopt(
        self, spec: TenantSpec, raw: object
    ) -> tuple[TenantResult | TenantFailure, frozenset]:
        """Decode the loaded entry for ``spec``.

        Returns ``(outcome, degraded_sites)`` — the mode the outcome ran
        under feeds the canonical breaker walk on resume.  The entry must
        be an outcome record stamped with this spec's digest (a mismatch
        means the checkpoint belongs to a different fleet) and must
        decode; anything else raises a descriptive
        :class:`JournalCorruptError`.  The one decode every restored
        tenant — batch or daemon — goes through.
        """
        tenant_id = spec.tenant_id
        if not isinstance(raw, dict):
            raise JournalCorruptError(
                f"fleet checkpoint entry for tenant {tenant_id!r} at "
                f"{self.path} is a {type(raw).__name__}, not an outcome "
                "record; the file is truncated or corrupt"
            )
        expected = spec_digest(spec)
        recorded = raw.get("spec_digest")
        if recorded != expected:
            raise JournalCorruptError(
                f"fleet checkpoint entry for tenant {tenant_id!r} was "
                f"written by a different spec (digest {recorded!r}, this "
                f"fleet expects {expected!r}); the checkpoint belongs to a "
                "different fleet"
            )
        try:
            outcome = _outcome_from_json(raw, spec)
            mode = frozenset(raw.get("degraded_sites", ()))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise JournalCorruptError(
                f"fleet checkpoint entry for tenant {tenant_id!r} is "
                f"malformed ({type(exc).__name__}: {exc})"
            ) from exc
        return outcome, mode

    # -- write side -----------------------------------------------------
    def record(self, tenant_id: str, raw: dict) -> None:
        """Append one arrival's line, after any line still unwritten."""
        self._unwritten[tenant_id] = (
            json.dumps({"tenant": tenant_id, "outcome": raw}) + "\n"
        )
        data = "".join(self._unwritten.values()).encode()
        key = f"checkpoint:{tenant_id}"

        def attempt(n: int) -> None:
            if self.plan.should_fire("journal.write", f"{key}:a{n}"):
                raise TransientFault("journal.write", key=f"{key}:a{n}")
            self._append(data)

        try:
            self.retry.execute(attempt, site="journal.write", key=key, plan=self.plan)
        except FaultBudgetExhausted:
            self.write_failures += 1
            return
        self._unwritten.clear()

    def _append(self, data: bytes) -> None:
        if not self._header_written:
            header = {"format": CHECKPOINT_FORMAT, "fleet": self.stamp}
            atomic_write_text(self.path, json.dumps(header) + "\n")
            self._header_written = True
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            if self._truncate_to is not None:
                os.ftruncate(fd, self._truncate_to)
                self._truncate_to = None
            # One write() carries the whole append; the loop only finishes
            # a write the kernel returned short.
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
        finally:
            os.close(fd)


class ArtifactCatalog:
    """Tenant specs to offline bundles, under one fleet seed.

    The one place tenant specs turn into bundle keys, clusters and
    extractions — the daemon, and through it the batch fleet, leans on
    it, so no path can drift in how tenants acquire their offline phase.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def payload_for(self, spec: TenantSpec) -> tuple[str, int, int]:
        """The tenant's job payload: the key of its offline bundle.

        Builds the bundle here first, so pool workers forked afterwards
        inherit it instead of building their own.
        """
        cluster_seed = (
            spec.cluster_seed if spec.cluster_seed is not None else self.seed
        )
        key = (spec.backend, cluster_seed, self.seed)
        artifacts.publish(key)
        return key

    def cluster_for(self, spec: TenantSpec) -> ClusterSpec:
        """The tenant's testbed, shared by every tenant of its key."""
        return artifacts.publish(self.payload_for(spec)).cluster

    def extraction_for(self, spec: TenantSpec) -> ExtractionResult:
        """The tenant's RAG extraction, shared by every tenant of its key."""
        return artifacts.publish(self.payload_for(spec)).extraction
