"""Columnar candidate sweeps: many configurations, one workload, one pass.

This is the simulator's one multi-item engine, beside the scalar reference
:meth:`~repro.pfs.simulator.Simulator.run`.  Every multi-item entry point —
``Simulator.run_items``/``run_sweep``/``run_schedule``/``run_repetitions``,
``measure_configs``, the search baselines, the drift experiment — goes
through :func:`run_items`.  A candidate grid (the coordinate-descent
baseline, cross-backend transfer scoring, a tuning probe ladder) is one
workload and dozens of *distinct* configurations; run one at a time, each
would pay the whole scalar pipeline: config copy, validation, ``CostModel``
construction, and a Python-level costing of every phase.

This engine hoists everything config-invariant out of the candidate loop
(compiled phases, job geometry, per-phase byte/RPC totals, fileset
spreading, the client-cache write ledger) and extracts each candidate's role
values into structure-of-arrays columns, evaluating the analytic bounds
across the whole candidate axis with numpy.  Scalar float64 arithmetic and
elementwise numpy float64 arithmetic are both IEEE-754 double with identical
rounding, so by mapping every scalar operation to one elementwise operation
with the same operand order the results are **bit-identical** to one
``Simulator.run`` per (workload, config, seed) item — asserted per
registered backend by ``tests/test_sweep.py``.  Transcendentals that numpy
may route through a different libm path (``log2`` in the lock model, the
``rho ** 8`` in the MDS wait) are deliberately evaluated through the scalar
helpers per candidate instead of vectorized.  A group with a single
distinct configuration (the repetition protocol) skips the columns and is
costed once by the scalar :func:`~repro.pfs.simulator.evaluate_phases`.

The per-item noise re-derives exactly the seeds and streams the scalar path
uses (``RngStreams`` named streams) and takes each stream's single draw from
``np.random.default_rng(seed)`` (:func:`first_normals`); factors are shared
with the scalar path through the ``run_noise`` memo.

Sharing caveats: items with equal configurations share one validated
``PfsConfig`` and phase results share ``phase`` / ``bounds`` objects;
consumers treat both as immutable.  When the
:data:`~repro.sim.cache.RUN_CACHE` is enabled, finished ``RunResult``s are
served from and stored into it per (backend, cluster, workload, config,
seed) key.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.backends.base import PAGE_SIZE
from repro.cluster.mpi import MpiJob
from repro.pfs import locks
from repro.pfs.config import PfsConfig
from repro.pfs.costs import (
    CHECKSUM_BW,
    CLIENT_MEM_BW,
    CLIENT_META_CPU,
    JOURNAL_COST,
    MDS_SERVICE_TIME,
    PDIROPS_CONCURRENCY,
    STATAHEAD_SLOT_DIVISOR,
    STATAHEAD_WINDOW_CAP,
    STRIPE_OBJECT_COST,
    CostModel,
)
from repro.pfs.expressions import ExpressionError, compile_expression_vector
from repro.pfs.model import RunState
from repro.pfs.phases import MODIFYING_OPS, DataPhase, MetaPhase, PhaseResult
from repro.pfs.striping import resolve_stripe_count
from repro.sim.cache import RUN_CACHE
from repro.sim.random import RngStreams, _derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle with the facade module
    from repro.pfs.simulator import RunResult, Simulator, WorkloadLike

BatchItem = tuple["WorkloadLike", PfsConfig, int]


def run_sweep(
    sim: "Simulator",
    workload: "WorkloadLike",
    configs: Sequence[PfsConfig],
    seeds: Sequence[int],
) -> list["RunResult"]:
    """Evaluate aligned ``(config, seed)`` pairs of one workload columnar.

    Bit-identical to one ``sim.run(workload, config, seed)`` per pair —
    only faster, because the candidate axis is evaluated once through the
    structure-of-arrays model instead of per config.
    """
    return run_items(sim, sweep_items(workload, configs, seeds))


def run_items(sim: "Simulator", items: Iterable["BatchItem"]) -> list["RunResult"]:
    """Arbitrary batch items, grouped per workload through the columnar path.

    Items are partitioned by workload identity; each partition sweeps its
    distinct configurations in one columnar pass (single-config partitions
    are costed once by the scalar model — same result, no vector overhead).
    Results come back in item order, bit-identical to one ``Simulator.run``
    per item.
    """
    items = list(items)
    results, pending, keys = RUN_CACHE.partition(sim.cluster, items)

    groups: dict[tuple, list[int]] = {}
    for index in pending:
        groups.setdefault(items[index][0].cache_key(), []).append(index)
    for indices in groups.values():
        workload = items[indices[0]][0]
        swept = _sweep_group(sim, workload, [items[i] for i in indices])
        for index, result in zip(indices, swept):
            results[index] = result
            if keys is not None:
                RUN_CACHE.put(keys[index], result)
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
    sim: "Simulator", workload: "WorkloadLike", group_items: list["BatchItem"]
) -> list["RunResult"]:
    """All items of one workload: dedup configs, evaluate, apply noise."""
    from repro.pfs.simulator import (
        _NOISE_CACHE,
        _NOISE_CACHE_MAX,
        PHASE_NOISE_SIGMA,
        RUN_NOISE_SIGMA,
        RunResult,
        evaluate_phases,
    )

    slots: dict[tuple, int] = {}
    unique_configs: list[PfsConfig] = []
    members: list[int] = []
    for _workload, config, _seed in group_items:
        key = config.cache_key()
        slot = slots.get(key)
        if slot is None:
            slot = len(unique_configs)
            slots[key] = slot
            unique_configs.append(config)
        members.append(slot)

    if len(unique_configs) == 1:
        evaluated = [evaluate_phases(sim.cluster, workload, unique_configs[0])]
    else:
        evaluated = _evaluate_columnar(sim, workload, unique_configs)

    # -- per-item noise: dedup by seed, seed only the cache misses --------
    # Noise depends on (seed, workload, n_phases) alone — never the config —
    # so a config×seed grid computes each seed's factors once, and the
    # shared memo in the simulator module carries them across groups and
    # engines (the scalar path fills and reads the same dict).
    name = workload.name
    n_phases = len(evaluated[0][1])
    noise_by_seed: dict[int, tuple[tuple[float, ...], float]] = {}
    for _workload, _config, seed in group_items:
        if seed not in noise_by_seed:
            noise_by_seed[seed] = _NOISE_CACHE.get((seed, name, n_phases))
    missing = [seed for seed, noise in noise_by_seed.items() if noise is None]
    if missing:
        roots = [_derive_seed(seed, f"spawn:run:{name}") for seed in missing]
        phase_names = [f"phase:{i}" for i in range(n_phases)]
        if PHASE_NOISE_SIGMA > 0:
            phase_noises = np.exp(
                first_normals(
                    [_derive_seed(root, pn) for root in roots for pn in phase_names],
                    PHASE_NOISE_SIGMA,
                )
            ).reshape(len(missing), n_phases)
        else:
            phase_noises = np.ones((len(missing), n_phases))
        if RUN_NOISE_SIGMA > 0:
            run_noises = np.exp(
                first_normals(
                    [_derive_seed(root, "run") for root in roots], RUN_NOISE_SIGMA
                )
            )
        else:
            run_noises = np.ones(len(missing))
        for index, seed in enumerate(missing):
            noise = (
                tuple(phase_noises[index].tolist()),
                float(run_noises[index]),
            )
            noise_by_seed[seed] = noise
            if len(_NOISE_CACHE) < _NOISE_CACHE_MAX:
                _NOISE_CACHE[(seed, name, n_phases)] = noise

    results: list["RunResult"] = []
    for (_workload, _config, seed), slot in zip(group_items, members):
        shared_config, base = evaluated[slot]
        noise_row, run_factor = noise_by_seed[seed]
        phases: list[PhaseResult] = []
        total = 0.0
        for result, noise in zip(base, noise_row):
            seconds = result.seconds * noise
            phases.append(
                _phase_result(
                    result.phase,
                    seconds,
                    result.bottleneck,
                    result.bounds,
                    result.bytes_read,
                    result.bytes_written,
                    result.mds_ops,
                    result.rpcs,
                )
            )
            total += seconds
        total *= run_factor
        results.append(
            RunResult(
                workload=name,
                config=shared_config,
                seconds=total,
                phases=phases,
                seed=seed,
            )
        )
    return results


def first_normals(seeds, sigma: float) -> np.ndarray:
    """``np.random.default_rng(seed).normal(0.0, sigma)`` for every seed —
    the one draw each named noise stream makes."""
    return np.array(
        [np.random.default_rng(seed).normal(0.0, sigma) for seed in seeds]
    )


def _phase_result(
    phase, seconds, bottleneck, bounds, bytes_read, bytes_written, mds_ops, rpcs
) -> PhaseResult:
    """Construct a :class:`PhaseResult` without dataclass-__init__ overhead.

    The sweep builds two phase results per (candidate, phase) — the
    noise-free base and the noisy copy — so constructor cost is hot.
    ``__post_init__``'s negative-seconds guard is upheld by construction
    (model bounds are non-negative and noise factors positive).
    """
    result = PhaseResult.__new__(PhaseResult)
    result.__dict__ = {
        "phase": phase,
        "seconds": seconds,
        "bottleneck": bottleneck,
        "bounds": bounds,
        "bytes_read": bytes_read,
        "bytes_written": bytes_written,
        "mds_ops": mds_ops,
        "rpcs": rpcs,
    }
    return result


# ---------------------------------------------------------------------------
# Columnar model evaluation
# ---------------------------------------------------------------------------
class _RoleColumns:
    """Lazy structure-of-arrays view of every candidate's role values."""

    def __init__(self, configs: list[PfsConfig]):
        self.configs = configs
        self.n = len(configs)
        self._cache: dict[str, np.ndarray] = {}

    def get(self, role: str, default=None):
        """Int64 column of ``config.role(role)`` per candidate.

        For roles the backend omits, ``default`` is returned as-is (scalar or
        column) — mirroring ``PfsConfig.role``'s fallback, including its
        ``KeyError`` when no default is given.
        """
        column = self._cache.get(role)
        if column is not None:
            return column
        backend = self.configs[0].backend
        entry = backend.roles.get(role)
        if entry is None:
            if default is None:
                raise KeyError(
                    f"backend {backend.name!r} maps no parameter to "
                    f"role {role!r}"
                )
            return default
        # The bulk form of ``config.role(role)`` — resolved through the
        # backend's role map, never by literal parameter name.
        name, scale = entry
        column = np.fromiter(
            (config._values[name] for config in self.configs),
            dtype=np.int64,
            count=self.n,
        )
        if scale != 1:
            column = column * scale
        self._cache[role] = column
        return column

    def stripe_counts(self, n_ost: int) -> np.ndarray:
        """Resolved stripe counts (``-1`` = all OSTs), like ``_layout``."""
        resolved = self._cache.get("#stripe_count_resolved")
        if resolved is None:
            requested = self.get("stripe_count")
            invalid = (requested != -1) & (requested < 1)
            if invalid.any():
                # Raise exactly what the scalar path raises for this value.
                resolve_stripe_count(int(requested[int(np.argmax(invalid))]), n_ost)
            resolved = np.where(requested == -1, n_ost, np.minimum(requested, n_ost))
            self._cache["#stripe_count_resolved"] = resolved
        return resolved


def _evaluate_columnar(
    sim: "Simulator", workload: "WorkloadLike", configs: list[PfsConfig]
) -> list[tuple[PfsConfig, list[PhaseResult]]]:
    """Validate and cost every distinct candidate, noise-free."""
    from repro.pfs.simulator import bind_run_config

    cluster = sim.cluster
    prepared = [bind_run_config(cluster, config) for config in configs]
    if not _validated_columnar(prepared):
        for config in prepared:
            config.validate()

    job = MpiJob.launch(workload.name, workload.n_ranks, cluster)
    columns = _RoleColumns(prepared)
    # Every CostModel field except ``checksums`` is a (cluster, backend)
    # constant; the checksums flag is handled columnar below.
    costs = CostModel(cluster, prepared[0])
    state = RunState()
    rows: list[list[PhaseResult]] = [[] for _ in prepared]
    for phase in workload.compile(cluster):
        if isinstance(phase, DataPhase):
            phase_rows = _eval_data(phase, job, state, cluster, costs, columns)
        elif isinstance(phase, MetaPhase):
            phase_rows = _eval_meta(phase, job, state, cluster, costs, columns)
        else:
            raise TypeError(f"unknown phase type {type(phase).__name__}")
        for row, result in zip(rows, phase_rows):
            row.append(result)
    return list(zip(prepared, rows))


def _validated_columnar(prepared: list[PfsConfig]) -> bool:
    """``True`` when every candidate is proven valid columnar.

    Anything the vectorized check cannot prove — heterogeneous fact keys,
    expression errors, an actual violation — returns ``False`` and the
    caller falls back to per-config ``validate()``, which raises the exact
    scalar error messages.
    """
    first = prepared[0]
    backend = first.backend
    fact_keys = list(first.facts)
    value_names = list(first._values)
    for config in prepared[1:]:
        if (
            config.backend is not backend
            or list(config.facts) != fact_keys
            or list(config._values) != value_names
        ):
            return False
    n = len(prepared)
    env: dict[str, np.ndarray] = {}
    try:
        # Same backend ⇒ same value-dict key order, so one matrix covers all.
        matrix = np.array(
            [list(config._values.values()) for config in prepared],
            dtype=np.float64,
        )
        for column, name in enumerate(first._values):
            env[name] = matrix[:, column]
        for key in fact_keys:
            env[key] = np.fromiter(
                (config.facts[key] for config in prepared),
                dtype=np.float64,
                count=n,
            )
    except (KeyError, TypeError, ValueError):
        return False
    try:
        for name in first._values:
            spec = backend.registry[name]
            values = env[name]
            if spec.ptype == "bool" and bool(np.any((values != 0) & (values != 1))):
                return False
            low = _resolve_vector(spec.min_expr, env, float("-inf"))
            high = _resolve_vector(spec.max_expr, env, float("inf"))
            if bool(np.any(values < low)) or bool(np.any(values > high)):
                return False
    except ExpressionError:
        return False
    return True


def _resolve_vector(expr, env: dict, default: float):
    if expr is None:
        return default
    if isinstance(expr, (int, float)):
        return float(expr)
    return compile_expression_vector(expr)(env)


def _columns_as_rows(n: int, columns: list) -> list[list]:
    """Transpose columns (arrays or broadcast scalars) into per-candidate
    rows of builtin Python values."""
    lists = [
        column.tolist() if isinstance(column, np.ndarray) else [column] * n
        for column in columns
    ]
    return [[values[i] for values in lists] for i in range(n)]


def _assemble(
    n: int,
    phase,
    names: list[str],
    bound_columns: list,
    tail,
    skip=None,
    bytes_read=0,
    bytes_written=0,
    mds_ops=0,
    rpcs=0,
):
    """Per-candidate ``PhaseResult``s from bound columns.

    ``tail`` is the pipeline-fill term added after the max (the RPC round
    trip for data phases, the loaded cycle for metadata phases); ``skip``
    marks candidates handled elsewhere (the client-cache fast path).
    Bounds keep the scalar model's dict insertion order, so ties in the
    bottleneck argmax break identically.
    """
    stacked = np.vstack(
        [
            np.broadcast_to(np.asarray(column, dtype=np.float64), (n,))
            for column in bound_columns
        ]
    )
    seconds = (stacked.max(axis=0) + tail).tolist()
    bottlenecks = [names[i] for i in np.argmax(stacked, axis=0).tolist()]
    rows = _columns_as_rows(n, bound_columns)
    rpcs_list = rpcs.tolist() if isinstance(rpcs, np.ndarray) else [rpcs] * n
    results: list[PhaseResult | None] = []
    for i in range(n):
        if skip is not None and skip[i]:
            results.append(None)
            continue
        results.append(
            _phase_result(
                phase,
                seconds[i],
                bottlenecks[i],
                dict(zip(names, rows[i])),
                bytes_read,
                bytes_written,
                mds_ops,
                rpcs_list[i],
            )
        )
    return results


def _eval_data(
    phase: DataPhase, job: MpiJob, state: RunState, cluster, costs, columns
) -> list[PhaseResult]:
    n = columns.n
    n_ranks = job.n_ranks
    n_clients = cluster.n_clients
    ranks_pc = max(1, -(-n_ranks // n_clients))
    k = columns.stripe_counts(cluster.n_ost)
    stripe_size = columns.get("stripe_size_bytes")
    fs = phase.fileset

    total_bytes = phase.bytes_per_rank * n_ranks
    cap = np.minimum(columns.get("rpc_cap_bytes"), stripe_size)
    if phase.pattern == "seq":
        dirty = columns.get("dirty_bytes")
        eff_rpc = np.maximum(
            PAGE_SIZE, np.minimum(cap, np.maximum(phase.xfer_size, dirty))
        )
    else:
        eff_rpc = np.maximum(1, np.minimum(phase.xfer_size, cap))
    rpcs_per_rank = -((-phase.bytes_per_rank) // eff_rpc)
    total_rpcs = rpcs_per_rank * n_ranks

    # Cache-served re-reads: per-candidate only through the cache limit; the
    # write ledger itself is configuration-invariant.
    hit_mask = None
    hit_seconds = 0.0
    if phase.io == "read" and phase.reuse:
        cached = state.cached_bytes(fs.name)
        per_client = phase.bytes_per_rank * ranks_pc
        if cached >= per_client:
            hit_mask = per_client <= columns.get("cached_bytes")
            if not hit_mask.any():
                hit_mask = None
            else:
                hit_seconds = per_client / CLIENT_MEM_BW + phase.ops_per_rank * 2e-6

    # --- stripe object spreading -----------------------------------
    if fs.shared:
        used_osts = np.minimum(k * fs.n_files, cluster.n_ost)
        imbalance = 1.0
    else:
        objects = fs.n_files * k
        used_osts = np.minimum(objects, cluster.n_ost)
        per_ost = objects / cluster.n_ost
        imbalance = np.where(
            per_ost >= 1, (-((-objects) // cluster.n_ost)) / per_ost, 1.0
        )
    worst_bytes = total_bytes / used_osts * imbalance
    worst_rpcs = total_rpcs / used_osts * imbalance

    active_ranks = (
        min(n_ranks, phase.concurrent_writers)
        if phase.concurrent_writers is not None
        else n_ranks
    )
    conflicting = active_ranks if fs.shared else 1
    if not fs.shared or conflicting <= 1:
        writers = 1.0
    elif phase.pattern == "seq":
        writers = np.maximum(1.0, conflicting / np.maximum(1, k))
    else:
        writers = float(conflicting)
    if phase.io == "write":
        if isinstance(writers, np.ndarray):
            # log2 goes through the scalar helper: numpy's log2 may take a
            # different libm path, and bit-identity matters more than
            # vectorizing one call per candidate.
            lock_lat = np.fromiter(
                (locks.lock_penalty(float(w), phase.pattern) for w in writers),
                dtype=np.float64,
                count=n,
            )
            lock_srv = np.fromiter(
                (locks.server_lock_cost(float(w), phase.pattern) for w in writers),
                dtype=np.float64,
                count=n,
            )
        else:
            lock_lat = locks.lock_penalty(writers, phase.pattern)
            lock_srv = locks.server_lock_cost(writers, phase.pattern)
    else:
        lock_lat = 0.0
        lock_srv = 0.0

    short = eff_rpc <= columns.get("short_io_bytes", 0)
    if phase.pattern == "seq":
        overhead = costs.disk_overhead_seq
    else:
        overhead = np.where(
            short, costs.disk_overhead_short, costs.disk_overhead_random
        )
    checksum_mask = columns.get("checksums", 0) != 0
    checksum_eff = np.where(checksum_mask, eff_rpc / CHECKSUM_BW, 0.0)

    names = ["ost_disk", "server_nic", "client_nic", "client_cpu", "pipeline"]
    b_ost = worst_bytes / costs.disk_bw + worst_rpcs * (overhead + lock_srv)
    b_server = worst_bytes / costs.server_nic
    b_client_nic = phase.bytes_per_rank * ranks_pc / costs.client_nic
    per_rank_cpu = rpcs_per_rank * (costs.client_cpu_per_rpc + checksum_eff)
    b_cpu = per_rank_cpu * ranks_pc / costs.cores

    # --- latency-limited pipeline bound ------------------------------
    handshake = np.where(short, costs.short_io_handshake, costs.bulk_handshake)
    wire = eff_rpc / costs.client_nic + eff_rpc / costs.server_nic
    disk = eff_rpc / costs.disk_bw + overhead
    rtt = (
        costs.client_cpu_per_rpc
        + checksum_eff * 2
        + handshake
        + costs.data_rtt
        + wire
        + disk
        + lock_lat
    )
    q = columns.get("data_rpcs_in_flight")
    if phase.io == "write":
        flow_window = np.minimum(q * eff_rpc, columns.get("dirty_bytes"))
    else:
        flow_window = np.minimum(
            q * eff_rpc, _read_window(phase, ranks_pc, used_osts, columns)
        )
    flow_rate = flow_window / rtt
    agg_rate = (n_clients * used_osts) * flow_rate
    if phase.concurrent_writers is not None:
        per_writer_window = np.minimum(q * eff_rpc, flow_window)
        per_writer = np.minimum(
            per_writer_window / rtt,
            used_osts * costs.disk_bw / max(1, phase.concurrent_writers),
        )
        agg_rate = np.minimum(agg_rate, phase.concurrent_writers * per_writer)
    with np.errstate(divide="ignore", invalid="ignore"):
        b_pipeline = np.where(agg_rate > 0, total_bytes / agg_rate, float("inf"))

    if phase.io == "write":
        state.record_write(fs.name, phase.bytes_per_rank * ranks_pc)

    results = _assemble(
        n,
        phase,
        names,
        [b_ost, b_server, b_client_nic, b_cpu, b_pipeline],
        rtt,
        skip=hit_mask,
        bytes_read=total_bytes if phase.io == "read" else 0,
        bytes_written=total_bytes if phase.io == "write" else 0,
        rpcs=total_rpcs,
    )
    if hit_mask is not None:
        for i in range(n):
            if hit_mask[i]:
                results[i] = PhaseResult(
                    phase=phase,
                    seconds=hit_seconds,
                    bottleneck="client_cache",
                    bounds={"client_cache": hit_seconds},
                    bytes_read=total_bytes,
                )
    return results


def _read_window(phase: DataPhase, ranks_pc: int, used_osts, columns):
    """Columnar twin of ``AnalyticModel._read_window``."""
    fs = phase.fileset
    if phase.pattern == "random":
        client_window = ranks_pc * phase.xfer_size
        return client_window / used_osts
    per_file = columns.get("read_ahead_file_bytes")
    whole = columns.get("read_ahead_whole_bytes")
    per_file = np.where(
        fs.file_size <= whole, np.maximum(per_file, fs.file_size), per_file
    )
    global_cap = columns.get("read_ahead_total_bytes")
    if fs.shared:
        client_window = np.maximum(
            ranks_pc * phase.xfer_size, np.minimum(per_file, global_cap)
        )
    else:
        active_files = max(1, ranks_pc)
        per_rank = np.maximum(
            phase.xfer_size, np.minimum(per_file, global_cap / active_files)
        )
        client_window = ranks_pc * per_rank
    return client_window / used_osts


def _eval_meta(
    phase: MetaPhase, job: MpiJob, state: RunState, cluster, costs, columns
) -> list[PhaseResult]:
    n = columns.n
    n_ranks = job.n_ranks
    n_clients = cluster.n_clients
    ranks_pc = max(1, -(-n_ranks // n_clients))
    k = columns.stripe_counts(cluster.n_ost)
    fs = phase.fileset

    n_files_total = phase.files_per_rank * n_ranks
    mds_ops_per_file = phase.mds_rpcs_per_file
    total_mds_ops = n_files_total * mds_ops_per_file

    extra_stripes = np.maximum(0, k - 1)
    service_cache: dict[str, np.ndarray] = {}

    def service_time(op: str):
        column = service_cache.get(op)
        if column is None:
            column = (
                MDS_SERVICE_TIME[op]
                + STRIPE_OBJECT_COST.get(op, 0.0) * extra_stripes
            )
            service_cache[op] = column
        return column

    service_per_file = 0
    for op in phase.cycle:
        if op in MDS_SERVICE_TIME:
            service_per_file = service_per_file + service_time(op)
    mod_ops_per_file = sum(1 for op in phase.cycle if op in MODIFYING_OPS)

    names = ["mds_cpu", "mds_journal"]
    bound_columns = [
        n_files_total * service_per_file / cluster.mds_service_threads,
        n_files_total * mod_ops_per_file * JOURNAL_COST,
    ]

    if mod_ops_per_file:
        n_dirs = 1 if fs.shared_dir else max(1, fs.n_dirs)
        ops_busiest_dir = n_files_total * mod_ops_per_file / n_dirs
        mod_service = 0
        for op in phase.cycle:
            if op in MODIFYING_OPS:
                mod_service = mod_service + service_time(op)
        avg_mod_service = mod_service / mod_ops_per_file
        names.append("dir_serialization")
        bound_columns.append(
            ops_busiest_dir * avg_mod_service / PDIROPS_CONCURRENCY
        )

    # --- client concurrency bound ------------------------------------
    cycle_rt = 0.0
    for op in phase.cycle:
        if op in MDS_SERVICE_TIME:
            cycle_rt = cycle_rt + (
                service_time(op) + costs.meta_rtt + CLIENT_META_CPU
            )
        elif op in ("write_small", "read_small"):
            cycle_rt = cycle_rt + (5e-6 + phase.data_bytes / CLIENT_MEM_BW)
    q_mdc = columns.get("meta_rpcs_in_flight")
    q_mod = columns.get("meta_mod_rpcs_in_flight", q_mdc)
    q_eff = np.minimum(q_mdc, q_mod) if phase.is_modifying else q_mdc
    per_rank_conc = 1.0
    if phase.scan_order and set(phase.cycle) == {"stat"}:
        statahead = columns.get("statahead_count", 0)
        if isinstance(statahead, np.ndarray):
            per_rank_conc = np.where(
                statahead <= 0,
                1.0,
                1.0
                + np.minimum(statahead, STATAHEAD_WINDOW_CAP)
                / STATAHEAD_SLOT_DIVISOR,
            )
    conc_client = np.minimum(q_eff.astype(np.float64), ranks_pc * per_rank_conc)

    rate_total = (n_clients * conc_client) / cycle_rt
    utilization = np.minimum(
        rate_total * service_per_file / cluster.mds_service_threads, 1.0
    )
    avg_service = service_per_file / max(1, mds_ops_per_file)
    # The rho**8 inside mds_wait goes through the scalar helper — libm pow
    # and numpy's power loop may round the same value differently.
    wait = np.fromiter(
        (
            costs.mds_wait(float(u), float(s))
            for u, s in zip(
                np.broadcast_to(np.asarray(utilization, dtype=np.float64), (n,)),
                np.broadcast_to(np.asarray(avg_service, dtype=np.float64), (n,)),
            )
        ),
        dtype=np.float64,
        count=n,
    )
    cycle_loaded = cycle_rt + mds_ops_per_file * wait
    rate_total = (n_clients * conc_client) / cycle_loaded
    names.append("client_concurrency")
    bound_columns.append(n_files_total / rate_total)

    if phase.data_persists and phase.data_bytes > 0:
        data_total = n_files_total * phase.data_bytes
        per_ost_files = n_files_total / cluster.n_ost
        names.append("ost_small_io")
        bound_columns.append(
            per_ost_files * 8e-5 + (data_total / cluster.n_ost / costs.disk_bw)
        )

    wrote = "write_small" in phase.cycle
    read = "read_small" in phase.cycle
    if wrote:
        state.record_write(
            fs.name, phase.files_per_rank * phase.data_bytes * ranks_pc
        )
    return _assemble(
        n,
        phase,
        names,
        bound_columns,
        cycle_loaded,
        bytes_written=n_files_total * phase.data_bytes if wrote else 0,
        bytes_read=n_files_total * phase.data_bytes if read else 0,
        mds_ops=total_mds_ops,
    )
