"""Phase-analytic performance model.

Each phase is costed with a bottleneck analysis: compute the demand placed on
every resource (OST disks, server NICs, client NICs, client CPU, MDS thread
pool, MDS journal, per-directory locks) plus latency-limited pipeline bounds
derived from the in-flight windows (``max_rpcs_in_flight``, dirty cache,
readahead windows, statahead slots).  The phase time is the maximum bound
plus one pipeline-fill round trip.

The model is closed-form and vectorized, so full paper-scale workloads
(hundreds of thousands of files, tens of GiB) cost microseconds to evaluate —
which is what lets the experiment harness run hundreds of tuning runs.  The
event kernel in :mod:`repro.pfs.eventmodel` cross-validates it on micro-cases.

A phase's cost depends on the configuration only through the roles its kind
reads (:data:`DATA_ROLES`, :data:`META_ROLES`), and the client-cache write it
leaves in the :class:`RunState` (:meth:`RunState.record_phase`) not at all,
which is what lets the run cache store phase results per role values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.hardware import ClusterSpec
from repro.cluster.mpi import MpiJob
from repro.pfs import locks
from repro.pfs.config import PfsConfig
from repro.pfs.costs import (
    CLIENT_MEM_BW,
    JOURNAL_COST,
    MDS_SERVICE_TIME,
    PDIROPS_CONCURRENCY,
    CostModel,
)
from repro.pfs.phases import (
    MODIFYING_OPS,
    DataPhase,
    MetaPhase,
    Phase,
    PhaseResult,
)
from repro.pfs.striping import resolve_stripe_count

#: The roles costing a :class:`DataPhase` reads, and those costing a
#: :class:`MetaPhase` reads.  A role read while building the model
#: (:class:`CostModel` reads ``checksums``) is in both.  A phase result is a
#: function of the cluster, the workload, the phase's position and the values
#: of its kind's roles, so a role the model starts to read must join its
#: kind's set, or the run cache's phase store serves stale results.
DATA_ROLES = (
    "checksums",
    "stripe_count",
    "stripe_size_bytes",
    "rpc_cap_bytes",
    "dirty_bytes",
    "short_io_bytes",
    "data_rpcs_in_flight",
    "cached_bytes",
    "read_ahead_file_bytes",
    "read_ahead_whole_bytes",
    "read_ahead_total_bytes",
)
META_ROLES = (
    "checksums",
    "stripe_count",
    "stripe_size_bytes",
    "meta_rpcs_in_flight",
    "meta_mod_rpcs_in_flight",
    "statahead_count",
)


def role_values(config: PfsConfig, roles: tuple[str, ...]) -> tuple[int, ...]:
    """The values of ``roles`` under ``config``; a role its backend leaves
    unmapped reads as 0."""
    return tuple([config.role(role, 0) for role in roles])


def ranks_per_client(job: MpiJob, cluster: ClusterSpec) -> int:
    """Ranks placed on each client node (at least one)."""
    return max(1, -(-job.n_ranks // cluster.n_clients))


@dataclass
class RunState:
    """Per-run client-side state threaded across phases."""

    written_bytes_per_client: dict[str, int] = field(default_factory=dict)

    def record_write(self, fileset_name: str, bytes_per_client: int) -> None:
        self.written_bytes_per_client[fileset_name] = (
            self.written_bytes_per_client.get(fileset_name, 0) + bytes_per_client
        )

    def cached_bytes(self, fileset_name: str) -> int:
        return self.written_bytes_per_client.get(fileset_name, 0)

    def record_phase(self, phase: Phase, ranks_pc: int) -> None:
        """Record the bytes ``phase`` leaves in each client's page cache.

        A function of the phase and the ranks per client alone, never of the
        configuration, so a run applies it after every phase, costed or
        served from the run cache's phase store.
        """
        if isinstance(phase, DataPhase):
            if phase.io == "write":
                self.record_write(phase.fileset.name, phase.bytes_per_rank * ranks_pc)
        elif "write_small" in phase.cycle:
            self.record_write(
                phase.fileset.name, phase.files_per_rank * phase.data_bytes * ranks_pc
            )

    def remount(self) -> None:
        """Drop all client caches (run hygiene)."""
        self.written_bytes_per_client.clear()


class AnalyticModel:
    """Costs phases for one (cluster, config) pair."""

    def __init__(self, cluster: ClusterSpec, config: PfsConfig):
        self.cluster = cluster
        self.config = config
        self.costs = CostModel(cluster, config)

    # ------------------------------------------------------------------
    def evaluate(self, phase: Phase, job: MpiJob, state: RunState) -> PhaseResult:
        """Cost ``phase``, then record its write in ``state``."""
        result = self.cost(phase, job, state)
        state.record_phase(phase, ranks_per_client(job, self.cluster))
        return result

    def cost(self, phase: Phase, job: MpiJob, state: RunState) -> PhaseResult:
        """``phase``'s result after the earlier phases' writes in ``state``,
        which it leaves unchanged."""
        if isinstance(phase, DataPhase):
            return self._eval_data(phase, job, state)
        if isinstance(phase, MetaPhase):
            return self._eval_meta(phase, job, state)
        raise TypeError(f"unknown phase type {type(phase).__name__}")

    # ------------------------------------------------------------------
    def _layout(self) -> tuple[int, int]:
        k = resolve_stripe_count(
            int(self.config.role("stripe_count")), self.cluster.n_ost
        )
        stripe_size = int(self.config.role("stripe_size_bytes"))
        return k, stripe_size

    def _eval_data(self, phase: DataPhase, job: MpiJob, state: RunState) -> PhaseResult:
        cluster, costs, config = self.cluster, self.costs, self.config
        n_ranks = job.n_ranks
        n_clients = cluster.n_clients
        ranks_pc = ranks_per_client(job, cluster)
        k, stripe_size = self._layout()
        fs = phase.fileset

        total_bytes = phase.bytes_per_rank * n_ranks
        eff_rpc = costs.effective_rpc_size(phase.xfer_size, phase.pattern, stripe_size)
        rpcs_per_rank = -(-phase.bytes_per_rank // eff_rpc)
        total_rpcs = rpcs_per_rank * n_ranks

        # Cache-served re-reads: the rank reads back data it wrote earlier in
        # this run and the working set fits in the client page cache.
        if phase.io == "read" and phase.reuse:
            cached = state.cached_bytes(fs.name)
            limit = int(config.role("cached_bytes"))
            per_client = phase.bytes_per_rank * ranks_pc
            if cached >= per_client and per_client <= limit:
                seconds = per_client / CLIENT_MEM_BW + phase.ops_per_rank * 2e-6
                return PhaseResult(
                    phase=phase,
                    seconds=seconds,
                    bottleneck="client_cache",
                    bounds={"client_cache": seconds},
                    bytes_read=total_bytes,
                )

        # --- stripe object spreading -----------------------------------
        if fs.shared:
            used_osts = min(k * fs.n_files, cluster.n_ost)
            imbalance = 1.0
        else:
            objects = fs.n_files * k
            used_osts = min(objects, cluster.n_ost)
            per_ost = objects / cluster.n_ost
            imbalance = (-(-objects // cluster.n_ost)) / per_ost if per_ost >= 1 else 1.0
        worst_bytes = total_bytes / used_osts * imbalance
        worst_rpcs = total_rpcs / used_osts * imbalance

        active_ranks = (
            min(n_ranks, phase.concurrent_writers)
            if phase.concurrent_writers is not None
            else n_ranks
        )
        writers = locks.writers_per_object(
            active_ranks if fs.shared else 1, k, phase.pattern, fs.shared
        )
        lock_lat = locks.lock_penalty(writers, phase.pattern) if phase.io == "write" else 0.0
        lock_srv = locks.server_lock_cost(writers, phase.pattern) if phase.io == "write" else 0.0

        short = costs.uses_short_io(eff_rpc)
        overhead = costs.disk_overhead(phase.pattern, short)

        bounds: dict[str, float] = {}
        bounds["ost_disk"] = worst_bytes / costs.disk_bw + worst_rpcs * (overhead + lock_srv)
        bounds["server_nic"] = worst_bytes / costs.server_nic
        bounds["client_nic"] = phase.bytes_per_rank * ranks_pc / costs.client_nic
        per_rank_cpu = rpcs_per_rank * (
            costs.client_cpu_per_rpc + costs.checksum_time(eff_rpc)
        )
        bounds["client_cpu"] = per_rank_cpu * ranks_pc / costs.cores

        # --- latency-limited pipeline bound ------------------------------
        rtt = costs.rpc_round_trip(eff_rpc, phase.pattern, lock_lat)
        q = int(config.role("data_rpcs_in_flight"))
        if phase.io == "write":
            dirty = int(config.role("dirty_bytes"))
            flow_window = min(q * eff_rpc, dirty)
        else:
            flow_window = min(q * eff_rpc, self._read_window(phase, ranks_pc, used_osts))
        flow_rate = flow_window / rtt
        agg_rate = n_clients * used_osts * flow_rate
        if phase.concurrent_writers is not None:
            per_writer_window = min(q * eff_rpc, flow_window)
            per_writer = min(
                per_writer_window / rtt,
                used_osts * costs.disk_bw / max(1, phase.concurrent_writers),
            )
            agg_rate = min(agg_rate, phase.concurrent_writers * per_writer)
        bounds["pipeline"] = total_bytes / agg_rate if agg_rate > 0 else float("inf")

        seconds = max(bounds.values()) + rtt
        bottleneck = max(bounds, key=lambda name: bounds[name])

        return PhaseResult(
            phase=phase,
            seconds=seconds,
            bottleneck=bottleneck,
            bounds=bounds,
            bytes_read=total_bytes if phase.io == "read" else 0,
            bytes_written=total_bytes if phase.io == "write" else 0,
            rpcs=total_rpcs,
        )

    def _read_window(self, phase: DataPhase, ranks_pc: int, used_osts: int) -> float:
        """Outstanding read bytes per (client, OST) flow from readahead."""
        config = self.config
        fs = phase.fileset
        if phase.pattern == "random":
            # Readahead detects random access and stays out of the way: each
            # rank has one synchronous request outstanding.
            client_window = ranks_pc * phase.xfer_size
            return client_window / used_osts
        per_file = int(config.role("read_ahead_file_bytes"))
        whole = int(config.role("read_ahead_whole_bytes"))
        if fs.file_size <= whole:
            per_file = max(per_file, fs.file_size)
        global_cap = int(config.role("read_ahead_total_bytes"))
        if fs.shared:
            # Ranks on a client share the per-file window of the shared file.
            client_window = max(
                ranks_pc * phase.xfer_size, min(per_file, global_cap)
            )
        else:
            active_files = max(1, ranks_pc)
            per_rank = max(
                phase.xfer_size, min(per_file, global_cap / active_files)
            )
            client_window = ranks_pc * per_rank
        return client_window / used_osts

    # ------------------------------------------------------------------
    def _eval_meta(self, phase: MetaPhase, job: MpiJob, state: RunState) -> PhaseResult:
        cluster, costs, config = self.cluster, self.costs, self.config
        n_ranks = job.n_ranks
        n_clients = cluster.n_clients
        ranks_pc = ranks_per_client(job, cluster)
        k, _ = self._layout()
        fs = phase.fileset

        n_files_total = phase.files_per_rank * n_ranks
        mds_ops_per_file = phase.mds_rpcs_per_file
        total_mds_ops = n_files_total * mds_ops_per_file

        service_per_file = sum(
            costs.mds_service_time(op, k)
            for op in phase.cycle
            if op in MDS_SERVICE_TIME
        )
        mod_ops_per_file = sum(1 for op in phase.cycle if op in MODIFYING_OPS)

        bounds: dict[str, float] = {}
        bounds["mds_cpu"] = (
            n_files_total * service_per_file / cluster.mds_service_threads
        )
        bounds["mds_journal"] = n_files_total * mod_ops_per_file * JOURNAL_COST

        if mod_ops_per_file:
            n_dirs = 1 if fs.shared_dir else max(1, fs.n_dirs)
            ops_busiest_dir = n_files_total * mod_ops_per_file / n_dirs
            avg_mod_service = (
                sum(
                    costs.mds_service_time(op, k)
                    for op in phase.cycle
                    if op in MODIFYING_OPS
                )
                / mod_ops_per_file
            )
            bounds["dir_serialization"] = (
                ops_busiest_dir * avg_mod_service / PDIROPS_CONCURRENCY
            )

        # --- client concurrency bound ------------------------------------
        cycle_rt = costs.meta_cycle_round_trip(phase.cycle, k, phase.data_bytes)
        q_mdc = int(config.role("meta_rpcs_in_flight"))
        q_mod = int(config.role("meta_mod_rpcs_in_flight", q_mdc))
        q_eff = min(q_mdc, q_mod) if phase.is_modifying else q_mdc
        per_rank_conc = 1.0
        if phase.scan_order and set(phase.cycle) == {"stat"}:
            per_rank_conc = costs.statahead_slots_per_rank()
        conc_client = min(float(q_eff), ranks_pc * per_rank_conc)

        rate_total = n_clients * conc_client / cycle_rt  # files/s, unloaded
        utilization = min(
            rate_total * service_per_file / cluster.mds_service_threads, 1.0
        )
        avg_service = service_per_file / max(1, mds_ops_per_file)
        wait = costs.mds_wait(utilization, avg_service)
        cycle_loaded = cycle_rt + mds_ops_per_file * wait
        rate_total = n_clients * conc_client / cycle_loaded
        bounds["client_concurrency"] = n_files_total / rate_total

        # Small-file payloads that persist hit the OSTs as small writes.
        if phase.data_persists and phase.data_bytes > 0:
            data_total = n_files_total * phase.data_bytes
            per_ost_files = n_files_total / cluster.n_ost
            bounds["ost_small_io"] = per_ost_files * 8e-5 + (
                data_total / cluster.n_ost / costs.disk_bw
            )

        seconds = max(bounds.values()) + cycle_loaded
        bottleneck = max(bounds, key=lambda name: bounds[name])

        wrote = "write_small" in phase.cycle
        read = "read_small" in phase.cycle
        return PhaseResult(
            phase=phase,
            seconds=seconds,
            bottleneck=bottleneck,
            bounds=bounds,
            bytes_written=n_files_total * phase.data_bytes if wrote else 0,
            bytes_read=n_files_total * phase.data_bytes if read else 0,
            mds_ops=total_mds_ops,
        )
