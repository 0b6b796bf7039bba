"""Hardware specification of the simulated testbed.

All capacity constants consumed by the PFS performance model live here, so a
different testbed (more OSS nodes, faster disks, burst buffers) is a single
spec change — mirroring the paper's discussion of scale-dependent behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.random import RngStreams

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB


@dataclass(frozen=True)
class NodeSpec:
    """One physical machine."""

    name: str
    role: str  # "oss", "mds", "client"
    cores: int = 10
    memory_bytes: int = 196 * GiB
    nic_bandwidth: float = 1.25e9  # 10 Gbps in bytes/s
    nic_latency: float = 25e-6  # one-way, seconds
    disk_bandwidth: float = 550e6  # bytes/s sustained
    disk_seek_overhead: float = 4.0e-4  # seconds per I/O request
    metadata_disk_overhead: float = 5.0e-5  # seconds per metadata txn


@dataclass
class ClusterSpec:
    """The full testbed: servers, clients and the switch fabric."""

    oss_nodes: list[NodeSpec]
    mds_nodes: list[NodeSpec]
    client_nodes: list[NodeSpec]
    switch_bandwidth: float = 12.5e9  # non-blocking 10-port 10 Gbps switch
    switch_latency: float = 5e-6
    mds_service_threads: int = 32
    ost_service_threads: int = 8
    seed: int = 0
    #: which PfsBackend this testbed runs (resolved lazily by name so the
    #: spec stays cheap to pickle across the experiment process pool)
    backend_name: str = "lustre"
    rng: RngStreams = field(default_factory=lambda: RngStreams(0), repr=False)

    @property
    def backend(self):
        """The active :class:`~repro.backends.base.PfsBackend`."""
        from repro.backends import get_backend

        return get_backend(self.backend_name)

    @property
    def n_oss(self) -> int:
        return len(self.oss_nodes)

    @property
    def n_ost(self) -> int:
        # One OST per OSS in this testbed (CloudLab single data disk per node).
        return len(self.oss_nodes)

    @property
    def n_clients(self) -> int:
        return len(self.client_nodes)

    @property
    def client_memory_bytes(self) -> int:
        return self.client_nodes[0].memory_bytes

    @property
    def system_memory_mb(self) -> int:
        """Client RAM in MiB — referenced by dependent parameter ranges."""
        return self.client_memory_bytes // MiB

    def cache_key(self) -> tuple:
        """Hashable identity of this testbed's modeled hardware.

        Leads with the backend name, like :meth:`PfsConfig.cache_key` — the
        run cache composes the two.  The hardware enters as one repr
        string, as in :meth:`Workload.cache_key`: a string caches its hash,
        and the run cache hashes this key on every lookup.  Memoized on the
        instance: like the compiled-phase cache, it assumes a
        ``ClusterSpec`` is not mutated after its first simulated run.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            hardware = (
                self.oss_nodes,
                self.mds_nodes,
                self.client_nodes,
                self.switch_bandwidth,
                self.switch_latency,
                self.mds_service_threads,
                self.ost_service_threads,
                self.seed,
            )
            key = (self.backend_name, repr(hardware))
            self.__dict__["_cache_key"] = key
        return key

    def config_facts(self) -> dict[str, int]:
        """The hardware facts dependent parameter ranges resolve against.

        The single source for the ``{"system_memory_mb", "n_ost"}`` dict that
        seeds every :class:`~repro.pfs.config.PfsConfig` — the engine, the
        runner, the harness and the baselines all build their configs from
        this.
        """
        return {
            "system_memory_mb": self.system_memory_mb,
            "n_ost": self.n_ost,
        }

    def describe(self) -> str:
        """Human/agent readable hardware summary (part of agent context).

        Node-role nouns come from the backend so a BeeGFS agent is not
        briefed about OSTs and llite caches.
        """
        oss = self.oss_nodes[0]
        client = self.client_nodes[0]
        terms = self.backend.hardware_terms
        return (
            f"Cluster: {self.n_oss} {terms['data_servers']}, "
            f"{len(self.mds_nodes)} {terms['mgmt_server']}, "
            f"{self.n_clients} client nodes.\n"
            f"Each node: {oss.cores} cores, {oss.memory_bytes // GiB} GB RAM, "
            f"{oss.nic_bandwidth * 8 / 1e9:.0f} Gbps NIC.\n"
            f"{terms['target_disks']}: {oss.disk_bandwidth / 1e6:.0f} MB/s sustained, "
            f"{oss.disk_seek_overhead * 1e3:.1f} ms per-request overhead.\n"
            f"{terms['meta_service']}: {self.mds_service_threads} service threads.\n"
            f"Clients: {client.memory_bytes // GiB} GB RAM each "
            f"({self.system_memory_mb} MiB addressable by {terms['client_cache']})."
        )


def make_cluster(
    n_oss: int = 5,
    n_clients: int = 5,
    seed: int = 0,
    backend: str = "lustre",
    **overrides,
) -> ClusterSpec:
    """Build the paper's 10-node CloudLab testbed (5 OSS + MGS/MDS + 5 clients).

    ``backend`` selects the file system the testbed runs; keyword overrides
    are applied to the ClusterSpec (e.g. faster disks).
    """
    oss = [NodeSpec(name=f"oss{i}", role="oss") for i in range(n_oss)]
    mds = [NodeSpec(name="mds0", role="mds")]
    clients = [NodeSpec(name=f"client{i}", role="client") for i in range(n_clients)]
    spec = ClusterSpec(
        oss_nodes=oss,
        mds_nodes=mds,
        client_nodes=clients,
        seed=seed,
        backend_name=backend,
        rng=RngStreams(seed),
    )
    for key, value in overrides.items():
        if not hasattr(spec, key):
            raise TypeError(f"unknown cluster override {key!r}")
        setattr(spec, key, value)
    return spec
