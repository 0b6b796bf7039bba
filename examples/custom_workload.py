#!/usr/bin/env python
"""Tuning a custom application workload.

Shows how a downstream user brings their own application to STELLAR: define
its I/O pattern as phases (here, a checkpoint/restart cycle: a burst of
large shared-file writes followed by many small per-rank metadata files),
register it, and tune.  The agents never see this definition — they work
from the Darshan trace the initial run produces.

Run:  python examples/custom_workload.py
"""

from dataclasses import dataclass

from repro import Stellar, get_workload, make_cluster
from repro.backends.base import KiB, MiB
from repro.pfs.phases import DataPhase, FileSet, MetaPhase
from repro.workloads import register_workload
from repro.workloads.base import Workload


@dataclass
class CheckpointRestart(Workload):
    """A climate-model-style checkpoint: bulk state + per-rank manifests."""

    checkpoint_bytes_per_rank: int = 256 * MiB
    chunk_size: int = 8 * MiB
    manifest_files_per_rank: int = 200

    def build_phases(self, cluster):
        state = FileSet(
            name="checkpoint.state",
            n_files=1,
            file_size=self.checkpoint_bytes_per_rank * self.n_ranks,
            shared=True,
        )
        manifests = FileSet(
            name="checkpoint.manifests",
            n_files=self.manifest_files_per_rank * self.n_ranks,
            file_size=4 * KiB,
            shared=False,
            n_dirs=self.n_ranks,
        )
        return [
            DataPhase(
                name="state.write",
                fileset=state,
                io="write",
                xfer_size=self.chunk_size,
                bytes_per_rank=self.checkpoint_bytes_per_rank,
                pattern="seq",
            ),
            MetaPhase(
                name="manifests.write",
                fileset=manifests,
                cycle=("create", "write_small", "close"),
                files_per_rank=self.manifest_files_per_rank,
                data_bytes=4 * KiB,
                data_persists=True,
            ),
            DataPhase(
                name="state.read",
                fileset=state,
                io="read",
                xfer_size=self.chunk_size,
                bytes_per_rank=self.checkpoint_bytes_per_rank,
                pattern="seq",
            ),
        ]


def main() -> None:
    register_workload(
        "CheckpointRestart", lambda: CheckpointRestart(name="CheckpointRestart")
    )
    cluster = make_cluster(seed=0)
    engine = Stellar.build(cluster, seed=0)
    session = engine.tune(get_workload("CheckpointRestart"), max_attempts=5)
    print(session.summary())
    print()
    print("Timeline:")
    print(session.transcript.render())


if __name__ == "__main__":
    main()
