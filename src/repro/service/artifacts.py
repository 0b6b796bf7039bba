"""Offline artifacts: one bundle per key, built once per process.

STELLAR runs its offline phase — RAG parameter extraction from the
manual — once, and every tuning session reuses the result.  A fleet
tenant's :class:`OfflineArtifacts` bundle (its testbed cluster spec and
the RAG :class:`~repro.rag.extraction.ExtractionResult`) is a pure
function of its key ``(backend, cluster_seed, seed)``: ``make_cluster``
and :func:`~repro.experiments.harness.shared_extraction` are seeded and
deterministic.  So no process ever needs another process's copy.
:func:`publish` builds a key's bundle on first use and hands the same
object back for the life of the process.

Tenant jobs carry only the key and call :func:`publish` in whichever
process runs them.  A fork-started worker created after the parent
published the key inherits the bundle; any other worker (spawn,
forkserver, or a fork that predates the key) builds an equal one, once.
Cross-start-method parity is asserted by ``tests/test_fleet_batch.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.hardware import ClusterSpec, make_cluster
from repro.experiments.harness import shared_extraction
from repro.rag.extraction import ExtractionResult


@dataclass(frozen=True)
class OfflineArtifacts:
    """The per-key bundle every tenant session reads."""

    cluster: ClusterSpec
    extraction: ExtractionResult


#: key -> bundle; fork-started workers inherit what the parent built.
_BUNDLES: dict[tuple[str, int, int], OfflineArtifacts] = {}


def publish(key: tuple[str, int, int]) -> OfflineArtifacts:
    """The bundle for ``key = (backend, cluster_seed, seed)``, built once."""
    bundle = _BUNDLES.get(key)
    if bundle is None:
        backend, cluster_seed, seed = key
        cluster = make_cluster(seed=cluster_seed, backend=backend)
        bundle = _BUNDLES[key] = OfflineArtifacts(
            cluster=cluster, extraction=shared_extraction(cluster, seed=seed)
        )
    return bundle
