"""Workload abstraction.

``compile`` memoizes the phase list per (workload, cluster): phases are
frozen dataclasses, ``build_phases`` is a pure function of the workload's
fields and the cluster, and the experiment harness instantiates the same
catalog workloads hundreds of times per figure.  The cache lives on the
cluster instance, so its lifetime (and pickling) follows the cluster and two
different testbeds never share entries.  Invariant: a ``ClusterSpec`` must
not be mutated after phases have been compiled against it — call
:func:`clear_phase_cache` if a test needs to do so.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.hardware import ClusterSpec
from repro.pfs.phases import Phase

#: Name of the per-cluster attribute holding compiled phase lists.
_PHASE_CACHE_ATTR = "_compiled_phase_cache"


def clear_phase_cache(cluster: ClusterSpec) -> None:
    """Drop memoized phase lists (needed only after mutating ``cluster``)."""
    cluster.__dict__.pop(_PHASE_CACHE_ATTR, None)


@dataclass
class Workload:
    """A benchmark or application run configuration.

    Subclasses implement :meth:`build_phases`.  ``traits`` carries ground
    truth workload characteristics for baselines and tests only — the agents
    never read it; they must infer behaviour from Darshan traces.
    """

    name: str = "workload"
    n_ranks: int = 50
    traits: dict = field(default_factory=dict)

    def cache_key(self) -> tuple:
        """Identity of this workload for phase memoization.

        The dataclass repr covers every field deterministically; subclasses
        whose ``build_phases`` reads state outside their fields must override
        this (or compilation would alias distinct workloads).
        """
        return (type(self).__qualname__, repr(self))

    def compile(self, cluster: ClusterSpec) -> list[Phase]:
        cache: dict[tuple, tuple[Phase, ...]] = cluster.__dict__.setdefault(
            _PHASE_CACHE_ATTR, {}
        )
        key = self.cache_key()
        phases = cache.get(key)
        if phases is None:
            built = self.build_phases(cluster)
            if not built:
                raise ValueError(f"workload {self.name} compiled to no phases")
            phases = tuple(built)
            cache[key] = phases
        return list(phases)

    def build_phases(self, cluster: ClusterSpec) -> list[Phase]:
        raise NotImplementedError
