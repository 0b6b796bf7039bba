"""Mixed-tenant fleet scenario: many tenants, shared knowledge, one pool.

The ROADMAP's north-star scenario in miniature: for every backend the
matrix schedules a data-heavy tenant, a metadata tenant, a mixed tenant and
a drifting-schedule tenant, all concurrently through the
:class:`~repro.service.daemon.FleetScheduler`.  The report shows each
tenant's mean tuning speedup (their sessions still match the
single-operator path bit for bit — scheduling changes *when* work runs,
never *what* it produces), the fleet-wide replay-merged rule journal, and
the aggregate session throughput the pool sustained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends import list_backends
from repro.cluster.hardware import ClusterSpec
from repro.service import FleetResult, FleetScheduler, TenantSpec

#: The full matrix covers every registered backend.
BACKENDS = tuple(list_backends())

#: Per-backend tenant archetypes: (suffix, workloads-or-schedule).
ARCHETYPES = (
    ("data", ("IOR_16M", "MACSio_16M")),
    ("meta", ("MDWorkbench_2K", "MDWorkbench_8K")),
    ("mixed", ("IO500", "IOR_64K")),
    ("drift", "regime_flip"),
)


def default_tenants(
    backends: tuple[str, ...] = BACKENDS, seed: int = 0
) -> list[TenantSpec]:
    """The mixed-tenant matrix: every archetype on every backend.

    Tenant seeds are distinct and strictly ordered, so the fleet journal's
    seed-order replay gives each tenant a stable position in the merged
    knowledge regardless of scheduling.
    """
    tenants = []
    for b_index, backend in enumerate(backends):
        for a_index, (suffix, work) in enumerate(ARCHETYPES):
            spec_kwargs = (
                {"schedule": work} if isinstance(work, str) else {"workloads": work}
            )
            tenants.append(
                TenantSpec(
                    tenant_id=f"{backend}-{suffix}",
                    backend=backend,
                    seed=seed * 1000 + b_index * 100 + a_index,
                    **spec_kwargs,
                )
            )
    return tenants


@dataclass
class FleetReport:
    """The fleet result plus the experiment's headline checks."""

    result: FleetResult
    tenants: list[TenantSpec] = field(default_factory=list)

    @property
    def improving_tenants(self) -> int:
        return sum(1 for t in self.result.tenants if t.mean_speedup > 1.0)

    def render(self) -> str:
        """The fleet's rendering with the improvement summary inserted above
        its machine-dependent ``aggregate:`` line, which stays last."""
        body, aggregate = self.result.render().rsplit("\n", 1)
        return "\n".join(
            [
                "Fleet scenario: mixed tenants per backend "
                f"({len(self.result.tenants)} tenants sharing offline artifacts "
                "and the run cache)",
                body,
                f"  {self.improving_tenants}/{len(self.result.tenants)} tenants "
                "improve on their defaults",
                aggregate,
            ]
        )


def run(
    cluster: ClusterSpec | None = None,
    seed: int = 0,
    backends: tuple[str, ...] = BACKENDS,
    max_workers: int | None = None,
    tenants: list[TenantSpec] | None = None,
) -> FleetReport:
    """Run the mixed-tenant matrix.

    ``cluster`` is accepted for signature parity with the figure
    experiments (its backend selects a single-backend matrix); the
    scheduler builds each tenant's testbed itself.
    """
    if cluster is not None:
        backends = (cluster.backend_name,)
    specs = tenants if tenants is not None else default_tenants(backends, seed=seed)
    scheduler = FleetScheduler(specs, seed=seed, max_workers=max_workers)
    return FleetReport(result=scheduler.run(), tenants=specs)
