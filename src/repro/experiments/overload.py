"""Overload sweep: the tuning service under rising offered load.

For every backend the sweep offers increasing submission bursts to a
:class:`~repro.service.daemon.TuningService` guarded by a deliberately
tight :class:`~repro.service.admission.AdmissionPolicy` and reports, per
cell: how much load was admitted, what was shed (split by cause — the
per-principal rate limit vs global backpressure), how deep admitted
tenants queued (the wall-clock-free latency analogue: queue depth at
admission, in slots), and how the admitted work ended (completed vs
quarantined).

Two invariants the render asserts in prose and CI asserts in bytes:

- **Sheds are deterministic.**  Admission is a pure function of the
  submission sequence, so the shed set is identical at any worker count.
- **No admitted tenant is lost.**  Every admitted submission ends as a
  completed result or a quarantine report; shedding is explicit, never
  silent.

The rendered report contains no wall-clock lines, so it is byte-identical
across worker counts — the whole report is a determinism fixture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends import list_backends
from repro.cluster.hardware import ClusterSpec
from repro.faults.plan import FaultPlan
from repro.service import FleetResult, TenantSpec, TuningService
from repro.service.admission import AdmissionPolicy

#: The full sweep covers every registered backend.
BACKENDS = tuple(list_backends())

#: Offered loads (submissions per burst), small-to-swamped.
DEFAULT_LOADS = (4, 8, 16)

#: The deliberately tight front door the sweep drives load against.
DEFAULT_ADMISSION = AdmissionPolicy(max_pending=6, per_tenant_limit=2, window=12)

#: Principals sharing the service; tenant i belongs to account i mod N.
PRINCIPALS = 3

#: One cheap workload per tenant, cycled by index.
_WORKLOADS = ("IOR_16M", "MDWorkbench_8K", "IOR_64K", "IO500")


def offered_tenants(backend: str, load: int, seed: int) -> list[TenantSpec]:
    """The burst of ``load`` submissions offered to one cell's service.

    Hierarchical ids (``acctN/jobM``) make the rate limit bite per
    account; seeds are strictly increasing in submission order, so the
    drained fleet's canonical order matches submission order.
    """
    return [
        TenantSpec(
            tenant_id=f"{backend[:2]}-acct{i % PRINCIPALS}/job{i:02d}",
            backend=backend,
            workloads=(_WORKLOADS[i % len(_WORKLOADS)],),
            seed=seed * 100_000 + load * 100 + i,
        )
        for i in range(load)
    ]


@dataclass
class OverloadCell:
    """One (backend, offered load) burst against the service."""

    backend: str
    offered: int
    admitted: int
    shed_rate: int
    shed_backpressure: int
    queue_depths: list[int]
    result: FleetResult

    @property
    def shed(self) -> int:
        return self.shed_rate + self.shed_backpressure

    @property
    def completed(self) -> int:
        return len(self.result.tenants)

    @property
    def quarantined(self) -> int:
        return len(self.result.failures)

    @property
    def completion_rate(self) -> float:
        if not self.admitted:
            return 1.0
        return self.completed / self.admitted

    @property
    def mean_queue_depth(self) -> float:
        """Mean queue depth at admission over admitted tenants (slots)."""
        if not self.queue_depths:
            return 0.0
        return sum(self.queue_depths) / len(self.queue_depths)


@dataclass
class OverloadReport:
    """Every cell of the sweep plus the service's loss accounting."""

    cells: list[OverloadCell] = field(default_factory=list)
    seed: int = 0
    rate: float = 0.0

    def render(self) -> str:
        lines = [
            "Overload sweep: admission control under rising offered load "
            f"(seed {self.seed}, fault rate {self.rate:.2f})"
        ]
        lines.append(
            "  load table: backend offered admitted shed(rate) shed(press) "
            "completed quarantined completion queue_depth"
        )
        for cell in self.cells:
            lines.append(
                f"    {cell.backend:8s} {cell.offered:7d} {cell.admitted:8d} "
                f"{cell.shed_rate:10d} {cell.shed_backpressure:11d} "
                f"{cell.completed:9d} {cell.quarantined:11d} "
                f"{cell.completion_rate:10.2f} {cell.mean_queue_depth:11.2f}"
            )
        lines.append(
            "  contract: offered = admitted + shed; every admitted tenant "
            "completed or was quarantined (none lost); sheds are a pure "
            "function of the submission sequence"
        )
        return "\n".join(lines)


def run(
    cluster: ClusterSpec | None = None,
    seed: int = 0,
    backends: tuple[str, ...] = BACKENDS,
    loads: tuple[int, ...] = DEFAULT_LOADS,
    admission: AdmissionPolicy = DEFAULT_ADMISSION,
    rate: float = 0.0,
    max_workers: int | None = None,
) -> OverloadReport:
    """Run the overload sweep.

    ``cluster`` is accepted for signature parity with the figure
    experiments (its backend selects a single-backend sweep); ``rate``
    arms a uniform fault plan so overload and fault pressure compose.
    Execution is deferred to drain (no auto-pump), so the queue genuinely
    builds up and the backpressure bound genuinely binds.
    """
    if cluster is not None:
        backends = (cluster.backend_name,)
    plan = FaultPlan.uniform(rate, seed=seed) if rate > 0.0 else None
    cells = []
    for backend in backends:
        for load in loads:
            service = TuningService(
                seed=seed,
                max_workers=max_workers,
                faults=plan,
                admission=admission,
                pump_interval=None,
            )
            depths = []
            for spec in offered_tenants(backend, load, seed):
                depth = service.admission.pending
                decision = service.submit(spec)
                if decision.accepted:
                    depths.append(depth)
            result = service.drain()
            shed = service.admission.shed()
            shed_rate = sum(1 for d in shed if d.reason.startswith("rate"))
            shed_press = sum(
                1 for d in shed if d.reason.startswith("backpressure")
            )
            admitted = load - len(shed)
            if admitted != len(result.outcomes):  # pragma: no cover
                raise AssertionError(
                    f"admitted tenant lost: {admitted} admitted, "
                    f"{len(result.outcomes)} accounted for"
                )
            cells.append(
                OverloadCell(
                    backend=backend,
                    offered=load,
                    admitted=admitted,
                    shed_rate=shed_rate,
                    shed_backpressure=shed_press,
                    queue_depths=depths,
                    result=result,
                )
            )
    return OverloadReport(cells=cells, seed=seed, rate=rate)
