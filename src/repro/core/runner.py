"""The Configuration Runner tool.

Applies a proposed configuration, runs the target application on the
(simulated) cluster with full between-run hygiene, and returns measured wall
time.  Out-of-range proposals are clipped to the nearest valid values — the
behaviour of ``lctl set_param`` refusing invalid writes and the admin tool
falling back — and the applied values are what the agent sees in its
history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.tuning import InvalidChanges
from repro.cluster.hardware import ClusterSpec
from repro.core.hygiene import HygieneLog
from repro.darshan import DarshanLog, trace_run, truncate_log
from repro.faults.plan import NO_FAULTS, FaultPlan
from repro.faults.retry import RetryPolicy, TransientFault
from repro.pfs.config import PfsConfig
from repro.pfs.simulator import RunResult, Simulator
from repro.workloads.base import Workload


@dataclass
class Execution:
    """One application execution performed by the runner."""

    changes: dict[str, int]
    seconds: float
    run: RunResult


class ConfigurationRunner:
    """Runs one workload under proposed configurations."""

    def __init__(
        self,
        cluster: ClusterSpec,
        workload: Workload,
        seed: int = 0,
        base_config: PfsConfig | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.cluster = cluster
        self.workload = workload
        self.seed = seed
        self.base_config = (
            base_config.copy()
            if base_config is not None
            else PfsConfig(facts=cluster.config_facts(), backend=cluster.backend)
        )
        self.hygiene = HygieneLog()
        self.executions: list[Execution] = []
        self.initial_seconds: float = 0.0
        self.initial_run: RunResult | None = None
        self.faults = faults or NO_FAULTS
        self.retry = retry if retry is not None else RetryPolicy()
        #: Absorbed probe faults (feeds the session's recovery record).
        self.fault_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    def initial_execution(self) -> tuple[RunResult, DarshanLog]:
        """The instrumented first run under the current defaults."""
        self.hygiene.run("before initial execution")
        run = self._run_once()
        self.initial_seconds = run.seconds
        self.initial_run = run
        self.executions.append(Execution(changes={}, seconds=run.seconds, run=run))
        log = trace_run(run, n_ranks=self.workload.n_ranks)
        key = f"darshan:{self.seed}:{self.workload.name}"
        if self.faults.should_fire("darshan.truncate", key):
            # Lose between half and ~all of the tail ranks; rank 0 and the
            # shared reduction records always survive.
            keep = self.faults.fraction("darshan.truncate", f"{key}:keep")
            log = truncate_log(log, keep_ranks=int(log.nprocs * 0.5 * keep) + 1)
            self.fault_counts["darshan.truncate"] = (
                self.fault_counts.get("darshan.truncate", 0) + 1
            )
        return run, log

    def measure(self, changes: dict[str, int]) -> tuple[float, dict[str, int]]:
        """Run with ``changes`` applied on top of defaults (clipped valid).

        Raises :class:`~repro.agents.tuning.InvalidChanges`, naming every
        unknown, ambiguous or read-only parameter, before anything runs.
        """
        if self.initial_run is None:
            raise RuntimeError("call initial_execution() before measure()")
        invalid = []
        for name in changes:
            try:
                spec = self.base_config.backend.param(name)
            except KeyError as exc:
                invalid.append(exc.args[0])
                continue
            if not spec.writable:
                invalid.append(f"parameter {spec.name} is read-only")
        if invalid:
            raise InvalidChanges(invalid)
        self.hygiene.run(f"before attempt {len(self.executions)}")
        config = self.base_config.with_updates(changes).clipped()
        applied = {name: config[name] for name in changes}
        run = self._run_once(config)
        self.executions.append(Execution(changes=applied, seconds=run.seconds, run=run))
        return run.seconds, applied

    def _run_once(self, config: PfsConfig | None = None) -> RunResult:
        """One probe run, retried through the fault plane when armed.

        The run seed is fixed before any attempt, so retries re-measure
        the *same* experiment, and an abandoned probe consumes no
        execution slot — later attempts draw the seeds they would have
        drawn in an unfaulted run.
        """
        config = config if config is not None else self.base_config
        run_seed = self._next_seed()
        if not self.faults.active:
            return self._evaluate(config, run_seed)
        key = f"probe:{self.seed}:{len(self.executions)}"

        def attempt(n: int) -> RunResult:
            if self.faults.should_fire("probe.run", f"{key}:a{n}"):
                raise TransientFault("probe.run", key=f"{key}:a{n}")
            return self._evaluate(config, run_seed)

        def record(fault: TransientFault, n: int, delay: float) -> None:
            self.fault_counts["probe.run"] = self.fault_counts.get("probe.run", 0) + 1

        return self.retry.execute(
            attempt, site="probe.run", key=key, plan=self.faults, record=record
        )

    def _evaluate(self, config: PfsConfig, run_seed: int) -> RunResult:
        """One simulated run."""
        return Simulator(self.cluster).run(self.workload, config, seed=run_seed)

    def _next_seed(self) -> int:
        return self.seed * 1000 + len(self.executions)

    @property
    def execution_count(self) -> int:
        return len(self.executions)
