"""Shared experiment machinery: repeated measurements and tuning sessions."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.hardware import ClusterSpec, make_cluster
from repro.core.engine import Stellar
from repro.core.session import TuningSession
from repro.experiments.parallel import pmap
from repro.experiments.stats import mean_ci90
from repro.pfs.config import PfsConfig
from repro.pfs.simulator import Simulator
from repro.rag.extraction import ExtractionResult
from repro.workloads import get_workload

#: The paper runs each case eight times.
DEFAULT_REPS = 8

_EXTRACTION_CACHE: dict[tuple[str, int], ExtractionResult] = {}


def shared_extraction(cluster: ClusterSpec, seed: int = 0) -> ExtractionResult:
    """The offline phase is deterministic; share it across experiments."""
    key = (cluster.backend_name, seed)
    if key not in _EXTRACTION_CACHE:
        _EXTRACTION_CACHE[key] = Stellar.build(cluster, seed=seed).extraction
    return _EXTRACTION_CACHE[key]


@dataclass
class Measurement:
    """Repeated wall-time measurement of one configuration."""

    label: str
    times: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return mean_ci90(self.times)[0]

    @property
    def ci90(self) -> float:
        return mean_ci90(self.times)[1]

    def render(self) -> str:
        return f"{self.label}: {self.mean:.2f}s +/- {self.ci90:.2f} (90% CI)"


def measure_config(
    cluster: ClusterSpec,
    workload_name: str,
    updates: dict[str, int],
    label: str,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
) -> Measurement:
    """Run one configuration ``reps`` times with hygiene between runs.

    All reps share a single model evaluation (the config is identical), with
    per-rep noise seeded via :meth:`RngStreams.rep_seed` — the same
    derivation every repeated-run call site uses.  Implemented over
    :func:`measure_configs`, so model evaluations are served from the
    process-wide run cache.
    """
    return measure_configs(
        cluster, workload_name, [updates], [label], reps=reps, seed=seed
    )[0]


def measure_configs(
    cluster: ClusterSpec,
    workload_name: str,
    updates_list: list[dict[str, int]],
    labels: list[str],
    reps: int = DEFAULT_REPS,
    seed: int = 0,
) -> list[Measurement]:
    """Measure several configurations of one workload in a single sweep.

    The cartesian (config x rep-seed) grid (:func:`repro.sim.sweep.grid_items`)
    goes through one :func:`~repro.sim.sweep.run_items` call, which costs
    each configuration once.  Results are bit-identical to calling
    :func:`measure_config` per entry.  Each configuration's noise-free
    model evaluation comes from the process-wide run cache, so a
    measurement's cost depends on what ran before it: a (workload, config)
    pair any earlier run costed, under any seeds, pays only its noise and
    result assembly.  Callers that time the model itself measure inside
    ``RUN_CACHE.disabled()``.
    """
    from repro.sim.random import RngStreams
    from repro.sim.sweep import grid_items, run_items

    if len(updates_list) != len(labels):
        raise ValueError("updates_list and labels must align")
    sim = Simulator(cluster)
    base = PfsConfig(facts=cluster.config_facts(), backend=cluster.backend)
    configs = [base.with_updates(updates).clipped() for updates in updates_list]
    workload = get_workload(workload_name)
    seeds = [RngStreams.rep_seed(seed, rep) for rep in range(reps)]
    runs = run_items(sim, grid_items(workload, configs, seeds))
    return [
        Measurement(
            label=label,
            times=[run.seconds for run in runs[index * reps : (index + 1) * reps]],
        )
        for index, label in enumerate(labels)
    ]


def one_session(
    cluster: ClusterSpec,
    workload_name: str,
    model: str,
    extraction: ExtractionResult,
    rule_set,
    engine_seed: int,
    tune_kwargs: dict,
) -> TuningSession:
    """One independent tuning run — THE per-rep body.

    Both the sequential loop below and the process-pool fan-out in
    :mod:`repro.experiments.parallel` call this, so the two paths cannot
    drift apart.
    """
    engine = Stellar(
        cluster=cluster, model=model, extraction=extraction, seed=engine_seed
    )
    if rule_set is not None:
        engine.rule_set = rule_set
    return engine.tune(get_workload(workload_name), **tune_kwargs)


def _session_job(args: tuple) -> TuningSession:
    """Picklable adapter: one jobs-tuple -> :func:`one_session`."""
    return one_session(*args)


def run_sessions(
    cluster: ClusterSpec,
    workload_name: str,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
    model: str = "claude-3.7-sonnet",
    extraction: ExtractionResult | None = None,
    rule_engine: Stellar | None = None,
    rule_set=None,
    max_workers: int | None = 1,
    **tune_kwargs,
) -> list[TuningSession]:
    """``reps`` independent tuning runs (fresh rules unless an accumulated
    ``rule_set`` — or an engine carrying one — is supplied).

    Rep ``i`` seeds its engine ``seed + i``.  This is THE sessions wrapper:
    ``max_workers=1`` (the default) runs inline; anything else fans the reps
    over :func:`repro.experiments.parallel.pmap` with identical results
    (``None`` = auto-size from the machine).
    """
    if extraction is None:
        extraction = shared_extraction(cluster)
    if rule_set is None and rule_engine is not None:
        rule_set = rule_engine.rule_set
    jobs = [
        (cluster, workload_name, model, extraction, rule_set, seed + rep, tune_kwargs)
        for rep in range(reps)
    ]
    if max_workers == 1:
        return [one_session(*job) for job in jobs]
    return pmap(_session_job, jobs, max_workers=max_workers)


def accumulate_rules(
    cluster: ClusterSpec,
    workload_names: list[str],
    seed: int = 0,
    model: str = "claude-3.7-sonnet",
    extraction: ExtractionResult | None = None,
) -> Stellar:
    """Tune each workload once, merging rules into a global set (§5.3)."""
    if extraction is None:
        extraction = shared_extraction(cluster)
    engine = Stellar(cluster=cluster, model=model, extraction=extraction, seed=seed)
    for name in workload_names:
        engine.tune_and_accumulate(get_workload(name))
    return engine


def mean_series(sessions: list[TuningSession], length: int = 6) -> list[float]:
    """Mean speedup per iteration across sessions (padded with last value)."""
    rows = []
    for session in sessions:
        series = session.speedup_series()
        padded = series + [series[-1]] * (length - len(series))
        rows.append(padded[:length])
    return [sum(col) / len(col) for col in zip(*rows)]
