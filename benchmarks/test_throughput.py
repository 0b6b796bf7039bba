"""Bench: raw harness throughput (sessions/sec, batched and swept runs/sec,
fleet sessions/sec).

Unlike the figure benches, this measures the *machinery* rather than a paper
artifact: how many simulated application runs, candidate-grid configs, full
tuning sessions and multi-tenant fleet sessions the harness sustains per
second.  The figures are written to the path named by the
``BENCH_THROUGHPUT_OUT`` environment variable (the CI bench job sets it;
point it at ``BENCH_throughput.json`` to refresh the tracked trajectory).
Unset, the bench measures and asserts but writes nothing, so a test run
leaves the working tree clean.

The candidate-grid section runs one scalar ``Simulator.run`` per config
and sweeps the same configs through ``run_items`` in search-shaped groups
of three (the coordinate-descent baseline's sweeps hold 1–4 candidates),
so added per-group overhead shows up as a drop in
``small_sweep_configs_per_sec``.  The process-wide ``RUN_CACHE`` serves
every run by default, so every real-work arm runs inside
``RUN_CACHE.disabled()`` (the fleet, service and degraded arms pass
``use_cache=False``, which does the same per tenant); only the cached
re-run of the grid, recorded separately, runs in the default scope.
``BENCH_throughput.json`` is only ever written by running this bench, never
edited by hand.
"""

import json
import os
from itertools import product
from statistics import median
from pathlib import Path
from time import perf_counter

from bench_settings import BENCH_REPS

from repro.agents.policies import list_policies
from repro.core.engine import Stellar
from repro.experiments.harness import run_sessions, shared_extraction
from repro.faults import FaultPlan
from repro.pfs.config import PfsConfig
from repro.pfs.simulator import Simulator
from repro.service import FleetScheduler, TenantSpec, TuningService, run_tenant
from repro.service.scheduler import ArtifactCatalog
from repro.sim.cache import RUN_CACHE
from repro.sim.random import RngStreams
from repro.sim.sweep import grid_items, run_items
from repro.workloads import get_workload

#: Environment variable naming the file the figures are written to.
OUTPUT_ENV = "BENCH_THROUGHPUT_OUT"

N_BATCHED = 400
N_SEQUENTIAL = 80
N_SESSIONS = BENCH_REPS
#: Candidate-grid shape: >= 64 distinct configs of a many-phase workload.
N_GRID = 128
GRID_WORKLOAD = "IO500"
#: Search-shaped sweeps: the grid's configs in groups of this many.
SMALL_SWEEP = 3
#: Fleet shape: enough tenants (and sessions) that pool start-up amortizes.
N_FLEET_TENANTS = 16
FLEET_QUEUE = ("IOR_64K", "IOR_16M", "MDWorkbench_8K", "IO500")
#: Per-policy arm: a handful of full tuning sessions per agent policy.
N_POLICY_SESSIONS = 4


def build_fleet(n: int = N_FLEET_TENANTS) -> list[TenantSpec]:
    """``n`` mixed tenants alternating backends, distinct seeds."""
    backends = ("lustre", "beegfs")
    return [
        TenantSpec(
            f"bench-{i:02d}",
            backend=backends[i % len(backends)],
            workloads=FLEET_QUEUE,
            seed=900 + i,
        )
        for i in range(n)
    ]


def build_grid(cluster, n: int) -> list[PfsConfig]:
    """``n`` distinct valid configs from the backend's search candidates."""
    base = PfsConfig(facts=cluster.config_facts(), backend=cluster.backend)
    grids = cluster.backend.search_candidates
    names = list(grids)[:5]
    configs, seen = [], set()
    for combo in product(*(grids[name] for name in names)):
        config = base.with_updates(dict(zip(names, combo))).clipped()
        key = config.cache_key()
        if key in seen:
            continue
        seen.add(key)
        configs.append(config)
        if len(configs) == n:
            break
    assert len(configs) == n, f"search grids yield only {len(configs)} configs"
    return configs


def test_throughput(benchmark, cluster):
    sim = Simulator(cluster)
    workload = get_workload("IOR_64K")
    config = PfsConfig(facts=cluster.config_facts())
    extraction = shared_extraction(cluster)

    # Both arms run the same seeds.  One untimed pass memoizes their noise
    # factors first, so neither arm pays noise seeding and the ratio prices
    # only run_items' model dedup.
    with RUN_CACHE.disabled():
        sim.run_repetitions(workload, config, N_BATCHED, seed=1)
        start = perf_counter()
        batched = sim.run_repetitions(workload, config, N_BATCHED, seed=1)
        batched_elapsed = perf_counter() - start

        start = perf_counter()
        sequential = [
            sim.run(workload, config, seed=RngStreams.rep_seed(1, i))
            for i in range(N_SEQUENTIAL)
        ]
        sequential_elapsed = perf_counter() - start

    # -- candidate grid: scalar per config vs small sweeps vs cached rerun ----
    grid_workload = get_workload(GRID_WORKLOAD)
    grid_configs = build_grid(cluster, N_GRID)
    items = grid_items(grid_workload, grid_configs, [RngStreams.rep_seed(2, 0)])

    def run_scalar_grid():
        with RUN_CACHE.disabled():
            return [sim.run(w, c, seed=s) for w, c, s in items]

    run_scalar_grid()  # warm phase/expression caches

    def best_of(runner, rounds=3):
        """(elapsed, result) of the fastest round — one-shot timings flake
        on loaded CI runners."""
        best = None
        for _ in range(rounds):
            start = perf_counter()
            result = runner()
            elapsed = perf_counter() - start
            if best is None or elapsed < best[0]:
                best = (elapsed, result)
        return best

    # Search-shaped sweeps: one run_items call per SMALL_SWEEP configs.
    small_sweeps = [
        items[start : start + SMALL_SWEEP]
        for start in range(0, N_GRID - N_GRID % SMALL_SWEEP, SMALL_SWEEP)
    ]
    n_small = len(small_sweeps) * SMALL_SWEEP

    def run_small_sweeps():
        with RUN_CACHE.disabled():
            return [run for sweep in small_sweeps for run in run_items(sim, sweep)]

    run_small_sweeps()  # warm the sweep path

    grid_scalar_elapsed, grid_scalar = best_of(run_scalar_grid)
    small_elapsed, small_swept = best_of(run_small_sweeps)

    # The default scope: every run is served from the cache.
    run_items(sim, items)  # prime the cache
    cached_elapsed, cached = best_of(lambda: run_items(sim, items))

    with RUN_CACHE.disabled():
        start = perf_counter()
        sessions = run_sessions(
            cluster, "IOR_64K", reps=N_SESSIONS, seed=0, extraction=extraction
        )
        sessions_elapsed = perf_counter() - start

    # -- fleet: many tenants over the scheduler pool vs sequential loops ----
    # Both arms run with the cache inactive (the standing bench convention:
    # throughput figures measure real work) so they differ ONLY by the
    # scheduler's pool.
    fleet_tenants = build_fleet()
    scheduler = FleetScheduler(fleet_tenants, seed=0, use_cache=False)
    # Warm the per-backend shared artifacts so no arm pays extraction.
    catalog = ArtifactCatalog(seed=0)
    arms = [
        (spec, catalog.cluster_for(spec), catalog.extraction_for(spec))
        for spec in fleet_tenants
    ]

    def run_fleet_sequential():
        return [
            run_tenant(spec, cluster_, extraction_, use_cache=False)
            for spec, cluster_, extraction_ in arms
        ]

    # Alternating rounds, so a burst of machine load hits both arms alike;
    # the fastest round of each arm is the recorded figure.
    sequential_rounds, fleet_rounds = [], []
    for _ in range(3):
        start = perf_counter()
        outcomes = run_fleet_sequential()
        sequential_rounds.append((perf_counter() - start, outcomes))
        result = scheduler.run()
        fleet_rounds.append((result.elapsed, result))
    sequential_fleet_elapsed, sequential_fleet = min(
        sequential_rounds, key=lambda r: r[0]
    )
    fleet_elapsed, fleet = min(fleet_rounds, key=lambda r: r[0])
    fleet_sequential_sps = fleet.total_sessions / sequential_fleet_elapsed

    # -- tuning service: the same tenants through the daemon front door -----
    # Submit the whole fleet to a TuningService and drain: measures what the
    # long-lived path (admission, per-wave pumping, checkpoint-free here)
    # costs over the batch scheduler.  Drain is once-per-service, so each
    # round gets a fresh daemon.
    def run_service():
        service = TuningService(seed=0, use_cache=False, pump_interval=4)
        for spec in fleet_tenants:
            assert service.submit(spec).accepted
        return service.drain()

    service_elapsed, service_fleet = None, None
    for _ in range(2):
        result = run_service()
        if service_elapsed is None or result.elapsed < service_elapsed:
            service_elapsed, service_fleet = result.elapsed, result
    service_sps = service_fleet.total_sessions / service_elapsed

    # -- streaming service: time-to-first-result, in sessions not seconds ---
    # `iter_results` yields each tenant the moment its canonical prefix is
    # complete.  `first_result_sessions` counts the sessions that had
    # completed anywhere in the fleet when the first result streamed out —
    # a wall-clock-free latency proxy (lower is better; a batch drain would
    # score the whole fleet).
    streaming_service = TuningService(seed=0, use_cache=False, pump_interval=None)
    for spec in fleet_tenants:
        assert streaming_service.submit(spec).accepted
    streamed = list(streaming_service.iter_results())
    first_result_sessions = streaming_service.first_result_sessions

    # -- degraded fleet: the same pool absorbing a 10% fault plan -----------
    # Measures resilience overhead: retries, backoff accounting and (rarely)
    # quarantine handling, with the cache off like the other fleet arms.
    degraded_scheduler = FleetScheduler(
        fleet_tenants, seed=0, use_cache=False, faults=FaultPlan.uniform(0.1, seed=0)
    )
    degraded_elapsed, degraded = None, None
    for _ in range(2):
        result = degraded_scheduler.run()
        if degraded_elapsed is None or result.elapsed < degraded_elapsed:
            degraded_elapsed, degraded = result.elapsed, result
    degraded_sps = degraded.total_sessions / degraded_elapsed

    # -- agent policies: full sessions per turn-taking strategy -------------
    # Alternative policies spend extra model turns (decide/thought for
    # ReACT, a critic pass per proposal); this records what each strategy
    # costs in sessions/sec so policy overhead regressions are visible.
    policy_sps = {}
    for policy_name in list_policies():
        policy_engine = Stellar(
            cluster=cluster,
            model="claude-3.7-sonnet",
            extraction=extraction,
            seed=0,
            policy=policy_name,
        )
        with RUN_CACHE.disabled():
            start = perf_counter()
            policy_sessions = [
                policy_engine.tune(get_workload("IOR_64K"), seed=i)
                for i in range(N_POLICY_SESSIONS)
            ]
            policy_sps[policy_name] = N_POLICY_SESSIONS / (perf_counter() - start)
        assert all(s.best_speedup > 0 for s in policy_sessions)

    # The pytest-benchmark row tracks the search-shaped sweeps.
    benchmark.pedantic(run_small_sweeps, rounds=1, iterations=1)

    batched_rps = N_BATCHED / batched_elapsed
    sequential_rps = N_SEQUENTIAL / sequential_elapsed
    grid_scalar_cps = N_GRID / grid_scalar_elapsed
    small_cps = n_small / small_elapsed
    cached_rps = N_GRID / cached_elapsed
    sessions_ps = N_SESSIONS / sessions_elapsed
    fleet_sps = fleet.total_sessions / fleet_elapsed
    payload = {
        "workload": workload.name,
        "cpu_count": os.cpu_count(),
        "batched_runs_per_sec": round(batched_rps, 1),
        "sequential_runs_per_sec": round(sequential_rps, 1),
        "batch_speedup_vs_sequential": round(batched_rps / sequential_rps, 2),
        "grid_workload": GRID_WORKLOAD,
        "grid_scalar_configs_per_sec": round(grid_scalar_cps, 1),
        "small_sweep_configs_per_sec": round(small_cps, 1),
        "cached_rerun_runs_per_sec": round(cached_rps, 1),
        "sessions_per_sec": round(sessions_ps, 2),
        "fleet_sessions_per_sec": round(fleet_sps, 2),
        "fleet_sequential_sessions_per_sec": round(fleet_sequential_sps, 2),
        "service_sessions_per_sec": round(service_sps, 2),
        "service_first_result_sessions": first_result_sessions,
        "degraded_sessions_per_sec": round(degraded_sps, 2),
        "degraded_quarantined_tenants": len(degraded.failures),
        **{
            f"policy_sessions_per_sec_{name}": round(sps, 2)
            for name, sps in policy_sps.items()
        },
        "n_policy_sessions": N_POLICY_SESSIONS,
        "fleet_workers": fleet.workers,
        "n_batched": N_BATCHED,
        "n_sequential": N_SEQUENTIAL,
        "n_grid_configs": N_GRID,
        "small_sweep_size": SMALL_SWEEP,
        "n_sessions": N_SESSIONS,
        "n_fleet_tenants": N_FLEET_TENANTS,
        "n_fleet_sessions": fleet.total_sessions,
    }
    output = os.environ.get(OUTPUT_ENV)
    if output:
        Path(output).write_text(json.dumps(payload, indent=2) + "\n")
    print("\n" + json.dumps(payload, indent=2))

    # Sanity: the batch really ran, matches the sequential prefix bit for
    # bit, and dedup makes the batched path strictly faster per run.
    assert len(batched) == N_BATCHED
    assert [r.seconds for r in batched[:N_SEQUENTIAL]] == [
        r.seconds for r in sequential
    ]
    assert batched_rps > sequential_rps
    # The sweeps are bit-identical to scalar runs on the same grid; the
    # cached rerun returns the same results without evaluating.
    assert [r.seconds for r in small_swept] == [
        r.seconds for r in grid_scalar[:n_small]
    ]
    assert [r.seconds for r in cached] == [r.seconds for r in grid_scalar]
    assert cached_rps > small_cps
    assert sessions and all(s.best_seconds > 0 for s in sessions)
    # The fleet produces exactly the sequential loop's sessions (scheduling
    # changes when work runs, never what it produces), and on multi-core
    # runners the pool makes it faster than N sequential
    # tune_and_accumulate chains.  Single-core boxes run the pool inline,
    # so there is nothing to beat there.  One timing per arm sits inside
    # a shared runner's noise, so the check fails only when the fleet's
    # median round is slower than the sequential arm's slowest round.
    assert [
        [s.best_speedup for s in t.sessions] for t in fleet.tenants
    ] == [[s.best_speedup for s in t.sessions] for t in sequential_fleet]
    # The daemon is invisible in results: a drained service is the batch
    # fleet (seeds are strictly increasing, so canonical drain order is
    # submission order).
    assert [
        [s.best_speedup for s in t.sessions] for t in service_fleet.tenants
    ] == [[s.best_speedup for s in t.sessions] for t in fleet.tenants]
    # The stream yields the canonical (= submission) order, and the wave
    # runs in that order, so the first result leaves after one tenant's
    # queue.
    assert [o.tenant_id for o in streamed] == [
        s.tenant_id for s in fleet_tenants
    ]
    assert first_result_sessions == len(FLEET_QUEUE)
    if fleet.workers > 1:
        fleet_median = median(elapsed for elapsed, _ in fleet_rounds)
        sequential_slowest = max(elapsed for elapsed, _ in sequential_rounds)
        assert fleet_median <= sequential_slowest, (
            f"fleet median round {fleet_median:.3f}s is slower than the "
            f"slowest sequential round {sequential_slowest:.3f}s"
        )
    # The degraded fleet never aborts: every tenant either completed or was
    # quarantined with a report, and the plan really injected faults.
    assert len(degraded.outcomes) == N_FLEET_TENANTS
    assert len(degraded.tenants) + len(degraded.failures) == N_FLEET_TENANTS
    absorbed = sum(
        count
        for tenant in degraded.tenants
        for session in tenant.sessions
        for count in session.fault_recovery.values()
    )
    assert absorbed > 0
    # Every policy arm really sustained throughput.
    assert all(sps > 0 for sps in policy_sps.values())
