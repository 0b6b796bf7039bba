"""One workload process: set up, serve a closed-loop client, check, report.

Started by ``run.py`` with the workload name and a file holding the
generated requests.  It prints ``READY`` once the first request could be
served (the end of set-up), then one JSON line with its measurements.
With ``--setup-only`` it exits right after ``READY``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import random
import resource
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from stats import percentile  # noqa: E402
from speed import SpeedProbe, time_units  # noqa: E402
from spans import (  # noqa: E402
    CONFIG_SPANS,
    LLM_AGENTS,
    Tracer,
    install,
    outermost_total,
    summarize,
)

#: Requests every run completes, however short its window: the quality
#: guards (speedup, tokens) and the traced/untraced fingerprint comparison
#: are taken over exactly this prefix, so they are fixed by the seed.
#: Each prefix holds whole cycles of its workload's mix: 8 x (2 backends x
#: 3 policies) engines, 15 search rounds, 4 service rounds.  Every prefix
#: also yields at least 100 latency samples.
PREFIX = {"tune-seq": 48, "search": 120, "service-stream": 4}
#: Engine queues / searches re-run from scratch by the output checks.
N_SAMPLED = 2
#: Reference units timed before set-up, and between service rounds.
SETUP_SPEED_UNITS = 100
SERVICE_SPEED_UNITS = 200
#: Metrics scaled to the nominal machine speed (see ``speed.py``).
RATES = ("sessions_per_s", "configs_per_s")
TIMES = ("latency_p50_ms", "latency_p90_ms", "first_result_s")


def digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak RSS so far.  Workloads read it when the fixed request prefix
    completes, so it compares equal amounts of work: the program's bounded
    memo caches keep growing with every request a faster run serves."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Shared bookkeeping: checks, latency samples, tracer pausing."""

    name = ""

    def __init__(self, seed: int, tracer: Tracer | None):
        self.seed = seed
        self.tracer = tracer
        self.checks: dict[str, bool] = {}
        self.failed = 0
        self.speed = SpeedProbe()
        self.unbound: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        """Record one output check; a failure counts as a failed request."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {name}", file=sys.stderr)

    def pause(self) -> None:
        if self.tracer is not None:
            self.tracer.active = False

    def resume(self) -> None:
        if self.tracer is not None:
            self.tracer.active = True

    def start_tracing(self) -> None:
        """Wrap the layer boundaries; set-up from here on is traced."""
        if self.tracer is not None:
            self.unbound = install(self.tracer)
            self.tracer.active = True

    def begin_request(self, request_id: int) -> None:
        if self.tracer is not None:
            self.tracer.request = request_id

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def latency_metrics(self, latencies: list[float]) -> dict:
        return {
            "latency_p50_ms": percentile(latencies, 0.5) * 1000.0,
            "latency_p90_ms": percentile(latencies, 0.9) * 1000.0,
        }


# ---------------------------------------------------------------------------
# tune-seq
# ---------------------------------------------------------------------------
class TuneSeq(Workload):
    """Fresh engines, each running the four-workload queue with rule merges."""

    name = "tune-seq"

    def setup(self) -> None:
        from repro.cluster.hardware import make_cluster
        from repro.core.engine import Stellar
        from repro.experiments.harness import shared_extraction
        from repro.rules.store import session_to_dict
        from repro.workloads import get_workload

        self.start_tracing()
        self.Stellar = Stellar
        self.get_workload = get_workload
        self.session_to_dict = session_to_dict
        self.clusters = {b: make_cluster(seed=0, backend=b) for b in inputs.BACKENDS}
        self.extractions = {
            b: shared_extraction(c, seed=0) for b, c in self.clusters.items()
        }

    def engine(self, spec: dict):
        engine = self.Stellar.build(
            self.clusters[spec["backend"]],
            seed=spec["seed"],
            extraction=self.extractions[spec["backend"]],
        )
        engine.policy = spec["policy"]
        return engine

    def fingerprint(self, sessions, engine) -> list[str]:
        return [digest(self.session_to_dict(s)) for s in sessions] + [
            digest(engine.journal.to_json())
        ]

    def run(self, requests: list[dict], seconds: float) -> dict:
        latencies, firsts = [], []
        sessions = executions = attempted = 0
        prefix = []  # (spec, sessions, engine) of the first PREFIX engines
        start = perf_counter()
        deadline = start + seconds
        for index, spec in enumerate(requests):
            if index >= PREFIX[self.name] and perf_counter() >= deadline:
                break
            engine_start = perf_counter()
            engine = self.engine(spec)
            done = []
            for name in inputs.QUEUE:
                self.begin_request(attempted)
                attempted += 1
                t0 = perf_counter()
                try:
                    session = engine.tune_and_accumulate(self.get_workload(name))
                except Exception as exc:  # noqa: BLE001 - counted, run continues
                    print(f"perfbench: session failed: {exc!r}", file=sys.stderr)
                    self.failed += 1
                    break
                t1 = perf_counter()
                latencies.append(t1 - t0)
                if not done:
                    firsts.append(t1 - engine_start)
                done.append(session)
                sessions += 1
                executions += session.executions
                self.speed.sample()
            if index < PREFIX[self.name]:
                prefix.append((spec, done, engine))
                rss = peak_rss_mb()
        elapsed = perf_counter() - start - self.speed.total_s

        self.pause()
        fingerprints = []
        for _, done, engine in prefix:
            fingerprints.extend(self.fingerprint(done, engine))
        # Output check: sampled engine queues re-run from scratch must
        # reproduce every session and the merged journal byte for byte.
        rng = random.Random(f"check:{self.seed}")
        for spec, done, engine in rng.sample(prefix, N_SAMPLED):
            again = self.engine(spec)
            redo = [
                again.tune_and_accumulate(self.get_workload(name))
                for name in inputs.QUEUE
            ]
            self.check(
                "tune-seq.rerun_identical",
                self.fingerprint(redo, again) == self.fingerprint(done, engine),
            )
        prefix_sessions = [s for _, done, _ in prefix for s in done]
        usage = [u for s in prefix_sessions for u in s.usage.values()]
        tokens = sum(
            u.input_tokens - u.cached_input_tokens + u.output_tokens for u in usage
        )
        return {
            "attempted": attempted,
            "requests": sessions,
            "elapsed_s": elapsed,
            "metrics": {
                "sessions_per_s": sessions / elapsed,
                "configs_per_s": executions / elapsed,
                **self.latency_metrics(latencies),
                "first_result_s": median(firsts),
                "peak_rss_mb": rss,
                "speedup_mean": sum(s.best_speedup for s in prefix_sessions)
                / len(prefix_sessions),
            },
            "extra": {"tokens_per_session": tokens / len(prefix_sessions)},
            "samples": {"latency": len(latencies), "first_result": len(firsts)},
            "fingerprints": fingerprints,
        }


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------
class Search(Workload):
    """Oracle coordinate-descent searches over the backend x workload cells."""

    name = "search"

    def setup(self) -> None:
        from repro.baselines.search import OracleSearch
        from repro.cluster.hardware import make_cluster
        from repro.pfs.simulator import Simulator
        from repro.sim.cache import RUN_CACHE
        from repro.sim.random import RngStreams
        from repro.workloads import get_workload

        self.start_tracing()
        self.OracleSearch = OracleSearch
        self.Simulator = Simulator
        self.RngStreams = RngStreams
        self.cache = RUN_CACHE
        self.clusters = {b: make_cluster(seed=0, backend=b) for b in inputs.BACKENDS}
        self.workloads = {w: get_workload(w) for w in inputs.SEARCH_WORKLOADS}

    @staticmethod
    def fingerprint(result) -> str:
        return digest(
            [
                result.best_updates,
                result.best_seconds,
                result.default_seconds,
                result.evaluations,
                result.trace,
            ]
        )

    def run(self, requests: list[dict], seconds: float) -> dict:
        latencies, firsts, fingerprints, speedups = [], [], [], []
        evaluations = served = 0
        sampled = []  # (request, fingerprint) of fresh prefix searches
        round_fresh: dict[tuple, str] = {}
        hits0, misses0 = self.cache.hits, self.cache.misses
        start = perf_counter()
        deadline = start + seconds
        for index, request in enumerate(requests):
            if index >= PREFIX[self.name] and perf_counter() >= deadline:
                break
            self.begin_request(index)
            search = self.OracleSearch(
                self.clusters[request["backend"]], seed=request["seed"]
            )
            served += 1
            t0 = perf_counter()
            try:
                result = search.run(self.workloads[request["workload"]])
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                print(f"perfbench: search failed: {exc!r}", file=sys.stderr)
                self.failed += 1
                continue
            t1 = perf_counter()
            self.speed.sample()
            latencies.append(t1 - t0)
            if index % inputs.SEARCH_ROUND == 0:
                firsts.append(t1 - t0)
                round_fresh.clear()
            evaluations += result.evaluations
            fp = self.fingerprint(result)
            cell = (request["backend"], request["workload"], request["seed"])
            if request["repeat"]:
                # Output check: a search served from the run cache equals
                # the fresh search of the same cell earlier in its round.
                self.check("search.cache_hit_identical", fp == round_fresh[cell])
            else:
                round_fresh[cell] = fp
            if index < PREFIX[self.name]:
                rss = peak_rss_mb()
                fingerprints.append(fp)
                if not request["repeat"]:
                    speedups.append(result.speedup)
                    sampled.append((request, fp))
        elapsed = perf_counter() - start - self.speed.total_s
        hits = self.cache.hits - hits0
        lookups = hits + self.cache.misses - misses0

        self.pause()
        rng = random.Random(f"check:{self.seed}")
        for request, fp in rng.sample(sampled, N_SAMPLED):
            self.check_search(request, fp)
        return {
            "attempted": served,
            "requests": served,
            "elapsed_s": elapsed,
            "metrics": {
                "sessions_per_s": served / elapsed,
                "configs_per_s": evaluations / elapsed,
                **self.latency_metrics(latencies),
                "first_result_s": median(firsts),
                "peak_rss_mb": rss,
                "speedup_mean": sum(speedups) / len(speedups),
            },
            "extra": {
                "cache.run_hit_frac": hits / lookups if lookups else 0.0,
                "cache.run_entries": len(self.cache),
            },
            "samples": {"latency": len(latencies), "first_result": len(firsts)},
            "fingerprints": fingerprints,
        }

    def check_search(self, request: dict, fp: str) -> None:
        """Uncached re-run equals the (cached) result, and the first
        coordinate's columnar sweep equals scalar ``Simulator.run``."""
        cluster = self.clusters[request["backend"]]
        workload = self.workloads[request["workload"]]
        search = self.OracleSearch(cluster, seed=request["seed"])
        # ``run`` enters the run cache; its body outside that scope is the
        # cache-free computation.
        result = search._run(workload)
        self.check("search.uncached_identical", self.fingerprint(result) == fp)
        name, values = next(iter(cluster.backend.search_candidates.items()))
        sweep = [(n, v, s) for n, v, s in result.trace if n == name][: len(values)]
        sim = self.Simulator(cluster)
        scalar = [
            (
                name,
                value,
                sim.run(
                    workload,
                    search._config({name: value}),
                    seed=self.RngStreams.rep_seed(request["seed"], 1 + i),
                ).seconds,
            )
            for i, value in enumerate(values)
        ]
        self.check("search.sweep_matches_scalar", sweep == scalar)


# ---------------------------------------------------------------------------
# service-stream
# ---------------------------------------------------------------------------
class ServiceStream(Workload):
    """Rounds of 32 tenants streamed through a fresh service, then resumed."""

    name = "service-stream"
    WORKERS = 2

    def setup(self) -> None:
        from repro.experiments import parallel
        from repro.faults import FaultPlan
        from repro.faults.retry import RetryPolicy
        from repro.rules.store import session_to_dict
        from repro.service import TenantResult, TenantSpec, TuningService
        from repro.service.scheduler import (
            ArtifactCatalog,
            CheckpointStore,
            fleet_stamp,
            run_tenant,
        )

        self.start_tracing()
        self.parallel = parallel
        self.FaultPlan = FaultPlan
        self.TenantResult = TenantResult
        self.TenantSpec = TenantSpec
        self.TuningService = TuningService
        self.CheckpointStore = CheckpointStore
        self.fleet_stamp = fleet_stamp
        self.run_tenant = run_tenant
        self.session_to_dict = session_to_dict
        # A retry budget deep enough that a 5% plan is always absorbed:
        # every fault site still fires and retries, no tenant is quarantined.
        self.retry = RetryPolicy(max_retries=10, timeout_budget=1000.0)
        # Publish both backends' offline artifacts and start the warm pool,
        # as a long-lived service would before taking traffic.
        self.catalog = ArtifactCatalog(seed=0)
        for backend in inputs.BACKENDS:
            self.catalog.payload_for(
                TenantSpec(f"setup/{backend}", backend=backend, workloads=inputs.QUEUE)
            )
        parallel.pmap(abs, range(self.WORKERS), max_workers=self.WORKERS)

    def close(self) -> None:
        from repro.experiments.parallel import shutdown_pool

        shutdown_pool()

    def outcome_bytes(self, outcome) -> bytes:
        if isinstance(outcome, self.TenantResult):
            payload = {
                "tenant": outcome.tenant_id,
                "sessions": [self.session_to_dict(s) for s in outcome.sessions],
                "journal": outcome.journal.to_json(),
            }
        else:
            payload = {"tenant": outcome.tenant_id, "failure": outcome.to_dict()}
        return json.dumps(payload, sort_keys=True).encode()

    def service(self, plan, checkpoint: Path):
        return self.TuningService(
            seed=0,
            max_workers=self.WORKERS,
            faults=plan,
            retry=self.retry,
            checkpoint=checkpoint,
            pump_interval=None,
        )

    def run(self, requests: list[dict], seconds: float) -> dict:
        latencies, firsts, resumes, round_starts, ck_bytes = [], [], [], [], []
        sessions = attempted = tenants = retries = 0
        session_rates, config_rates = [], []
        speedups, tokens, fingerprints = [], [], []
        start = perf_counter()
        deadline = start + seconds
        for index, rnd in enumerate(requests):
            if index >= PREFIX[self.name] and perf_counter() >= deadline:
                break
            self.begin_request(index)
            plan = self.FaultPlan.uniform(rnd["fault_rate"], seed=rnd["fault_seed"])
            specs = [
                self.TenantSpec(
                    t["tenant_id"],
                    backend=t["backend"],
                    workloads=inputs.QUEUE,
                    seed=t["seed"],
                )
                for t in rnd["tenants"]
            ]
            attempted += len(specs)
            with tempfile.TemporaryDirectory() as tmp:
                checkpoint = Path(tmp) / "fleet.json"
                service = self.service(plan, checkpoint)
                t0 = perf_counter()
                round_starts.append(t0)
                for spec in specs:
                    if not service.submit(spec).accepted:
                        self.failed += 1
                streamed, stamps = [], []
                for outcome in service.iter_results():
                    stamps.append(perf_counter())
                    streamed.append(outcome)
                stream_s = stamps[-1] - t0
                firsts.append(stamps[0] - t0)
                latencies.extend(stamp - t0 for stamp in stamps)

                # Restart on the checkpoint and re-stream the whole fleet.
                t1 = perf_counter()
                restarted = self.service(plan, checkpoint)
                for spec in specs:
                    restarted.submit(spec)
                resumed = list(restarted.iter_results())
                resumes.append(perf_counter() - t1)

                self.pause()
                ck_bytes.append(checkpoint.stat().st_size)
                streamed_bytes = [self.outcome_bytes(o) for o in streamed]
                self.check_round(
                    service, restarted, specs, plan, checkpoint, streamed,
                    streamed_bytes, resumed, index,
                )
                self.resume()
            round_sessions = round_executions = 0
            for outcome in streamed:
                tenants += 1
                if not isinstance(outcome, self.TenantResult):
                    self.failed += 1
                    continue
                sessions += len(outcome.sessions)
                round_sessions += len(outcome.sessions)
                for session in outcome.sessions:
                    round_executions += session.executions
                    retries += sum(session.fault_recovery.values())
                    if index < PREFIX[self.name]:
                        speedups.append(session.best_speedup)
                        tokens.append(
                            sum(
                                u.input_tokens - u.cached_input_tokens + u.output_tokens
                                for u in session.usage.values()
                            )
                        )
            session_rates.append(round_sessions / stream_s)
            config_rates.append(round_executions / stream_s)
            if index < PREFIX[self.name]:
                rss = peak_rss_mb()
                fingerprints.append(
                    hashlib.sha256(b"".join(streamed_bytes)).hexdigest()[:16]
                )
            # The pool workers do the work, so the speed is sampled in them,
            # both at once as they run, between rounds.
            self.pause()
            for per_unit in self.parallel.pmap(
                time_units, [SERVICE_SPEED_UNITS] * self.WORKERS, self.WORKERS
            ):
                self.speed.add(per_unit)
            self.resume()
        elapsed = perf_counter() - start
        self.pause()
        return {
            "attempted": attempted,
            "requests": sessions,
            "elapsed_s": elapsed,
            "metrics": {
                # Medians over rounds, of rates taken over the streaming time.
                "sessions_per_s": median(session_rates),
                "configs_per_s": median(config_rates),
                **self.latency_metrics(latencies),
                "first_result_s": median(firsts),
                "peak_rss_mb": rss,
                "speedup_mean": sum(speedups) / len(speedups),
            },
            "extra": {
                "tokens_per_session": sum(tokens) / len(tokens),
                "resume_s": median(resumes),
                "faults.retries": retries / sessions,
                "checkpoint.bytes": sum(ck_bytes) / len(ck_bytes),
                "rounds": len(firsts),
                "tenants": tenants,
                "round_starts": round_starts,
            },
            "samples": {
                "latency": len(latencies),
                "first_result": len(firsts),
                "resume": len(resumes),
            },
            "fingerprints": fingerprints,
        }

    def check_round(
        self, service, restarted, specs, plan, checkpoint, streamed,
        streamed_bytes, resumed, index,
    ) -> None:
        # Streamed outcomes are drain()'s outcomes, in drain's order.
        drained = service.drain()
        self.check(
            "service.stream_equals_drain",
            [self.outcome_bytes(o) for o in drained.outcomes] == streamed_bytes,
        )
        # The restart adopts every tenant from the checkpoint (nothing
        # re-executes before its first result) and reproduces the stream.
        stored = self.CheckpointStore(
            checkpoint, self.fleet_stamp(None, 0, plan), self.retry, plan
        ).load()
        self.check(
            "service.resume_adopts_all",
            set(stored) == {s.tenant_id for s in specs}
            and restarted.first_result_sessions == 0,
        )
        self.check(
            "service.resume_identical",
            [self.outcome_bytes(o) for o in resumed] == streamed_bytes,
        )
        # A sampled tenant re-run inline reproduces its streamed outcome.
        # With every breaker closed, each tenant ran in the normal mode.
        if all(site["trips"] == 0 for site in service.breaker_report().values()):
            position = random.Random(f"check:{self.seed}:{index}").randrange(
                len(streamed)
            )
        else:
            position = 0
        outcome = streamed[position]
        spec = next(s for s in specs if s.tenant_id == outcome.tenant_id)
        inline = self.run_tenant(
            spec,
            self.catalog.cluster_for(spec),
            self.catalog.extraction_for(spec),
            True,
            plan,
            self.retry,
        )
        self.check(
            "service.inline_identical",
            self.outcome_bytes(inline) == streamed_bytes[position],
        )


WORKLOADS = {w.name: w for w in (TuneSeq, Search, ServiceStream)}


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run
# ---------------------------------------------------------------------------
#: Span names that must record calls on the workload where their layer
#: does most of the work; a miss means a wrapper no longer reaches a
#: renamed or rebound function.
HOME_SPANS = {
    "tune-seq": (
        "pipeline.clients", "pipeline.initial_execution", "pipeline.analysis",
        "pipeline.parameters", "pipeline.agent_loop", "pipeline.assemble",
        "llm.complete.tuning", "llm.complete.analysis", "llm.complete.critic",
        "llm.complete.rules_merge", "llm.split_sections", "rules.accumulate",
        "sim.run", "sim.run_noise", "sim.lognormal_noise", "pfs.bounds",
        "pfs.config_init", "pfs.with_updates", "pfs.clipped",
        "darshan.trace_run", "darshan.parse_log", "sandbox.run",
    ),
    "search": (
        "sim.sweep", "sim.first_normals", "sim.run", "sim.run_noise",
        "pfs.bounds", "pfs.config_init", "pfs.with_updates", "pfs.clipped",
    ),
    "service-stream": (
        "service.submit", "admission.decide", "checkpoint.record",
        "checkpoint.load", "breaker.observe", "scheduler.wait",
    ),
}
HOME_SETUP_SPANS = {
    "tune-seq": ("rag.extract",),
    "search": (),
    "service-stream": ("rag.extract", "parallel.pmap", "artifacts.publish"),
}


def layer_metrics(workload: Workload, result: dict) -> tuple[dict, dict, dict]:
    """(per-layer metrics, per-span table, missing home spans)."""
    tracer = workload.tracer
    spans = summarize(tracer)
    setup_spans = summarize(tracer, requests_only=False)
    n = max(result["requests"], 1)
    extra = result["extra"]

    def total_ms(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0) * 1000.0

    def per_request_ms(*names: str) -> float:
        return sum(total_ms(name) for name in names) / n

    def per_call_ms(name: str) -> float:
        row = spans.get(name)
        return row["total_s"] * 1000.0 / row["calls"] if row else 0.0

    def calls(name: str) -> float:
        return spans.get(name, {}).get("calls", 0)

    llm_names = [name for name in spans if name.startswith("llm.complete.")]
    counters = tracer.counters
    rounds = extra.get("rounds", 0)
    arrivals = []
    if rounds:
        # First outcome handed back by the pool, per round.
        wait_id = tracer.name_id("scheduler.wait")
        ends: dict[int, float] = {}
        for _, nid, _, end, _, request in tracer.spans:
            if nid == wait_id and request >= 0:
                ends[request] = min(end, ends.get(request, end))
        arrivals = [
            ends[r] - extra["round_starts"][r] for r in sorted(ends) if r < rounds
        ]
    reruns = calls("service.rerun")
    tenants = extra.get("tenants", 0)
    layers = {
        "pipeline.clients_ms": per_request_ms("pipeline.clients"),
        "pipeline.initial_execution_ms": per_request_ms("pipeline.initial_execution"),
        "pipeline.analysis_ms": per_request_ms("pipeline.analysis"),
        "pipeline.parameters_ms": per_request_ms("pipeline.parameters"),
        "pipeline.agent_loop_ms": per_request_ms("pipeline.agent_loop"),
        "pipeline.assemble_ms": per_request_ms("pipeline.assemble"),
        "pipeline.agent_loop_self_ms": spans.get("pipeline.agent_loop", {}).get(
            "self_s", 0.0
        )
        * 1000.0
        / n,
        "llm.calls": sum(calls(name) for name in llm_names) / n,
        "llm.complete_ms": per_request_ms(*llm_names),
        **{
            f"llm.{agent}_ms": per_request_ms(f"llm.complete.{agent}")
            for agent in LLM_AGENTS
        },
        "llm.input_tokens": counters["llm.input_tokens"] / n,
        "llm.cached_frac": (
            counters["llm.cached_input_tokens"] / counters["llm.input_tokens"]
            if counters["llm.input_tokens"]
            else 0.0
        ),
        "llm.split_sections_ms": per_request_ms("llm.split_sections"),
        "llm.tokens_per_session": extra.get("tokens_per_session", 0.0),
        "rules.accumulate_ms": per_request_ms("rules.accumulate"),
        "rules.journal_entries": (
            counters["rules.journal_entries"] / counters["rules.accumulate_calls"]
            if counters["rules.accumulate_calls"]
            else 0.0
        ),
        "sim.run_calls": calls("sim.run") / n,
        "sim.run_ms": per_request_ms("sim.run"),
        "sim.sweep_calls": calls("sim.sweep") / n,
        "sim.sweep_items": counters["sim.sweep_items"] / n,
        "sim.sweep_ms": per_request_ms("sim.sweep"),
        "sim.noise_ms": per_request_ms("sim.run_noise", "sim.first_normals"),
        "sim.rng_ms": per_request_ms("sim.first_normals", "sim.lognormal_noise"),
        "pfs.bounds_calls": calls("pfs.bounds") / n,
        "pfs.bounds_ms": per_request_ms("pfs.bounds"),
        "pfs.config_ms": outermost_total(tracer, CONFIG_SPANS) * 1000.0 / n,
        "cache.run_hit_frac": extra.get("cache.run_hit_frac", 0.0),
        "cache.run_entries": extra.get("cache.run_entries", 0),
        "darshan.trace_ms": per_request_ms("darshan.trace_run"),
        "darshan.parse_ms": per_request_ms("darshan.parse_log"),
        "sandbox.calls": calls("sandbox.run") / n,
        "sandbox.run_ms": per_request_ms("sandbox.run"),
        "rag.extract_ms": setup_spans.get("rag.extract", {}).get("total_s", 0.0)
        * 1000.0,
        "service.submit_ms": per_call_ms("service.submit"),
        "admission.decide_ms": per_call_ms("admission.decide"),
        "scheduler.first_arrival_s": median(arrivals) if arrivals else 0.0,
        "scheduler.wait_ms": per_request_ms("scheduler.wait"),
        "checkpoint.write_ms": per_call_ms("checkpoint.record"),
        "checkpoint.bytes": extra.get("checkpoint.bytes", 0.0),
        "checkpoint.load_ms": per_call_ms("checkpoint.load"),
        "breaker.observe_ms": per_call_ms("breaker.observe"),
        "service.reruns": reruns / rounds if rounds else 0.0,
        "service.rerun_frac": reruns / tenants if tenants else 0.0,
        "faults.retries": extra.get("faults.retries", 0.0),
        "service.resume_s": extra.get("resume_s", 0.0),
        "parallel.pool_start_ms": setup_spans.get("parallel.pmap", {}).get(
            "total_s", 0.0
        )
        * 1000.0,
        "artifacts.publish_ms": setup_spans.get("artifacts.publish", {}).get(
            "total_s", 0.0
        )
        * 1000.0,
    }
    # Times read as at the nominal machine speed, like the end-to-end ones.
    slowdown = workload.speed.slowdown()
    for name in layers:
        if name.endswith(("_ms", "_s")):
            layers[name] /= slowdown
    missing = workload.unbound + [
        name for name in HOME_SPANS[workload.name] if not calls(name)
    ]
    missing += [
        name for name in HOME_SETUP_SPANS[workload.name] if name not in setup_spans
    ]
    return layers, spans, list(dict.fromkeys(missing))


def scale(result: dict, slowdown: float) -> None:
    """Scale wall-clock metrics to the nominal machine speed; the measured
    values stay under ``raw``."""
    metrics = result["metrics"]
    result["raw"] = dict(metrics)
    result["slowdown"] = slowdown
    for name in RATES:
        metrics[name] *= slowdown
    for name in TIMES:
        metrics[name] /= slowdown
    if "resume_s" in result["extra"]:
        result["raw"]["resume_s"] = result["extra"]["resume_s"]
        result["extra"]["resume_s"] /= slowdown


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, tracer)
    # The machine speed set-up time is scaled by, sampled before set-up
    # starts (after it, a freshly forked pool would slow this process with
    # copy-on-write faults).
    startup = SpeedProbe()
    startup.sample(SETUP_SPEED_UNITS)
    try:
        workload.setup()
        print(f"READY {startup.slowdown()!r} {startup.total_s!r}", flush=True)
        if args.setup_only:
            return 0
        requests = json.loads(args.inputs.read_text())
        result = workload.run(requests, args.seconds)
    finally:
        workload.close()
    result["failed"] = workload.failed
    result["checks"] = workload.checks
    result["live_children"] = len(multiprocessing.active_children())
    if tracer is not None:
        layers, spans, missing = layer_metrics(workload, result)
        result["layers"] = layers
        result["spans"] = spans
        result["missing_spans"] = missing
        if args.spans_out is not None:
            tracer.write(args.spans_out)
    result["extra"].pop("round_starts", None)
    scale(result, workload.speed.slowdown())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
