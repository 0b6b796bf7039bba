"""Spans around the calls into each layer, recorded from outside the program.

The traced run wraps public functions where their callers look them up
(a class attribute, or the name a module imported) and records one span per
call: ``(span id, name, start, end, parent span id, request id)``.  Spans
stay in memory and are written out when the workload process ends.  Nothing
in ``src/`` is modified; :meth:`Tracer.uninstall` restores every binding.

A layer's self time is its span's duration minus the part of that interval
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: Request id of spans recorded outside any request (set-up).
NO_REQUEST = -1


class Tracer:
    """In-memory span recorder; off until :attr:`active` is set."""

    def __init__(self):
        self.active = False
        self.request = NO_REQUEST
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        # Pool workers forked from a traced process must neither record
        # spans nor pay for the wrappers.
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        self.active = False
        self.uninstall()

    # -- recording --------------------------------------------------------
    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> tuple[int, float]:
        sid = next(self._ids)
        self._stack().append(sid)
        return sid, perf_counter()

    def end(self, name_id: int, sid: int, start: float) -> None:
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        parent = stack[-1] if stack else -1
        self.spans.append((sid, name_id, start, end, parent, self.request))

    def add(self, counter: str, value: float) -> None:
        """Count ``value`` under ``counter`` while a request is traced."""
        if self.active and self.request != NO_REQUEST:
            self.counters[counter] += value

    # -- binding ----------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call."""
        fn = getattr(owner, attr)
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid, start = self.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(nid, sid, start)

        traced.__wrapped__ = fn
        self.patch(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line (times in ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("id\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for sid, nid, start, end, parent, request in self.spans:
                out.write(
                    f"{sid}\t{self.names[nid]}\t{int(start * 1e9)}\t"
                    f"{int(end * 1e9)}\t{parent}\t{request}\n"
                )


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------
def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children (spans from other threads under one parent) count once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[int, float] = {}
    for sid, _, start, end, _, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def summarize(tracer: Tracer, requests_only: bool = True) -> dict[str, dict]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``.

    ``requests_only`` keeps spans recorded inside a request; otherwise only
    set-up spans (recorded outside any request) are summarized.
    """
    selves = self_times(tracer.spans)
    out: dict[str, dict] = {}
    for sid, nid, start, end, _, request in tracer.spans:
        if (request != NO_REQUEST) != requests_only:
            continue
        row = out.setdefault(
            tracer.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += selves[sid]
    return out


def outermost_total(tracer: Tracer, names: set[str]) -> float:
    """Seconds in spans named in ``names`` that have no ancestor in ``names``.

    Sums a group of mutually nesting calls (a constructor called from a
    copy helper, say) without counting the nested part twice.
    """
    ids = {tracer.name_id(name) for name in names}
    by_id = {span[0]: span for span in tracer.spans}
    total = 0.0
    for sid, nid, start, end, parent, request in tracer.spans:
        if nid not in ids or request == NO_REQUEST:
            continue
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[1] not in ids:
            ancestor = by_id.get(ancestor[4])
        if ancestor is None:
            total += end - start
    return total


# ---------------------------------------------------------------------------
# The wrapped bindings
# ---------------------------------------------------------------------------
#: (module, class or None, attribute, span name): each public function at
#: the place its callers look it up.  Functions imported by name are
#: wrapped in the importing module, since rebinding the defining module
#: would not reach them.
PLAIN_TARGETS = (
    ("repro.core.pipeline", "ClientSetupStage", "run", "pipeline.clients"),
    ("repro.core.pipeline", "InitialExecutionStage", "run", "pipeline.initial_execution"),
    ("repro.core.pipeline", "AnalysisStage", "run", "pipeline.analysis"),
    ("repro.core.pipeline", "ParameterSelectionStage", "run", "pipeline.parameters"),
    ("repro.core.pipeline", "AgentLoopStage", "run", "pipeline.agent_loop"),
    ("repro.core.pipeline", "SessionAssemblyStage", "run", "pipeline.assemble"),
    ("repro.llm.promptparse", None, "split_sections", "llm.split_sections"),
    ("repro.agents.analysis", None, "split_sections", "llm.split_sections"),
    ("repro.pfs.simulator", "Simulator", "run", "sim.run"),
    ("repro.pfs.simulator", None, "run_noise", "sim.run_noise"),
    ("repro.sim.sweep", None, "first_normals", "sim.first_normals"),
    ("repro.sim.random", "RngStreams", "lognormal_noise", "sim.lognormal_noise"),
    ("repro.pfs.config", "PfsConfig", "bounds", "pfs.bounds"),
    ("repro.pfs.config", "PfsConfig", "__init__", "pfs.config_init"),
    ("repro.pfs.config", "PfsConfig", "with_updates", "pfs.with_updates"),
    ("repro.pfs.config", "PfsConfig", "clipped", "pfs.clipped"),
    ("repro.core.runner", None, "trace_run", "darshan.trace_run"),
    ("repro.core.pipeline", None, "parse_log", "darshan.parse_log"),
    ("repro.agents.analysis", None, "run_in_sandbox", "sandbox.run"),
    ("repro.rag.extraction", "ParameterExtractor", "run", "rag.extract"),
    ("repro.service.daemon", "TuningService", "submit", "service.submit"),
    ("repro.service.admission", "AdmissionController", "decide", "admission.decide"),
    ("repro.service.scheduler", "CheckpointStore", "record", "checkpoint.record"),
    ("repro.service.scheduler", "CheckpointStore", "load", "checkpoint.load"),
    ("repro.faults.breaker", "BreakerState", "observe", "breaker.observe"),
    ("repro.service.daemon", None, "run_tenant", "service.rerun"),
    ("repro.experiments.parallel", None, "pmap", "parallel.pmap"),
    ("repro.service.artifacts", None, "publish", "artifacts.publish"),
)

#: Span names whose spans group as one layer metric.
CONFIG_SPANS = {"pfs.config_init", "pfs.with_updates", "pfs.clipped"}
LLM_AGENTS = ("tuning", "analysis", "critic", "rules_merge")


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def _wrap_llm(tracer: Tracer) -> None:
    """LLM completions: one span name per agent, plus token counters."""
    from repro.llm.client import LLMClient

    complete = LLMClient.complete
    agent_ids = {}

    def traced_complete(self, messages, tools=None, agent="generic", session=None):
        if not tracer.active:
            return complete(self, messages, tools=tools, agent=agent, session=session)
        nid = agent_ids.get(agent)
        if nid is None:
            nid = agent_ids[agent] = tracer.name_id(f"llm.complete.{agent}")
        sid, start = tracer.begin()
        try:
            completion = complete(
                self, messages, tools=tools, agent=agent, session=session
            )
        finally:
            tracer.end(nid, sid, start)
        usage = completion.usage
        tracer.add("llm.input_tokens", usage.input_tokens)
        tracer.add("llm.cached_input_tokens", usage.cached_input_tokens)
        return completion

    tracer.patch(LLMClient, "complete", traced_complete)


def _wrap_accumulate(tracer: Tracer) -> None:
    """Rule merges: span plus the journal size each merge folds into."""
    from repro.core.engine import Stellar

    accumulate = Stellar.accumulate
    accumulate_id = tracer.name_id("rules.accumulate")

    def traced_accumulate(self, session):
        if not tracer.active:
            return accumulate(self, session)
        tracer.add("rules.journal_entries", len(self.journal))
        tracer.add("rules.accumulate_calls", 1)
        sid, start = tracer.begin()
        try:
            return accumulate(self, session)
        finally:
            tracer.end(accumulate_id, sid, start)

    tracer.patch(Stellar, "accumulate", traced_accumulate)


def _wrap_sweep(tracer: Tracer) -> None:
    """Columnar sweeps: span plus the number of items per call."""
    from repro.sim import sweep

    run_items = sweep.run_items
    sweep_id = tracer.name_id("sim.sweep")

    def traced_run_items(sim, items):
        if not tracer.active:
            return run_items(sim, items)
        items = list(items)
        tracer.add("sim.sweep_items", len(items))
        sid, start = tracer.begin()
        try:
            return run_items(sim, items)
        finally:
            tracer.end(sweep_id, sid, start)

    tracer.patch(sweep, "run_items", traced_run_items)


def _wrap_arrivals(tracer: Tracer) -> None:
    """The daemon's arrival stream: one span per wait for the pool's next
    outcome, recorded in the consumer's context."""
    from repro.service import daemon

    execute_jobs = daemon.execute_jobs
    wait_id = tracer.name_id("scheduler.wait")

    def traced_execute_jobs(*args, **kwargs):
        stream = execute_jobs(*args, **kwargs)
        try:
            while True:
                if not tracer.active:
                    item = next(stream, None)
                else:
                    sid, start = tracer.begin()
                    try:
                        item = next(stream, None)
                    finally:
                        tracer.end(wait_id, sid, start)
                if item is None:
                    return
                yield item
        finally:
            stream.close()

    tracer.patch(daemon, "execute_jobs", traced_execute_jobs)


#: Span name -> installer, for bindings that record more than a span.
SPECIAL_TARGETS = {
    "llm.complete": _wrap_llm,
    "rules.accumulate": _wrap_accumulate,
    "sim.sweep": _wrap_sweep,
    "scheduler.wait": _wrap_arrivals,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer boundary the per-layer metrics are read from.

    Returns the span names whose binding no longer exists (a renamed or
    moved function), so the run can report them instead of crashing.
    """
    unbound = []
    for module, cls, attr, name in PLAIN_TARGETS:
        try:
            tracer.wrap(_owner(module, cls), attr, name)
        except (ImportError, AttributeError, KeyError):
            unbound.append(name)
    for name, installer in SPECIAL_TARGETS.items():
        try:
            installer(tracer)
        except (ImportError, AttributeError, KeyError):
            unbound.append(name)
    return unbound
