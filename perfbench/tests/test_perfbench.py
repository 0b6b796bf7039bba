"""Tests for the benchmark's own logic (not collected by the repo's suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
from spans import NO_REQUEST, Tracer, outermost_total, self_times  # noqa: E402
from stats import percentile  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- percentile rule ---------------------------------------------------------
def test_p90_needs_ten_samples_beyond():
    assert percentile(range(1, 101), 0.9) == 90
    with pytest.raises(ValueError, match="beyond"):
        percentile(range(1, 100), 0.9)


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 4  # 20 samples, 4 of each
    assert percentile(samples, 0.5) == 3.0  # rank 10 of 20, 10 beyond
    assert percentile(samples, 1.0) == 5.0  # the maximum needs no tail
    with pytest.raises(ValueError):
        percentile(samples, 0.6)  # rank 12, only 8 beyond
    with pytest.raises(ValueError):
        percentile([], 0.5)


# -- self time ---------------------------------------------------------------
def span(sid, start, end, parent=-1, request=0, name=0):
    return (sid, name, start, end, parent, request)


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        span(2, 1.0, 3.0, parent=1),  # child
        span(3, 2.0, 2.5, parent=2),  # grandchild: counts against 2, not 1
        span(4, 4.0, 6.0, parent=1),  # sibling of 2
        span(1, 0.0, 10.0),
    ]
    selves = self_times(spans)
    assert selves[1] == pytest.approx(10.0 - 2.0 - 2.0)
    assert selves[2] == pytest.approx(2.0 - 0.5)
    assert selves[3] == pytest.approx(0.5)
    assert selves[4] == pytest.approx(2.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        span(2, 1.0, 4.0, parent=1),
        span(3, 3.0, 5.0, parent=1),  # overlaps 2 (another thread)
        span(4, 9.0, 12.0, parent=1),  # runs past the parent's end
        span(1, 0.0, 10.0),
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 4.0 - 1.0)


def test_tracer_records_nesting_and_restores_bindings():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    original = Layer.__dict__["outer"]
    tracer.wrap(Layer, "outer", "layer.outer")
    tracer.wrap(Layer, "inner", "layer.inner")
    assert Layer().outer() == 2
    assert tracer.spans == []  # inactive: calls pass straight through
    tracer.active = True
    tracer.request = 7
    assert Layer().outer() == 2
    inner, outer = tracer.spans
    assert tracer.names[outer[1]] == "layer.outer"
    assert inner[4] == outer[0] and outer[4] == -1
    assert inner[5] == outer[5] == 7
    assert outermost_total(tracer, {"layer.outer", "layer.inner"}) == pytest.approx(
        outer[3] - outer[2]
    )
    tracer.uninstall()
    assert Layer.__dict__["outer"] is original


def test_counters_only_count_inside_requests():
    tracer = Tracer()
    tracer.active = True
    tracer.add("x", 1)
    assert tracer.counters["x"] == 0
    tracer.request = 0
    tracer.add("x", 2)
    tracer.request = NO_REQUEST
    assert tracer.counters["x"] == 2


# -- generated inputs --------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_same_inputs(workload):
    first = json.dumps(inputs.generate(workload, 3))
    assert first == json.dumps(inputs.generate(workload, 3))
    assert first != json.dumps(inputs.generate(workload, 4))


def test_search_repeat_share_is_fixed():
    requests = inputs.search(5, n=400)
    repeats = [r for r in requests if r["repeat"]]
    assert len(repeats) == 400 // 4
    assert all(r["repeat"] for r in requests[3::4])
    fresh = {(r["backend"], r["workload"], r["seed"]) for r in requests if not r["repeat"]}
    assert all((r["backend"], r["workload"], r["seed"]) in fresh for r in repeats)


def test_service_rounds_fit_admission():
    rnd = inputs.service_stream(2, n=1)[0]
    ids = [t["tenant_id"] for t in rnd["tenants"]]
    assert len(set(ids)) == inputs.SERVICE_TENANTS
    principals = {i.split("/")[0] for i in ids}
    assert len(principals) == inputs.SERVICE_PRINCIPALS
    assert {t["backend"] for t in rnd["tenants"]} == set(inputs.BACKENDS)


# -- BENCHMARK.json ----------------------------------------------------------
def test_benchmark_names_are_plain():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))


def test_benchmark_json_matches_run_py():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(inputs.GENERATORS)
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]]
    assert declared == list(run.END_TO_END)
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert {f"overhead.{name}" for name, _, _ in run.END_TO_END} <= per_layer
