"""The benchmark gate's decision rule, on synthetic perfbench reports.

A candidate fails when one of its runs is incorrect or fails more
operations than its pair's base run, or when a metric's median worsens
past both the metric's bound and the base runs' interquartile range.  A
report that lacks a metric cannot be judged and raises.
"""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "perfbench_gate.py"
_spec = importlib.util.spec_from_file_location("perfbench_gate", _SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

END_TO_END = [
    {"name": "sessions_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]
#: Five base values whose quartiles (inclusive method) are 98 and 102.
VALUES = [96.0, 98.0, 100.0, 102.0, 104.0]


def report(rate=100.0, latency=10.0, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 200,
        "failed": failed,
        "metrics": {
            "sessions_per_s": {"value": rate, "unit": "1/s"},
            "latency_p50_ms": {"value": latency, "unit": "ms"},
        },
    }


def judge(base, candidate, workload="search"):
    """Failure messages for base and candidate reports paired at seeds 1..n."""
    pairs = [(seed, b, c) for seed, (b, c) in enumerate(zip(base, candidate), 1)]
    rows, failures = gate.judge(workload, pairs, END_TO_END)
    assert len(rows) == len(END_TO_END)
    return failures


class TestDecisionRule:
    def test_identical_runs_pass(self):
        runs = [report(rate, latency=rate / 10) for rate in VALUES]
        assert judge(runs, runs) == []

    def test_higher_is_better_drop_past_bound_and_iqr_fails(self):
        base = [report(rate) for rate in VALUES]
        candidate = [report(rate * 0.7) for rate in VALUES]
        failures = judge(base, candidate)
        assert len(failures) == 1
        assert failures[0].startswith("search: sessions_per_s median 70 ")

    def test_drop_past_bound_inside_base_iqr_passes(self):
        # Base rates spread 20 to 200 (IQR 100): a 30% drop of the median,
        # 100 to 70, is past the bound but inside the base's own spread.
        spread = [20.0, 50.0, 100.0, 150.0, 200.0]
        base = [report(rate) for rate in spread]
        candidate = [report(rate * 0.7) for rate in spread]
        assert judge(base, candidate) == []

    def test_drop_past_iqr_inside_bound_passes(self):
        base = [report(rate) for rate in VALUES]
        candidate = [report(rate * 0.8) for rate in VALUES]
        assert judge(base, candidate) == []

    def test_lower_is_better_rise_past_bound_and_iqr_fails(self):
        base = [report(latency=value / 10) for value in VALUES]
        candidate = [report(latency=value / 10 * 1.3) for value in VALUES]
        failures = judge(base, candidate, workload="service-stream")
        assert len(failures) == 1
        assert failures[0].startswith("service-stream: latency_p50_ms median 13 ")

    def test_lower_is_better_drop_passes(self):
        base = [report(latency=10.0) for _ in VALUES]
        candidate = [report(latency=5.0) for _ in VALUES]
        assert judge(base, candidate) == []

    def test_incorrect_candidate_run_fails_naming_workload_side_and_seed(self):
        base = [report() for _ in VALUES]
        candidate = [report() for _ in VALUES]
        candidate[2] = report(correct=False)
        assert judge(base, candidate, workload="tune-seq") == [
            "tune-seq: candidate run at seed 3 is not correct"
        ]

    def test_candidate_failing_more_than_its_base_fails(self):
        base = [report(failed=1) for _ in VALUES]
        candidate = [report(failed=1) for _ in VALUES]
        candidate[4] = report(failed=2)
        assert judge(base, candidate, workload="service-stream") == [
            "service-stream: candidate run at seed 5 failed 2 of 200 operations "
            "(base: 1)"
        ]

    def test_base_failures_are_not_charged_to_the_candidate(self):
        base = [report() for _ in VALUES]
        base[0] = report(correct=False, failed=3)
        candidate = [report() for _ in VALUES]
        assert judge(base, candidate) == []

    @pytest.mark.parametrize("side", ["base", "candidate"])
    def test_run_without_an_end_to_end_metric_raises(self, side):
        runs = {name: [report() for _ in VALUES] for name in ("base", "candidate")}
        del runs[side][1]["metrics"]["latency_p50_ms"]
        with pytest.raises(
            gate.GateError, match=f"search: {side} run at seed 2 reports no latency"
        ):
            judge(runs["base"], runs["candidate"])
