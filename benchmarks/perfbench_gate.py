"""The benchmark gate: alternating perfbench pairs of two source trees.

    python3 benchmarks/perfbench_gate.py BASE_TREE CANDIDATE_TREE

For each workload in the candidate's ``BENCHMARK.json``, this runs that
file's ``command`` in each tree, in :data:`PAIRS` base/candidate pairs of
:data:`WINDOW_S`-second untraced windows.  Pair ``i`` runs at seed
``i + 1`` and the order flips every pair, so a burst of machine load hits
both sides alike.  The gate fails on:

- a candidate run that is not ``correct``, or that fails more operations
  than the base run of its pair;
- an end-to-end metric whose candidate median is worse than the base
  median by more than the metric's ``bound`` times the base median, and
  also by more than the base runs' interquartile range.

Progress goes to standard error; standard output is a markdown table of
every (workload, metric) with its verdict.  Exits 1 when the gate fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

#: Base/candidate pairs per workload.
PAIRS = 5
#: Measured window of each run, in seconds.
WINDOW_S = 5


class GateError(RuntimeError):
    """A run the gate cannot judge: it crashed or lacks a metric."""


def run_once(
    tree: Path, command: list[str], workload: str, seed: int, side: str
) -> dict:
    """One untraced perfbench run in ``tree``: its final JSON report."""
    args = [
        *command,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(WINDOW_S),
        "--trace", "0",
    ]
    proc = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise GateError(
            f"{workload}: {side} run at seed {seed} exited with "
            f"{proc.returncode}: {proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_pairs(
    base: Path, candidate: Path, command: list[str], workload: str
) -> list[tuple[int, dict, dict]]:
    """``(seed, base run, candidate run)`` for each of :data:`PAIRS` pairs."""
    pairs = []
    for i in range(PAIRS):
        seed = i + 1
        order = [("base", base), ("candidate", candidate)]
        if i % 2:
            order.reverse()
        runs = {
            side: run_once(tree, command, workload, seed, side)
            for side, tree in order
        }
        print(
            f"{workload} seed {seed}: measured, {order[0][0]} first",
            file=sys.stderr,
            flush=True,
        )
        pairs.append((seed, runs["base"], runs["candidate"]))
    return pairs


def metric_value(run: dict, name: str, workload: str, side: str, seed: int) -> float:
    try:
        return float(run["metrics"][name]["value"])
    except KeyError:
        raise GateError(
            f"{workload}: {side} run at seed {seed} reports no {name}"
        ) from None


def judge(
    workload: str, pairs: list[tuple[int, dict, dict]], end_to_end: list[dict]
) -> tuple[list[str], list[str]]:
    """Table rows and failure messages for one workload's pairs."""
    failures = []
    for seed, base, candidate in pairs:
        if candidate["correct"] is not True:
            failures.append(f"{workload}: candidate run at seed {seed} is not correct")
        if candidate["failed"] > base["failed"]:
            failures.append(
                f"{workload}: candidate run at seed {seed} failed "
                f"{candidate['failed']} of {candidate['attempted']} operations "
                f"(base: {base['failed']})"
            )
    rows = []
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        base_values = [
            metric_value(run, name, workload, "base", seed) for seed, run, _ in pairs
        ]
        candidate_values = [
            metric_value(run, name, workload, "candidate", seed)
            for seed, _, run in pairs
        ]
        base_median, candidate_median = median(base_values), median(candidate_values)
        q1, _, q3 = quantiles(base_values, n=4, method="inclusive")
        change = (candidate_median - base_median) / base_median
        worse_by = -change if metric["better"] == "higher" else change
        failed = worse_by > bound and worse_by * base_median > q3 - q1
        rows.append(
            f"| {workload} | {name} ({metric['unit']}, {metric['better']} is "
            f"better) | {base_median:.4g} | {q3 - q1:.3g} | {candidate_median:.4g} "
            f"| {change:+.1%} | {bound:.0%} | {'FAIL' if failed else 'ok'} |"
        )
        if failed:
            failures.append(
                f"{workload}: {name} median {candidate_median:.4g} is worse than "
                f"the base {base_median:.4g} by more than {bound:.0%} and by more "
                f"than the base IQR {q3 - q1:.3g}"
            )
    return rows, failures


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, candidate = (Path(tree).resolve() for tree in argv)
    declared = json.loads((candidate / "BENCHMARK.json").read_text())
    print(
        f"### perfbench gate: {PAIRS} alternating pairs of {WINDOW_S} s windows "
        "per workload\n\n"
        "| workload | metric | base median | base IQR | candidate median "
        "| change | bound | verdict |\n"
        "|---|---|---|---|---|---|---|---|",
        flush=True,
    )
    failures = []
    try:
        for workload in declared["workloads"]:
            name = workload["name"]
            pairs = measure_pairs(base, candidate, declared["command"], name)
            rows, failed = judge(name, pairs, declared["end_to_end"])
            print("\n".join(rows), flush=True)
            failures += failed
    except GateError as exc:
        print(f"\ngate: cannot judge: {exc}")
        return 1
    print()
    for failure in failures:
        print(f"- FAIL {failure}")
    print(f"gate: {'FAIL' if failures else 'pass'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
