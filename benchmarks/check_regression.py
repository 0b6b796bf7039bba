"""Benchmark smoke gate: fail on >20% regression of harness throughput.

Usage::

    python benchmarks/check_regression.py BASELINE.json CURRENT.json [--threshold 0.20]

Compares the committed ``BENCH_throughput.json`` (baseline) against a
freshly measured run and exits non-zero when any tracked rate fell more
than the threshold below the baseline.  Absolute rates vary with runner
hardware, so CI snapshots the baseline *on the same machine* (checkout
state) before measuring the candidate — the gate checks relative
regression, not historical absolutes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: The figures the gate guards: batched, sequential and cached-rerun
#: runs/sec; search-shaped small-sweep configs/sec; sessions/sec for one
#: engine, the fleet, the drained service, the degraded (fault plan) fleet
#: and each agent policy; and the streaming first-result figure.
TRACKED = (
    "batched_runs_per_sec",
    "sequential_runs_per_sec",
    "sessions_per_sec",
    "small_sweep_configs_per_sec",
    "cached_rerun_runs_per_sec",
    "fleet_sessions_per_sec",
    "service_sessions_per_sec",
    "service_first_result_sessions",
    "degraded_sessions_per_sec",
    "policy_sessions_per_sec_reflection",
    "policy_sessions_per_sec_react",
    "policy_sessions_per_sec_propose_critic",
)

#: Tracked figures where *lower* is better — time-to-first-result style
#: latency proxies rather than throughput rates.  The gate inverts the
#: ratio so "current grew past the threshold" is the regression.
LOWER_IS_BETTER = frozenset({"service_first_result_sessions"})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--threshold", type=float, default=0.20)
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())

    # The *current* run must always carry every tracked rate — a missing key
    # there means the benchmark is broken.  A key absent only from the
    # *baseline* is a figure this change introduces: there is nothing to
    # regress against yet, so it warns and passes (the next baseline
    # refresh picks it up).
    missing_current = [key for key in TRACKED if key not in current]
    if missing_current:
        for key in missing_current:
            print(
                f"ERROR: {args.current} is missing tracked key {key!r}",
                file=sys.stderr,
            )
        print(
            "ERROR: the current run must carry every tracked rate "
            f"({', '.join(TRACKED)}); re-run benchmarks/test_throughput.py",
            file=sys.stderr,
        )
        return 2

    failed = False
    for key in TRACKED:
        if key not in baseline:
            print(
                f"{key}: not in baseline -> current {float(current[key]):.1f} "
                "(newly tracked, nothing to compare; pass)"
            )
            continue
        base = float(baseline[key])
        now = float(current[key])
        if base <= 0.0 or (key in LOWER_IS_BETTER and now <= 0.0):
            # A zero/negative figure on the dividing side would make every
            # candidate "pass" (ratio -> inf); that is a broken
            # measurement, not a pass.
            print(
                f"ERROR: baseline {key} is {base:g} "
                f"(current {now:g}); a non-positive rate on the dividing "
                "side means the benchmark run is broken and the gate "
                "cannot be evaluated",
                file=sys.stderr,
            )
            return 2
        # For lower-is-better figures the ratio is inverted so that, either
        # way, "ratio below 1 - threshold" reads "got worse".
        ratio = base / now if key in LOWER_IS_BETTER else now / base
        status = "ok"
        if ratio < 1.0 - args.threshold:
            status = f"REGRESSION (> {args.threshold:.0%} below baseline)"
            failed = True
        print(f"{key}: baseline {base:.1f} -> current {now:.1f} ({ratio:.2f}x) {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
