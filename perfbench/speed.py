"""Machine-speed reference that wall-clock metrics are scaled by.

The benchmark runs on shared machines where the speed one Python process
gets drifts by up to a quarter within minutes, as co-located load comes and
goes.  Wall-clock metrics of the same code then spread further from run to
run than any useful regression bound.  A fixed unit of interpreter work
(dict, string, JSON, hashing and sorting, none of it the program's code),
timed between requests, tracks that drift.  On a 2-vCPU shared container its
speed correlated at 0.94 with tune-seq session throughput over 0.5 s slices.
Scaling by it cut the spread between 20 s windows from 23% to 4%.

A workload's *slowdown* is its mean reference time over :data:`NOMINAL_S`.
Rates are multiplied by it and times divided by it, so every reported
timing reads as if the machine ran at the nominal speed.
"""

from __future__ import annotations

import gc
import hashlib
import json
from time import perf_counter

#: Seconds one reference unit takes at the nominal speed.
NOMINAL_S = 150e-6


def reference_unit() -> int:
    table: dict[str, int] = {}
    for i in range(300):
        key = f"k{i % 37}"
        table[key] = table.get(key, 0) + i * 3 % 11
    text = json.dumps(table, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    ordered = sorted((value, key) for key, value in table.items())
    return len(digest) + len(ordered)


def time_units(units: int) -> float:
    """Seconds per reference unit over ``units`` units, with the collector
    off so the program's heap size cannot slow the reference.  Module-level
    so a process pool can run it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_unit()  # first calls pay one-time library set-up
        start = perf_counter()
        for _ in range(units):
            reference_unit()
        return (perf_counter() - start) / units
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Reference-unit timings taken through one workload run."""

    def __init__(self):
        self.samples: list[float] = []
        #: Seconds this process spent on reference units.
        self.total_s = 0.0

    def sample(self, units: int = 1) -> None:
        per_unit = time_units(units)
        self.samples.append(per_unit)
        self.total_s += per_unit * units

    def add(self, per_unit: float) -> None:
        """A timing taken in another process (a pool worker)."""
        self.samples.append(per_unit)

    def slowdown(self) -> float:
        return sum(self.samples) / len(self.samples) / NOMINAL_S
