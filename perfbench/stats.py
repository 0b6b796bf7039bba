"""Summary statistics the benchmark reports timings with.

A timing is reported as its median and the highest percentile that still
has at least :data:`MIN_TAIL` samples beyond it, so a tail figure is never
read off a handful of observations.
"""

from __future__ import annotations

import math

#: Samples that must lie strictly beyond a reported percentile.
MIN_TAIL = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q`` quantile (``0 < q <= 1``) of ``samples``.

    Raises ``ValueError`` when fewer than :data:`MIN_TAIL` samples lie
    beyond the rank, so a p90 needs at least 100 samples.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if q < 1.0 and beyond < MIN_TAIL:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has only {beyond} beyond it; "
            f"needs {MIN_TAIL}"
        )
    return ordered[rank - 1]

