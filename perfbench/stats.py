"""Percentile rule of the benchmark's reports.

A tail percentile is reported only when at least ``MIN_BEYOND`` samples rank
above it, so that it rests on real tail observations; the median is always
reported. Percentiles use the nearest-rank definition, which always returns
an observed sample.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10
TAIL_QUANTILES = (0.9, 0.99)


def nearest_rank(samples, q: float) -> float:
    """The q-quantile by nearest rank: the ceil(q*n)-th smallest sample."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def ranked_beyond(n: int, q: float) -> int:
    """How many of n samples rank above the nearest-rank q-quantile."""
    return n - max(1, math.ceil(q * n))


def tail_allowed(n: int, q: float) -> bool:
    return ranked_beyond(n, q) >= MIN_BEYOND


def median(samples) -> float:
    """Middle value; the mean of the two middle values for an even count."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def summarize(samples) -> dict:
    """{"n", "p50"} plus every tail quantile the sample count supports."""
    out = {"n": len(samples)}
    if not samples:
        return out
    out["p50"] = median(samples)
    for q in TAIL_QUANTILES:
        if tail_allowed(len(samples), q):
            out[f"p{round(q * 100)}"] = nearest_rank(samples, q)
    return out
