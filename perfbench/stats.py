"""Order statistics for the benchmark report.

A timing is reported as its median plus the highest percentile that still
has at least ten samples beyond it, together with the sample count.
"""

from __future__ import annotations

import statistics

# Percentiles considered for reporting, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n p / 100)
    return float(ordered[int(rank) - 1])


def highest_supported_percentile(count: int) -> float | None:
    """Highest listed percentile with at least MIN_BEYOND samples above it."""
    for p in PERCENTILES:
        if count * (100.0 - p) / 100.0 >= MIN_BEYOND:
            return p
    return None


def summarize(values) -> dict:
    """Median, sample count, and the highest supported percentile if any."""
    values = [float(v) for v in values]
    out = {"median": median(values), "n": len(values)}
    p = highest_supported_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


def describe(name: str, unit: str, summary: dict) -> str:
    """One report line, e.g. ``wall_s = 15.2 s (median, n=3; no percentile)``."""
    tail = [f"n={summary['n']}"]
    extra = [k for k in summary if k.startswith("p")]
    if extra:
        tail += [f"{k}={summary[k]:.6g}" for k in extra]
    else:
        tail.append(f"no percentile has {MIN_BEYOND} samples beyond it")
    return f"{name} = {summary['median']:.6g} {unit} (median, {'; '.join(tail)})"
