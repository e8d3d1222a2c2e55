"""Percentiles and the parent-versus-change verdict (standard library only)."""

from __future__ import annotations

import statistics

# The tail percentile leaves at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10
# Cap on the tail percentile: with 10^5 sub-millisecond ops the 11th-largest
# sample is scheduler noise, not a property of the program.
TAIL_MAX_PERCENTILE = 99.0


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of an ascending list."""
    if len(sorted_values) == 0:
        raise ValueError("percentile of no samples")
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile (at most p99) with at least ten of ``n`` samples beyond it.

    Never below p50: with 20 samples or fewer, as in a run of second-long
    ops, the tail reads the median.
    """
    if n <= TAIL_SAMPLES_BEYOND:
        return 50.0
    return max(50.0, min(TAIL_MAX_PERCENTILE, 100.0 * (n - TAIL_SAMPLES_BEYOND) / n))


def summarize(sorted_ns) -> dict:
    """Sample count, median, tail percentile and value, and mean of ascending ns latencies."""
    n = len(sorted_ns)
    q = tail_percentile(n)
    return {"samples": n, "p50_ms": float(percentile(sorted_ns, 50.0)) / 1e6, "tail_percentile": q,
            "tail_ms": float(percentile(sorted_ns, q)) / 1e6, "mean_ms": float(sum(sorted_ns)) / n / 1e6}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple[str, str]:
    """improved / unchanged / worse / unresolved, and the pair tally.

    Runs are paired in order. A gain needs the change to win at least nine
    tenths of the pairs (ties count for neither) and the medians to differ
    by more than the base's quartile spread. When the base's own spread is
    wider than the bound the result is unresolved, unless every change run
    reads better than every base run. Otherwise the change is worse when its
    median is worse than the base median by more than ``bound`` of it.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    tally = f"{wins}/{len(pairs)}"
    b1, bmed, b3 = quartiles(base)
    cmed = statistics.median(change)
    gain = sign * (cmed - bmed)
    if pairs and wins >= 0.9 * len(pairs) and gain > (b3 - b1):
        return "improved", tally
    if bmed and (b3 - b1) / abs(bmed) > bound:
        all_better = all(sign * (c - b) > 0 for c in change for b in base)
        return ("unchanged" if all_better else "unresolved"), tally
    if -gain > bound * abs(bmed):
        return "worse", tally
    return "unchanged", tally
