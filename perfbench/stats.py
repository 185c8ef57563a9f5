"""Percentiles for the benchmark report.

A timing is reported as its median and as its tail: the highest percentile
that still has at least ten samples beyond it, capped at the 99th. The report
names the percentile used together with the sample count.

The VM this runs on loses the CPU for 5-20 ms a few times a second, so the
tail of one long sample swings with how many of those stalls it caught. A
sample in send order is therefore cut into windows of WINDOW samples and the
tail is the median of the windows' p99s (each has ten samples beyond it).
A window in which the generator itself ran late (p99 of its lateness over
GEN_LAG_LIMIT_MS) did not apply the load it was meant to and is invalid; the
median runs over the valid windows, or over all when none is valid.
"""

from __future__ import annotations

import math
import statistics

TAIL_SAMPLES = 10


def nearest_rank(sorted_values, fraction: float):
    """Nearest-rank percentile (``fraction`` in 0..1) of a sorted sequence."""
    if not sorted_values:
        raise ValueError("empty sample")
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_fraction(n: int, cap: float = 0.99) -> float:
    """The highest percentile <= ``cap`` with >= TAIL_SAMPLES samples beyond it."""
    if n <= TAIL_SAMPLES:
        return 0.5
    return min(cap, (n - TAIL_SAMPLES) / n)


def summarize(values) -> dict:
    """Median and supported tail of a sample: {n, p50, tail, tail_pct}."""
    ordered = sorted(values)
    frac = tail_fraction(len(ordered))
    return {
        "n": len(ordered),
        "p50": nearest_rank(ordered, 0.5),
        "tail": nearest_rank(ordered, frac),
        "tail_pct": round(100 * frac, 2),
    }


WINDOW = 1000
GEN_LAG_LIMIT_MS = 3.0


def windowed(samples) -> dict:
    """p50 and windowed tail of (latency_ms, generator_lag_ms) pairs in send order."""
    samples = list(samples)
    k = max(1, len(samples) // WINDOW)
    size = len(samples) // k
    windows = [samples[i * size:(i + 1) * size] for i in range(k)]
    valid = [w for w in windows
             if summarize([lag for _, lag in w])["tail"] <= GEN_LAG_LIMIT_MS]
    used = valid or windows
    out = summarize([latency for w in used for latency, _ in w])
    out.update(tail=statistics.median(summarize([latency for latency, _ in w])["tail"]
                                      for w in used),
               windows=k, valid=len(valid))
    return out


