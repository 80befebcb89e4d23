"""Estimators for the load benchmark (pure Python, no numpy).

A measured window is a fixed number of operations split into equal
contiguous *slices*.  Every gated estimator is the **median over slices**
of a per-slice value scaled by the machine's speed over that slice (see
:mod:`probe`): the sandbox's vCPUs switch between speed plateaus lasting
seconds to minutes, so a whole-window mean moves with however many slow
plateaus the window happened to catch, and a best-of-slices estimator
latches on to bursts.  The median of speed-scaled slices ignores both.
"""

from __future__ import annotations

import statistics

#: Slices per measured window; constant so estimators mean the same thing on
#: every workload and every commit.
SLICES = 20

#: The choosing-metrics rule: a percentile is reportable only when at least
#: this many samples lie beyond it.
SAMPLES_BEYOND = 10

#: Candidate percentiles in per mille, so the sample arithmetic is exact.
_CANDIDATE_PER_MILLE = (500, 750, 900, 950, 990, 999)


def percentile(sorted_values, q):
    """The *q*-th percentile (0–100) of an ascending list, linearly
    interpolated between closest ranks."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within 0..100, got {q!r}")
    position = (len(sorted_values) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * fraction


def highest_supported_percentile(samples, beyond=SAMPLES_BEYOND):
    """The highest candidate percentile with at least *beyond* samples past
    it, or None when even the median is not supported."""
    supported = None
    for per_mille in _CANDIDATE_PER_MILLE:
        if samples * (1000 - per_mille) >= beyond * 1000:
            supported = per_mille / 10.0
    return supported


def split_slices(values, slices=SLICES):
    """Split *values* into *slices* equal contiguous parts."""
    if slices < 1 or len(values) % slices:
        raise ValueError(
            f"{len(values)} values do not split into {slices} equal slices"
        )
    size = len(values) // slices
    return [values[i * size : (i + 1) * size] for i in range(slices)]


def quartiles(values):
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def summarize_window(latencies, slice_seconds, speeds):
    """The client-side estimators of one measured window.

    *latencies* are per-op seconds in issue order; *slice_seconds* the wall
    time of each slice (which includes the harness's own per-op work, so
    throughput is what a closed-loop caller achieves, not 1/latency);
    *speeds* the machine's speed over each slice as a multiple of the
    reference speed (:func:`probe.speed`).

    Each slice's values are scaled to the reference speed before the median
    over slices is taken; the ``raw_`` entries are the same estimators
    unscaled.
    """
    slices = len(slice_seconds)
    if len(speeds) != slices:
        raise ValueError("one wall time and one speed per slice are required")
    parts = split_slices(latencies, slices)
    per_slice_ops = len(parts[0])
    throughput = [per_slice_ops / seconds for seconds in slice_seconds]
    p50s, p90s = [], []
    for part in parts:
        ordered = sorted(part)
        p50s.append(percentile(ordered, 50.0) * 1000.0)
        p90s.append(percentile(ordered, 90.0) * 1000.0)
    ordered = sorted(latencies)
    head = sum(throughput[:4]) / 4.0
    tail = sum(throughput[-4:]) / 4.0
    return {
        "ops": len(latencies),
        "samples_per_slice": per_slice_ops,
        "ops_per_s": statistics.median([t / s for t, s in zip(throughput, speeds)]),
        "latency_p50_ms": statistics.median([v * s for v, s in zip(p50s, speeds)]),
        "latency_p90_ms": statistics.median([v * s for v, s in zip(p90s, speeds)]),
        "raw_ops_per_s": statistics.median(throughput),
        "raw_latency_p50_ms": statistics.median(p50s),
        "raw_latency_p90_ms": statistics.median(p90s),
        "speed_median": statistics.median(speeds),
        "latency_p99_ms": percentile(ordered, 99.0) * 1000.0,
        "latency_max_ms": ordered[-1] * 1000.0,
        "latency_mean_ms": sum(latencies) / len(latencies) * 1000.0,
        "ops_per_s_total": len(latencies) / sum(slice_seconds),
        "slice_drift": tail / head,
        "highest_supported_percentile": highest_supported_percentile(len(latencies)),
        "per_slice": {
            "ops_per_s": throughput,
            "latency_p50_ms": p50s,
            "latency_p90_ms": p90s,
            "speed": speeds,
        },
    }
