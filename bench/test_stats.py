"""Tests for the benchmark's estimators: ``python -m pytest bench -q``."""

import statistics

import pytest

import stats


def test_percentile_interpolates_between_ranks():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 90) == pytest.approx(4.6)
    assert stats.percentile([7.0], 90) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_highest_supported_percentile_needs_ten_samples_beyond():
    assert stats.highest_supported_percentile(19) is None
    assert stats.highest_supported_percentile(20) == 50.0
    assert stats.highest_supported_percentile(99) == 75.0
    assert stats.highest_supported_percentile(100) == 90.0
    assert stats.highest_supported_percentile(999) == 95.0
    assert stats.highest_supported_percentile(1000) == 99.0
    assert stats.highest_supported_percentile(10_000) == 99.9


def test_split_slices_is_equal_and_contiguous():
    parts = stats.split_slices(list(range(40)), 20)
    assert len(parts) == 20
    assert parts[0] == [0, 1] and parts[-1] == [38, 39]
    with pytest.raises(ValueError):
        stats.split_slices(list(range(41)), 20)


def test_quartiles_match_the_drivers_definition():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, q2, q3 = stats.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert stats.relative_iqr(values) == pytest.approx((q3 - q1) / q2)
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)


def _window(slow_slices, factor):
    """20 slices of 100 ops at 1 ms (p90 3 ms); *slow_slices* run *factor*
    times slower."""
    latencies = []
    slice_seconds = []
    for index in range(20):
        slow = factor if index in slow_slices else 1.0
        ops = [0.001 * slow] * 90 + [0.003 * slow] * 10
        latencies.extend(ops)
        slice_seconds.append(sum(ops))
    return latencies, slice_seconds


def test_slice_medians_ignore_a_slow_plateau():
    latencies, slice_seconds = _window(range(5, 11), 1.4)
    summary = stats.summarize_window(latencies, slice_seconds, [1.0] * 20)
    assert summary["ops"] == 2000 and summary["samples_per_slice"] == 100
    assert summary["latency_p50_ms"] == pytest.approx(1.0)
    assert summary["ops_per_s"] == pytest.approx(100 / 0.12)
    assert summary["raw_ops_per_s"] == summary["ops_per_s"]
    # The whole-window mean does see the plateau; the gated estimators do not.
    assert summary["ops_per_s_total"] < summary["ops_per_s"] * 0.95
    assert summary["latency_max_ms"] == pytest.approx(4.2)
    assert summary["slice_drift"] == pytest.approx(1.0)
    assert summary["highest_supported_percentile"] == 99.0


def test_speed_scaling_undoes_a_slow_machine():
    # The machine runs 25 % slow for 14 of 20 slices and the probe says so:
    # the scaled estimators read as on the reference machine, the raw ones
    # as measured.
    slow = range(3, 17)
    latencies, slice_seconds = _window(slow, 1.25)
    speeds = [0.8 if index in slow else 1.0 for index in range(20)]
    summary = stats.summarize_window(latencies, slice_seconds, speeds)
    assert summary["latency_p50_ms"] == pytest.approx(1.0)
    assert summary["latency_p90_ms"] == pytest.approx(1.2)
    assert summary["ops_per_s"] == pytest.approx(100 / 0.12)
    assert summary["raw_latency_p50_ms"] == pytest.approx(1.25)
    assert summary["raw_ops_per_s"] == pytest.approx(100 / 0.15)
    assert summary["speed_median"] == 0.8


def test_summarize_window_needs_one_speed_per_slice():
    with pytest.raises(ValueError):
        stats.summarize_window([0.001] * 40, [1.0] * 20, [1.0] * 19)
