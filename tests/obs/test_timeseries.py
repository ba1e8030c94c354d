"""Snapshot time series: quantile bounds, windowed ring math."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import SnapshotRing, percentile_from_counts

BUCKETS = (0.01, 0.1, 1.0)


def hist(counts, total=None):
    return {
        "counts": list(counts),
        "count": sum(counts) if total is None else total,
        "sum": 0.0,
        "buckets": BUCKETS,
    }


def test_percentile_from_counts_upper_edge_and_interpolated():
    counts = [90, 9, 1, 0]  # 90 fast, 9 medium, 1 slow, none in overflow
    assert percentile_from_counts(BUCKETS, counts, 0.50) == 0.01
    assert percentile_from_counts(BUCKETS, counts, 0.95) == 0.1
    assert percentile_from_counts(BUCKETS, counts, 1.0) == 1.0
    # Interpolated, linear in the bucket's observations: the p95 is the 5th
    # of the 9 medium ones, 5/9 of the way from 0.01 to 0.1; the first
    # bucket starts at 0.
    interpolated = percentile_from_counts(BUCKETS, counts, 0.95, interpolate=True)
    assert interpolated == pytest.approx(0.01 + 0.09 * 5 / 9)
    assert percentile_from_counts(BUCKETS, counts, 0.50, interpolate=True) == pytest.approx(0.01 * 50 / 90)
    assert percentile_from_counts(BUCKETS, counts, 1.0, interpolate=True) == 1.0
    # In the overflow slot it clamps to the last finite edge, like the upper edge.
    assert percentile_from_counts(BUCKETS, [0, 0, 0, 5], 0.99, interpolate=True) == 1.0


def test_percentile_from_counts_edge_cases():
    assert percentile_from_counts(BUCKETS, [0, 0, 0, 0], 0.99) == 0.0
    # A quantile landing in the +inf overflow slot clamps to the last edge.
    assert percentile_from_counts(BUCKETS, [0, 0, 0, 5], 0.99) == 1.0
    with pytest.raises(ValueError):
        percentile_from_counts(BUCKETS, [1, 0, 0, 0], 0.0)


class ManualClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def ring_with(points):
    """A ring loaded with ``(ts, {name: {labels: value-or-hist}})`` pairs."""
    ring = SnapshotRing(clock=ManualClock())
    for ts, snap in points:
        ring.record_snapshot(snap, ts=ts)
    return ring


def test_ring_rate_uses_the_window_baseline():
    ring = ring_with([
        (0.0, {"sheds_total": {(): 0.0}}),
        (5.0, {"sheds_total": {(): 50.0}}),
        (10.0, {"sheds_total": {(): 50.0}}),
    ])
    # Full-history rate: 50 sheds over 10s.
    assert ring.rate("sheds_total") == pytest.approx(5.0)
    # A 5s window selects the t=5 snapshot as baseline: quiet since then.
    assert ring.rate("sheds_total", window_s=5.0) == pytest.approx(0.0)
    increase, elapsed = ring.delta("sheds_total", window_s=None)
    assert (increase, elapsed) == (50.0, 10.0)


def test_ring_sums_labeled_children_unless_one_is_selected():
    snap0 = {"errs_total": {("a",): 1.0, ("b",): 2.0}}
    snap1 = {"errs_total": {("a",): 4.0, ("b",): 2.0}}
    ring = ring_with([(0.0, snap0), (2.0, snap1)])
    assert ring.delta("errs_total")[0] == pytest.approx(3.0)
    assert ring.delta("errs_total", labels=("a",))[0] == pytest.approx(3.0)
    assert ring.delta("errs_total", labels=("b",))[0] == pytest.approx(0.0)
    assert ring.rate("missing_total") == 0.0


def test_ring_hist_delta_isolates_the_window_distribution():
    ring = ring_with([
        (0.0, {"lat": {(): hist([100, 0, 0, 0])}}),
        (1.0, {"lat": {(): hist([100, 0, 10, 0])}}),
    ])
    windowed = ring.hist_delta("lat")
    # Only the 10 slow observations arrived in the window, so the windowed
    # p50 lands in their bucket even though lifetime p50 is the fast one.
    assert windowed["counts"] == [0, 0, 10, 0]
    assert ring.percentile("lat", 0.5) == 1.0


def test_ring_percentile_falls_back_to_cumulative_only_without_a_window():
    # One snapshot: no window to difference, so the lifetime distribution.
    ring = ring_with([(0.0, {"lat": {(): hist([5, 0, 1, 0])}})])
    assert ring.percentile("lat", 0.5) == 0.01
    assert ring.percentile("lat", 1.0) == 1.0
    # Two snapshots with nothing new in the window: an idle server reads
    # 0.0, not its lifetime tail.
    ring.record_snapshot({"lat": {(): hist([5, 0, 1, 0])}}, ts=1.0)
    assert ring.percentile("lat", 0.5) == 0.0
    assert ring.percentile("lat", 1.0) == 0.0
    assert ring.percentile("missing", 0.5) == 0.0


def test_ring_hist_delta_survives_a_counter_reset():
    ring = ring_with([
        (0.0, {"lat": {(): hist([100, 0, 0, 0])}}),
        (1.0, {"lat": {(): hist([2, 1, 0, 0])}}),  # restarted process
    ])
    assert ring.hist_delta("lat")["counts"] == [2, 1, 0, 0]


def test_ring_rate_never_goes_negative_across_a_counter_reset():
    ring = ring_with([
        (0.0, {"x_total": {(): 50.0}}),
        (10.0, {"x_total": {(): 10.0}}),  # restarted process
    ])
    assert ring.delta("x_total") == (-40.0, 10.0)
    assert ring.rate("x_total") == 0.0


def test_ring_reads_zero_before_it_can_difference():
    ring = ring_with([])
    assert ring.latest is None
    assert ring.delta("x_total") == (0.0, 0.0)
    assert ring.rate("x_total") == 0.0
    assert ring.hist_delta("lat") is None
    assert ring.percentile("lat", 0.99) == 0.0
    ring.record_snapshot({"x_total": {(): 7.0}}, ts=3.0)
    assert ring.delta("x_total") == (0.0, 0.0)  # one snapshot: no window
    assert ring.rate("x_total") == 0.0


def test_ring_records_live_registries_and_bounds_capacity():
    reg = MetricsRegistry()
    reg.counter("x_total").inc(3)
    ring = SnapshotRing(capacity=2)
    ring.record(reg)
    reg.counter("x_total").inc(1)
    ring.record(reg)
    ring.record(reg)
    assert len(ring) == 2
    assert ring.latest[1]["x_total"][()] == 4.0
    with pytest.raises(ValueError):
        SnapshotRing(capacity=1)
