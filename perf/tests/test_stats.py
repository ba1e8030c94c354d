"""The harness arithmetic on hand-made numbers."""

import pytest

from perf import stats


def test_summary_median_and_quartiles():
    s = stats.summary([5, 1, 4, 2, 3])
    assert (s["median"], s["n"]) == (3, 5)
    assert s["q1"] == 1.5 and s["q3"] == 4.5  # statistics.quantiles, exclusive method
    assert stats.summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}
    with pytest.raises(ValueError):
        stats.summary([])


def test_top_percentile_keeps_ten_samples_beyond_it():
    samples = list(range(1, 1001))
    assert stats.top_percentile(samples) == (99.0, 990)  # ten samples, 991..1000, lie beyond
    assert stats.top_percentile(samples[:999]) == (95.0, 950)  # p99 would leave nine
    assert stats.top_percentile(list(range(40))) == (75.0, 29)
    assert stats.top_percentile(list(range(39))) is None


def test_rates_and_durations_normalise_in_opposite_directions():
    k = stats.speed_factor(10.0, 14.0, ref_ms=8.0)  # the host ran 1.5x slower than reference
    assert k == 1.5
    assert stats.normalise_duration(30.0, k) == 20.0
    assert stats.normalise_rate(1000.0, k) == 1500.0
    # the same work measured on a fast and a slow host normalises to one value
    assert stats.normalise_duration(30.0, 1.5) == stats.normalise_duration(20.0, 1.0)
    assert stats.normalise_rate(100.0, 2.0) == stats.normalise_rate(200.0, 1.0)


def test_relative_difference_is_positive_when_second_is_worse():
    assert stats.relative_difference(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.relative_difference(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.relative_difference(0.0, 0.0, "lower") == 0.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        (0, None, "serve_block", 0.0, 10.0),
        (1, 0, "frame", 1.0, 6.0),
        (2, 0, "frame", 4.0, 9.0),  # overlaps the first frame for 2 s
        (3, 1, "inner", 2.0, 3.0),
        (4, 0, "frame", 9.5, 12.0),  # runs past its parent: clipped to 0.5 s
    ]
    own = stats.self_times(spans)
    assert own["serve_block"] == pytest.approx(10.0 - (8.0 + 0.5))
    assert own["frame"] == pytest.approx((5.0 - 1.0) + 5.0 + 2.5)
    assert own["inner"] == pytest.approx(1.0)


def test_ladder_deltas_sum_to_the_top_rung():
    rows = stats.ladder_deltas([("engine", 3.5), ("serve", 9.0), ("wire", 10.25)])
    assert [name for name, _, _ in rows] == ["engine", "serve", "wire"]
    assert [delta for _, _, delta in rows] == [3.5, 5.5, 1.25]
    assert sum(delta for _, _, delta in rows) == rows[-1][1]
