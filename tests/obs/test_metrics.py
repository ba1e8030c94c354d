"""Unit tests for the metrics registry: families, snapshots, exposition."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    parse_exposition,
)


def test_counter_basics_and_monotonicity():
    reg = MetricsRegistry()
    c = reg.counter("requests_total", "requests seen")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_labeled_counter_children_are_independent():
    reg = MetricsRegistry()
    fam = reg.counter("queries_total", "queries", ("run", "op"))
    fam.labels("r1", "depends").inc(3)
    fam.labels("r1", "visible").inc()
    fam.labels("r2", "depends").inc(7)
    snap = reg.snapshot()["queries_total"]
    assert snap[("r1", "depends")] == 3
    assert snap[("r1", "visible")] == 1
    assert snap[("r2", "depends")] == 7


def test_label_arity_is_enforced():
    reg = MetricsRegistry()
    fam = reg.counter("x_total", "", ("a", "b"))
    with pytest.raises(ValueError):
        fam.labels("only-one")
    with pytest.raises(ValueError):
        fam.inc()  # label-less shortcut on a labeled family


def test_family_constructors_are_idempotent_but_typed():
    reg = MetricsRegistry()
    a = reg.counter("n_total", "first")
    b = reg.counter("n_total", "second declaration is merged")
    assert a is b
    with pytest.raises(ValueError):
        reg.gauge("n_total")
    with pytest.raises(ValueError):
        reg.counter("n_total", labelnames=("other",))


def test_gauge_set_inc_ratchet_and_callback():
    reg = MetricsRegistry()
    g = reg.gauge("depth")
    g.set(4.0)
    g.inc(2.0)
    assert g.value == 6.0
    g.set_max(5.0)
    assert g.value == 6.0
    g.set_max(9.0)
    assert g.value == 9.0
    live = {"n": 0}
    g.set_function(lambda: live["n"])
    live["n"] = 42
    assert g.value == 42.0
    assert reg.snapshot()["depth"][()] == 42.0


def test_histogram_observe_and_observe_many_agree():
    reg = MetricsRegistry()
    edges = (0.001, 0.01, 0.1, 1.0)
    loop = reg.histogram("lat_a", buckets=edges)
    batch = reg.histogram("lat_b", buckets=edges)
    values = [0.0005, 0.005, 0.005, 0.05, 0.5, 5.0]
    for v in values:
        loop.observe(v)
    batch.observe_many(np.asarray(values))
    snap = reg.snapshot()
    assert snap["lat_a"][()]["counts"] == snap["lat_b"][()]["counts"]
    assert snap["lat_a"][()]["count"] == len(values)
    assert snap["lat_a"][()]["sum"] == pytest.approx(sum(values))
    # One observation past the last edge lands in the +inf overflow slot.
    assert snap["lat_a"][()]["counts"][-1] == 1


def test_default_latency_buckets_are_log_spaced_and_sorted():
    assert LATENCY_BUCKETS == tuple(sorted(LATENCY_BUCKETS))
    assert LATENCY_BUCKETS[0] == pytest.approx(1e-5)
    assert LATENCY_BUCKETS[-1] > 10.0


def test_snapshot_is_atomic_across_families():
    """Paired counters bumped together never show a torn (a != b) snapshot."""
    reg = MetricsRegistry()
    # Materialise the children up front: ._solo lazily creates a child
    # under the registry lock, which the writer below already holds.
    a = reg.counter("a_total")._solo
    b = reg.counter("b_total")._solo
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            # One lock acquisition covers both increments.
            with reg._lock:
                a.value += 1
                b.value += 1

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    try:
        for _ in range(300):
            snap = reg.snapshot()
            assert snap["a_total"].get((), 0) == snap["b_total"].get((), 0)
    finally:
        stop.set()
        thread.join()


def test_exposition_round_trips_through_parser():
    reg = MetricsRegistry()
    reg.counter("frames_total", "frames", ("op",)).labels("depends").inc(11)
    reg.gauge("queue_depth", "queued requests").set(3)
    reg.histogram("batch_seconds", buckets=(0.1, 1.0)).observe(0.5)
    text = reg.exposition()
    assert "# TYPE frames_total counter" in text
    assert "# HELP queue_depth queued requests" in text
    parsed = parse_exposition(text)
    assert parsed[("frames_total", (("op", "depends"),))] == 11
    assert parsed[("queue_depth", ())] == 3
    assert parsed[("batch_seconds_count", ())] == 1
    assert parsed[("batch_seconds_sum", ())] == pytest.approx(0.5)
    # Histogram buckets are cumulative and end at +Inf == count.
    inf_key = ("batch_seconds_bucket", (("le", "+Inf"),))
    assert parsed[inf_key] == 1


def test_observe_rejects_nan_negative_and_inf_without_poisoning():
    reg = MetricsRegistry()
    hist = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
    for bad in (float("nan"), -1.0, float("inf")):
        hist.observe(bad)
    hist.observe(0.5)
    snap = reg.snapshot()
    assert snap["lat_seconds"][()]["count"] == 1
    assert snap["lat_seconds"][()]["sum"] == pytest.approx(0.5)
    assert snap["observe_invalid_total"][("lat_seconds",)] == 3


_EDGES = (0.001, 0.01, 0.1, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from(_EDGES + (0.0, -0.0, -1.0, 1e-300, float("nan"), float("inf"))),
            st.sampled_from(LATENCY_BUCKETS),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_observe_buckets_like_searchsorted_and_drops_what_is_invalid(values):
    """A scalar's bucket is ``np.searchsorted(edges, v, side="left")``; NaN,
    inf and negatives are dropped and counted, never bucketed."""
    reg = MetricsRegistry()
    for name, edges in (("few", _EDGES), ("latency", LATENCY_BUCKETS)):
        hist = reg.histogram(name, buckets=edges)
        want = np.zeros(len(edges) + 1, dtype=np.int64)
        invalid = 0
        for value in values:
            hist.observe(value)
            if np.isfinite(value) and value >= 0.0:
                want[np.searchsorted(np.asarray(edges), value, side="left")] += 1
            else:
                invalid += 1
        snap = reg.snapshot()
        assert snap[name][()]["counts"] == tuple(want.tolist())
        assert snap["observe_invalid_total"].get((name,), 0) == invalid


def test_observe_many_guards_empty_and_mixed_batches():
    reg = MetricsRegistry()
    hist = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
    hist.observe_many(np.asarray([], dtype=np.float64))  # a no-op, not a crash
    hist.observe_many([0.05, float("nan"), -3.0, 0.5, float("inf")])
    snap = reg.snapshot()
    assert snap["lat_seconds"][()]["count"] == 2  # only the two valid values
    assert snap["lat_seconds"][()]["sum"] == pytest.approx(0.55)
    assert snap["observe_invalid_total"][("lat_seconds",)] == 3


def test_exemplars_ride_the_exposition_and_round_trip_the_parser():
    reg = MetricsRegistry()
    hist = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
    hist.observe(0.5)
    hist._solo.put_exemplar(0.5, 0xDEADBEEF)
    text = reg.exposition()
    assert ' # {trace_id="00000000deadbeef"} 0.5' in text
    parsed = parse_exposition(text)  # the suffix must not confuse parsing
    assert parsed[("lat_seconds_bucket", (("le", "1.0"),))] == 1
    assert parsed[("lat_seconds_count", ())] == 1


def test_exposition_quotes_awkward_label_values():
    reg = MetricsRegistry()
    reg.counter("odd_total", "", ("name",)).labels('run "a"\nb\\c').inc()
    parsed = parse_exposition(reg.exposition())
    [(key, value)] = [(k, v) for k, v in parsed.items() if k[0] == "odd_total"]
    assert value == 1
    assert key[1][0][0] == "name"
