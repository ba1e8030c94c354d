"""Tail sampler: warmup keep-all, adaptive threshold, outcome keeps, ring."""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, parse_exposition
from repro.obs.tail import TailSampler
from repro.obs.trace import Trace

import pytest


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def make(reg=None, **kwargs):
    reg = reg if reg is not None else MetricsRegistry()
    clock = FakeClock()
    kwargs.setdefault("warmup", 8)
    kwargs.setdefault("refresh_every", 1)
    return reg, clock, TailSampler(reg, clock=clock, **kwargs)


def run_request(tail, clock, wall, **finish_kwargs):
    pending = tail.open(None, "depends", "v")
    clock.t += wall
    return pending, tail.finish(pending, **finish_kwargs)


def test_finish_returns_wall_and_tolerates_missing_pending():
    _reg, clock, tail = make()
    _pending, wall = run_request(tail, clock, 0.25)
    assert wall == pytest.approx(0.25)
    assert tail.finish(None) == -1.0


def test_warmup_keeps_everything_then_threshold_rises():
    reg, clock, tail = make()
    for _ in range(8):
        run_request(tail, clock, 0.004)
    # All warmup requests were kept (threshold 0 while learning) ...
    assert len(tail.kept()) == 8
    # ... and the adaptive threshold is now the p95 bucket's lower edge,
    # which sits under 4ms but far above a genuinely fast request.
    threshold = tail.threshold("depends", "v")
    assert 0.0 < threshold <= 0.004

    fast = run_request(tail, clock, threshold / 4)
    assert len(tail.kept()) == 8, fast  # dropped: fast and healthy
    slow_pending, _ = run_request(tail, clock, 1.0)
    kept = tail.kept()
    assert len(kept) == 9
    assert kept[-1]["reason"] == "slow"
    assert kept[-1]["trace_id"] == slow_pending.trace_id
    assert slow_pending.trace_id in tail.kept_ids()


def test_every_slowest_one_percent_request_is_kept_at_a_bounded_keep_rate():
    """The capture contract, on a fake clock: 100% of the slowest 1%, for < 20% kept.

    The threshold is the p95 bucket's *lower* edge, so it under-estimates the
    p95 and a request at or above the true p99 cannot duck under it; the
    price is keeping more than 5% (here every wall in the bucket the p95
    falls in, plus the warm-up).  The ring holds every kept record, so this
    measures the keep decision, not the eviction policy.
    """
    import math
    import random

    reg, clock = MetricsRegistry(), FakeClock()
    tail = TailSampler(reg, clock=clock, ring_max_entries=1 << 20, ring_max_bytes=1 << 30)
    rng = random.Random(20)
    walls = [rng.lognormvariate(math.log(1e-3), 1.0) for _ in range(6000)]  # median 1 ms
    ids = [run_request(tail, clock, wall)[0].trace_id for wall in walls]
    p99 = sorted(walls)[math.ceil(0.99 * len(walls)) - 1]
    assert max(walls) > 2 * p99  # a tail worth the name
    slowest = [at for at in range(tail.warmup, len(walls)) if walls[at] >= p99]
    kept = tail.kept_ids()
    assert len(slowest) >= 50 and all(ids[at] in kept for at in slowest)
    snap = reg.snapshot()
    considered = snap["tail_considered_total"][()]
    assert considered == len(walls)
    assert snap["tail_kept_total"][("slow",)] == len(kept) < 0.20 * considered


def test_errors_and_sheds_are_kept_no_matter_how_fast():
    _reg, clock, tail = make()
    for _ in range(20):
        run_request(tail, clock, 0.004)
    before = len(tail.kept())
    run_request(tail, clock, 1e-6, error=True)
    run_request(tail, clock, 1e-6, shed=True)
    reasons = [record["reason"] for record in tail.kept()[before:]]
    assert reasons == ["error", "shed"]


def test_kept_request_stamps_an_exemplar_on_the_histogram():
    reg, clock, tail = make()
    pending, _ = run_request(tail, clock, 0.5, error=True)
    text = reg.exposition()
    want = format(pending.trace_id, "016x")
    assert f'trace_id="{want}"' in text
    # The exemplar suffix must not break the scrape parser.
    parsed = parse_exposition(text)
    assert parsed[("tail_considered_total", ())] == 1


def test_kept_ring_is_entry_bounded_and_counts_evictions():
    reg, clock, tail = make(ring_max_entries=4)
    pendings = [run_request(tail, clock, 1e-6, error=True)[0] for _ in range(10)]
    assert len(tail.kept()) == 4
    assert tail.kept_ids() == {p.trace_id for p in pendings[-4:]}
    snap = reg.snapshot()
    assert snap["tail_evicted_total"][()] == 6
    assert tail.ring_bytes > 0


def test_head_sampled_trace_rides_along_in_the_kept_record(tmp_path):
    _reg, clock, tail = make()
    trace = Trace(99)
    span = trace.begin_span("net.frame")
    span.finish()
    run_request(tail, clock, 0.5, error=True, trace=trace)
    [record] = tail.kept()
    assert record["spans"][0]["name"] == "net.frame"
    assert record["dropped_spans"] == 0
    out = tmp_path / "kept.jsonl"
    assert tail.dump(str(out)) == 1
    assert "net.frame" in out.read_text()


def test_constructor_validates_knobs():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        TailSampler(reg, percentile=1.0)
    with pytest.raises(ValueError):
        TailSampler(reg, warmup=0)
