"""Tail sampling: warmup keep-all, adaptive threshold, outcome keeps, ring."""

from __future__ import annotations

from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, parse_exposition
from repro.obs.trace import WARMUP, Sampler

import pytest


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def make(reg=None, **kwargs):
    reg = reg if reg is not None else MetricsRegistry()
    clock = FakeClock()
    return reg, clock, Sampler(reg, clock=clock, **kwargs)


def run_request(tail, clock, wall, trace_id=None, **finish_kwargs):
    pending = tail.open(trace_id, "depends", "r", "v", 1)
    clock.t += wall
    return pending, tail.finish(pending, **finish_kwargs)


def test_finish_returns_the_wall_it_observed():
    _reg, clock, tail = make()
    pending, wall = run_request(tail, clock, 0.25)
    assert wall == pytest.approx(0.25) == pending.wall_s


def test_warmup_keeps_everything_then_threshold_rises():
    reg, clock, tail = make()
    for _ in range(WARMUP):
        run_request(tail, clock, 0.004)
    # All warmup requests were kept (threshold 0 while learning) ...
    assert len(tail.kept()) == WARMUP
    # ... and the adaptive threshold is now the stream's p95, interpolated
    # in its bucket: above a request like the stream's, far below a slow one.
    fast, _ = run_request(tail, clock, 1e-6)
    assert len(tail.kept()) == WARMUP and fast.reason is None  # fast and healthy
    usual, _ = run_request(tail, clock, 0.004)
    assert usual.reason is None  # in the p95's bucket, under the p95: not kept
    slow_pending, _ = run_request(tail, clock, 1.0)
    kept = tail.kept()
    assert len(kept) == WARMUP + 1
    assert kept[-1].reason == "slow"
    assert kept[-1].trace_id == slow_pending.trace_id


def test_every_slowest_one_percent_request_is_kept_at_a_bounded_keep_rate(monkeypatch):
    """The capture contract, on a fake clock: 100% of the slowest 1%, for < 20% kept.

    The threshold is the p95 interpolated inside its bucket, never above
    that bucket's upper edge, so a request at or above the true p99 is kept
    only when the p99 falls in a higher bucket than the p95: a heavy-tailed
    stream, like this log-normal one (a steady stream gives no such
    guarantee; see the next test).  The ring holds every kept record, so
    this measures the keep decision, not the eviction policy.
    """
    import math
    import random

    monkeypatch.setattr(obs_trace, "RING_MAX_ENTRIES", 1 << 20)
    monkeypatch.setattr(obs_trace, "RING_MAX_BYTES", 1 << 30)
    reg, clock = MetricsRegistry(), FakeClock()
    tail = Sampler(reg, clock=clock)
    rng = random.Random(20)
    walls = [rng.lognormvariate(math.log(1e-3), 1.0) for _ in range(6000)]  # median 1 ms
    ids = [run_request(tail, clock, wall)[0].trace_id for wall in walls]
    p99 = sorted(walls)[math.ceil(0.99 * len(walls)) - 1]
    assert max(walls) > 2 * p99  # a tail worth the name
    slowest = [at for at in range(WARMUP, len(walls)) if walls[at] >= p99]
    kept = {record.trace_id for record in tail.kept()}
    assert len(slowest) >= 50 and all(ids[at] in kept for at in slowest)
    snap = reg.snapshot()
    considered = snap["tail_considered_total"][()]
    assert considered == len(walls)
    assert snap["tail_kept_total"][("slow",)] == len(kept) < 0.20 * considered


def test_a_steady_stream_keeps_few_frames_and_still_keeps_an_outlier(monkeypatch):
    """Warm frames of a steady stream are not "slow": at most 10 % are kept.

    The walls spread ±10 % around 1 ms, across the bucket edge at 1 ms, so
    half of them share the bucket the p95 falls in — a threshold at that
    bucket's lower edge kept every one of those.  A frame ten times the
    usual is still kept.
    """
    import random

    monkeypatch.setattr(obs_trace, "RING_MAX_ENTRIES", 1 << 20)
    monkeypatch.setattr(obs_trace, "RING_MAX_BYTES", 1 << 30)
    _reg, clock, tail = make()
    rng = random.Random(44)
    walls = [rng.uniform(0.9e-3, 1.1e-3) for _ in range(2000)]
    for wall in walls[:WARMUP]:
        run_request(tail, clock, wall)
    steady = [run_request(tail, clock, wall)[0] for wall in walls[WARMUP:]]
    slow = sum(request.reason == "slow" for request in steady)
    assert slow <= 0.10 * len(steady), slow
    outlier, _ = run_request(tail, clock, 10e-3)
    assert outlier.reason == "slow" and tail.kept()[-1] is outlier


def test_errors_and_sheds_are_kept_no_matter_how_fast():
    _reg, clock, tail = make(sample_rate=1.0)
    for _ in range(WARMUP + 20):
        run_request(tail, clock, 0.004)
    before = len(tail.kept())
    run_request(tail, clock, 1e-6, error=True)
    run_request(tail, clock, 1e-6, shed=True)
    run_request(tail, clock, 1e-6, trace_id=7)  # head-sampled, fast, healthy
    reasons = [record.reason for record in tail.kept()[before:]]
    assert reasons == ["error", "shed", "head"]


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
    reg, clock, tail = make()
    extra = 6
    pendings = [
        run_request(tail, clock, 1e-6, error=True)[0]
        for _ in range(obs_trace.RING_MAX_ENTRIES + extra)
    ]
    kept = tail.kept()
    assert len(kept) == obs_trace.RING_MAX_ENTRIES
    assert kept == pendings[extra:]
    snap = reg.snapshot()
    assert snap["tail_evicted_total"][()] == extra
    assert tail.ring_bytes == sum(record.nbytes for record in kept) > 0


def test_head_sampled_trace_rides_along_in_the_kept_record(tmp_path):
    _reg, clock, tail = make(sample_rate=1.0)
    pending = tail.open(99, "depends", "r", "v", 4)
    clock.t += 0.5
    tail.finish(pending, error=True)
    [record] = tail.kept()
    assert record is pending
    dumped = record.to_dict()
    assert dumped["spans"][0]["name"] == "net.frame"
    assert dumped["spans"][0]["attrs"]["n"] == 4
    assert dumped["dropped_spans"] == 0
    out = tmp_path / "kept.jsonl"
    assert tail.dump(str(out)) == 1
    assert "net.frame" in out.read_text()


def test_constructor_validates_knobs():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        Sampler(reg, sample_rate=1.5)
    with pytest.raises(ValueError):
        Sampler(reg, sample_rate=-0.1)
