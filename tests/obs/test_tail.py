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
    pending = tail.open(trace_id, "depends", "r", "v", None, 1)
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
    # ... and the adaptive threshold is now the p95 bucket's lower edge,
    # which sits under 4ms but far above a genuinely fast request.
    fast, _ = run_request(tail, clock, 1e-6)
    assert len(tail.kept()) == WARMUP and fast.reason is None  # fast and healthy
    edge, _ = run_request(tail, clock, 0.004)
    assert edge.reason == "slow"  # at the threshold's own bucket: kept
    slow_pending, _ = run_request(tail, clock, 1.0)
    kept = tail.kept()
    assert len(kept) == WARMUP + 2
    assert kept[-1].reason == "slow"
    assert kept[-1].trace_id == slow_pending.trace_id


def test_every_slowest_one_percent_request_is_kept_at_a_bounded_keep_rate(monkeypatch):
    """The capture contract, on a fake clock: 100% of the slowest 1%, for < 20% kept.

    The threshold is the p95 bucket's *lower* edge, so it under-estimates the
    p95 and a request at or above the true p99 cannot duck under it; the
    price is keeping more than 5% (here every wall in the bucket the p95
    falls in, plus the warm-up).  The ring holds every kept record, so this
    measures the keep decision, not the eviction policy.
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
    pending = tail.open(99, "depends", "r", "v", None, 4)
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
