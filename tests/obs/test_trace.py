"""Unit tests for tracing: sampling, span nesting, the one bounded ring."""

from __future__ import annotations

import json
import threading

from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    Sampler,
    Trace,
    activate,
    current_trace,
    trace_span,
)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _sampled_id(sampler: Sampler, start: int = 1) -> int:
    trace_id = start
    while not sampler.sampled(trace_id):
        trace_id += 1
    return trace_id


def _unsampled_id(sampler: Sampler, start: int = 1) -> int:
    trace_id = start
    while sampler.sampled(trace_id):
        trace_id += 1
    return trace_id


def _open(sampler: Sampler, trace_id):
    return sampler.open(trace_id, "depends", "r", "v", 1)


def test_sampling_is_deterministic_in_the_trace_id():
    sampler = Sampler(MetricsRegistry(), sample_rate=1.0 / 8.0)
    decisions = [sampler.sampled(i) for i in range(1, 2000)]
    assert decisions == [sampler.sampled(i) for i in range(1, 2000)]
    rate = sum(decisions) / len(decisions)
    assert 0.05 < rate < 0.25  # roughly 1/8, mixed well enough


def test_begin_respects_sampling_and_rate_zero():
    sampler = Sampler(MetricsRegistry(), sample_rate=0.5)
    assert _open(sampler, _unsampled_id(sampler)).trace is None
    sampled = _open(sampler, _sampled_id(sampler))
    assert sampled.trace is not None and sampled.root.name == "net.frame"
    # The record is its own cross-thread handle: its trace, rooted at ``root``.
    assert sampled.trace.spans == [sampled.root] and sampled.root.parent_id is None
    # No wire trace id: never sampled, but the record still gets an id.
    unsampled = _open(Sampler(MetricsRegistry(), sample_rate=1.0), None)
    assert unsampled.trace is None and unsampled.trace_id > 0
    assert _open(Sampler(MetricsRegistry(), sample_rate=0.0), 123).trace is None
    assert _open(Sampler(MetricsRegistry(), sample_rate=1.0), 123).trace is not None


def test_trace_span_nests_and_noops_without_active_trace():
    with trace_span("orphan") as span:
        assert span is None  # no active trace -> no-op
    trace = Trace(7)
    with activate(trace):
        with trace_span("outer", op="depends") as outer:
            with trace_span("inner") as inner:
                pass
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert outer.attrs == {"op": "depends"}
    assert outer.wall_s >= 0 and inner.wall_s >= 0
    [root] = trace.span_tree()
    assert root["name"] == "outer"
    assert [c["name"] for c in root["children"]] == ["inner"]


def test_span_tree_orders_siblings_deterministically_with_full_paths():
    trace = Trace(11)
    root = trace.begin_span("net.frame")
    first = trace.begin_span("scheduler.batch", root.span_id)
    second = trace.begin_span("scheduler.batch", root.span_id)
    leaf = trace.begin_span("engine.depends_batch", second.span_id)
    # Finish out of allocation order, as racing workers would.
    for span in (leaf, second, first, root):
        span.finish()
    [tree_root] = trace.span_tree()
    # Siblings come back in span-id (allocation) order, not finish order.
    assert [c["span_id"] for c in tree_root["children"]] == [
        first.span_id, second.span_id
    ]
    # Every node carries its slash-joined ancestor chain.
    assert tree_root["path"] == "net.frame"
    assert tree_root["children"][1]["path"] == "net.frame/scheduler.batch"
    nested = tree_root["children"][1]["children"][0]
    assert nested["path"] == "net.frame/scheduler.batch/engine.depends_batch"
    # The same tree (ids, paths) serialises identically on every walk.
    assert trace.span_tree() == trace.span_tree()


def test_slow_log_records_embed_parent_chains(tmp_path):
    sampler = Sampler(MetricsRegistry(), sample_rate=1.0)
    request = _open(sampler, 5)
    child = request.trace.begin_span("scheduler.batch", request.root.span_id)
    child.finish()
    sampler.finish(request)  # warming up: every request is slow
    out = tmp_path / "kept.jsonl"
    assert sampler.dump(out) == 1
    [record] = [json.loads(line) for line in out.read_text().splitlines()]
    assert record["reason"] == "slow"
    [dumped_root] = record["spans"]
    assert dumped_root["path"] == "net.frame"
    assert dumped_root["children"][0]["path"] == "net.frame/scheduler.batch"


def test_a_record_carries_its_trace_across_threads():
    request = _open(Sampler(MetricsRegistry(), sample_rate=1.0), 9)
    seen = {}

    def worker():
        assert current_trace() is None  # contextvars do not follow threads
        with activate(request.trace, request.root.span_id):
            with trace_span("scheduler.batch") as span:
                seen["parent"] = span.parent_id

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    request.root.finish()
    assert seen["parent"] == request.root.span_id


def test_a_record_replies_once_and_the_ring_keeps_no_frame():
    sampler = Sampler(MetricsRegistry(), sample_rate=1.0)
    request = _open(sampler, 3)
    replies = []
    request.ids, request.reply_to = [1, 2], "connection"
    request.reply = lambda record, answers, error: replies.append(
        (record.reply_to, answers, error)
    )
    request.resolve("bits")
    request.resolve(None, RuntimeError("a later sweep"))  # already replied: a no-op
    assert replies == [("connection", "bits", None)] and request.reply is None
    sampler.finish(request)  # warming up: kept as slow
    [kept] = sampler.kept()
    assert kept is request and kept.ids is None and kept.reply_to is None


def test_span_budget_drops_instead_of_growing():
    trace = Trace(1, max_spans=4)
    for i in range(10):
        trace.begin_span(f"s{i}")
    assert len(trace.spans) == 4
    assert trace.dropped_spans == 6


def test_ring_is_bounded_by_entries_and_bytes():
    reg = MetricsRegistry()
    sampler = Sampler(reg, sample_rate=1.0)
    extra = 8
    for i in range(1, obs_trace.RING_MAX_ENTRIES + extra + 1):
        sampler.finish(_open(sampler, i))
    assert len(sampler.kept()) == obs_trace.RING_MAX_ENTRIES
    assert reg.snapshot()["tail_evicted_total"][()] == extra

    # Traces at the span budget: the byte bound bites long before the entry bound.
    reg = MetricsRegistry()
    heavy = Sampler(reg, sample_rate=1.0)
    for i in range(1, 400):
        request = _open(heavy, i)
        for _ in range(obs_trace.MAX_SPANS):
            request.trace.begin_span("engine.decode", request.root.span_id, {"groups": i})
        heavy.finish(request)
    kept = heavy.kept()
    evicted = reg.snapshot()["tail_evicted_total"][()]
    assert heavy.ring_bytes == sum(r.nbytes for r in kept) <= obs_trace.RING_MAX_BYTES
    assert evicted > 0 and len(kept) + evicted == 399
    assert len(kept) < obs_trace.RING_MAX_ENTRIES


def test_slow_log_files_only_slow_traces_and_stays_bounded(tmp_path):
    clock = FakeClock()
    sampler = Sampler(MetricsRegistry(), sample_rate=0.0, clock=clock)

    def run(wall):
        request = _open(sampler, None)
        clock.t += wall
        sampler.finish(request)
        return request

    for _ in range(obs_trace.WARMUP):
        run(0.004)
    fast = [run(1e-6) for _ in range(obs_trace.RING_MAX_ENTRIES)]
    slow = [run(1.0) for _ in range(obs_trace.RING_MAX_ENTRIES + 5)]
    kept = sampler.kept()
    # Only slow requests entered the ring past warm-up; the oldest rotted away.
    assert [r.trace_id for r in kept] == [r.trace_id for r in slow[5:]]
    assert all(r.reason is None for r in fast)
    out = tmp_path / "kept.jsonl"
    assert sampler.dump(out) == obs_trace.RING_MAX_ENTRIES
    lines = out.read_text().splitlines()
    assert {json.loads(line)["reason"] for line in lines} == {"slow"}


def test_tracer_registers_metrics_counters():
    reg = MetricsRegistry()
    sampler = Sampler(reg, sample_rate=1.0)
    for i in range(1, 6):
        request = _open(sampler, i)
        request.trace.begin_span("s", request.root.span_id).finish()
        sampler.finish(request, error=i == 5)
    _open(sampler, None)  # no wire id: not sampled, never finished
    snap = reg.snapshot()
    assert snap["trace_sampled_total"][()] == 5
    assert snap["tail_considered_total"][()] == 5
    assert snap["tail_kept_total"] == {("slow",): 4, ("error",): 1}
    assert "trace_slow_total" not in snap and "trace_dropped_total" not in snap
