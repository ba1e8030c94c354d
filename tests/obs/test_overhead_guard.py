"""Allocation guard: obs state must stay bounded no matter how many queries run.

The one ring of kept requests and the metrics registry are the only obs
structures that live past a request.  This guard drives a 100k-query
workload (2 000 frames of 50 queries, every frame head-sampled and so every
frame kept — the worst case for the ring) and asserts that obs memory is
governed by the ring's bounds, not by the query count: the ring reports
within its caps and the process-level allocation growth stays under a fixed
budget.  If someone makes kept records unbounded again, this fails with
numbers, not a slow leak in production.
"""

from __future__ import annotations

import tracemalloc

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RING_MAX_BYTES, RING_MAX_ENTRIES, Sampler, activate, trace_span

QUERIES = 100_000
FRAME = 50
#: Net allocation budget for the whole 100k-query run: the ring at its caps,
#: the registry's handful of families, and slack for allocator noise.
ALLOC_BUDGET = 2 << 20


def test_100k_query_run_keeps_obs_memory_within_budget():
    registry = MetricsRegistry()
    sampler = Sampler(registry, sample_rate=1.0)  # worst case: every frame traced
    queries_c = registry.counter("queries_total", "", ("op",)).labels("depends")
    batch_h = registry.histogram("batch_seconds", buckets=(0.001, 0.01, 0.1))

    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    try:
        for frame_no in range(QUERIES // FRAME):
            request = sampler.open(frame_no + 1, "depends", "r", "v", FRAME)
            with activate(request.trace, request.root.span_id):
                with trace_span("scheduler.batch", batch=frame_no):
                    with trace_span("engine.depends_batch", pairs=FRAME):
                        queries_c.inc(FRAME)
                        batch_h.observe(0.0005)
            sampler.finish(request)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert queries_c.value == QUERIES
    # The ring honoured its bounds and evicted instead of growing.
    assert sampler.ring_bytes <= RING_MAX_BYTES
    assert len(sampler.kept()) == RING_MAX_ENTRIES
    snap = registry.snapshot()
    assert snap["tail_evicted_total"][()] == QUERIES // FRAME - RING_MAX_ENTRIES
    grew = after - before
    assert grew < ALLOC_BUDGET, (
        f"obs structures grew {grew / 1024:.0f} KiB over {QUERIES} queries; "
        f"budget is {ALLOC_BUDGET / 1024:.0f} KiB — a ring bound has stopped "
        "being enforced"
    )
    # The registry never lies when records rot: every query is still counted.
    assert snap["trace_sampled_total"][()] == QUERIES // FRAME
    assert snap["queries_total"][("depends",)] == QUERIES
