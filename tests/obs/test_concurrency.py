"""Concurrency guarantees: snapshot atomicity, kept-ring accounting.

Eight writer threads is the contract's stress shape: enough to force real
interleaving on any CI box, small enough to finish in well under a second.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RING_MAX_ENTRIES, Sampler

N_THREADS = 8


def test_snapshot_never_tears_ordered_counter_pairs():
    """Each writer incs ``a`` then ``b``; a snapshot must never show b > a.

    ``snapshot()`` copies every family under the one registry lock, so the
    only legal skew is the <= N_THREADS increments that are between their
    ``a`` and ``b`` bumps at the instant the lock was taken.
    """
    reg = MetricsRegistry()
    a = reg.counter("a_total")
    b = reg.counter("b_total")
    stop = threading.Event()
    started = threading.Barrier(N_THREADS + 1)

    def writer():
        started.wait()
        while not stop.is_set():
            a.inc()
            b.inc()

    threads = [threading.Thread(target=writer, daemon=True) for _ in range(N_THREADS)]
    for thread in threads:
        thread.start()
    started.wait()
    try:
        for _ in range(400):
            snap = reg.snapshot()
            seen_a = snap["a_total"].get((), 0)
            seen_b = snap["b_total"].get((), 0)
            assert seen_b <= seen_a, (seen_a, seen_b)
            assert seen_a - seen_b <= N_THREADS, (seen_a, seen_b)
    finally:
        stop.set()
        for thread in threads:
            thread.join()


def test_tracer_ring_eviction_accounts_exactly_under_contention():
    """inserted == kept + evicted, and ring bytes match the sizes stored."""
    per_thread = 200
    reg = MetricsRegistry()
    sampler = Sampler(reg, sample_rate=1.0)
    started = threading.Barrier(N_THREADS)

    def writer(base: int):
        started.wait()
        for n in range(per_thread):
            request = sampler.open(base * per_thread + n + 1, "depends", "r", "v", None, 1)
            assert request.trace is not None  # sample_rate 1.0 admits every id
            sampler.finish(request)  # kept: slow while warming up, head after

    threads = [
        threading.Thread(target=writer, args=(i,), daemon=True)
        for i in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    kept = sampler.kept()
    snap = reg.snapshot()
    inserted = sum(snap["tail_kept_total"].values())
    assert inserted == N_THREADS * per_thread
    assert len(kept) == RING_MAX_ENTRIES
    assert len(kept) + snap["tail_evicted_total"][()] == inserted
    assert sampler.ring_bytes == sum(request.nbytes for request in kept)
