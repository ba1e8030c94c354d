"""The frame is the scheduler's unit: one request, one future, one id array.

Covers ``submit_batch`` and the request shape it shares with ``submit`` /
``submit_visible`` / ``submit_many``: query-denominated bounds, frames never
split across steps, same-key frames coalescing into one engine call, a bad
frame failing alone, and hostile sizes rejected before anything is built.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.server as server_module
from repro.core import FVLScheme
from repro.engine import QueryEngine
from repro.errors import LabelingError
from repro.faults import FaultPlan, InjectedFault
from repro.model.projection import ViewProjection
from repro.serve import BatchPolicy, ProvenanceServer
from repro.workloads import build_bioaid_specification, random_run, random_view

SPEC = build_bioaid_specification()
SCHEME = FVLScheme(SPEC)
RUNS = {
    "run-a": random_run(SPEC, 220, seed=71),
    "run-b": random_run(SPEC, 180, seed=72),
}
VIEWS = [
    random_view(SPEC, 6, seed=73, mode="grey", name="frames-v0"),
    random_view(SPEC, 4, seed=74, mode="grey", name="frames-v1"),
]
#: Items visible in both views, per run (any of them may be asked of either).
ITEMS = {
    run: sorted(
        set.intersection(
            *(set(ViewProjection(d.run, view).visible_items) for view in VIEWS)
        )
    )
    for run, d in RUNS.items()
}


def _engine() -> QueryEngine:
    engine = QueryEngine(SCHEME)
    for run, derivation in RUNS.items():
        engine.add_run(run, derivation)
    for view in VIEWS:
        engine.add_view(view)
    return engine


def _server(**policy) -> ProvenanceServer:
    return ProvenanceServer(_engine(), policy=BatchPolicy(**policy) if policy else None)


def _frame(run: str, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.choice(np.asarray(ITEMS[run], dtype=np.int64), size=(n, 2))


def _drain(server: ProvenanceServer) -> None:
    while server.pending:
        server.drain_once()


def _engine_queries(server: ProvenanceServer) -> int:
    return int(sum(server.metrics.snapshot().get("engine_queries_total", {}).values()))


# -- random interleavings of all four entry points ------------------------------

_SUBMISSION = st.tuples(
    st.sampled_from(["submit", "submit_visible", "submit_many", "submit_batch"]),
    st.sampled_from(["depends", "visible"]),
    st.sampled_from(sorted(RUNS)),
    st.integers(0, len(VIEWS) - 1),
    st.integers(0, 40),  # batch size (0 = the empty frame)
    st.integers(0, 2**16),  # which items
)


@settings(max_examples=30, deadline=None)
@given(submissions=st.lists(_SUBMISSION, min_size=1, max_size=24))
def test_interleaved_entry_points_equal_the_engine(submissions):
    server = _server(max_batch=64, max_queue=4096)
    oracle = _engine()
    queries_before = _engine_queries(server)
    outstanding = []  # (read answers, expected)
    asked = 0
    for method, kind, run, view_index, n, seed in submissions:
        view = VIEWS[view_index]
        pairs = _frame(run, max(n, 1), seed)
        if method == "submit":
            d1, d2 = pairs[0].tolist()
            future = server.submit(d1, d2, view, run=run)
            want = oracle.depends_batch([(d1, d2)], view, run=run)
            outstanding.append((lambda f=future: [f.result()], want))
            asked += 1
        elif method == "submit_visible":
            uid = int(pairs[0, 0])
            future = server.submit_visible(uid, view.name, run=run)
            want = oracle.is_visible_batch([uid], view, run=run)
            outstanding.append((lambda f=future: [f.result()], want))
            asked += 1
        else:
            ids = pairs[:n] if kind == "depends" else pairs[:n, 0]
            want = (
                oracle.depends_batch(ids.tolist(), view, run=run)
                if kind == "depends"
                else oracle.is_visible_batch(ids.tolist(), view, run=run)
            )
            if method == "submit_many":
                futures = server.submit_many(kind, ids.tolist(), view, run=run)
                assert len(futures) == n
                outstanding.append((lambda fs=futures: [f.result() for f in fs], want))
            else:
                future = server.submit_batch(kind, ids, view, run=run)

                def read(f=future, n=n):
                    answers = f.result()
                    assert answers.dtype == bool and answers.shape == (n,)
                    return answers.tolist()

                outstanding.append((read, want))
            asked += n
    _drain(server)
    for read, want in outstanding:
        assert read() == want  # slice order preserved within every request
    stats = server.stats
    assert stats.submitted == stats.answered == asked
    assert _engine_queries(server) - queries_before == asked


# -- the step pops whole frames --------------------------------------------------


def test_a_frame_is_never_split_across_steps():
    server = _server(max_batch=64, max_queue=4096)
    big = server.submit_batch("depends", _frame("run-a", 150), VIEWS[0], run="run-a")
    small = server.submit_batch("depends", _frame("run-a", 40, 1), VIEWS[0], run="run-a")
    tail = server.submit_batch("depends", _frame("run-a", 30, 2), VIEWS[0], run="run-a")
    before = server.stats
    # Larger than max_batch: a step of its own, answered by one engine call.
    assert server.drain_once() == 150
    assert big.done() and not small.done()
    assert server.pending == 70
    # 40 + 30 > 64: the second frame waits rather than being cut at 24.
    assert server.drain_once() == 40
    assert small.done() and not tail.done()
    assert server.drain_once() == 30
    after = server.stats
    assert after.batches - before.batches == 3
    assert after.engine_calls - before.engine_calls == 3
    assert after.largest_batch == 150


def test_two_same_key_frames_make_one_engine_call():
    server = _server()
    oracle = _engine()
    first, second = _frame("run-a", 300), _frame("run-a", 200, 1)
    futures = [
        server.submit_batch("depends", ids, VIEWS[0], run="run-a")
        for ids in (first, second)
    ]
    other_key = server.submit_batch("depends", first, VIEWS[1], run="run-a")
    before = server.stats
    assert server.drain_once() == 800
    after = server.stats
    assert after.engine_calls - before.engine_calls == 2  # one per key
    assert after.coalesced - before.coalesced == 800
    for future, ids in zip(futures, (first, second)):
        want = oracle.depends_batch(ids.tolist(), VIEWS[0], run="run-a")
        assert future.result().tolist() == want
    assert other_key.result().tolist() == oracle.depends_batch(
        first.tolist(), VIEWS[1], run="run-a"
    )


def test_nonblocking_admission_counts_queries():
    server = _server(max_batch=256, max_queue=256)
    assert server.submit_batch("depends", _frame("run-a", 200), VIEWS[0], run="run-a")
    refused = server.submit_batch(
        "depends", _frame("run-a", 200, 1), VIEWS[0], run="run-a", block=False
    )
    assert refused is None
    assert server.pending == 200  # one request queued, weighing 200; no residue
    assert server.stats.submitted == 200
    # Room is counted in queries too: 56 more fit, 57 do not.
    assert server.submit_batch(
        "visible", _frame("run-a", 57)[:, 0], VIEWS[0], run="run-a", block=False
    ) is None
    assert server.submit_batch(
        "visible", _frame("run-a", 56)[:, 0], VIEWS[0], run="run-a", block=False
    )
    assert server.pending == 256


def test_stop_fails_a_queued_frame():
    server = _server()
    future = server.submit_batch("depends", _frame("run-a", 50), VIEWS[0], run="run-a")
    server.stop()
    with pytest.raises(RuntimeError, match="stopped"):
        future.result(timeout=1)
    assert server.pending == 0
    with pytest.raises(RuntimeError, match="stopped"):
        server.submit_batch("depends", _frame("run-a", 5), VIEWS[0], run="run-a")


def test_supervisor_fails_the_in_flight_frame():
    server = _server()
    plan = FaultPlan().on("scheduler.batch", count=1)
    ids = _frame("run-a", 64)
    with server:
        with plan.armed():
            doomed = server.submit_batch("depends", ids, VIEWS[0], run="run-a")
            with pytest.raises(InjectedFault):
                doomed.result(timeout=5.0)
        deadline = time.monotonic() + 5.0
        while server.stats.worker_restarts != 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.stats.worker_restarts == 1
        # The restarted worker serves the same frame.
        again = server.submit_batch("depends", ids, VIEWS[0], run="run-a")
        assert again.result(timeout=5.0).shape == (64,)


# -- hostile sizes are rejected before anything is built -------------------------


def test_rejected_batches_construct_nothing(count_constructions):
    server = _server(max_batch=8, max_queue=8)
    requests = count_constructions(server_module, "_Request")
    futures = count_constructions(server_module, "Future")
    oversized = _frame("run-a", 9)
    for submit in (server.submit_batch, server.submit_many):
        with pytest.raises(ValueError, match="never fit"):
            submit("depends", oversized, VIEWS[0], run="run-a")
        with pytest.raises(ValueError, match="never fit"):
            submit("depends", oversized.tolist(), VIEWS[0], run="run-a")
        with pytest.raises(ValueError, match="kind"):
            submit("sideways", oversized[:2], VIEWS[0], run="run-a")
        with pytest.raises(ValueError, match="shape"):
            submit("depends", oversized[:4, 0], VIEWS[0], run="run-a")
        with pytest.raises(ValueError, match="shape"):
            submit("visible", oversized[:4], VIEWS[0], run="run-a")
    server.stop()
    for submit in (server.submit_batch, server.submit_many):
        with pytest.raises(RuntimeError, match="stopped"):
            submit("depends", oversized[:4], VIEWS[0], run="run-a")
    assert not requests and not futures
    assert server.pending == 0 and server.stats.submitted == 0


def test_a_frame_builds_one_request_and_one_future(count_constructions):
    server = _server(max_batch=4096, max_queue=4096)
    requests = count_constructions(server_module, "_Request")
    futures = count_constructions(server_module, "Future")
    future = server.submit_batch("depends", _frame("run-a", 2048), VIEWS[0], run="run-a")
    assert server.drain_once() == 2048
    assert future.result().shape == (2048,)
    assert len(requests) == 1
    assert len(futures) == 1


# -- a bad frame fails alone -----------------------------------------------------


def test_unknown_uid_fails_only_its_own_frame():
    server = _server()
    oracle = _engine()
    good = _frame("run-a", 120)
    bad = _frame("run-a", 80, 1)
    bad[40, 1] = 10**9
    stranger = server.submit_batch("depends", good, VIEWS[0], run="run-a")
    offender = server.submit_batch("depends", bad, VIEWS[0], run="run-a")
    single = server.submit(*good[0].tolist(), VIEWS[0], run="run-a")
    before = server.stats
    assert server.drain_once() == 201
    after = server.stats
    with pytest.raises(LabelingError):
        offender.result()
    want = oracle.depends_batch(good.tolist(), VIEWS[0], run="run-a")
    assert stranger.result().tolist() == want
    assert single.result() == want[0]
    # The coalesced call that raised, then one retry per member.
    assert after.engine_calls - before.engine_calls == 4
    assert after.answered - before.answered == 201
    assert server.last_error is None  # contained: not a scheduler fault
