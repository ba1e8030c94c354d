"""Tests for the query-coalescing ProvenanceServer (serve/server.py)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import FVLScheme
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.errors import LabelingError, ViewError
from repro.model.projection import ViewProjection
from repro.serve import BatchPolicy, ProvenanceServer, ReopenPolicy
from repro.bench import sample_query_pairs
from repro.workloads import build_bioaid_specification, random_run, random_view

pytestmark = pytest.mark.usefixtures("detach_engines")


@pytest.fixture(scope="module")
def spec():
    return build_bioaid_specification()


@pytest.fixture(scope="module")
def scheme(spec):
    return FVLScheme(spec)


@pytest.fixture(scope="module")
def workload(spec):
    derivation = random_run(spec, 250, seed=21)
    view = random_view(spec, 6, seed=22, mode="grey", name="serve-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 300, seed=23)
    return derivation, view, items, pairs


@pytest.fixture()
def served(scheme, workload, tmp_path):
    derivation, view, items, pairs = workload
    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view).tolist()
    expected_visible = reference.is_visible_batch(items, view).tolist()
    run_file = tmp_path / "serve.fvl"
    reference.checkpoint(run_file)
    engine = QueryEngine(scheme)
    server = ProvenanceServer(engine)
    server.attach(run_file)
    return server, view, items, pairs, expected, expected_visible


# -- policy validation ---------------------------------------------------------


def test_batch_policy_validation():
    with pytest.raises(ValueError, match="max_batch"):
        BatchPolicy(max_batch=0)
    with pytest.raises(ValueError, match="max_queue"):
        BatchPolicy(max_batch=64, max_queue=32)


def test_reopen_policy_validation():
    with pytest.raises(ValueError, match="after_queries"):
        ReopenPolicy(after_queries=0)
    with pytest.raises(ValueError, match="after_seconds"):
        ReopenPolicy(after_seconds=0.0)


def test_server_rejects_zero_workers(scheme):
    for workers in (0, 2):
        with pytest.raises(ValueError, match="workers"):
            ProvenanceServer(QueryEngine(scheme), workers=workers)


# -- inline (threadless) mode --------------------------------------------------


def test_inline_drain_answers_bit_identical(served):
    server, view, items, pairs, expected, expected_visible = served
    futures = [server.submit_batch("depends", [pair], view) for pair in pairs]
    visible_futures = [server.submit_batch("visible", [uid], view) for uid in items]
    drained = 0
    while server.pending:
        drained += server.drain_once()
    assert drained == len(pairs) + len(items)
    assert [f.result().item() for f in futures] == expected
    assert [f.result().item() for f in visible_futures] == expected_visible


def test_one_frame_answers_inline(served, ask):
    server, view, items, pairs, expected, expected_visible = served
    assert ask(server, "depends", pairs[:1], view).tolist() == expected[:1]
    assert ask(server, "visible", items[:1], view).tolist() == expected_visible[:1]
    assert server.pending == 0


def test_one_drain_step_groups_per_view_and_kind(served):
    """A mixed drain makes one engine call per (kind, run, view) group.

    The second frame per pair names the view by name: it once named a label
    variant too and was served by an engine call of its own.
    """
    server, view, items, pairs, expected, expected_visible = served
    futures = []
    for pair in pairs[:40]:
        futures.append(server.submit_batch("depends", [pair], view))
        futures.append(server.submit_batch("depends", [pair], view.name))
    for uid in items[:20]:
        server.submit_batch("visible", [uid], view)
    before = server.stats
    assert server.drain_once() == 100
    after = server.stats
    assert after.batches - before.batches == 1
    assert after.engine_calls - before.engine_calls == 2
    answers = [bool(future.result()[0]) for future in futures]
    assert answers == [bit for bit in expected[:40] for _ in range(2)]
    assert after.coalesced - before.coalesced == 100
    assert after.largest_batch >= 100


def test_drain_respects_max_batch(scheme, workload, tmp_path):
    derivation, view, items, pairs = workload
    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    run_file = tmp_path / "bounded.fvl"
    reference.checkpoint(run_file)
    engine = QueryEngine(scheme)
    server = ProvenanceServer(engine, policy=BatchPolicy(max_batch=16, max_queue=4096))
    server.attach(run_file)
    futures = [server.submit_batch("depends", [pair], view) for pair in pairs[:50]]
    assert server.drain_once() == 16
    assert server.pending == 34
    while server.pending:
        server.drain_once()
    assert all(f.done() for f in futures)


def test_queue_full_without_workers_raises(scheme):
    server = ProvenanceServer(
        QueryEngine(scheme), policy=BatchPolicy(max_batch=2, max_queue=2)
    )
    server.submit_batch("depends", [(1, 2)], "any-view")
    server.submit_batch("depends", [(1, 2)], "any-view")
    with pytest.raises(RuntimeError, match="queue is full"):
        server.submit_batch("depends", [(1, 2)], "any-view")


# -- error propagation ---------------------------------------------------------


def test_engine_errors_reach_the_futures(served):
    server, view, items, pairs, _, _ = served
    unknown_view = server.submit_batch("depends", pairs[:1], "no-such-view")
    unknown_run = server.submit_batch("depends", pairs[1:2], view, run="no-such-run")
    good = server.submit_batch("depends", pairs[2:3], view)
    while server.pending:
        server.drain_once()
    with pytest.raises(ViewError):
        unknown_view.result()
    with pytest.raises(LabelingError):
        unknown_run.result()
    assert good.result().shape == (1,)  # a bad group never poisons a good one


def test_stop_fails_leftover_requests(served):
    server, view, _, pairs, _, _ = served
    future = server.submit_batch("depends", pairs[:1], view)
    server.stop()  # never started: the queued request must not hang forever
    with pytest.raises(RuntimeError, match="stopped"):
        future.result(timeout=1)
    with pytest.raises(RuntimeError, match="stopped"):
        server.submit_batch("depends", pairs[:1], view)


# -- threaded mode -------------------------------------------------------------


def test_threaded_clients_get_bit_identical_answers(served):
    server, view, items, pairs, expected, expected_visible = served
    n_clients = 8
    results: list = [None] * n_clients
    visible_results: list = [None] * n_clients
    errors: list = []

    def client(index: int) -> None:
        try:
            futures = [server.submit_batch("depends", [pair], view) for pair in pairs]
            visible = [server.submit_batch("visible", [uid], view) for uid in items]
            results[index] = [f.result(timeout=30).item() for f in futures]
            visible_results[index] = [f.result(timeout=30).item() for f in visible]
        except Exception as exc:  # pragma: no cover - surfaced by the assert
            errors.append(exc)

    with server:
        assert server.running
        threads = [
            threading.Thread(target=client, args=(index,)) for index in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert not errors
    assert all(answers == expected for answers in results)
    assert all(answers == expected_visible for answers in visible_results)
    stats = server.stats
    total = n_clients * (len(pairs) + len(items))
    assert stats.submitted == stats.answered == total
    # Coalescing actually happened: far fewer engine calls than requests.
    assert stats.engine_calls < total
    assert stats.coalesced > 0
    assert stats.largest_batch > 1


def test_start_twice_rejected_and_restartable(served, ask):
    server, view, _, pairs, expected, _ = served
    with server:
        with pytest.raises(RuntimeError, match="already running"):
            server.start()
        assert ask(server, "depends", pairs[:1], view).tolist() == expected[:1]
    assert not server.running
    # stop() drained; a fresh start serves again.
    with server:
        assert ask(server, "depends", pairs[1:2], view).tolist() == expected[1:2]


def test_workers_drain_backlog_on_stop(served):
    """Requests queued before start() are answered, not dropped: start()
    combines on the caller's thread."""
    server, view, _, pairs, expected, _ = served
    futures = [server.submit_batch("depends", [pair], view) for pair in pairs]
    server.start()
    server.stop()
    assert [f.result(timeout=30).item() for f in futures] == expected


# -- combining: the submitter that finds no step in flight serves the queue ------


def _held(monkeypatch, engine, gate=None):
    """Hold the first engine call until released, and call ``gate`` before each
    later one; ``(started, release, threads)``, ``threads`` naming the thread
    of every engine call."""
    answer = engine.answer
    started, release = threading.Event(), threading.Event()
    threads: list = []

    def held(*args, **kwargs):
        threads.append(threading.current_thread().name)
        if not started.is_set():
            started.set()
            release.wait(10.0)
        elif gate is not None:
            gate()
        return answer(*args, **kwargs)

    monkeypatch.setattr(engine, "answer", held)
    return started, release, threads


def _thread(name: str, target) -> threading.Thread:
    thread = threading.Thread(target=target, name=name, daemon=True)
    thread.start()
    return thread


def test_start_starts_no_thread(served, ask):
    server, view, _, pairs, expected, _ = served
    before = threading.active_count()
    with server:
        assert threading.active_count() == before
        assert ask(server, "depends", pairs[:8], view).tolist() == expected[:8]
        assert threading.active_count() == before
    assert threading.active_count() == before


def test_frames_queued_during_a_step_are_one_step_of_its_combiner(served, monkeypatch):
    """A submitter that finds a step in flight returns at once; the combiner
    pops everything that queued meanwhile as one step, one engine call."""
    server, view, _, pairs, expected, _ = served
    started, release, threads = _held(monkeypatch, server.engine)
    before = server.stats
    with server:
        combiner = _thread("A", lambda: server.submit_batch("depends", pairs[:1], view))
        assert started.wait(5.0)
        futures = [server.submit_batch("depends", [pair], view) for pair in pairs[1:4]]
        assert not any(future.done() for future in futures) and server.pending == 3
        release.set()
        combiner.join(5.0)
        assert not combiner.is_alive()
        assert all(future.done() for future in futures)  # served before A returned
        assert [future.result().item() for future in futures] == expected[1:4]
    after = server.stats
    assert after.batches - before.batches == 2
    assert after.engine_calls - before.engine_calls == 2
    assert after.coalesced - before.coalesced == 3
    assert threads == ["A", "A"]


@pytest.fixture()
def blocked(scheme, workload, tmp_path, monkeypatch):
    """A step held on thread A, a queue of 4 filled from thread B, and thread
    C's ``submit_batch`` waiting for room:
    ``(server, release, threads, a, c, outcome, expected)``."""
    derivation, view, items, pairs = workload
    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs[:6], view).tolist()
    run_file = tmp_path / "blocked.fvl"
    reference.checkpoint(run_file)
    server = ProvenanceServer(
        QueryEngine(scheme), policy=BatchPolicy(max_batch=4, max_queue=4)
    )
    server.attach(run_file)
    outcome: dict = {}

    def until_c_returned():
        # A's second step waits for C to be queued (or refused), so whose
        # step serves C's frame does not hang on thread scheduling.
        deadline = time.monotonic() + 5.0
        while "c" not in outcome and time.monotonic() < deadline:
            time.sleep(0.001)

    started, release, threads = _held(monkeypatch, server.engine, until_c_returned)
    server.start()
    a = _thread("A", lambda: server.submit_batch("depends", pairs[:1], view))
    assert started.wait(5.0)
    fill = [pairs[1:3], pairs[3:4], pairs[4:5]]
    b = _thread("B", lambda: outcome.update(b=[server.submit_batch("depends", f, view) for f in fill]))
    b.join(5.0)
    assert not b.is_alive() and server.pending == 4

    def wait_for_room():
        try:
            outcome["c"] = server.submit_batch("depends", pairs[5:6], view)
        except Exception as exc:
            outcome["c"] = exc

    waiting = threading.Event()
    wait = server._cond.wait

    def noted_wait(*args):
        waiting.set()
        return wait(*args)

    monkeypatch.setattr(server._cond, "wait", noted_wait)
    c = _thread("C", wait_for_room)
    assert waiting.wait(5.0)  # C waits on the scheduler's condition: the queue is full
    assert c.is_alive() and "c" not in outcome
    try:
        yield server, release, threads, a, c, outcome, expected
    finally:
        release.set()
        server.stop()


def test_a_blocked_submitter_is_served_by_the_combiner_that_popped_room(blocked):
    server, release, threads, a, c, outcome, expected = blocked
    release.set()
    c.join(5.0)
    a.join(5.0)
    assert not c.is_alive() and not a.is_alive()
    # C queued its frame once A popped B's, found A combining and returned;
    # A served it before giving the role up.
    assert outcome["c"].done() and outcome["c"].result().tolist() == expected[5:6]
    assert [bit for f in outcome["b"] for bit in f.result(timeout=0).tolist()] == expected[1:5]
    assert set(threads) == {"A"} and len(threads) == 3  # A's frame, B's four, C's
    assert server.pending == 0


def test_stop_during_a_blocked_submit_raises_in_the_submitter(blocked):
    server, release, threads, a, c, outcome, expected = blocked
    stopper = _thread("stopper", server.stop)
    c.join(5.0)
    assert not c.is_alive()
    assert isinstance(outcome["c"], RuntimeError) and "stopped" in str(outcome["c"])
    stopper.join(0.2)
    assert stopper.is_alive()  # stop() waits for A's step
    release.set()
    stopper.join(5.0)
    a.join(5.0)
    assert not stopper.is_alive() and not a.is_alive()
    # The combiner drained what was queued before stop(): B's frames are answered.
    assert [bit for f in outcome["b"] for bit in f.result(timeout=1).tolist()] == expected[1:5]
    assert set(threads) == {"A"}


def test_a_done_callback_that_submits_from_inside_a_step_is_answered(served):
    """Re-entry from a reply: the step's thread is the combiner, so the inner
    frame is queued and served by the same thread's next step — no deadlock."""
    server, view, _, pairs, expected, _ = served
    inner: list = []
    outer = server.submit_batch("depends", pairs[:2], view)  # queued: not started
    outer.add_done_callback(
        lambda _: inner.append(server.submit_batch("depends", pairs[2:5], view))
    )
    server.start()  # combines on this thread
    try:
        assert outer.result(timeout=0).tolist() == expected[:2]
        [future] = inner
        assert future.result(timeout=0).tolist() == expected[2:5]
        assert server.pending == 0
    finally:
        server.stop()


def test_stop_from_inside_a_step_raises_instead_of_waiting_for_itself(served):
    server, view, _, pairs, expected, _ = served
    errors: list = []

    def stop(_future):
        try:
            server.stop()
        except RuntimeError as exc:
            errors.append(exc)

    future = server.submit_batch("depends", pairs[:2], view)  # queued: not started
    future.add_done_callback(stop)
    starter = _thread("starter", server.start)
    starter.join(5.0)
    assert not starter.is_alive()  # start() -> step -> callback -> stop() returned
    [error] = errors
    assert "its own thread" in str(error)
    assert future.result(timeout=0).tolist() == expected[:2]
    assert server.running
    server.stop()
    assert not server.running


def test_a_step_submitting_into_its_own_full_queue_raises(scheme):
    """Only the combiner would pop room for it: the submit raises rather than hang."""
    server = ProvenanceServer(
        QueryEngine(scheme), policy=BatchPolicy(max_batch=1, max_queue=2)
    )
    errors: list = []

    def resubmit(_future):
        try:
            server.submit_batch("depends", [(1, 2), (3, 4)], "any-view")
        except RuntimeError as exc:
            errors.append(exc)

    first = server.submit_batch("depends", [(1, 2)], "any-view")
    server.submit_batch("depends", [(1, 2)], "any-view")
    first.add_done_callback(resubmit)
    server.start()
    server.stop()
    [error] = errors
    assert "this thread is serving it" in str(error)


# -- synchronized error surfaces -----------------------------------------------


def test_last_errors_live_in_the_stats_snapshot(served):
    server, view, _, pairs, _, _ = served
    assert server.stats.last_error is None
    assert server.stats.last_warm_error is None
    boom = ViewError("boom")
    warm = LabelingError("cold")
    server.last_error = boom
    server.last_warm_error = warm
    stats = server.stats
    assert stats.last_error is boom
    assert stats.last_warm_error is warm
    # The attribute views agree with the snapshot.
    assert server.last_error is boom
    assert server.last_warm_error is warm


def test_last_error_updates_race_free_with_stats_reads(served):
    """Concurrent writers and readers of last_error never tear or crash."""
    server, view, _, pairs, _, _ = served
    errors: list = []
    stop = threading.Event()
    exceptions = [ViewError(f"e{i}") for i in range(4)]

    def writer(exc) -> None:
        try:
            while not stop.is_set():
                server.last_error = exc
        except Exception as failure:  # pragma: no cover
            errors.append(failure)

    def reader() -> None:
        try:
            while not stop.is_set():
                snapshot = server.stats
                assert snapshot.last_error is None or snapshot.last_error in exceptions
        except Exception as failure:  # pragma: no cover
            errors.append(failure)

    threads = [
        threading.Thread(target=writer, args=(exc,), daemon=True)
        for exc in exceptions
    ]
    threads += [threading.Thread(target=reader, daemon=True) for _ in range(2)]
    for thread in threads:
        thread.start()
    try:
        time.sleep(0.3)
    finally:
        stop.set()
    for thread in threads:
        thread.join(timeout=5)
    assert not errors
    assert server.stats.last_error in exceptions


# -- submit_many (one future per item) ----------------------------------------


def test_submit_many_matches_singleton_answers(served):
    server, view, items, pairs, expected, expected_visible = served
    futures = server.submit_many("depends", pairs, view)
    visible = server.submit_many("visible", items, view)
    while server.pending:
        server.drain_once()
    assert [f.result() for f in futures] == expected
    assert [f.result() for f in visible] == expected_visible


def test_submit_many_takes_one_engine_call_per_key(served):
    server, view, _, pairs, expected, _ = served
    before = server.stats
    futures = server.submit_many("depends", pairs, view)
    server.drain_once()
    after = server.stats
    assert after.engine_calls - before.engine_calls == 1
    assert after.submitted - before.submitted == len(pairs)
    assert [f.result() for f in futures] == expected


def test_a_nonblocking_frame_behind_submit_many_is_refused_whole(scheme, workload, offer):
    _, view, _, pairs = workload
    server = ProvenanceServer(
        QueryEngine(scheme), policy=BatchPolicy(max_batch=8, max_queue=8)
    )
    assert server.submit_many("depends", pairs[:8], view) is not None
    assert server.pending == 8
    assert offer(server, "depends", pairs[8:12], view) == (False, [])
    assert server.pending == 8  # the refused batch left no partial residue


def test_submit_many_rejects_impossible_batches(scheme, workload):
    _, view, _, pairs = workload
    server = ProvenanceServer(
        QueryEngine(scheme), policy=BatchPolicy(max_batch=8, max_queue=8)
    )
    with pytest.raises(ValueError, match="never fit"):
        server.submit_many("depends", pairs[:9], view)
    with pytest.raises(ValueError, match="kind"):
        server.submit_many("sideways", pairs[:2], view)


def test_submit_many_empty_and_stopped(scheme, workload):
    _, view, _, pairs = workload
    server = ProvenanceServer(QueryEngine(scheme))
    assert server.submit_many("depends", [], view) == []
    server.stop()
    with pytest.raises(RuntimeError, match="stopped"):
        server.submit_many("depends", pairs[:2], view)
