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
    with pytest.raises(ValueError, match="max_linger_us"):
        BatchPolicy(max_linger_us=-1)
    with pytest.raises(ValueError, match="max_queue"):
        BatchPolicy(max_batch=64, max_queue=32)


def test_reopen_policy_validation():
    with pytest.raises(ValueError, match="after_queries"):
        ReopenPolicy(after_queries=0)
    with pytest.raises(ValueError, match="after_seconds"):
        ReopenPolicy(after_seconds=0.0)


def test_server_rejects_zero_workers(scheme):
    with pytest.raises(ValueError, match="workers"):
        ProvenanceServer(QueryEngine(scheme), workers=0)


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
    """Requests queued before stop() are answered, not dropped."""
    server, view, _, pairs, expected, _ = served
    futures = [server.submit_batch("depends", [pair], view) for pair in pairs]
    server.start()
    server.stop()
    assert [f.result(timeout=30).item() for f in futures] == expected


# -- the injected clock drives linger ------------------------------------------


class _FakeClock:
    """A monotonic clock that leaps forward a fixed step per reading."""

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def test_linger_deadline_runs_on_the_injected_clock(scheme, workload, tmp_path):
    """A 10-second linger elapses promptly under a fast fake clock.

    The linger deadline used to be pinned to ``time.monotonic()`` no matter
    what ``clock=`` was injected, so this test would hang for the full real
    10 seconds instead of the handful of 50ms condition waits it takes the
    fake clock to leap past the deadline.
    """
    derivation, view, items, pairs = workload
    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    run_file = tmp_path / "clock.fvl"
    reference.checkpoint(run_file)
    engine = QueryEngine(scheme)
    server = ProvenanceServer(
        engine,
        policy=BatchPolicy(max_batch=4096, max_linger_us=10_000_000),
        clock=_FakeClock(step=1.0),
    )
    server.attach(run_file)
    with server:
        future = server.submit_batch("depends", pairs[:1], view)
        assert future.result(timeout=5).shape == (1,)


def test_wall_clock_linger_still_collects_promptly(served, ask):
    """Sanity: the default clock path answers well under the linger bound."""
    server, view, _, pairs, expected, _ = served
    with server:
        assert ask(server, "depends", pairs[:1], view).tolist() == expected[:1]


# -- only 1-query frames linger ---------------------------------------------------


class _HandClock:
    """A clock that stands still until the test moves it."""

    now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def frozen(served):
    """The served stack under a 10 s linger on a clock that does not move.

    Whatever lingers here lingers until the test moves the clock (or the
    5 s ``result`` timeout fails it).
    """
    server, view, _, pairs, expected, _ = served
    clock = _HandClock()
    patient = ProvenanceServer(
        server.engine,
        policy=BatchPolicy(max_batch=1024, max_linger_us=10_000_000),
        clock=clock,
    )
    return patient, clock, view, pairs, expected


def test_a_frame_does_not_wait_out_the_linger(frozen):
    """The linger turns concurrent 1-query frames into a batch; a larger frame already is one."""
    server, _, view, pairs, expected = frozen
    with server:
        frame = server.submit_batch("depends", pairs[:256], view)
        assert frame.result(timeout=5).tolist() == expected[:256]
    assert server.stats.engine_calls == 1


def test_a_frame_arriving_behind_a_lingering_singleton_ends_the_linger(frozen):
    server, _, view, pairs, expected = frozen
    with server:
        single = server.submit_batch("depends", pairs[:1], view)
        time.sleep(0.1)  # the worker holds it, waiting for company
        assert not single.done() and server.pending == 1
        frame = server.submit_batch("depends", pairs[1:257], view)
        assert frame.result(timeout=5).tolist() == expected[1:257]
        assert single.result(timeout=5).tolist() == expected[:1]
    # Same key, one step: the singleton rode along in the frame's engine call.
    stats = server.stats
    assert (stats.engine_calls, stats.batches, stats.coalesced) == (1, 1, 257)


def test_two_singletons_still_linger_and_coalesce(frozen):
    server, clock, view, pairs, expected = frozen
    with server:
        futures = [server.submit_batch("depends", [pair], view) for pair in pairs[:2]]
        time.sleep(0.1)
        assert not any(future.done() for future in futures)  # held for company
        clock.now = 11.0  # past the linger deadline; the next wake-up sees it
        assert [future.result(timeout=5).item() for future in futures] == expected[:2]
    stats = server.stats
    assert (stats.engine_calls, stats.batches, stats.coalesced) == (1, 1, 2)


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
