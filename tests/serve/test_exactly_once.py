"""Every record is replied to exactly once, on every path that fails a frame.

A record's reply sink is cleared before it is called (``Request.resolve``),
so a failure path that sweeps a step whose records were already answered
replies to none of them twice; a sink that raises is recorded on
``last_error`` and costs the rest of its group neither their bits nor a
second engine call.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import FVLScheme
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.errors import LabelingError
from repro.faults import FaultPlan, InjectedFault
from repro.model.projection import ViewProjection
from repro.obs.trace import Request
from repro.serve import BatchPolicy, ProvenanceServer, ReopenPolicy
from repro.workloads import build_bioaid_specification, random_run, random_view

SPEC = build_bioaid_specification()
SCHEME = FVLScheme(SPEC)
RUN = random_run(SPEC, 150, seed=91)
VIEW = random_view(SPEC, 5, seed=92, mode="grey", name="once-view")
ITEMS = sorted(ViewProjection(RUN.run, VIEW).visible_items)


def _engine() -> QueryEngine:
    engine = QueryEngine(SCHEME)
    engine.add_run(DEFAULT_RUN, RUN)
    engine.add_view(VIEW)
    return engine


ORACLE = _engine()


def _frame(n: int, offset: int = 0) -> np.ndarray:
    return np.asarray(
        [(ITEMS[(offset + i) % len(ITEMS)], ITEMS[(3 * i + 1) % len(ITEMS)]) for i in range(n)],
        dtype=np.int64,
    )


class Replies:
    """A reply sink that logs every call per record; the records whose ids are
    in ``raising`` raise after the call is logged."""

    def __init__(self) -> None:
        self.calls: dict[int, list] = {}
        self.raising: set[int] = set()

    def __call__(self, record, answers, error) -> None:
        self.calls.setdefault(id(record), []).append((answers, error))
        if id(record) in self.raising:
            raise RuntimeError("the sink broke")

    def of(self, record) -> list:
        return self.calls.get(id(record), [])


def _queue(server, sink, frames) -> list:
    """One record per frame, queued through ``serve_frame`` (which takes no step)."""
    records = []
    for ids in frames:
        record = Request(0, "depends", DEFAULT_RUN, VIEW.name, len(ids), 0.0)
        record.reply = sink
        assert server.serve_frame(record, ids, VIEW)
        records.append(record)
    return records


def _answered_once(sink, record, ids) -> None:
    [(answers, error)] = sink.of(record)
    assert error is None
    assert answers.tolist() == ORACLE.depends_batch(ids, VIEW).tolist()


def _failed_once(sink, record, kind) -> None:
    [(answers, error)] = sink.of(record)
    assert answers is None and isinstance(error, kind)


def test_a_raising_sink_costs_its_group_nothing():
    server = ProvenanceServer(_engine())
    frames = [_frame(16), _frame(8, 5), _frame(12, 9)]
    sink = Replies()
    records = _queue(server, sink, frames)
    sink.raising = {id(records[1])}
    before = server.stats
    assert server.drain_once() == 36
    assert server.stats.engine_calls - before.engine_calls == 1  # no per-member retry
    for record, ids in zip(records, frames):
        _answered_once(sink, record, ids)
    assert str(server.last_error) == "the sink broke"


def test_an_armed_step_fails_its_record_once():
    server = ProvenanceServer(_engine())
    ids = _frame(16)
    sink = Replies()
    with server, FaultPlan().on("scheduler.batch", count=1).armed():
        [record] = _queue(server, sink, [ids])
        server.combine()
        _failed_once(sink, record, InjectedFault)
        assert isinstance(server.last_error, InjectedFault)
        assert server._combiner is None


def test_an_armed_step_fails_each_of_its_records_once():
    server = ProvenanceServer(_engine())
    frames = [_frame(16), _frame(8, 5), _frame(12, 9)]
    sink = Replies()
    records = _queue(server, sink, frames)  # queued before start: one step takes all three
    with FaultPlan().on("scheduler.batch", count=1).armed():
        with server:
            for record in records:
                _failed_once(sink, record, InjectedFault)
            # The next frame's submitter combines and is answered.
            [again] = _queue(server, sink, [frames[0]])
            server.combine()
            _answered_once(sink, again, frames[0])


def test_a_step_failing_after_a_partial_answer_replies_to_each_record_once(monkeypatch):
    server = ProvenanceServer(_engine())
    frames = [_frame(16), _frame(8, 5), _frame(12, 9)]
    sink = Replies()
    records = _queue(server, sink, frames)
    process = server._process

    def fails_after_the_first_answer(batch):
        if len(batch) == len(frames):
            server._reply(batch[0], ORACLE.depends_batch(frames[0], VIEW))
            raise RuntimeError("step failed")
        process(batch)

    monkeypatch.setattr(server, "_process", fails_after_the_first_answer)
    with server:
        _answered_once(sink, records[0], frames[0])
        for record in records[1:]:
            _failed_once(sink, record, RuntimeError)
        assert str(server.last_error) == "step failed"


def test_submitters_racing_the_combiners_release_get_one_reply_each():
    """More submitter threads than cores queue frames and combine, round after
    round, while the combiner role changes hands under a short switch
    interval.  Once every submitter of a round has returned, nothing is left
    queued (a combiner that gave the role up after a record slipped in would
    strand it), and every record has had exactly one reply, bit-identical to
    the engine's."""
    server = ProvenanceServer(_engine(), policy=BatchPolicy(max_batch=16, max_queue=65536))
    sink = Replies()
    n_threads, per_thread = 8, 40
    sent: list = []
    errors: list = []

    def round_ended() -> None:
        if server.pending:
            errors.append(f"{server.pending} queries stranded after a round")
            server.drain_once()  # the next round starts clean

    barrier = threading.Barrier(n_threads, action=round_ended)

    def submitter(index: int) -> None:
        try:
            for k in range(per_thread):
                ids = _frame(1 + (index + k) % 12, index * per_thread + k)
                [record] = _queue(server, sink, [ids])
                sent.append((record, ids))
                server.combine()
                barrier.wait(30.0)
        except Exception as exc:  # pragma: no cover - surfaced by the assert
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with server:
            threads = [threading.Thread(target=submitter, args=(i,)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
            assert server.pending == 0 and server._combiner is None
            assert len(sent) == n_threads * per_thread
            for record, ids in sent:
                _answered_once(sink, record, ids)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    stats = server.stats
    assert stats.submitted == stats.answered


def test_a_probe_failure_after_the_answers_replies_to_no_record_twice(monkeypatch):
    engine = _engine()
    server = ProvenanceServer(engine, reopen=ReopenPolicy(after_queries=1))
    frames = [_frame(16), _frame(8, 5)]
    sink = Replies()
    records = _queue(server, sink, frames)

    def refuses(run):
        raise LabelingError(f"run {run!r} cannot be remapped")

    monkeypatch.setattr(engine, "reopen", refuses)
    with server:
        assert isinstance(server.last_error, LabelingError)
    # The step that failed after answering has swept its batch.
    for record, ids in zip(records, frames):
        _answered_once(sink, record, ids)


def test_stop_replies_once_to_every_queued_record():
    server = ProvenanceServer(_engine(), policy=BatchPolicy(max_batch=8, max_queue=64))
    frames = [_frame(16), _frame(8, 5), _frame(12, 9)]
    sink = Replies()
    records = _queue(server, sink, frames)
    server.stop()
    server.stop()
    for record in records:
        _failed_once(sink, record, RuntimeError)
        assert "stopped" in str(sink.of(record)[0][1])
    assert server.pending == 0
    with pytest.raises(RuntimeError, match="stopped"):
        server.serve_frame(records[0], frames[0], VIEW)
