"""Tests for the socket server and pooled client (net/server.py, net/client.py)."""

from __future__ import annotations

import contextlib
import socket
import struct
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

import repro.net.server as net_server_module
import repro.obs.trace as obs_trace
import repro.serve.server as serve_module
from repro.core import FVLScheme
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.faults import FaultPlan, InjectedFault
from repro.model.projection import ViewProjection
from repro.net import (
    AnswersReply,
    ErrorReply,
    ProvenanceClient,
    ProvenanceNetServer,
    RemoteQueryError,
    ServerOverloadedError,
    ShedReply,
    StatsReply,
    decode_reply,
    encode_depends_request,
    encode_metrics_request,
    encode_stats_request,
    encode_visible_request,
)
from repro.obs.metrics import MetricsRegistry, parse_exposition
from repro.obs.trace import WARMUP, Sampler
from repro.serve import BatchPolicy, ProvenanceServer
from repro.bench import sample_query_pairs
from repro.workloads import build_bioaid_specification, random_run, random_view


@pytest.fixture(scope="module")
def spec():
    return build_bioaid_specification()


@pytest.fixture(scope="module")
def scheme(spec):
    return FVLScheme(spec)


@pytest.fixture(scope="module")
def workload(spec):
    derivation = random_run(spec, 250, seed=41)
    view = random_view(spec, 6, seed=42, mode="grey", name="net-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 300, seed=43)
    return derivation, view, items, pairs


@pytest.fixture(scope="module")
def run_file(scheme, workload, tmp_path_factory):
    derivation, view, items, pairs = workload
    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view).tolist()
    expected_visible = reference.is_visible_batch(items, view).tolist()
    path = tmp_path_factory.mktemp("net") / "net.fvl"
    reference.checkpoint(path)
    return path, expected, expected_visible


@pytest.fixture()
def served(scheme, workload, run_file, tmp_path):
    """A running scheduler + net server on a unix socket and a TCP port."""
    _, view, items, pairs = workload
    path, expected, expected_visible = run_file
    engine = QueryEngine(scheme)
    server = ProvenanceServer(engine)
    server.attach(path)
    engine.add_view(view)
    sock_path = tmp_path / "prov.sock"
    try:
        with server:
            with ProvenanceNetServer(
                server, unix_path=sock_path, host="127.0.0.1", port=0
            ) as net:
                yield net, sock_path, view, items, pairs, expected, expected_visible
    finally:
        engine.detach(DEFAULT_RUN)


# -- correctness over the wire --------------------------------------------------


def test_unix_socket_answers_bit_identical(served):
    net, sock_path, view, items, pairs, expected, expected_visible = served
    with ProvenanceClient(unix_path=sock_path) as client:
        assert client.depends_batch(pairs, view.name).tolist() == expected
        assert client.is_visible_batch(items, view.name).tolist() == expected_visible


def test_tcp_answers_match_unix(served):
    net, sock_path, view, items, pairs, expected, _ = served
    assert net.tcp_address is not None
    with ProvenanceClient(address=net.tcp_address) as client:
        assert client.depends_batch(pairs, view.name).tolist() == expected


def test_singleton_helpers_send_one_frame_each(served):
    net, sock_path, view, items, pairs, expected, expected_visible = served
    with ProvenanceClient(unix_path=sock_path, pool_size=2) as client:
        n = 24
        results: list = [None] * n

        def probe(index: int) -> None:
            if index % 2:
                results[index] = client.depends(*pairs[index], view.name)
            else:
                results[index] = client.is_visible(items[index], view.name)

        threads = [threading.Thread(target=probe, args=(i,)) for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index in range(n):
            want = expected[index] if index % 2 else expected_visible[index]
            assert results[index] == want
    # No client-side coalescing: each probe is its own 1-query frame (the
    # server's scheduler is the one coalescer).
    assert net.stats.frames == n


def test_empty_batches_short_circuit(served):
    net, sock_path, view, _, _, _, _ = served
    with ProvenanceClient(unix_path=sock_path) as client:
        assert client.depends_batch([], view.name).tolist() == []
        assert client.is_visible_batch([], view.name).tolist() == []


def test_many_threaded_clients_bit_identical(served):
    net, sock_path, view, items, pairs, expected, expected_visible = served
    n_clients = 8
    errors: list = []

    def client_thread() -> None:
        try:
            with ProvenanceClient(unix_path=sock_path, retries=8) as client:
                assert client.depends_batch(pairs, view.name).tolist() == expected
                assert client.is_visible_batch(items, view.name).tolist() == expected_visible
        except Exception as exc:  # pragma: no cover - surfaced by the assert
            errors.append(exc)

    threads = [threading.Thread(target=client_thread) for _ in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    stats = net.stats
    assert stats.connections >= n_clients
    assert stats.answered_frames >= 2 * n_clients
    assert stats.sheds == 0  # 8 x 300 pairs against a 65,536-query queue: nothing to shed


# -- failure surfaces -----------------------------------------------------------


def test_unknown_view_raises_remote_error(served):
    net, sock_path, _, _, pairs, _, _ = served
    with ProvenanceClient(unix_path=sock_path) as client:
        with pytest.raises(RemoteQueryError, match="unknown view") as info:
            client.depends_batch(pairs[:3], "no-such-view")
        assert info.value.kind == "ViewError"


def test_unknown_run_raises_remote_error(served):
    net, sock_path, view, _, pairs, _, _ = served
    with ProvenanceClient(unix_path=sock_path) as client:
        with pytest.raises(RemoteQueryError):
            client.depends_batch(pairs[:3], view.name, run="no-such-run")


def _exchange(raw: socket.socket, frame: bytes):
    """Send one frame on a raw connection and decode the one reply."""

    def receive(n: int) -> bytes:
        data = b""
        while len(data) < n:
            chunk = raw.recv(n - len(data))
            assert chunk, "the server hung up"
            data += chunk
        return data

    raw.sendall(frame)
    (length,) = struct.unpack("<I", receive(4))
    return decode_reply(receive(length))


def test_a_frame_naming_a_variant_is_refused_and_mints_no_series(served):
    """The server serves views: a frame whose variant field is set is a typed error.

    The refusal answers on the frame's own request id before any record is
    opened, so a head-sampled refused frame adds no ``tail_request_seconds``
    observation and no ``cost_seconds_total`` series; the connection lives on.
    """
    net, sock_path, view, _, pairs, expected, _ = served
    sampler = Sampler(MetricsRegistry())  # the server's default head rate
    trace_id = next(tid for tid in range(1, 1 << 16) if sampler.sampled(tid))
    ids = np.asarray(pairs[:25], dtype=np.int64)
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(str(sock_path))
    try:
        refused = _exchange(
            raw,
            encode_depends_request(
                41, DEFAULT_RUN, view.name, "space-efficient", ids, trace_id=trace_id
            ),
        )
        assert isinstance(refused, ErrorReply) and refused.request_id == 41
        assert refused.kind == "DecodingError" and "serves views" in refused.message
        answered = _exchange(raw, encode_depends_request(42, DEFAULT_RUN, view.name, None, ids))
        assert isinstance(answered, AnswersReply) and answered.request_id == 42
        assert answered.answers.tolist() == expected[:25]
    finally:
        raw.close()
    with ProvenanceClient(unix_path=sock_path) as client:
        series = parse_exposition(client.server_metrics())
    observed = {
        labels: count for (name, labels), count in series.items()
        if name == "tail_request_seconds_count"
    }
    assert observed == {(("op", "depends"), ("view", view.name)): 1.0}
    assert not [name for name, _ in series if name.startswith("cost_")]
    assert net.stats.errors >= 1


def test_bogus_view_and_variant_names_mint_no_metric_series(served):
    """Hostile frames are answered with typed errors and leave the exposition's series alone.

    The latency histogram is labelled ``{op, view}``, the cost counters
    ``{run, view, phase}``, and a label lives as long as
    the registry, so the wire's strings label them only once the engine
    knows them: one ``(unknown)`` child takes every other frame, whatever it
    names.
    """
    net, sock_path, view, _, pairs, expected, _ = served
    n = 900
    ids = np.asarray(pairs[:2], dtype=np.int64)

    def bogus(raw, i: int) -> None:
        run = DEFAULT_RUN
        if i % 3 == 1:
            name, variant, kind = f"no-such-view-{i}", None, "ViewError"
        elif i % 3 == 2:  # refused before any record: the server serves views
            name, variant, kind = view.name, f"no-such-variant-{i}", "DecodingError"
        else:
            name, variant, kind = view.name, None, "LabelingError"
            run = f"no-such-run-{i}"
        reply = _exchange(raw, encode_depends_request(i, run, name, variant, ids, trace_id=i + 1))
        assert isinstance(reply, ErrorReply) and (reply.request_id, reply.kind) == (i, kind)

    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(str(sock_path))
    try:
        for i in range(n):
            if i == 3:  # one bogus frame of each kind has been answered
                first = _exchange(raw, encode_metrics_request(n)).text
            bogus(raw, i)
        after = _exchange(raw, encode_metrics_request(n)).text
        # The next good frame on the same connection is answered.
        good = _exchange(raw, encode_depends_request(n, DEFAULT_RUN, view.name, None, pairs[:25]))
        assert good.answers.tolist() == expected[:25]
        assert net.stats.connections == 1
    finally:
        raw.close()
    assert "no-such-" not in after
    series = parse_exposition(after)
    children = {
        dict(labels)["view"] for name, labels in series if name == "tail_request_seconds_count"
    }
    # The bogus-view frames under ``(unknown)``; bogus runs and good frames
    # under the view; the refused frames under nothing.
    assert children == {"(unknown)", view.name}
    cost_runs = {dict(labels)["run"] for name, labels in series if name == "cost_seconds_total"}
    # Some bogus-run frame was head-sampled and billed, under ``(unknown)``.
    assert "(unknown)" in cost_runs and cost_runs <= {DEFAULT_RUN, "(unknown)"}
    # Counters gain digits, buckets exemplars, a head-sampled trace its cost
    # rows under the fixed labels; an unbounded family grew ~3 KB per frame.
    assert len(after) - len(first) < 4096


# -- one record per frame, every frame head-sampled -------------------------------


class StepClock:
    """Each reading is ``step`` seconds after the last, so a request's wall is ``step``."""

    def __init__(self, step: float) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


@contextmanager
def traced_stack(scheme, workload, run_file, tmp_path, clock=time.perf_counter):
    """A running stack whose sampler head-samples every frame."""
    _, view, _, _ = workload
    engine = QueryEngine(scheme)
    sampler = Sampler(engine.metrics, sample_rate=1.0, clock=clock)
    server = ProvenanceServer(engine, sampler=sampler)
    server.attach(run_file[0])
    engine.add_view(view)
    sock_path = tmp_path / "traced.sock"
    try:
        with server, ProvenanceNetServer(server, unix_path=sock_path):
            with ProvenanceClient(unix_path=sock_path) as client:
                yield server, client
    finally:
        engine.detach(DEFAULT_RUN)


def test_cost_phases_partition_every_traced_frames_wall(scheme, workload, run_file, tmp_path):
    """Σ phases == Σ root walls: the reply closes the root inside the open
    ``scheduler.batch``, which bills up to the root's end, and the queue
    wait is carved out of ``net``, not added beside it."""
    _, view, _, pairs = workload
    frame, want = (pairs * 2)[:256], (run_file[1] * 2)[:256]
    with traced_stack(scheme, workload, run_file, tmp_path) as (server, client):
        for _ in range(200):
            assert client.depends_batch(frame, view.name).tolist() == want
        # The sampler finishes a frame before its reply is queued.
        snap = server.metrics.snapshot()
        kept = server.sampler.kept()
    assert len(kept) == 200 and not snap.get("tail_evicted_total")
    costs = snap["cost_seconds_total"]
    roots = sum(record.root.wall_s for record in kept)
    assert sum(costs.values()) == pytest.approx(roots, rel=1e-6)
    assert costs[(DEFAULT_RUN, view.name, "scheduler")] > 0
    assert costs[(DEFAULT_RUN, view.name, "engine")] > 0


def test_a_traced_frame_lands_as_a_head_record_nesting_scheduler_and_engine(
    scheme, workload, run_file, tmp_path
):
    """Over a real socket at rate 1: past warm-up, a fast healthy frame is
    kept for its head sample alone, with its whole span tree."""
    _, view, _, pairs = workload
    clock = StepClock(1.0)  # every warm-up frame takes a second ...
    with traced_stack(scheme, workload, run_file, tmp_path, clock) as (server, client):
        for _ in range(WARMUP):
            client.depends_batch(pairs[:64], view.name)
        clock.step = 1e-6  # ... and the next one a microsecond
        assert client.depends_batch(pairs[:64], view.name).tolist() == run_file[1][:64]
        record = server.sampler.kept()[-1]
    assert record.reason == "head" and record.wall_s == pytest.approx(1e-6)
    [root] = record.to_dict()["spans"]
    assert (root["name"], root["attrs"]["n"]) == ("net.frame", 64)
    [step] = root["children"]
    assert step["path"] == "net.frame/scheduler.batch"
    assert {child["name"] for child in step["children"]} >= {"engine.depends_batch"}


@contextmanager
def _wedged(scheme, view, pairs, tmp_path):
    """A net server whose scheduler (not started) holds a full queue of 8."""
    backed_up = ProvenanceServer(
        QueryEngine(scheme), policy=BatchPolicy(max_batch=8, max_queue=8)
    )
    sock_path = tmp_path / "wedged.sock"
    with ProvenanceNetServer(backed_up, unix_path=sock_path) as net:
        filler = ProvenanceClient(unix_path=sock_path, timeout=10.0)

        def fill() -> None:
            try:
                filler.depends_batch(pairs[:8], view.name)  # answered by stop()
            except RemoteQueryError:
                pass

        thread = threading.Thread(target=fill, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while backed_up.pending < 8 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert backed_up.pending == 8
        try:
            yield net, sock_path
        finally:
            # The queued frame's "stopped" error reply is what ends the
            # filler's blocked read; closing its socket would not wake it.
            backed_up.stop()
            thread.join(5.0)
            assert not thread.is_alive()
            filler.close()


def test_full_queue_sheds_instead_of_hanging(scheme, workload, tmp_path):
    """A wedged scheduler (not started) yields SHED replies, never a hang."""
    _, view, _, pairs = workload
    with _wedged(scheme, view, pairs, tmp_path) as (net, sock_path):
        with ProvenanceClient(unix_path=sock_path) as client:
            with pytest.raises(ServerOverloadedError) as info:
                client.depends_batch(pairs[:4], view.name)
            assert info.value.queue_depth == 8
            assert info.value.retry_after_s > 0
        assert net.stats.sheds == 1


def test_a_shed_reply_carries_the_module_retry_hint(scheme, workload, tmp_path, monkeypatch):
    _, view, _, pairs = workload
    monkeypatch.setattr(net_server_module, "SHED_RETRY_AFTER_S", 0.125)
    with _wedged(scheme, view, pairs, tmp_path) as (net, sock_path):
        with ProvenanceClient(unix_path=sock_path, breaker_threshold=None) as client:
            for _ in range(2):
                with pytest.raises(ServerOverloadedError) as info:
                    client.is_visible_batch([1, 2], view.name)
                assert info.value.retry_after_s == 0.125
        assert net.stats.sheds == 2


def test_oversized_batch_answers_error_and_survives(
    scheme, workload, tmp_path, count_constructions
):
    _, view, _, pairs = workload
    tiny = ProvenanceServer(
        QueryEngine(scheme), policy=BatchPolicy(max_batch=8, max_queue=8)
    )
    records = count_constructions(obs_trace, "Request")
    futures = count_constructions(serve_module, "Future")
    sock_path = tmp_path / "tiny.sock"
    with ProvenanceNetServer(tiny, unix_path=sock_path) as net:
        with ProvenanceClient(unix_path=sock_path) as client:
            with pytest.raises(RemoteQueryError, match="never fit") as info:
                client.depends_batch(pairs[:20], view.name)
            assert info.value.kind == "ValueError"
            # The loop survived; the same connection still answers stats.
            assert client.server_stats()["status"] == "ok"
            assert net.stats.connections == 1
    # Refused on its size alone: the frame's one record, kept as an error,
    # never reached the scheduler (no key, no future).
    assert len(records) == 1 and not futures
    assert [(r.reason, r.key) for r in tiny.sampler.kept()] == [("error", None)]


def test_a_wire_frame_costs_one_record_and_no_future(served, count_constructions):
    """2,048 pairs cross socket -> scheduler -> engine as one record, no future."""
    net, sock_path, view, _, pairs, expected, _ = served
    frame = (pairs * 7)[:2048]
    futures = count_constructions(serve_module, "Future")
    records = count_constructions(obs_trace, "Request")
    scheduler_records = count_constructions(serve_module, "Request")
    with ProvenanceClient(unix_path=sock_path) as client:
        assert client.depends_batch(frame, view.name).tolist() == (expected * 7)[:2048]
    assert len(records) == 1
    assert not scheduler_records
    assert not futures


def test_bad_frame_fails_alone_across_connections(scheme, workload, run_file, tmp_path):
    """Two connections' same-key frames coalesce; only the offender errors."""
    _, view, _, pairs = workload
    path, expected, _ = run_file
    engine = QueryEngine(scheme)
    server = ProvenanceServer(engine)
    server.attach(path)
    engine.add_view(view)
    sock_path = tmp_path / "blast.sock"
    good, bad = pairs[:120], list(pairs[120:200])
    bad[17] = (bad[17][0], 10**9)
    outcomes: dict = {}

    def ask(name: str, frame) -> None:
        try:
            with ProvenanceClient(unix_path=sock_path, timeout=10.0) as client:
                outcomes[name] = client.depends_batch(frame, view.name)
        except Exception as exc:
            outcomes[name] = exc

    with ProvenanceNetServer(server, unix_path=sock_path):
        threads = [
            threading.Thread(target=ask, args=("good", good)),
            threading.Thread(target=ask, args=("bad", bad)),
        ]
        for thread in threads:
            thread.start()
        # Not started yet: both frames park in the queue, so the first step
        # the scheduler takes (start() combines) is guaranteed to coalesce them.
        deadline = time.monotonic() + 5.0
        while server.pending < 200 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.pending == 200
        before = server.stats
        with server:
            for thread in threads:
                thread.join(10.0)
        after = server.stats
    engine.detach(DEFAULT_RUN)
    assert outcomes["good"].tolist() == expected[:120]
    assert isinstance(outcomes["bad"], RemoteQueryError)
    assert outcomes["bad"].kind == "LabelingError"
    assert after.batches - before.batches == 1
    # The coalesced call that raised plus one retry per frame.
    assert after.engine_calls - before.engine_calls == 3


def test_shed_retries_eventually_succeed(served):
    """retries= resends after the server's retry-after hint."""
    net, sock_path, view, _, pairs, expected, _ = served
    with ProvenanceClient(unix_path=sock_path, retries=10) as client:
        threads = []
        results: list = [None] * 6
        def hammer(index: int) -> None:
            results[index] = client.depends_batch(pairs, view.name)
        for index in range(6):
            threads.append(threading.Thread(target=hammer, args=(index,)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(answers.tolist() == expected for answers in results)


def test_garbage_on_the_port_drops_that_connection_only(served):
    net, sock_path, view, _, pairs, expected, _ = served
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(str(sock_path))
    raw.sendall(struct.pack("<I", 1 << 30))  # absurd length prefix
    assert raw.recv(1) == b""  # server hangs up on the violator
    raw.close()
    with ProvenanceClient(unix_path=sock_path) as client:  # others unaffected
        assert client.depends_batch(pairs[:10], view.name).tolist() == expected[:10]


# -- the reply path -------------------------------------------------------------


def _raw(sock_path) -> socket.socket:
    """A raw connection: its frames go out by ``sendall``, past every fault point."""
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(10.0)
    raw.connect(str(sock_path))
    return raw


def _until(condition) -> None:
    deadline = time.monotonic() + 5.0
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


class _ThreadedPlan(FaultPlan):
    """A fault plan that records, per hit of ``point``, whether the event loop made it."""

    def __init__(self, net, point: str = "net.send") -> None:
        super().__init__()
        self.net = net
        self.point = point
        self.on_loop: list = []

    def _hit(self, point: str) -> None:
        if point == self.point:
            self.on_loop.append(threading.current_thread() is self.net._thread)
        super()._hit(point)


@pytest.mark.parametrize("writer", ["combiner", "loop"])
def test_a_failed_reply_send_drops_that_connection_only(served, monkeypatch, writer):
    """An armed ``net.send`` fails one reply: the loop closes that connection alone.

    An answers frame's reply is written by whichever thread took its step:
    here an in-process submitter whose step was in flight when the loop
    queued the frame, so it combined the frame too.  A refused variant
    frame's reply is written by the loop.  Either way the loop closes the
    connection.
    """
    net, sock_path, view, _, pairs, expected, _ = served
    server = net._server
    closes = []
    close_conn = ProvenanceNetServer._close_conn

    def closing(self, conn, **kwargs):
        closes.append((conn, threading.current_thread() is self._thread))
        return close_conn(self, conn, **kwargs)

    monkeypatch.setattr(ProvenanceNetServer, "_close_conn", closing)
    variant = None if writer == "combiner" else "space-efficient"
    good = encode_depends_request(1, DEFAULT_RUN, view.name, None, pairs[:25])
    other, victim = _raw(sock_path), _raw(sock_path)
    combiner = None
    try:
        assert _exchange(other, good).answers.tolist() == expected[:25]
        _until(lambda: len(net._conns) == 2)
        plan = _ThreadedPlan(net).on("net.send", count=1)
        with plan.armed():
            frame = encode_depends_request(2, DEFAULT_RUN, view.name, variant, pairs[:25])
            if writer == "combiner":
                started, release = _held_engine(monkeypatch, net)
                _until(lambda: server._combiner is None)  # the loop is done with its step
                combiner = threading.Thread(
                    target=lambda: server.submit_batch("depends", pairs[:3], view)
                )
                combiner.start()
                assert started.wait(5.0)
                victim.sendall(frame)
                _until(lambda: server.pending == 25)  # queued; the loop found a step in flight
                release.set()
            else:
                victim.sendall(frame)
            assert victim.recv(1) == b""  # the reply failed: that connection is gone
            _until(lambda: len(net._conns) == 1)
            assert plan.fired("net.send") == 1
            assert plan.on_loop == [writer == "loop"]
            # The other connection is still answered, by a send that takes no fault.
            assert _exchange(other, good).answers.tolist() == expected[:25]
        [(conn, on_loop)] = closes
        assert on_loop and conn.closed and conn not in net._conns
        assert net.stats.active_connections == 1
    finally:
        if combiner is not None:
            release.set()
            combiner.join(5.0)
        other.close()
        victim.close()


def test_warm_replies_that_fit_the_socket_never_wake_the_loop(served, monkeypatch):
    """A reply the socket takes whole is written by the thread that took its
    step, the loop itself: no self-pipe wake."""
    net, sock_path, view, _, pairs, expected, _ = served
    frame = encode_depends_request(7, DEFAULT_RUN, view.name, None, pairs)
    raw = _raw(sock_path)
    try:
        assert _exchange(raw, frame).answers.tolist() == expected  # cold: decides the keys
        wakes = []
        wake = ProvenanceNetServer._wake

        def waking(self):
            wakes.append(threading.current_thread().name)
            return wake(self)

        monkeypatch.setattr(ProvenanceNetServer, "_wake", waking)
        for _ in range(50):
            reply = _exchange(raw, frame)
            assert reply.request_id == 7 and reply.answers.tolist() == expected
        assert wakes == []
    finally:
        raw.close()


def test_a_reply_larger_than_the_send_buffer_arrives_whole_and_in_order(served, monkeypatch):
    """What the socket does not take now the loop flushes, ahead of the next reply."""
    net, sock_path, view, items, pairs, expected, expected_visible = served
    writes = []
    write = ProvenanceNetServer._write

    def writing(self, conn):
        writes.append(conn)
        return write(self, conn)

    monkeypatch.setattr(ProvenanceNetServer, "_write", writing)
    n = 60_000  # a 7,500-byte bitmap
    uids = np.resize(np.asarray(items, dtype=np.int64), n)
    raw = _raw(sock_path)
    try:
        _exchange(raw, encode_depends_request(1, DEFAULT_RUN, view.name, None, pairs[:5]))
        [conn] = net._conns
        conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 2048)
        writes.clear()
        raw.sendall(encode_visible_request(2, DEFAULT_RUN, view.name, None, uids))
        _until(lambda: writes)  # the reply did not fit: the loop holds the rest
        raw.sendall(encode_depends_request(3, DEFAULT_RUN, view.name, None, pairs))
        time.sleep(0.05)  # the next reply queues behind it while nobody reads
        large = _exchange(raw, b"")
        assert large.request_id == 2
        assert large.answers.tolist() == np.resize(np.asarray(expected_visible), n).tolist()
        small = _exchange(raw, b"")
        assert small.request_id == 3 and small.answers.tolist() == expected
    finally:
        raw.close()


# -- the loop combines: every frame it reads is served on it ---------------------


def _steps_on_loop(monkeypatch, net) -> list:
    """Record, per scheduling step, whether the event loop took it."""
    steps: list = []
    process = ProvenanceServer._process

    def recording(self, batch):
        steps.append(threading.current_thread() is net._thread)
        return process(self, batch)

    monkeypatch.setattr(ProvenanceServer, "_process", recording)
    return steps


def _held_engine(monkeypatch, net):
    """Hold the first engine call until released: ``(started, release)`` events."""
    engine = net._server.engine
    answer = engine.answer
    started, release = threading.Event(), threading.Event()

    def held(*args, **kwargs):
        if not started.is_set():
            started.set()
            release.wait(10.0)
        return answer(*args, **kwargs)

    monkeypatch.setattr(engine, "answer", held)
    return started, release


def test_every_frame_is_served_on_the_loop_that_read_it(served, monkeypatch):
    """No thread but the loop takes a step for a wire frame, whatever its size."""
    net, sock_path, view, _, pairs, expected, _ = served
    frame = encode_depends_request(7, DEFAULT_RUN, view.name, None, pairs[:64])
    single = encode_depends_request(8, DEFAULT_RUN, view.name, None, pairs[:1])
    raw = _raw(sock_path)
    try:
        assert _exchange(raw, frame).answers.tolist() == expected[:64]  # cold
        steps = _steps_on_loop(monkeypatch, net)
        for _ in range(20):
            reply = _exchange(raw, frame)
            assert reply.request_id == 7 and reply.answers.tolist() == expected[:64]
        for _ in range(3):
            reply = _exchange(raw, single)
            assert reply.request_id == 8 and reply.answers.tolist() == expected[:1]
    finally:
        raw.close()
    assert steps == [True] * 23


def test_concurrent_one_pair_clients_still_coalesce(served):
    """1-query frames from many connections coalesce over the wire."""
    net, sock_path, view, _, pairs, expected, _ = served
    server = net._server
    n_clients, rounds = 32, 4
    barrier = threading.Barrier(n_clients)
    answers: dict = {}

    def client(index: int) -> None:
        with ProvenanceClient(unix_path=sock_path, retries=8) as cli:
            barrier.wait(10.0)
            for r in range(rounds):
                answers[index, r] = cli.depends(*pairs[index], view.name)

    before = server.stats
    threads = [threading.Thread(target=client, args=(i,)) for i in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30.0)
        assert not thread.is_alive()
    after = server.stats
    assert answers == {(i, r): expected[i] for i in range(n_clients) for r in range(rounds)}
    frames = n_clients * rounds
    assert after.answered - before.answered == frames
    assert after.engine_calls - before.engine_calls < frames
    assert after.coalesced > before.coalesced


@pytest.mark.parametrize("last", ["depends", "shed", "variant", "stats"])
def test_frames_read_during_a_slow_step_are_one_step_whatever_comes_last(
    served, monkeypatch, last
):
    """Frames that arrive while the loop is in a step are read in one pass and
    served by one step of the loop, even when the pass's last frame is shed,
    refused for its variant field or a stats request: nothing is stranded."""
    net, sock_path, view, _, pairs, expected, _ = served
    started, release = _held_engine(monkeypatch, net)
    steps = _steps_on_loop(monkeypatch, net)
    socks = []
    try:
        # Accepted in this order, the connections are pumped in this order.
        for count in range(1, 5):
            socks.append(_raw(sock_path))
            _until(lambda: len(net._conns) == count)
        chunks = [pairs[25 * i : 25 * (i + 1)] for i in range(4)]
        socks[0].sendall(encode_depends_request(0, DEFAULT_RUN, view.name, None, chunks[0]))
        assert started.wait(5.0)  # the loop is in the step, held
        for i in (1, 2):
            socks[i].sendall(encode_depends_request(i, DEFAULT_RUN, view.name, None, chunks[i]))
        variant = "space-efficient" if last == "variant" else None
        final = (
            encode_stats_request(3) if last == "stats"
            else encode_depends_request(3, DEFAULT_RUN, view.name, variant, chunks[3])
        )
        socks[3].sendall(final)
        time.sleep(0.05)  # all three frames wait in their sockets
        # The third admission of the next pass, the last frame's, is shed.
        plan = FaultPlan().on("scheduler.admit", after=2)
        with plan.armed() if last == "shed" else contextlib.nullcontext():
            release.set()
            replies = [_exchange(sock, b"") for sock in socks]
    finally:
        release.set()
        for sock in socks:
            sock.close()
    assert [reply.request_id for reply in replies] == [0, 1, 2, 3]
    answered = 4 if last == "depends" else 3
    assert [reply.answers.tolist() for reply in replies[:answered]] == [
        expected[25 * i : 25 * (i + 1)] for i in range(answered)
    ]
    kinds = {"shed": ShedReply, "variant": ErrorReply, "stats": StatsReply}
    if last in kinds:
        assert isinstance(replies[3], kinds[last])
    assert steps == [True, True]


def test_an_armed_step_on_the_loop_fails_that_frame_alone(served):
    """``scheduler.batch`` on a loop step is a typed error reply; the connection
    and the loop live on."""
    net, sock_path, view, _, pairs, expected, _ = served
    server = net._server
    raw = _raw(sock_path)
    try:
        plan = _ThreadedPlan(net, "scheduler.batch").on("scheduler.batch", count=1)
        with plan.armed():
            failed, answered = (
                _exchange(raw, encode_depends_request(i, DEFAULT_RUN, view.name, None, pairs[:25]))
                for i in (1, 2)
            )
        assert plan.fired("scheduler.batch") == 1 and plan.on_loop == [True, True]
    finally:
        raw.close()
    assert isinstance(failed, ErrorReply)
    assert (failed.request_id, failed.kind) == (1, "InjectedFault")
    assert answered.request_id == 2 and answered.answers.tolist() == expected[:25]
    assert net.running and net.stats.connections == 1 and net.stats.errors == 1
    assert isinstance(server.last_error, InjectedFault)
    with ProvenanceClient(unix_path=sock_path) as client:
        assert client.depends_batch(pairs, view.name).tolist() == expected


def test_stop_waits_for_a_step_the_loop_is_taking(served, monkeypatch):
    net, sock_path, view, _, pairs, expected, _ = served
    server = net._server
    started, release = _held_engine(monkeypatch, net)
    steps = _steps_on_loop(monkeypatch, net)
    raw = _raw(sock_path)
    stopper = threading.Thread(target=server.stop)
    try:
        raw.sendall(encode_depends_request(5, DEFAULT_RUN, view.name, None, pairs[:25]))
        assert started.wait(5.0)
        stopper.start()
        stopper.join(0.2)
        assert stopper.is_alive()  # the loop's step holds it
        release.set()
        stopper.join(5.0)
        assert not stopper.is_alive()
        # The step finished before stop() returned: its reply is already sent.
        reply = _exchange(raw, b"")
    finally:
        release.set()
        raw.close()
    assert reply.request_id == 5 and reply.answers.tolist() == expected[:25]
    assert steps == [True]


def test_loop_and_submitter_steps_interleave_without_losing_a_step(
    scheme, workload, run_file, tmp_path
):
    """More wire clients and in-process submitters than cores, a short switch
    interval, 1-pair and 25-pair frames mixed: the loop and the submitters
    take turns combining, every answer is right, and the combiner role is
    never lost (a stuck one would strand frames and hang stop())."""
    _, view, _, pairs = workload
    path, expected, _ = run_file
    engine = QueryEngine(scheme)
    server = ProvenanceServer(engine)
    server.attach(path)
    engine.add_view(view)
    sock_path = tmp_path / "stress.sock"
    errors: list = []

    def client(index: int) -> None:
        try:
            with ProvenanceClient(unix_path=sock_path, retries=16) as cli:
                for r in range(40):
                    lo = (index * 7 + r) % 250
                    size = 1 if (index + r) % 3 == 0 else 25
                    answers = cli.depends_batch(pairs[lo : lo + size], view.name)
                    assert answers.tolist() == expected[lo : lo + size]
        except Exception as exc:  # pragma: no cover - surfaced by the assert
            errors.append(exc)

    def submitter(index: int) -> None:
        try:
            for r in range(40):
                lo = (index * 11 + r) % 250
                size = 1 if r % 2 else 25
                future = server.submit_batch("depends", pairs[lo : lo + size], view)
                assert future.result(timeout=30).tolist() == expected[lo : lo + size]
        except Exception as exc:  # pragma: no cover - surfaced by the assert
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with server, ProvenanceNetServer(server, unix_path=sock_path):
            threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
            threads += [threading.Thread(target=submitter, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            stopper.join(10.0)
            assert not stopper.is_alive()
    finally:
        sys.setswitchinterval(interval)
        engine.detach(DEFAULT_RUN)
    assert errors == []
    stats = server.stats
    assert server._combiner is None and stats.answered == stats.submitted
    assert stats.batches > 0


# -- stats & lifecycle ----------------------------------------------------------


def test_stats_endpoint_exposes_scheduler_and_transport(served):
    net, sock_path, view, _, pairs, _, _ = served
    with ProvenanceClient(unix_path=sock_path) as client:
        client.depends_batch(pairs[:10], view.name)
        payload = client.server_stats()
        # Workers resolve futures before bumping counters, so the answers can
        # arrive a beat ahead of the stats — poll briefly.
        deadline = time.monotonic() + 5.0
        while payload["server"]["answered"] < 10 and time.monotonic() < deadline:
            time.sleep(0.01)
            payload = client.server_stats()
    assert payload["status"] == "ok"
    assert payload["runs"] == [DEFAULT_RUN]
    assert payload["queue_depth"] >= 0
    assert payload["server"]["answered"] >= 10
    assert payload["server"]["engine_calls"] >= 1
    assert payload["net"]["frames"] >= 1
    assert payload["net"]["connections"] >= 1


def test_start_twice_rejected_and_restartable(scheme, tmp_path):
    server = ProvenanceServer(QueryEngine(scheme))
    sock_path = tmp_path / "cycle.sock"
    net = ProvenanceNetServer(server, unix_path=sock_path)
    with net:
        assert net.running
        with pytest.raises(RuntimeError, match="already running"):
            net.start()
    assert not net.running
    with net:  # the socket path is reusable after a clean stop
        assert net.running


def test_stale_socket_file_is_reclaimed(scheme, tmp_path):
    sock_path = tmp_path / "stale.sock"
    dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    dead.bind(str(sock_path))
    dead.close()  # bound but never listening: a crash leftover
    server = ProvenanceServer(QueryEngine(scheme))
    with ProvenanceNetServer(server, unix_path=sock_path) as net:
        assert net.running


def test_live_socket_is_not_stolen(scheme, workload, run_file, tmp_path):
    _, view, _, pairs = workload
    path, expected, _ = run_file
    sock_path = tmp_path / "owned.sock"
    engine = QueryEngine(scheme)
    first = ProvenanceServer(engine)
    first.attach(path)
    engine.add_view(view)
    try:
        with first, ProvenanceNetServer(first, unix_path=sock_path):
            second = ProvenanceNetServer(
                ProvenanceServer(QueryEngine(scheme)), unix_path=sock_path
            )
            with pytest.raises(OSError):
                second.start()
            # The refused start leaves the live server's address alone: its
            # socket file is still there and a new client reaches it.
            assert sock_path.exists()
            with ProvenanceClient(unix_path=sock_path) as client:
                assert client.depends(*pairs[0], view.name) == expected[0]
    finally:
        engine.detach(DEFAULT_RUN)


def test_a_failed_start_removes_what_it_bound_and_can_be_retried(scheme, tmp_path):
    """A start that binds its unix path and then fails on the TCP port
    removes its own socket file, and the same server starts once the port
    is free."""
    sock_path = tmp_path / "retry.sock"
    blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    net = ProvenanceNetServer(
        ProvenanceServer(QueryEngine(scheme)), unix_path=sock_path, host="127.0.0.1", port=port
    )
    try:
        with pytest.raises(OSError):
            net.start()
        assert not sock_path.exists()
        assert not net.running
    finally:
        blocker.close()
    with net:
        assert sock_path.exists()
        assert net.tcp_address == ("127.0.0.1", port)
    assert not sock_path.exists()


def test_client_requires_exactly_one_target(tmp_path):
    with pytest.raises(ValueError, match="exactly one"):
        ProvenanceClient()
    with pytest.raises(ValueError, match="exactly one"):
        ProvenanceClient(unix_path=tmp_path / "x.sock", address=("h", 1))


def test_net_server_requires_a_listener(scheme):
    with pytest.raises(ValueError, match="bind"):
        ProvenanceNetServer(ProvenanceServer(QueryEngine(scheme)))


# -- more decoded view state than the byte budget holds, through the socket ------


def test_nine_views_under_a_budget_for_two_answer_like_the_oracle(scheme, spec, tmp_path):
    """Every bit through scheduler and socket equals the label-free oracle,
    whether the view's per-run state is resident or was evicted and rebuilt."""
    import random

    from repro.analysis import RunReachabilityOracle

    derivation = random_run(spec, 250, seed=41)
    rng = random.Random(9)
    frames = []
    for index in range(9):
        view = random_view(
            spec, 2 + index % 5, seed=500 + index, mode=("grey", "black")[index % 2], name=f"wire-{index}"
        )
        oracle = RunReachabilityOracle(derivation.run, view, spec)
        visible = sorted(oracle.projection.visible_items)
        sources = rng.sample(visible, min(8, len(visible)))  # one graph search per source
        pairs = [(rng.choice(sources), rng.choice(visible)) for _ in range(256)]
        uids = rng.sample(sorted(derivation.run.data_items), 64)
        frames.append(
            (
                view,
                pairs,
                [oracle.depends(d1, d2) for d1, d2 in pairs],
                uids,
                [oracle.is_visible(uid) for uid in uids],
            )
        )
    writer = QueryEngine(scheme)
    writer.add_run(DEFAULT_RUN, derivation)
    run_file = tmp_path / "nine.fvl"
    writer.checkpoint(run_file)

    # The dry run the budget comes from: all nine resident.
    roomy = QueryEngine(scheme)
    roomy.attach(run_file)
    for view, pairs, _, uids, _ in frames:
        roomy.depends_batch(pairs, view)
        roomy.is_visible_batch(uids, view)
    per_run = sorted(state.nbytes for state in roomy.decoded_states().values())
    assert roomy.stats.views.evictions == 0 and len(per_run) == 9 and per_run[0] > 0
    budget = roomy.stats.views.bytes - sum(per_run) + sum(per_run[-2:])
    roomy.detach(DEFAULT_RUN)

    engine = QueryEngine(scheme, state_budget_bytes=budget)
    server = ProvenanceServer(engine)
    server.attach(run_file)
    sock_path = tmp_path / "nine.sock"
    with server, ProvenanceNetServer(server, unix_path=sock_path):
        with ProvenanceClient(unix_path=sock_path) as client:
            for view, *_ in frames:
                engine.add_view(view)
            for _ in range(3):
                for view, pairs, depends, uids, visible in frames:
                    assert client.depends_batch(pairs, view.name).tolist() == depends
                    assert client.is_visible_batch(uids, view.name).tolist() == visible
                    stats = engine.stats.views
                    assert stats.bytes <= stats.max_bytes == budget
    stats = engine.stats
    # Nine views through room for fewer: every cycle finds every view evicted.
    assert stats.views.misses >= 3 * 9 and stats.views.evictions >= 3 * 9 - 9
    assert stats.views.evictions == stats.views.misses - len(engine.decoded_states())
    assert stats.labels_built == 9
    engine.detach(DEFAULT_RUN)
