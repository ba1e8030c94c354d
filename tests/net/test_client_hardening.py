"""Client overload/fault hardening: pool discard, backoff, circuit breaker."""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.net.client as client_module
from repro.core import FVLScheme
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.errors import ReproError, SerializationError
from repro.faults import FaultPlan
from repro.model.projection import ViewProjection
from repro.net import (
    CircuitOpenError,
    ProvenanceClient,
    ProvenanceNetServer,
    RemoteQueryError,
    ServerOverloadedError,
)
from repro.net.protocol import (
    OP_DEPENDS,
    OP_VISIBLE,
    AnswersReply,
    ErrorReply,
    ShedReply,
    StatsReply,
    decode_request,
)
from repro.serve import ProvenanceServer
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
    derivation = random_run(spec, 200, seed=71)
    view = random_view(spec, 6, seed=72, mode="grey", name="harden-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 100, seed=73)
    return derivation, view, items, pairs


@pytest.fixture()
def served(scheme, workload, tmp_path):
    derivation, view, items, pairs = workload
    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view)
    run_file = tmp_path / "harden.fvl"
    reference.checkpoint(run_file)
    engine = QueryEngine(scheme)
    server = ProvenanceServer(engine, workers=1)
    server.attach(run_file)
    engine.add_view(view)
    sock_path = tmp_path / "harden.sock"
    try:
        with server:
            with ProvenanceNetServer(server, unix_path=sock_path) as net:
                yield net, sock_path, view, pairs, expected
    finally:
        engine.detach(DEFAULT_RUN)


# -- pool hygiene ---------------------------------------------------------------


def test_mid_stream_fault_discards_the_connection(served):
    """Regression: a connection whose RPC died mid-stream must not be pooled."""
    net, sock_path, view, pairs, expected = served
    with ProvenanceClient(unix_path=sock_path, pool_size=1) as client:
        assert np.array_equal(client.depends_batch(pairs[:5], view.name), expected[:5])
        assert len(client._pool) == 1  # the healthy conn went back
        plan = FaultPlan().on("net.recv", count=1)
        with plan.armed():
            # The fault fires on whichever side recvs first (client read or
            # server read of this very frame); either way the round trip
            # dies mid-stream with a loud error — an InjectedFault, an EOF
            # SerializationError, or a reset — never a wrong answer.
            with pytest.raises((ReproError, OSError)):
                client.depends_batch(pairs[:5], view.name)
        # The poisoned connection was discarded, not returned...
        assert len(client._pool) == 0 and client._pool_open == 0
        # ...so the next call dials fresh and the stream is back in sync.
        assert np.array_equal(client.depends_batch(pairs[:5], view.name), expected[:5])


def test_undecodable_reply_discards_the_connection(served, monkeypatch):
    """Regression: decode happens before the conn is declared healthy."""
    net, sock_path, view, pairs, expected = served
    real_decode = client_module._decode_reply
    blown = threading.Event()

    def decode_once_badly(payload):
        if not blown.is_set():
            blown.set()
            raise SerializationError("injected undecodable reply")
        return real_decode(payload)

    with ProvenanceClient(unix_path=sock_path, pool_size=1) as client:
        monkeypatch.setattr(client_module, "_decode_reply", decode_once_badly)
        with pytest.raises(SerializationError, match="undecodable"):
            client.depends_batch(pairs[:5], view.name)
        assert len(client._pool) == 0 and client._pool_open == 0
        assert np.array_equal(client.depends_batch(pairs[:5], view.name), expected[:5])


@pytest.mark.parametrize(
    ("forge", "match"),
    [
        (lambda reply: AnswersReply(reply.request_id + 999, reply.answers), "awaiting request"),
        (lambda reply: AnswersReply(reply.request_id, reply.answers[:3]), "of 10 queries"),
        (lambda reply: StatsReply(reply.request_id, {}), "expected AnswersReply"),
    ],
    ids=["wrong id", "wrong count", "wrong type"],
)
def test_a_reply_to_another_request_discards_the_connection(served, monkeypatch, forge, match):
    """Regression: a reply is matched to the id and size sent before the conn is healthy."""
    net, sock_path, view, pairs, expected = served
    real_decode = client_module._decode_reply
    forged = threading.Event()

    def decode_forged_once(payload):
        reply = real_decode(payload)
        if forged.is_set():
            return reply
        forged.set()
        return forge(reply)

    with ProvenanceClient(unix_path=sock_path, pool_size=1) as client:
        monkeypatch.setattr(client_module, "_decode_reply", decode_forged_once)
        with pytest.raises(SerializationError, match=match):
            client.depends_batch(pairs[:10], view.name)
        assert len(client._pool) == 0 and client._pool_open == 0
        assert np.array_equal(client.depends_batch(pairs[:10], view.name), expected[:10])


def test_an_error_reply_with_id_zero_answers_the_request(served, monkeypatch):
    """The server answers a frame it could not decode with id 0: an error, not a desync."""
    net, sock_path, view, pairs, expected = served
    real_decode = client_module._decode_reply
    monkeypatch.setattr(
        client_module, "_decode_reply", lambda payload: ErrorReply(0, "SerializationError", "bad frame")
    )
    with ProvenanceClient(unix_path=sock_path, pool_size=1) as client:
        with pytest.raises(RemoteQueryError, match="bad frame"):
            client.depends_batch(pairs[:5], view.name)
        assert len(client._pool) == 1  # the stream is still in step
        monkeypatch.setattr(client_module, "_decode_reply", real_decode)
        assert np.array_equal(client.depends_batch(pairs[:5], view.name), expected[:5])


# -- shed backoff ---------------------------------------------------------------


class _ShedTransport:
    """Drop-in for ProvenanceClient._round_trip: shed N times, then answer."""

    def __init__(self, client, sheds, retry_after_s=30.0, answers=None):
        self.calls = 0
        self.sheds = sheds
        self.retry_after_s = retry_after_s
        self.answers = np.array([] if answers is None else answers, dtype=bool)
        client._round_trip = self._round_trip

    def _round_trip(self, frame, request_id, expected, n):
        self.calls += 1
        if self.calls <= self.sheds:
            return ShedReply(request_id, self.retry_after_s, 8)
        return AnswersReply(request_id, self.answers)


class _FakeTime:
    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


def _offline_client(**kwargs) -> ProvenanceClient:
    """A client whose transport is replaced; the socket is never dialled."""
    return ProvenanceClient(unix_path="/nonexistent/prov.sock", **kwargs)


class _RecordingTransport:
    """Drop-in for ProvenanceClient._round_trip: decode each frame, answer ``answer``."""

    def __init__(self, client, answer):
        self.requests = []
        self.answer = answer
        client._round_trip = self._round_trip

    def _round_trip(self, frame, request_id, expected, n):
        self.requests.append(decode_request(frame[4:]))  # past the length prefix
        return AnswersReply(request_id, np.full(n, self.answer, dtype=bool))


def test_singleton_helpers_send_a_one_query_batch_frame():
    client = _offline_client()
    transport = _RecordingTransport(client, answer=True)
    assert client.depends(3, 7, "v", run="r") is True
    assert client.is_visible(5, "v") is True
    depends, visible = transport.requests
    assert depends.op == OP_DEPENDS and depends.ids.tolist() == [[3, 7]]
    assert (depends.run, depends.view) == ("r", "v")
    assert visible.op == OP_VISIBLE and visible.ids.tolist() == [5]


def test_a_hint_under_the_cap_floors_every_backoff(monkeypatch):
    monkeypatch.setattr(client_module, "BACKOFF_BASE_S", 0.001)
    fake = _FakeTime()
    client = _offline_client(
        retries=3, breaker_threshold=None, clock=fake.clock, sleep=fake.sleep, jitter_seed=3
    )
    _ShedTransport(client, sheds=3, retry_after_s=0.2, answers=[True])
    assert client.depends_batch([(1, 2)], "v").tolist() == [True]
    # 0.2s is under RETRY_AFTER_CAP_S and over every grown delay, so each
    # sleep is the hint under the [0.5, 1.5) jitter factor.
    assert len(fake.sleeps) == 3
    assert all(0.1 <= s < 0.3 for s in fake.sleeps)


def test_shed_sleeps_are_capped_and_jittered(monkeypatch):
    monkeypatch.setattr(client_module, "BACKOFF_BASE_S", 0.01)
    monkeypatch.setattr(client_module, "BACKOFF_CAP_S", 0.25)
    monkeypatch.setattr(client_module, "RETRY_AFTER_CAP_S", 0.05)
    fake = _FakeTime()
    client = _offline_client(
        retries=4,
        breaker_threshold=None,
        clock=fake.clock,
        sleep=fake.sleep,
        jitter_seed=3,
    )
    _ShedTransport(client, sheds=3, answers=[True, False])
    assert client.depends_batch([(1, 2), (3, 4)], "v").tolist() == [True, False]
    assert len(fake.sleeps) == 3
    # The server's absurd 30s hint was clipped to RETRY_AFTER_CAP_S, and no
    # jittered sleep exceeds 1.5x the backoff cap.
    assert all(s <= 0.25 * 1.5 for s in fake.sleeps)
    assert all(s > 0 for s in fake.sleeps)
    assert len(set(fake.sleeps)) > 1  # jitter decorrelates the delays


def test_shed_backoff_grows_exponentially(monkeypatch):
    monkeypatch.setattr(client_module, "BACKOFF_BASE_S", 0.01)
    monkeypatch.setattr(client_module, "BACKOFF_CAP_S", 64.0)
    monkeypatch.setattr(client_module, "RETRY_AFTER_CAP_S", 0.0)  # ignore the hint
    fake = _FakeTime()
    client = _offline_client(
        retries=6,
        timeout=1e9,
        breaker_threshold=None,
        clock=fake.clock,
        sleep=fake.sleep,
        jitter_seed=5,
    )
    _ShedTransport(client, sheds=5, answers=[True])
    client.depends_batch([(1, 2)], "v")
    # Jitter spans [0.5, 1.5), so consecutive doublings stay ordered once
    # two steps apart: delay_n * 2 * 0.5 > delay_n * 1.5 is false, but
    # 4x growth dominates the jitter band.
    assert fake.sleeps[2] > fake.sleeps[0]
    assert fake.sleeps[4] > fake.sleeps[2]


def test_retry_budget_bounds_total_backoff(monkeypatch):
    monkeypatch.setattr(client_module, "BACKOFF_BASE_S", 0.1)
    monkeypatch.setattr(client_module, "BACKOFF_CAP_S", 0.1)
    fake = _FakeTime()
    client = _offline_client(
        retries=1000,
        timeout=0.5,  # the socket timeout is also the total retry budget
        breaker_threshold=None,
        clock=fake.clock,
        sleep=fake.sleep,
        jitter_seed=1,
    )
    transport = _ShedTransport(client, sheds=10**9)
    with pytest.raises(ServerOverloadedError):
        client.depends_batch([(1, 2)], "v")
    assert fake.now <= 0.5 + 0.2  # total sleeping bounded by the budget
    assert transport.calls < 20  # nowhere near the nominal 1001 attempts


# -- circuit breaker ------------------------------------------------------------


def test_breaker_opens_after_threshold_and_fast_fails(monkeypatch):
    monkeypatch.setattr(client_module, "BREAKER_COOLDOWN_S", 10.0)
    fake = _FakeTime()
    client = _offline_client(
        breaker_threshold=3,
        clock=fake.clock,
        sleep=fake.sleep,
    )
    transport = _ShedTransport(client, sheds=10**9)
    for _ in range(3):
        with pytest.raises(ServerOverloadedError):
            client.depends_batch([(1, 2)], "v")
    calls_when_open = transport.calls
    # Open: calls fast-fail without touching the transport at all.
    with pytest.raises(CircuitOpenError) as info:
        client.depends_batch([(1, 2)], "v")
    assert transport.calls == calls_when_open
    assert info.value.retry_after_s > 0  # remaining cooldown
    assert info.value.queue_depth == 8  # last depth the server reported


def test_breaker_half_open_probe_reopens_or_closes(monkeypatch):
    monkeypatch.setattr(client_module, "BREAKER_COOLDOWN_S", 10.0)
    fake = _FakeTime()
    client = _offline_client(
        breaker_threshold=2,
        clock=fake.clock,
        sleep=fake.sleep,
    )
    transport = _ShedTransport(client, sheds=3, answers=[True])
    for _ in range(2):
        with pytest.raises(ServerOverloadedError):
            client.depends_batch([(1, 2)], "v")
    with pytest.raises(CircuitOpenError):
        client.depends_batch([(1, 2)], "v")
    # Cooldown over: the next call is the half-open probe.  It sheds once
    # more, so the breaker re-opens immediately.
    fake.now += 11.0
    with pytest.raises(ServerOverloadedError):
        client.depends_batch([(1, 2)], "v")
    with pytest.raises(CircuitOpenError):
        client.depends_batch([(1, 2)], "v")
    # Second cooldown: this probe gets a real answer and the breaker closes.
    fake.now += 11.0
    assert client.depends_batch([(1, 2)], "v").tolist() == [True]
    assert client.depends_batch([(1, 2)], "v").tolist() == [True]  # closed for good


def test_breaker_disabled_never_fast_fails():
    fake = _FakeTime()
    client = _offline_client(
        breaker_threshold=None, clock=fake.clock, sleep=fake.sleep
    )
    transport = _ShedTransport(client, sheds=10**9)
    for _ in range(50):
        with pytest.raises(ServerOverloadedError) as info:
            client.depends_batch([(1, 2)], "v")
        assert not isinstance(info.value, CircuitOpenError)
    assert transport.calls == 50


def test_overload_knob_validation():
    with pytest.raises(ValueError, match="breaker_threshold"):
        _offline_client(breaker_threshold=0)
