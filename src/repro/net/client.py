"""The provenance network client: pooled connections, batch-first API.

:class:`ProvenanceClient` talks the binary frame protocol to a
:class:`~repro.net.server.ProvenanceNetServer`.  The API mirrors the
:class:`~repro.engine.QueryEngine` surface —
``depends_batch``/``is_visible_batch`` send one frame per call, which the
server hands whole to :meth:`~repro.serve.ProvenanceServer.submit_batch`;
the single-pair ``depends``/``is_visible`` helpers send a 1-query frame,
which the server's scheduler lingers on and coalesces with its neighbours.

Connections come from a bounded pool: a call borrows a socket, does one
request/response round trip on it, and returns it.  Concurrent callers get
concurrent sockets (up to ``pool_size``); the server's per-connection
round-robin intake then keeps them fair against each other.

Overload is explicit: a SHED reply raises :class:`ServerOverloadedError`
carrying the server's ``retry_after_s`` hint unless ``retries`` is set, in
which case the client backs off and resends (bounded attempts).  The
backoff is hardened against a shedding fleet: the server's hint is *capped*
at :data:`RETRY_AFTER_CAP_S` (a confused server cannot park the client for
minutes), the sleep grows exponentially from :data:`BACKOFF_BASE_S` up to
:data:`BACKOFF_CAP_S` with a jitter factor (retrying clients decorrelate
instead of re-stampeding in lockstep), and the whole retry loop runs under
the socket ``timeout`` as its total deadline.  A client that keeps seeing
SHED trips a circuit breaker: further calls fast-fail with
:class:`CircuitOpenError` (a :class:`ServerOverloadedError`) for
:data:`BREAKER_COOLDOWN_S` instead of adding load, then a single half-open
probe decides whether to close it.  Query-level failures (unknown view,
engine fault) raise :class:`RemoteQueryError` with the server-side
exception kind and message; a reply that does not answer the request sent
raises :class:`~repro.errors.SerializationError` and discards its
connection.
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time
from collections import deque

import numpy as np

from repro import faults
from repro.errors import ReproError, SerializationError
from repro.net.protocol import (
    AnswersReply,
    ErrorReply,
    FrameAssembler,
    MetricsReply,
    ShedReply,
    StatsReply,
    encode_depends_request,
    encode_metrics_request,
    encode_stats_request,
    encode_visible_request,
)
from repro.net.protocol import decode_reply as _decode_reply

__all__ = [
    "CircuitOpenError",
    "ProvenanceClient",
    "RemoteQueryError",
    "ServerOverloadedError",
]

DEFAULT_RUN = "default"

_RECV_BYTES = 1 << 16

#: First shed-retry sleep (seconds); each further attempt doubles it.
BACKOFF_BASE_S = 0.005
#: Largest shed-retry sleep before jitter (seconds).
BACKOFF_CAP_S = 0.5
#: Largest server ``retry_after_s`` hint the client honours (seconds).
RETRY_AFTER_CAP_S = 1.0
#: How long an open circuit breaker fast-fails before its half-open probe.
BREAKER_COOLDOWN_S = 1.0


class ServerOverloadedError(ReproError):
    """The server shed the batch: its bounded request queue was full."""

    def __init__(self, retry_after_s: float, queue_depth: int) -> None:
        super().__init__(
            f"provenance server shed the request (queue depth {queue_depth}); "
            f"retry after {retry_after_s:.3f}s"
        )
        self.retry_after_s = retry_after_s
        self.queue_depth = queue_depth


class CircuitOpenError(ServerOverloadedError):
    """The client's circuit breaker is open: fast-fail, don't add load.

    Raised without touching the wire once ``breaker_threshold`` consecutive
    SHED replies were seen; subclasses :class:`ServerOverloadedError` so
    callers handling overload generically keep working, with
    ``retry_after_s`` carrying the remaining cooldown and ``queue_depth``
    the last depth the server reported.
    """


class RemoteQueryError(ReproError):
    """The server answered the frame with a query-level error."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.remote_message = message


class _PooledConn:
    __slots__ = ("sock", "assembler")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.assembler = FrameAssembler()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - defensive
            pass


class ProvenanceClient:
    """A pooled, batching client for one provenance net server.

    ::

        with ProvenanceClient(unix_path="/tmp/prov.sock") as client:
            flags = client.depends_batch(pairs, "audit")
            ok = client.is_visible(42, "audit")   # a 1-query frame

    Exactly one of ``unix_path`` or ``address`` must be given.  Thread-safe;
    up to ``pool_size`` round trips run concurrently.

    ``timeout`` bounds each socket operation and also the *total* time one
    call may spend backing off; ``retries`` bounds SHED resends per call;
    ``breaker_threshold`` consecutive SHEDs across the client open the
    circuit breaker (``None`` disables it).  ``clock``/``sleep``/``jitter_seed``
    exist so tests drive the retry machinery deterministically without real
    waiting.
    """

    def __init__(
        self,
        *,
        unix_path=None,
        address: "tuple[str, int] | None" = None,
        pool_size: int = 4,
        timeout: float = 30.0,
        retries: int = 0,
        breaker_threshold: "int | None" = 32,
        clock=time.monotonic,
        sleep=time.sleep,
        jitter_seed: "int | None" = None,
        trace_ids: bool = True,
    ) -> None:
        if (unix_path is None) == (address is None):
            raise ValueError("pass exactly one of unix_path= or address=")
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if breaker_threshold is not None and breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1 (or None to disable)")
        self._unix_path = unix_path
        self._address = address
        self._pool_size = pool_size
        self._timeout = timeout
        self._retries = retries
        self._breaker_threshold = breaker_threshold
        self._clock = clock
        self._sleep = sleep
        self._rng = random.Random(jitter_seed)
        # Circuit-breaker state, shared by every thread using this client.
        self._breaker_lock = threading.Lock()
        self._shed_streak = 0
        self._breaker_open_until = 0.0
        self._breaker_probing = False
        self._last_shed_depth = 0
        self._pool: deque[_PooledConn] = deque()
        self._pool_lock = threading.Lock()
        self._pool_open = 0  # live sockets, pooled or borrowed
        self._pool_free = threading.Condition(self._pool_lock)
        self._closed = False
        self._request_ids = itertools.count(1)
        # Trace ids mark query frames traceable server-side (the server's
        # sampler decides which are recorded).  Random base + counter keeps
        # ids unique across clients yet cheap to mint; retries of one logical
        # request reuse its id so a resent frame is not a new trace.
        self._trace_ids = trace_ids
        self._trace_base = random.Random(jitter_seed).getrandbits(64) | 1
        self._trace_seq = itertools.count(1)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        with self._pool_lock:
            self._closed = True
            conns = list(self._pool)
            self._pool.clear()
            self._pool_free.notify_all()
        for conn in conns:
            conn.close()

    def __enter__(self) -> "ProvenanceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the pool ----------------------------------------------------------------

    def _connect(self) -> _PooledConn:
        if self._unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self._timeout)
            sock.connect(str(self._unix_path))
        else:
            sock = socket.create_connection(self._address, timeout=self._timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return _PooledConn(sock)

    def _borrow(self) -> _PooledConn:
        with self._pool_free:
            while True:
                if self._closed:
                    raise RuntimeError("client is closed")
                if self._pool:
                    return self._pool.popleft()
                if self._pool_open < self._pool_size:
                    self._pool_open += 1
                    break
                if not self._pool_free.wait(self._timeout):
                    raise TimeoutError(
                        f"no pooled connection became free within {self._timeout}s"
                    )
        try:
            return self._connect()
        except BaseException:
            with self._pool_free:
                self._pool_open -= 1
                self._pool_free.notify()
            raise

    def _give_back(self, conn: _PooledConn, *, broken: bool) -> None:
        with self._pool_free:
            if broken or self._closed:
                self._pool_open -= 1
            else:
                self._pool.append(conn)
            self._pool_free.notify()
        if broken or self._closed:
            conn.close()

    # -- one round trip ----------------------------------------------------------

    def _round_trip(self, frame: bytes, request_id: int, expected: type, n: "int | None"):
        """Send ``frame`` and return the reply to ``request_id``.

        ``expected`` is the reply type that answers the request (``n``
        queries, if a query); a SHED or error reply is also an answer.
        """
        conn = self._borrow()
        broken = True
        try:
            faults.hit("net.send")
            conn.sock.sendall(frame)
            while True:
                faults.hit("net.recv")
                data = conn.sock.recv(_RECV_BYTES)
                if not data:
                    raise SerializationError(
                        "provenance server closed the connection mid-reply"
                    )
                frames = conn.assembler.feed(data)
                if frames:
                    if len(frames) > 1 or conn.assembler.buffered:
                        # One request in flight per pooled socket: extra
                        # bytes mean a desynchronised stream.
                        raise SerializationError(
                            "unexpected extra reply frames on a pooled connection"
                        )
                    # Decode and match *before* declaring the connection
                    # healthy: a frame that fails to decode, or answers
                    # another request, leaves the stream's trust gone just
                    # like a short read would, and the connection must be
                    # discarded, never returned to the pool.
                    reply = _decode_reply(frames[0])
                    _check_reply(reply, request_id, expected, n)
                    broken = False
                    return reply
        finally:
            self._give_back(conn, broken=broken)

    # -- overload handling -------------------------------------------------------

    def _check_breaker(self) -> bool:
        """Fast-fail while the breaker is open; admit one half-open probe.

        Returns True when *this* caller was elected the half-open probe (the
        caller then owns reporting the probe's outcome — an abandoned probe
        re-opens the breaker via :meth:`_probe_aborted`).
        """
        if self._breaker_threshold is None:
            return False
        with self._breaker_lock:
            if self._breaker_open_until == 0.0:
                return False  # closed
            remaining = self._breaker_open_until - self._clock()
            if remaining > 0:
                raise CircuitOpenError(remaining, self._last_shed_depth)
            # Cooldown over: half-open.  Exactly one caller probes the
            # server; the rest keep fast-failing until the probe settles.
            if self._breaker_probing:
                raise CircuitOpenError(0.0, self._last_shed_depth)
            self._breaker_probing = True
            return True

    def _note_shed(self, reply: ShedReply) -> None:
        if self._breaker_threshold is None:
            return
        with self._breaker_lock:
            self._shed_streak += 1
            self._last_shed_depth = reply.queue_depth
            if self._breaker_probing or self._shed_streak >= self._breaker_threshold:
                # Tripped — or the half-open probe got shed again: (re)open.
                self._breaker_open_until = self._clock() + BREAKER_COOLDOWN_S
                self._breaker_probing = False

    def _note_answered(self) -> None:
        if self._breaker_threshold is None:
            return
        with self._breaker_lock:
            self._shed_streak = 0
            self._breaker_open_until = 0.0
            self._breaker_probing = False

    def _probe_aborted(self) -> None:
        """A half-open probe died on a transport error: re-open the breaker."""
        with self._breaker_lock:
            if self._breaker_probing:
                self._breaker_open_until = self._clock() + BREAKER_COOLDOWN_S
                self._breaker_probing = False

    def _backoff_delay(self, hint_s: float, attempt: int) -> float:
        """Capped exponential backoff with jitter, floored by the capped hint."""
        hint = min(max(hint_s, 0.0), RETRY_AFTER_CAP_S)
        grown = BACKOFF_BASE_S * (1 << min(attempt, 20))
        delay = min(BACKOFF_CAP_S, max(hint, grown))
        return delay * (0.5 + self._rng.random())  # jitter factor in [0.5, 1.5)

    def _ask(self, frame_for, expected: type, n: "int | None" = None):
        """Send (re-encoding per attempt for fresh request ids) with shed retries.

        Returns the ``expected`` reply; ``n`` is the query count of a
        ``depends`` / ``visible`` frame, which an answers reply must match.
        Retries back off exponentially (jittered, hint-floored, capped)
        under a total deadline of ``timeout``; persistent shedding trips the
        client-wide circuit breaker checked on entry.
        """
        probing = self._check_breaker()
        attempts = self._retries + 1
        deadline = self._clock() + self._timeout
        try:
            for attempt in range(attempts):
                request_id = next(self._request_ids)
                reply = self._round_trip(frame_for(request_id), request_id, expected, n)
                if isinstance(reply, ShedReply):
                    self._note_shed(reply)
                    probing = False  # the probe's outcome is now recorded
                    if attempt + 1 < attempts:
                        remaining = deadline - self._clock()
                        if remaining > 0:
                            self._sleep(
                                min(
                                    self._backoff_delay(reply.retry_after_s, attempt),
                                    remaining,
                                )
                            )
                            probing = self._check_breaker() or probing
                            continue
                    raise ServerOverloadedError(reply.retry_after_s, reply.queue_depth)
                self._note_answered()
                probing = False
                if isinstance(reply, ErrorReply):
                    raise RemoteQueryError(reply.kind, reply.message)
                return reply
            raise AssertionError("unreachable")  # pragma: no cover
        except BaseException:
            if probing:
                self._probe_aborted()
            raise

    # -- batch API ---------------------------------------------------------------

    def _next_trace_id(self) -> "int | None":
        if not self._trace_ids:
            return None
        return (self._trace_base + next(self._trace_seq)) % (1 << 64)

    def depends_batch(self, pairs, view: str, *, run: str = DEFAULT_RUN,
                      variant=None) -> np.ndarray:
        """Answer ``depends`` for every ``(d1, d2)`` pair in one frame.

        Returns the reply's ``(n,)`` bool array, lined up with ``pairs``.
        """
        ids = np.asarray(pairs, dtype=np.int64)
        if ids.size == 0:
            return np.zeros(0, dtype=bool)
        variant_key = getattr(variant, "value", variant)
        trace_id = self._next_trace_id()
        reply = self._ask(
            lambda rid: encode_depends_request(
                rid, run, view, variant_key, ids, trace_id=trace_id
            ),
            AnswersReply,
            len(ids),
        )
        return reply.answers

    def is_visible_batch(self, uids, view: str, *, run: str = DEFAULT_RUN,
                         variant=None) -> np.ndarray:
        """Answer ``is_visible`` for every uid in one frame.

        Returns the reply's ``(n,)`` bool array, lined up with ``uids``.
        """
        ids = np.asarray(uids, dtype=np.int64)
        if ids.size == 0:
            return np.zeros(0, dtype=bool)
        variant_key = getattr(variant, "value", variant)
        trace_id = self._next_trace_id()
        reply = self._ask(
            lambda rid: encode_visible_request(
                rid, run, view, variant_key, ids, trace_id=trace_id
            ),
            AnswersReply,
            len(ids),
        )
        return reply.answers

    def server_stats(self) -> dict:
        """The server's stats/health payload (scheduler + transport counters)."""
        return self._ask(encode_stats_request, StatsReply).payload

    def server_metrics(self) -> str:
        """The server's whole metrics registry as Prometheus text exposition."""
        return self._ask(encode_metrics_request, MetricsReply).text

    def server_health(self) -> dict:
        """The watchdog verdict alone: ``{"status", "alerts"}``.

        ``status`` is ``"ok"`` or ``"degraded"``; ``alerts`` lists the
        firing SLOs (empty when the server runs no watchdog — a server
        without one is assumed healthy, it just cannot say otherwise).
        """
        payload = self.server_stats()
        return {
            "status": payload.get("status", "ok"),
            "alerts": payload.get("alerts", []),
        }

    # -- singleton API ---------------------------------------------------------

    def depends(self, d1: int, d2: int, view: str, *, run: str = DEFAULT_RUN,
                variant=None) -> bool:
        """One dependency probe, sent as a 1-pair ``depends_batch`` frame."""
        return bool(self.depends_batch([(d1, d2)], view, run=run, variant=variant)[0])

    def is_visible(self, uid: int, view: str, *, run: str = DEFAULT_RUN,
                   variant=None) -> bool:
        """One visibility probe, sent as a 1-uid ``is_visible_batch`` frame."""
        return bool(self.is_visible_batch([uid], view, run=run, variant=variant)[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        target = self._unix_path if self._unix_path is not None else self._address
        return f"ProvenanceClient({target!r}, pool_size={self._pool_size})"


def _check_reply(reply, request_id: int, expected: type, n: "int | None") -> None:
    """Raise unless ``reply`` answers request ``request_id`` of ``n`` queries.

    The reply must be an ``expected``, a SHED or an error reply.  An error
    reply may carry id 0: the server's answer to a frame it could not
    decode, whose id it never read.
    """
    if not isinstance(reply, (expected, ShedReply, ErrorReply)):
        raise SerializationError(
            f"{type(reply).__name__} received for request {request_id}, "
            f"expected {expected.__name__}"
        )
    if reply.request_id != request_id and not (
        isinstance(reply, ErrorReply) and reply.request_id == 0
    ):
        raise SerializationError(
            f"reply to request {reply.request_id} on a connection awaiting request {request_id}"
        )
    if isinstance(reply, AnswersReply) and len(reply.answers) != n:
        raise SerializationError(
            f"{len(reply.answers)} answers to request {request_id} of {n} queries"
        )

