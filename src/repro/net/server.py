"""The wire front-end: a unix-socket/TCP binary-batch provenance service.

:class:`ProvenanceNetServer` stands a real transport over one
:class:`~repro.serve.ProvenanceServer` so clients outside this process (and
outside Python) reach the coalescing scheduler:

* **one frame, one record** — a decoded ``depends``/``visible`` frame opens
  one :class:`~repro.obs.trace.Request` on the stack's sampler, and that
  record, with the frame's int64 id array as is, goes to
  :meth:`ProvenanceServer.serve_frame` as the scheduler's queue entry: never
  split across scheduling steps, answered (coalesced with same-key frames
  from other connections) by a single vectorised engine call whose
  bool-array slice the record's reply sink bit-packs straight into the
  reply;
* **one pass, one combine** — the loop admits one pass of intake (at most
  one frame per connection), queueing or shedding each frame, and then
  calls :meth:`ProvenanceServer.combine` on its own thread: frames read in
  one pass are popped together and coalesced into one step, and the loop
  writes their replies;
* **admission control, not blocking** — :meth:`ProvenanceServer.serve_frame`
  never waits for room: when the bounded request queue cannot take the
  whole batch, the client gets an explicit SHED reply (retry-after hint +
  queue depth) instead of the accept loop stalling on backpressure and
  starving every other connection;
* **per-connection fairness** — decoded frames park in per-connection intake
  queues and are admitted round-robin, one frame per connection per pass, so
  a firehose client cannot monopolise the scheduler ahead of light ones;
* **stats/health** — a stats frame answers with the
  :class:`~repro.serve.ServerStats` snapshot (taken under the server's stats
  lock), the live queue depth, and the transport's own counters.

The server is one event-loop thread (``selectors``) that owns the
selector and every connection's lifetime; responses are assembled by the
record's reply sink (:meth:`ProvenanceNetServer._reply`), called once on
whichever thread took the frame's step — the loop itself, or an in-process
submitter combining on the same scheduler — which packs the reply,
finishes the record and writes the reply straight into the non-blocking
socket when nothing is queued ahead.  Only what is left — the rest of a
partial send, or a connection whose send failed — waits for the loop,
woken over a self-pipe when another thread wrote: it flushes the rest when
the socket is writable and closes a broken connection.  The loop never
blocks on the queue; frames that arrive during a slow step are read
together after it and coalesced by the next one.
"""

from __future__ import annotations

import errno
import os
import selectors
import socket
import threading
from collections import deque
from dataclasses import dataclass, fields

from repro import faults
from repro.errors import SerializationError
from repro.faults import InjectedFault
from repro.net.protocol import (
    OP_DEPENDS,
    FrameAssembler,
    MetricsRequest,
    QueryRequest,
    StatsRequest,
    decode_request,
    encode_answers,
    encode_error,
    encode_metrics_reply,
    encode_shed,
    encode_stats_reply,
)
from repro.obs import events as obs_events
from repro.obs.trace import UNKNOWN, top_costs
from repro.serve.server import ProvenanceServer

__all__ = ["NetStats", "ProvenanceNetServer"]

_RECV_BYTES = 1 << 16

#: ``listen()`` backlog of each listening socket.
LISTEN_BACKLOG = 128
#: The ``retry_after_s`` hint a SHED reply carries (seconds).
SHED_RETRY_AFTER_S = 0.02


@dataclass(frozen=True)
class NetStats:
    """Transport-level counters (the scheduler's own live in ServerStats).

    A view over the stack's shared metrics registry: every counter comes
    from one registry snapshot (a single lock acquisition), so a scrape
    never mixes counts from two instants.  Reading it changes nothing.
    """

    connections: int  # accepted over the server's lifetime
    active_connections: int
    frames: int  # request frames decoded
    answered_frames: int
    sheds: int
    errors: int  # protocol or query errors answered on a connection
    stats_requests: int
    metrics_requests: int = 0
    #: Deepest decoded-but-unadmitted frame backlog over the server's lifetime.
    intake_high_watermark: int = 0


def _payload(stats) -> dict:
    """A stats dataclass as the stats op's dict: its fields, an exception as its text."""
    out = {field.name: getattr(stats, field.name) for field in fields(stats)}
    for name, value in out.items():
        if isinstance(value, BaseException):
            out[name] = str(value)
    return out


class _Connection:
    __slots__ = (
        "sock",
        "assembler",
        "intake",
        "outbound",
        "lock",
        "closed",
        "broken",
        "events",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.assembler = FrameAssembler()
        #: Decoded-but-not-yet-admitted request payloads (fairness queue).
        self.intake: deque[bytes] = deque()
        #: Encoded reply frames awaiting a writable socket.  Guarded by
        #: ``lock``: what a send did not take is appended, the loop drains.
        self.outbound: deque[bytes] = deque()
        self.lock = threading.Lock()
        self.closed = False
        #: A send failed: nothing more is sent, the loop closes it.
        self.broken = False
        self.events = selectors.EVENT_READ


class ProvenanceNetServer:
    """Serve one :class:`ProvenanceServer` over unix and/or TCP sockets.

    ::

        engine = QueryEngine(scheme)
        with ProvenanceServer(engine) as server:
            server.attach("/data/run.fvl")
            net = ProvenanceNetServer(server, unix_path="/tmp/prov.sock").start()
            ...
            net.stop()

    The scheduler must be started (combining on) for frames to be
    answered; a scheduler that is not running behind a live socket fills
    its bounded queue and the transport degrades to SHED replies — by
    design, that is the overload surface, not a hang.
    """

    def __init__(
        self,
        server: ProvenanceServer,
        *,
        unix_path=None,
        host: "str | None" = None,
        port: int = 0,
    ) -> None:
        if unix_path is None and host is None:
            raise ValueError("pass unix_path= and/or host= to bind a listener")
        self._server = server
        self._engine = server.engine
        self._unix_path = os.fspath(unix_path) if unix_path is not None else None
        self._host = host
        self._port = port
        self._selector: "selectors.BaseSelector | None" = None
        self._listeners: list[socket.socket] = []
        #: The unix path this server bound, so teardown removes its own
        #: socket file and never a live server's.
        self._bound_path: "str | None" = None
        self._conns: deque[_Connection] = deque()
        #: Frames decoded and not yet admitted, over every connection (loop
        #: thread only).
        self._intake = 0
        self._thread: "threading.Thread | None" = None
        self._stopping = False
        self._wake_r: "int | None" = None
        self._wake_w: "int | None" = None
        #: Transport counters live in the scheduler/engine's shared metrics
        #: registry, so one scrape covers net + scheduler + engine at once.
        m = server.metrics
        self._counters = {
            "connections": m.counter(
                "net_connections_total", "connections accepted over the lifetime"
            ),
            "frames": m.counter("net_frames_total", "request frames decoded"),
            "answered_frames": m.counter(
                "net_answered_frames_total", "frames answered with packed booleans"
            ),
            "sheds": m.counter(
                "net_sheds_total", "frames refused because the queue was full"
            ),
            "errors": m.counter(
                "net_errors_total", "protocol or query errors answered on a connection"
            ),
            "stats_requests": m.counter(
                "net_stats_requests_total", "stats frames served"
            ),
            "metrics_requests": m.counter(
                "net_metrics_requests_total", "metrics (exposition) frames served"
            ),
        }
        self._intake_hwm_g = m.gauge(
            "net_intake_high_watermark", "deepest decoded-frame backlog ever seen"
        )

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None

    @property
    def tcp_address(self) -> "tuple[str, int] | None":
        """The bound ``(host, port)`` — with the real port when 0 was asked."""
        for sock in self._listeners:
            if sock.family != socket.AF_UNIX:
                return sock.getsockname()[:2]
        return None

    def start(self) -> "ProvenanceNetServer":
        if self._thread is not None:
            raise RuntimeError("net server is already running")
        self._stopping = False
        self._selector = selectors.DefaultSelector()
        try:
            if self._unix_path is not None:
                listener = self._new_listener(socket.AF_UNIX)
                try:
                    listener.bind(self._unix_path)
                except OSError as exc:
                    if exc.errno != errno.EADDRINUSE:
                        raise
                    # A previous server's socket file: connectable means a
                    # live server owns the address; dead means remove + rebind.
                    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    try:
                        probe.connect(self._unix_path)
                    except OSError:
                        os.unlink(self._unix_path)
                        listener.bind(self._unix_path)
                    else:
                        raise
                    finally:
                        probe.close()
                self._bound_path = self._unix_path
                self._listen(listener)
            if self._host is not None:
                listener = self._new_listener(socket.AF_INET)
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                listener.bind((self._host, self._port))
                self._listen(listener)
            self._wake_r, self._wake_w = os.pipe()
            os.set_blocking(self._wake_r, False)
            self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        except BaseException:
            self._teardown()
            raise
        self._thread = threading.Thread(
            target=self._loop, name="provenance-net", daemon=True
        )
        self._thread.start()
        return self

    def _new_listener(self, family: int) -> socket.socket:
        """A listener socket, owned (and closed by teardown) before it binds."""
        listener = socket.socket(family, socket.SOCK_STREAM)
        self._listeners.append(listener)
        return listener

    def _listen(self, listener: socket.socket) -> None:
        listener.listen(LISTEN_BACKLOG)
        listener.setblocking(False)
        self._selector.register(listener, selectors.EVENT_READ, "listen")

    def stop(self) -> None:
        """Close every socket and join the loop (in-flight replies dropped)."""
        thread = self._thread
        if thread is None:
            return
        self._stopping = True
        self._wake()
        thread.join()
        self._thread = None
        self._teardown()

    def _teardown(self) -> None:
        for conn in list(self._conns):
            self._close_conn(conn, unregister=False)
        self._conns.clear()
        for listener in self._listeners:
            try:
                listener.close()
            except OSError:  # pragma: no cover - defensive
                pass
        self._listeners = []
        for fd in (self._wake_r, self._wake_w):
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:  # pragma: no cover - defensive
                    pass
        self._wake_r = self._wake_w = None
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        if self._bound_path is not None:
            try:
                os.unlink(self._bound_path)
            except OSError:
                pass
            self._bound_path = None

    def __enter__(self) -> "ProvenanceNetServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- observability -----------------------------------------------------------

    @property
    def stats(self) -> NetStats:
        return self.stats_from(self._server.metrics.snapshot())

    def stats_from(self, snap: dict) -> NetStats:
        """Build :class:`NetStats` from an already-taken registry snapshot
        (one snapshot for several views gives them one instant)."""

        def counter(name: str) -> int:
            family = snap.get(name)
            return int(sum(family.values())) if family else 0

        return NetStats(
            connections=counter("net_connections_total"),
            active_connections=len(self._conns),
            frames=counter("net_frames_total"),
            answered_frames=counter("net_answered_frames_total"),
            sheds=counter("net_sheds_total"),
            errors=counter("net_errors_total"),
            stats_requests=counter("net_stats_requests_total"),
            metrics_requests=counter("net_metrics_requests_total"),
            intake_high_watermark=counter("net_intake_high_watermark"),
        )

    def _count(self, name: str, delta: int = 1) -> None:
        self._counters[name].inc(delta)

    # -- the event loop ----------------------------------------------------------

    def _wake(self) -> None:
        fd = self._wake_w
        if fd is None:
            return
        try:
            os.write(fd, b"\x01")
        except (OSError, ValueError):  # pragma: no cover - racing a stop()
            pass

    def _loop(self) -> None:
        while not self._stopping:
            # Pending intake means more admission work even with idle sockets.
            timeout = 0.0 if self._intake else None
            for key, _events in self._selector.select(timeout):
                if key.data == "wake":
                    try:
                        while os.read(self._wake_r, 4096):
                            pass
                    except BlockingIOError:
                        pass
                elif key.data == "listen":
                    self._accept(key.fileobj)
                else:
                    conn = key.data
                    if _events & selectors.EVENT_READ:
                        self._read(conn)
                    if not conn.closed and _events & selectors.EVENT_WRITE:
                        self._write(conn)
                if self._stopping:
                    return
            self._pump_intake()
            self._server.combine()
            self._flush_writes()

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _addr = listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # pragma: no cover - racing close
                return
            sock.setblocking(False)
            if sock.family != socket.AF_UNIX:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock)
            self._selector.register(sock, selectors.EVENT_READ, conn)
            self._conns.append(conn)
            self._count("connections")

    def _read(self, conn: _Connection) -> None:
        try:
            faults.hit("net.recv")
            data = conn.sock.recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except (OSError, InjectedFault):
            # Either way the bytes already buffered for this peer can no
            # longer be trusted to frame correctly: drop the connection, the
            # loop (and every other connection) lives on.
            self._close_conn(conn)
            return
        if not data:
            self._close_conn(conn)
            return
        try:
            frames = conn.assembler.feed(data)
        except SerializationError:
            # Oversized frame announcement: broken or hostile peer.
            self._count("errors")
            self._close_conn(conn)
            return
        if frames:
            conn.intake.extend(frames)
            self._intake += len(frames)
            self._intake_hwm_g.set_max(self._intake)

    def _pump_intake(self) -> None:
        """Admit decoded frames round-robin: one per connection per pass.

        The rotation makes frame intake fair across connections — a client
        that pipelined 100 frames advances one admission slot per pass, the
        same as a client with one frame waiting.
        """
        for _ in range(len(self._conns)):
            conn = self._conns[0]
            self._conns.rotate(-1)
            if conn.closed or conn.broken or not conn.intake:
                continue
            self._intake -= 1
            try:
                self._handle_frame(conn, conn.intake.popleft())
            except Exception:  # pragma: no cover - loop must survive anything
                self._count("errors")
                self._close_conn(conn)

    def _handle_frame(self, conn: _Connection, payload: bytes) -> None:
        try:
            request = decode_request(payload)
        except SerializationError as exc:
            self._count("errors")
            self._send(conn, encode_error(0, type(exc).__name__, str(exc)))
            return
        if request.__class__ is QueryRequest:
            self._admit(conn, request)
            return
        self._count("frames")  # a query frame's record counts it
        if isinstance(request, StatsRequest):
            self._count("stats_requests")
            self._send(conn, encode_stats_reply(request.request_id, self._stats_payload()))
            return
        if isinstance(request, MetricsRequest):
            self._count("metrics_requests")
            self._send(
                conn,
                encode_metrics_reply(
                    request.request_id, self._server.metrics.exposition()
                ),
            )

    def _admit(self, conn: _Connection, request: QueryRequest) -> None:
        if request.variant is not None:
            # The frame layout keeps its variant field for existing encoders;
            # the server serves views, so a frame that names a variant is
            # refused before any record (or metric series) exists for it.
            self._count("frames")
            self._count("errors")
            message = "this server serves views: a query frame's variant field must be empty"
            self._send(conn, encode_error(request.request_id, "DecodingError", message))
            return
        kind = "depends" if request.op == OP_DEPENDS else "visible"
        n = len(request.ids)
        # The wire's strings are not validated yet and a metric label lives as
        # long as the registry, so the record names only what the engine
        # knows: its latency and cost families stay bounded whatever a client
        # sends.
        engine = self._engine
        run = request.run if request.run in engine.run_ids else UNKNOWN
        view = request.view if request.view in engine.view_names else UNKNOWN
        # One record per frame; a wire trace id makes it samplable.  Every
        # exit below finishes it exactly once, folding the frame's counts.
        sampler = self._server.sampler
        record = sampler.open(request.trace_id, kind, run, view, n)
        record.reply, record.reply_to = self._reply, (conn, request.request_id)
        record.tally.add(self._counters["frames"])
        try:
            admitted = self._server.serve_frame(
                record, request.ids, request.view, run=request.run
            )
        except Exception as exc:
            # Oversized batch, bad ids, stopped scheduler: the frame is
            # unanswerable, the connection (and the loop) live on.
            record.resolve(None, exc)
            return
        if not admitted:
            record.tally.add(self._counters["sheds"])
            sampler.finish(record, shed=True)
            obs_events.emit(
                "shed",
                run=request.run,
                view=request.view,
                n=n,
                queue_depth=self._server.pending,
            )
            self._send(
                conn,
                encode_shed(
                    request.request_id, SHED_RETRY_AFTER_S, self._server.pending
                ),
            )

    def _reply(self, record, answers, error) -> None:
        """A frame record's reply sink: pack, finish the record, send.

        Called once per admitted frame (:meth:`Request.resolve
        <repro.obs.trace.Request.resolve>`), on whichever thread took its
        step — the loop itself, or an in-process combiner.
        """
        conn, request_id = record.reply_to
        if error is None:
            reply = encode_answers(request_id, answers)
            record.tally.add(self._counters["answered_frames"])
        else:
            reply = encode_error(request_id, type(error).__name__, str(error))
            record.tally.add(self._counters["errors"])
        self._server.sampler.finish(record, error=error is not None)
        self._send(conn, reply)

    def _stats_payload(self) -> dict:
        # One snapshot feeds both views, so they show one instant.
        snap = self._server.metrics.snapshot()
        watchdog = self._server.watchdog
        health = watchdog.health() if watchdog is not None else None
        return {
            "status": health["status"] if health is not None else "ok",
            "alerts": health["alerts"] if health is not None else [],
            "queue_depth": self._server.pending,
            "runs": list(self._server.engine.run_ids),
            "server": _payload(self._server.stats_from(snap)),
            "net": _payload(self.stats_from(snap)),
            "top_costs": top_costs(snap),
        }

    # -- writes ------------------------------------------------------------------

    def _send(self, conn: _Connection, data: bytes) -> None:
        """Send a reply frame from any thread; the loop flushes what is left.

        With nothing queued ahead of it, the frame goes straight into the
        non-blocking socket under ``conn.lock``, which orders it after
        earlier replies and before :meth:`_close_conn` closes the socket.
        A complete send is the whole reply path.  A frame queued behind
        others, or what a partial or refused send left, waits in
        ``outbound``; a failed send marks the connection broken.  Only the
        loop touches the selector and closes connections, and it ends every
        pass in :meth:`_flush_writes` — so another thread wakes it, the loop
        thread need not.
        """
        with conn.lock:
            if conn.closed or conn.broken:
                return
            if not conn.outbound:
                try:
                    faults.hit("net.send")
                    data = data[conn.sock.send(data) :]
                except (BlockingIOError, InterruptedError):
                    pass
                except (OSError, InjectedFault):
                    conn.broken = True
            if not conn.broken:
                if not data:
                    return
                conn.outbound.append(data)
        if threading.current_thread() is not self._thread:
            self._wake()

    def _flush_writes(self) -> None:
        for conn in list(self._conns):
            if conn.broken:
                self._close_conn(conn)
            elif not conn.closed and conn.outbound:
                self._write(conn)

    def _write(self, conn: _Connection) -> None:
        while True:
            with conn.lock:
                if not conn.outbound:
                    break
                chunk = conn.outbound[0]
            try:
                faults.hit("net.send")
                sent = conn.sock.send(chunk)
            except (BlockingIOError, InterruptedError):
                break
            except (OSError, InjectedFault):
                self._close_conn(conn)
                return
            with conn.lock:
                if sent == len(chunk):
                    conn.outbound.popleft()
                else:
                    conn.outbound[0] = chunk[sent:]
                    break
        self._want_write(conn, bool(conn.outbound))

    def _want_write(self, conn: _Connection, writable: bool) -> None:
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if writable else 0)
        if conn.closed or events == conn.events:
            return
        conn.events = events
        try:
            self._selector.modify(conn.sock, events, conn)
        except (KeyError, ValueError):  # pragma: no cover - racing close
            pass

    def _close_conn(self, conn: _Connection, *, unregister: bool = True) -> None:
        with conn.lock:
            if conn.closed:
                return
            conn.closed = True
            conn.outbound.clear()
        self._intake -= len(conn.intake)
        conn.intake.clear()
        if unregister and self._selector is not None:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError):  # pragma: no cover - already gone
                pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - defensive
            pass
        try:
            self._conns.remove(conn)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        binds = []
        if self._unix_path:
            binds.append(f"unix:{self._unix_path}")
        if self._host is not None:
            binds.append(f"tcp:{self._host}:{self._port}")
        return f"ProvenanceNetServer({', '.join(binds)}, running={self.running})"
