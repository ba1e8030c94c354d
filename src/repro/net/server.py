"""The wire front-end: a unix-socket/TCP binary-batch provenance service.

:class:`ProvenanceNetServer` stands a real transport over one
:class:`~repro.serve.ProvenanceServer` so clients outside this process (and
outside Python) reach the coalescing scheduler:

* **one frame, one request, one future** — a decoded ``depends``/``visible``
  frame's int64 id array goes to :meth:`ProvenanceServer.submit_batch` as is:
  one queue entry, never split across scheduling steps, answered (coalesced
  with same-key frames from other connections) by a single vectorised engine
  call whose bool-array slice is bit-packed straight into the reply;
* **admission control, not blocking** — frames are admitted with
  ``block=False``: when the bounded request queue cannot take the whole
  batch, the client gets an explicit SHED reply (retry-after hint + queue
  depth) instead of the accept loop stalling on backpressure and starving
  every other connection;
* **per-connection fairness** — decoded frames park in per-connection intake
  queues and are admitted round-robin, one frame per connection per pass, so
  a firehose client cannot monopolise the scheduler ahead of light ones;
* **stats/health** — a stats frame answers with the
  :class:`~repro.serve.ServerStats` snapshot (taken under the server's stats
  lock), the live queue depth, and the transport's own counters.

The server is one event-loop thread (``selectors``) that owns every socket;
responses are assembled by future callbacks on the scheduler's worker
threads, handed to the loop over a self-pipe wake, and written back
non-blocking.  The loop never runs engine code and never blocks on the
queue, so slow queries cannot freeze accepts or reads.
"""

from __future__ import annotations

import errno
import os
import selectors
import socket
import threading
from collections import deque
from dataclasses import dataclass

from repro import faults
from repro.core import FVLVariant
from repro.errors import SerializationError
from repro.faults import InjectedFault
from repro.net.protocol import (
    MAX_FRAME_BYTES,
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


@dataclass(frozen=True)
class NetStats:
    """Transport-level counters (the scheduler's own live in ServerStats).

    A view over the stack's shared metrics registry: every counter comes
    from one registry snapshot (a single lock acquisition), so a scrape
    never mixes counts from two instants.
    """

    connections: int  # accepted over the server's lifetime
    active_connections: int
    frames: int  # request frames decoded
    answered_frames: int
    sheds: int
    errors: int  # protocol or query errors answered on a connection
    stats_requests: int
    metrics_requests: int = 0
    #: Deepest decoded-but-unadmitted frame backlog since the last stats
    #: read (watermark gauge: reading it reset it to 0).
    intake_high_watermark: int = 0


class _Connection:
    __slots__ = (
        "sock",
        "assembler",
        "intake",
        "outbound",
        "lock",
        "closed",
        "events",
    )

    def __init__(self, sock: socket.socket, max_frame_bytes: int) -> None:
        self.sock = sock
        self.assembler = FrameAssembler(max_frame_bytes)
        #: Decoded-but-not-yet-admitted request payloads (fairness queue).
        self.intake: deque[bytes] = deque()
        #: Encoded reply frames awaiting a writable socket.  Guarded by
        #: ``lock``: worker-thread future callbacks append, the loop drains.
        self.outbound: deque[bytes] = deque()
        self.lock = threading.Lock()
        self.closed = False
        self.events = selectors.EVENT_READ


class _Flight:
    """One admitted request frame waiting for its scheduler future."""

    __slots__ = ("_net", "_conn", "_request_id", "_record")

    def __init__(self, net, conn, request_id, future, record) -> None:
        self._net = net
        self._conn = conn
        self._request_id = request_id
        #: The frame's :class:`~repro.obs.trace.Request`; the flight finishes
        #: it when the reply is on its way.
        self._record = record
        future.add_done_callback(self._on_done)

    def _on_done(self, future) -> None:
        # Resolved (possibly on a scheduler worker thread): pack the reply
        # off the event loop and hand it over via the pipe.
        error = future.exception()
        if error is not None:
            reply = encode_error(self._request_id, type(error).__name__, str(error))
            self._net._count("errors")
        else:
            reply = encode_answers(self._request_id, future.result())
            self._net._count("answered_frames")
        self._net._server.sampler.finish(self._record, error=error is not None)
        self._net._send(self._conn, reply)


class ProvenanceNetServer:
    """Serve one :class:`ProvenanceServer` over unix and/or TCP sockets.

    ::

        engine = QueryEngine(scheme)
        with ProvenanceServer(engine, workers=2) as server:
            server.attach("/data/run.fvl")
            net = ProvenanceNetServer(server, unix_path="/tmp/prov.sock").start()
            ...
            net.stop()

    The scheduler must be started (workers running) for frames to be
    answered; a stopped scheduler behind a live socket fills its bounded
    queue and the transport degrades to SHED replies — by design, that is
    the overload surface, not a hang.
    """

    def __init__(
        self,
        server: ProvenanceServer,
        *,
        unix_path=None,
        host: "str | None" = None,
        port: int = 0,
        backlog: int = 128,
        shed_retry_after: float = 0.02,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        if unix_path is None and host is None:
            raise ValueError("pass unix_path= and/or host= to bind a listener")
        self._server = server
        self._unix_path = os.fspath(unix_path) if unix_path is not None else None
        self._host = host
        self._port = port
        self._backlog = backlog
        self._shed_retry_after = shed_retry_after
        self._max_frame_bytes = max_frame_bytes
        self._selector: "selectors.BaseSelector | None" = None
        self._listeners: list[socket.socket] = []
        self._conns: deque[_Connection] = deque()
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
            "net_intake_high_watermark",
            "deepest decoded-frame backlog since the last snapshot (resets on read)",
            watermark=True,
        )

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None

    @property
    def unix_address(self) -> "str | None":
        return self._unix_path

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
                listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
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
                self._register_listener(listener)
            if self._host is not None:
                listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                listener.bind((self._host, self._port))
                self._register_listener(listener)
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

    def _register_listener(self, listener: socket.socket) -> None:
        listener.listen(self._backlog)
        listener.setblocking(False)
        self._selector.register(listener, selectors.EVENT_READ, "listen")
        self._listeners.append(listener)

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
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass

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
        (see :meth:`ProvenanceServer.stats_from` for why callers share one)."""

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
            timeout = 0.0 if any(conn.intake for conn in self._conns) else None
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
                    self._service(key.data, _events)
                if self._stopping:
                    return
            self._pump_intake()
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
            conn = _Connection(sock, self._max_frame_bytes)
            self._selector.register(sock, selectors.EVENT_READ, conn)
            self._conns.append(conn)
            self._count("connections")

    def _service(self, conn: _Connection, events: int) -> None:
        if events & selectors.EVENT_READ:
            self._read(conn)
        if not conn.closed and events & selectors.EVENT_WRITE:
            self._write(conn)

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
            conn.intake.extend(conn.assembler.feed(data))
        except SerializationError:
            # Oversized frame announcement: broken or hostile peer.
            self._count("errors")
            self._close_conn(conn)
            return
        if conn.intake:
            self._intake_hwm_g.set_max(
                sum(len(c.intake) for c in self._conns)
            )

    def _pump_intake(self) -> None:
        """Admit decoded frames round-robin: one per connection per pass.

        The rotation makes frame intake fair across connections — a client
        that pipelined 100 frames advances one admission slot per pass, the
        same as a client with one frame waiting.
        """
        for _ in range(len(self._conns)):
            conn = self._conns[0]
            self._conns.rotate(-1)
            if conn.closed or not conn.intake:
                continue
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
        self._count("frames")
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
            return
        self._admit(conn, request)

    def _admit(self, conn: _Connection, request: QueryRequest) -> None:
        kind = "depends" if request.op == OP_DEPENDS else "visible"
        n = len(request.ids)
        # The wire's strings are not validated yet and a metric label lives as
        # long as the registry, so the record names only what the engine
        # knows: its latency and cost families stay bounded whatever a client
        # sends.
        engine = self._server.engine
        run = request.run if request.run in engine.run_ids else UNKNOWN
        view = request.view if request.view in engine.view_names else UNKNOWN
        variant = request.variant  # None: the server's default
        if variant is not None:
            try:
                variant = FVLVariant(variant)
            except ValueError:
                variant = UNKNOWN
        # One record per frame; a wire trace id makes it samplable.  Every
        # exit below finishes it exactly once.
        sampler = self._server.sampler
        record = sampler.open(request.trace_id, kind, run, view, variant, n)
        try:
            future = self._server.submit_batch(
                kind,
                request.ids,
                request.view,
                run=request.run,
                variant=request.variant,
                block=False,
                trace=record.context,
            )
        except Exception as exc:
            # Oversized batch, stopped scheduler, bad variant: the frame is
            # unanswerable, the connection (and the loop) live on.
            self._count("errors")
            sampler.finish(record, error=True)
            self._send(conn, encode_error(request.request_id, type(exc).__name__, str(exc)))
            return
        if future is None:
            self._count("sheds")
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
                    request.request_id, self._shed_retry_after, self._server.pending
                ),
            )
            return
        # An empty frame's future is already resolved: the flight replies now.
        _Flight(self, conn, request.request_id, future, record)

    def _stats_payload(self) -> dict:
        # One snapshot feeds both views: snapshots consume watermark gauges,
        # so taking two here would zero the second view's watermarks.
        snap = self._server.metrics.snapshot()
        stats = self._server.stats_from(snap)
        net = self.stats_from(snap)
        watchdog = self._server.watchdog
        health = watchdog.health() if watchdog is not None else None
        return {
            "status": health["status"] if health is not None else "ok",
            "alerts": health["alerts"] if health is not None else [],
            "queue_depth": self._server.pending,
            "runs": list(self._server.engine.run_ids),
            "server": {
                "submitted": stats.submitted,
                "answered": stats.answered,
                "batches": stats.batches,
                "engine_calls": stats.engine_calls,
                "coalesced": stats.coalesced,
                "largest_batch": stats.largest_batch,
                "queue_peak": stats.queue_peak,
                "queue_depth_high_watermark": stats.queue_depth_high_watermark,
                "probes": stats.probes,
                "reopens": stats.reopens,
                "worker_restarts": stats.worker_restarts,
                "last_error": str(stats.last_error) if stats.last_error else None,
                "last_warm_error": (
                    str(stats.last_warm_error) if stats.last_warm_error else None
                ),
            },
            "net": {
                "connections": net.connections,
                "active_connections": net.active_connections,
                "frames": net.frames,
                "answered_frames": net.answered_frames,
                "sheds": net.sheds,
                "errors": net.errors,
                "stats_requests": net.stats_requests,
                "metrics_requests": net.metrics_requests,
                "intake_high_watermark": net.intake_high_watermark,
            },
            "top_costs": top_costs(snap),
        }

    # -- writes ------------------------------------------------------------------

    def _send(self, conn: _Connection, data: bytes) -> None:
        """Queue a reply frame (any thread) and wake the loop to flush it."""
        with conn.lock:
            if conn.closed:
                return
            conn.outbound.append(data)
        if threading.current_thread() is self._thread:
            self._write(conn)
        else:
            self._wake()

    def _flush_writes(self) -> None:
        for conn in list(self._conns):
            if not conn.closed and conn.outbound:
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
