"""The query-coalescing provenance server: many clients, batched evaluation.

:class:`~repro.engine.QueryEngine` answers *batches* within a small constant
factor of the fully materialised variants — but a fleet of concurrent
clients naturally issues *singletons*, each paying the engine's per-call
overhead (state interning, shard bookkeeping, the engine lock) and, under
contention, serialising on it.  :class:`ProvenanceServer` turns the batch
path into the default under concurrency with a micro-batching scheduler:

* clients :meth:`~ProvenanceServer.submit` ``depends`` / ``is_visible``
  singletons, or :meth:`~ProvenanceServer.submit_batch` a whole *frame* — one
  int64 id array answered through one :class:`concurrent.futures.Future`
  that resolves to one bool array;
* requests land in one bounded queue whose depth, bounds and counters are
  all denominated in *queries* (a frame of ``n`` pairs weighs ``n``); a
  worker takes the first request and, while everything queued is a
  singleton, **lingers** up to ``max_linger_us`` for concurrently-arriving
  requests to pile on (capped at ``max_batch`` queries).  A frame never
  lingers — the timer turns concurrent singletons into a batch, and a frame
  already is one — and one arriving mid-linger ends it; a frame is never
  split across steps.  The worker then groups the step per
  ``(kind, run, view, variant)``, concatenates each group's id arrays and
  answers it with a single vectorised ``depends_batch`` /
  ``is_visible_batch`` call, handing every member its slice;
* after serving a run, the server probes that run's file header on a
  query-count/time backoff (:class:`ReopenPolicy` ->
  :meth:`QueryEngine.maybe_reopen`), so a *follower* process remaps onto a
  compacted generation without any in-process lifecycle manager;
* :meth:`~ProvenanceServer.attach` also loads the run's persistent
  hot-matrix cache (:mod:`repro.serve.matrix_cache`), so a fresh process
  answers its first queries from warm matrices.

The server adds no locking around the engine beyond what the engine already
does — correctness under concurrent queries is the engine's contract; the
server's job is turning N concurrent singletons (or N small frames) into
N/``batch`` engine calls.  ``drain_once()`` exposes one scheduling step synchronously so tests
and single-threaded callers get deterministic behaviour with no threads.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass

import numpy as np

from repro import faults
from repro.engine.engine import DEFAULT_RUN, QueryEngine
from repro.errors import CorruptionError, LabelingError, SerializationError
from repro.faults import InjectedFault
from repro.obs import events as obs_events
from repro.obs.trace import Sampler, TraceContext, activate
from repro.obs.watchdog import Watchdog
from repro.serve.matrix_cache import load_hot_matrices, matrix_cache_path, save_hot_matrices

__all__ = ["BatchPolicy", "ReopenPolicy", "ServerStats", "ProvenanceServer"]

_DEPENDS = "depends"
_VISIBLE = "visible"

#: How long (seconds, real time) a blocked submitter or inline resolver waits
#: between re-checks.  Condition waits are driven by the OS clock regardless
#: of the injected ``clock=`` — the constant only bounds how stale a missed
#: notify can leave them.
_QUEUE_POLL_S = 0.05


@dataclass(frozen=True)
class BatchPolicy:
    """How aggressively concurrent singletons are coalesced.

    Every bound counts *queries* (a frame of ``n`` pairs weighs ``n``).
    ``max_batch`` bounds one scheduling step's batch — frames are popped
    whole, so a single frame larger than ``max_batch`` is a step of its own;
    ``max_linger_us`` is how long (microseconds) a worker holds the *first*
    request of a batch waiting for company — the latency price of
    coalescing, paid only while everything queued is a singleton (a frame
    never lingers) and the queue is shallower than ``max_batch``;
    ``max_queue`` bounds the request queue (submitters block once it is full
    — backpressure, not unbounded memory).
    """

    max_batch: int = 1024
    max_linger_us: int = 200
    max_queue: int = 65536

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_linger_us < 0:
            raise ValueError("max_linger_us must not be negative")
        if self.max_queue < self.max_batch:
            raise ValueError("max_queue must be at least max_batch")


@dataclass(frozen=True)
class ReopenPolicy:
    """When the server probes a served run's header for a newer generation.

    A probe is one :func:`~repro.store.run_file_info` header read — cheap,
    but not free per query, hence the backoff: a run is probed after
    ``after_queries`` answers or once ``after_seconds`` passed since the
    last probe, whichever comes first, and only on the heels of actual
    queries (idle runs are not polled).
    """

    after_queries: int = 512
    after_seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.after_queries < 1:
            raise ValueError("after_queries must be at least 1")
        if self.after_seconds <= 0:
            raise ValueError("after_seconds must be positive")


@dataclass(frozen=True)
class ServerStats:
    """Counters over the server's lifetime (exposed for observability).

    The whole snapshot — counters *and* the last-error fields — is taken
    under one lock, so a reader (e.g. the network tier's stats endpoint)
    never sees a torn view of a worker's failure bookkeeping.
    """

    submitted: int
    answered: int
    batches: int  # scheduling steps taken
    engine_calls: int  # vectorised engine calls made (groups served)
    coalesced: int  # requests answered in a group of more than one
    largest_batch: int
    queue_peak: int
    probes: int
    reopens: int
    #: Pairs the engine answered from a verdict row versus from a matrix
    #: row (mirrors :attr:`repro.engine.EngineStats.structural_pairs` /
    #: ``matrix_pairs``).
    structural_pairs: int = 0
    matrix_pairs: int = 0
    #: Times a worker thread died outside the per-batch guard and its
    #: supervisor restarted it (0 = no worker has ever crashed).
    worker_restarts: int = 0
    #: Deepest queue since the *last* stats read (a watermark gauge: the
    #: registry snapshot that built this view also reset it to 0), so two
    #: consecutive scrapes see per-interval peaks, not the lifetime
    #: :attr:`queue_peak`.
    queue_depth_high_watermark: int = 0
    #: The last unexpected scheduling/probe failure a worker survived and the
    #: last warm-start failure attach swallowed (both ``None`` when healthy).
    last_error: "Exception | None" = None
    last_warm_error: "Exception | None" = None


class _Request:
    """One queue entry: ``n`` queries sharing one key and **one** future.

    A frame (:meth:`ProvenanceServer.submit_batch`) carries ``ids`` as an
    int64 array — ``(n, 2)`` pairs for ``depends``, ``(n,)`` uids for
    ``visible`` — and its future resolves to a bool array of length ``n``.
    A singleton (:meth:`~ProvenanceServer.submit` /
    :meth:`~ProvenanceServer.submit_visible`) is the same request with
    ``n == 1`` and ``scalar`` set: ``ids`` is then the plain ``(d1, d2)``
    tuple / uid (a step full of singletons merges through one list, not n
    tiny arrays) and the future resolves to a plain ``bool``.
    """

    __slots__ = ("key", "n", "ids", "scalar", "view", "variant", "future", "trace")

    def __init__(self, key, n, ids, scalar, view, variant, trace=None) -> None:
        self.key = key  # (kind, run, view name, variant key)
        self.n = n
        self.ids = ids
        self.scalar = scalar
        self.view = view
        self.variant = variant
        self.future: Future = Future()
        #: Optional :class:`~repro.obs.trace.TraceContext` — contextvars do
        #: not follow a request across the queue to a worker thread, so the
        #: trace handle rides the request itself.
        self.trace: "TraceContext | None" = trace


def _request_key(kind: str, view, run: str, variant) -> tuple:
    view_name = view if isinstance(view, str) else view.name
    return (kind, run, view_name, getattr(variant, "value", variant))


def _safe_set_result(future: Future, value) -> None:
    try:
        future.set_result(value)
    except InvalidStateError:  # pragma: no cover - caller cancelled
        pass


def _safe_set_exception(future: Future, exc: BaseException) -> None:
    try:
        future.set_exception(exc)
    except InvalidStateError:  # pragma: no cover - caller cancelled
        pass


def _fan_out(futures: "list[Future]", frame: Future) -> None:
    """Done-callback of a frame future: resolve :meth:`submit_many`'s per-item futures."""
    exc = frame.exception()
    if exc is not None:
        for future in futures:
            _safe_set_exception(future, exc)
        return
    for future, answer in zip(futures, frame.result().tolist()):
        _safe_set_result(future, answer)


class ProvenanceServer:
    """Micro-batching front-end over one :class:`QueryEngine`.

    ::

        engine = QueryEngine(scheme)
        with ProvenanceServer(engine, workers=2) as server:
            server.attach("/data/run.fvl", "run-1")      # + warm matrices
            future = server.submit(d1, d2, view, run="run-1")
            ...
            assert future.result()

    Start the server (or use it as a context manager) for background
    workers; without ``start()`` it degrades to a deterministic inline mode
    where :meth:`depends` / :meth:`is_visible` drain the queue on the
    caller's thread.
    """

    def __init__(
        self,
        engine: QueryEngine,
        *,
        policy: BatchPolicy | None = None,
        reopen: ReopenPolicy | None = None,
        workers: int = 1,
        clock=time.monotonic,
        sampler: "Sampler | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self._engine = engine
        self._policy = policy or BatchPolicy()
        self._reopen_policy = reopen or ReopenPolicy()
        self._n_workers = workers
        self._clock = clock
        self._queue: deque[_Request] = deque()
        #: Queries (not requests) in ``_queue`` — what ``max_queue``,
        #: ``max_batch``, the linger test and ``pending`` all count.
        self._queued = 0
        self._cond = threading.Condition()
        self._threads: list[threading.Thread] = []
        self._stopping = False
        #: run -> [queries since last probe, last probe time]
        self._probe_state: dict[str, list] = {}
        #: Guards the last-error fields and the probe backoff state; all
        #: counters live in the engine's metrics registry instead.
        self._stats_lock = threading.Lock()
        self._last_warm_error: Exception | None = None
        self._last_error: Exception | None = None
        #: The server shares its engine's registry, so one scrape (or one
        #: ``registry.snapshot()``) covers the whole stack at one instant.
        self.metrics = engine.metrics
        #: The request edge (the net tier, or an embedding test) opens and
        #: finishes one record per request here; it lives on the server so
        #: every front-end over one engine shares one sampler and one ring.
        self.sampler = sampler if sampler is not None else Sampler(self.metrics)
        #: Set by :meth:`attach_watchdog`; ``None`` means no SLO evaluation.
        self.watchdog: "Watchdog | None" = None
        m = self.metrics
        self._submitted_c = m.counter(
            "serve_submitted_total", "requests accepted into the scheduler queue"
        )
        self._answered_c = m.counter(
            "serve_answered_total",
            "requests taken into a scheduling step (counted before their futures resolve)",
        )
        self._batches_c = m.counter("serve_batches_total", "scheduling steps taken")
        self._engine_calls_c = m.counter(
            "serve_engine_calls_total", "vectorised engine calls made (groups served)"
        )
        self._coalesced_c = m.counter(
            "serve_coalesced_total", "requests answered in a group of more than one"
        )
        self._largest_batch_g = m.gauge(
            "serve_largest_batch", "largest scheduling batch ever taken"
        )
        self._queue_peak_g = m.gauge("serve_queue_peak", "deepest queue ever seen")
        self._queue_hwm_g = m.gauge(
            "serve_queue_depth_high_watermark",
            "deepest queue since the last snapshot (resets on read)",
            watermark=True,
        )
        m.gauge(
            "serve_queue_depth", "requests queued right now"
        ).set_function(self._queue_depth)
        self._probes_c = m.counter(
            "serve_probes_total", "run-file header probes for newer generations"
        )
        self._reopens_c = m.counter(
            "serve_reopens_total", "probes that remapped a compacted generation"
        )
        self._worker_restarts_c = m.counter(
            "serve_worker_restarts_total", "worker threads revived by the supervisor"
        )
        self._corruption_c = m.counter(
            "corruption_detected_total",
            "checksum/structure corruption detections by layer",
            ("layer",),
        ).labels("hotmx")

    def _queue_depth(self) -> int:
        with self._cond:
            return self._queued

    # -- lifecycle ---------------------------------------------------------------

    @property
    def engine(self) -> QueryEngine:
        return self._engine

    @property
    def running(self) -> bool:
        return bool(self._threads)

    @property
    def last_warm_error(self) -> "Exception | None":
        """The last warm-start failure :meth:`attach` swallowed (None = ok)."""
        with self._stats_lock:
            return self._last_warm_error

    @last_warm_error.setter
    def last_warm_error(self, exc: "Exception | None") -> None:
        with self._stats_lock:
            self._last_warm_error = exc

    @property
    def last_error(self) -> "Exception | None":
        """The last unexpected scheduling or probe failure a worker survived
        (pending futures of that batch receive the exception; the worker
        keeps serving).  A remap refused for corruption (foreign spec,
        shrunk file) lands here — monitor it in threaded deployments.
        Worker threads write it and :attr:`stats` readers snapshot it under
        one lock, so observers never race a plain attribute store.
        """
        with self._stats_lock:
            return self._last_error

    @last_error.setter
    def last_error(self, exc: "Exception | None") -> None:
        with self._stats_lock:
            self._last_error = exc

    def start(self) -> "ProvenanceServer":
        if self._threads:
            raise RuntimeError("server is already running")
        with self._cond:
            self._stopping = False
        for index in range(self._n_workers):
            thread = threading.Thread(
                target=self._worker_entry,
                name=f"provenance-serve-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Stop the workers after they drain every queued request."""
        if self.watchdog is not None:
            self.watchdog.stop()
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads = []
        # A server stopped before (or without) start() may still hold
        # requests; fail them rather than leaving callers waiting forever.
        with self._cond:
            leftovers = list(self._queue)
            self._queue.clear()
            self._queued = 0
        for request in leftovers:
            _safe_set_exception(
                request.future, RuntimeError("provenance server was stopped")
            )

    def __enter__(self) -> "ProvenanceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- registration ------------------------------------------------------------

    def attach(self, path, run_id: str = DEFAULT_RUN, *, warm: bool = True):
        """Attach a persisted run and (by default) load its hot-matrix cache.

        Returns ``(mapped_store, warmed_entries)``.  A matrix cache that is
        refused is recorded on :attr:`last_warm_error` and the attach proceeds
        cold — a stale side file must not take serving down; a *damaged* one
        (not one of another format version or run) is counted and reported
        like any other corruption; a *missing* one simply warms nothing.
        """
        mapped = self._engine.attach(path, run_id)
        warmed = 0
        if warm:
            try:
                warmed = load_hot_matrices(self._engine, run_id)
                self.last_warm_error = None
            except SerializationError as exc:
                self.last_warm_error = exc
                if isinstance(exc, CorruptionError):
                    self._corruption_c.inc()
                    side_file = matrix_cache_path(mapped.path)
                    obs_events.emit("corruption", path=side_file, reason=str(exc))
        return mapped, warmed

    def save_matrix_cache(self, run_id: str = DEFAULT_RUN, **kwargs) -> int:
        """Persist the shard's hottest matrices (see :func:`save_hot_matrices`)."""
        return save_hot_matrices(self._engine, run_id, **kwargs)

    # -- submission --------------------------------------------------------------

    def submit(
        self,
        d1: int,
        d2: int,
        view,
        *,
        run: str = DEFAULT_RUN,
        variant=None,
    ) -> Future:
        """Enqueue one ``depends`` query; the Future resolves to its answer."""
        key = _request_key(_DEPENDS, view, run, variant)
        return self._enqueue(_Request(key, 1, (d1, d2), True, view, variant))

    def submit_visible(
        self,
        uid: int,
        view,
        *,
        run: str = DEFAULT_RUN,
        variant=None,
    ) -> Future:
        """Enqueue one ``is_visible`` query; the Future resolves to its answer."""
        key = _request_key(_VISIBLE, view, run, variant)
        return self._enqueue(_Request(key, 1, uid, True, view, variant))

    def submit_batch(
        self,
        kind: str,
        ids,
        view,
        *,
        run: str = DEFAULT_RUN,
        variant=None,
        block: bool = True,
        trace: "TraceContext | None" = None,
    ) -> "Future | None":
        """Enqueue one frame of queries as **one** request with **one** future.

        ``kind`` is ``"depends"`` (``ids`` is an ``(n, 2)`` int64 array of
        ``(d1, d2)`` pairs) or ``"visible"`` (an ``(n,)`` array of uids);
        anything :func:`numpy.asarray` turns into that shape is accepted, an
        int64 array is used as is (no copy).  The returned Future resolves
        to a bool array of length ``n``, in ``ids`` order — the wire
        front-end's path (:mod:`repro.net`): a decoded frame stays one array
        from the socket to the engine and back.

        The frame weighs ``n`` queries against ``max_queue`` and
        ``max_batch`` and is never split: the scheduling step that pops it
        answers all of it, coalesced with any same-key company into one
        vectorised engine call.  A frame that could never fit ``max_queue``
        raises ``ValueError`` before anything is allocated for it.

        ``block=False`` admits the frame only if *all* of it fits the bounded
        queue right now and returns ``None`` otherwise, so a network accept
        loop can answer with an explicit SHED/retry-after response instead of
        stalling on backpressure.  ``block=True`` waits for room like
        :meth:`submit`.

        ``trace`` attaches a :class:`~repro.obs.trace.TraceContext` to the
        request: the scheduling step that serves it opens a
        ``scheduler.batch`` span under it (recording which trace ids the
        step coalesced) and runs the engine call with the trace active, so
        engine/store spans nest below.  The *caller* still owns the trace's
        lifetime — the scheduler never finishes it.
        """
        if kind not in (_DEPENDS, _VISIBLE):
            raise ValueError(
                f"unknown request kind {kind!r} (expected {_DEPENDS!r} or {_VISIBLE!r})"
            )
        if self._stopping:
            # Re-checked under the lock in _enqueue; here so a stopped server
            # refuses before ``ids`` is converted.
            raise RuntimeError("provenance server is stopped")
        n = len(ids)
        if n > self._policy.max_queue:
            raise ValueError(
                f"batch of {n} requests can never fit max_queue="
                f"{self._policy.max_queue}; split it across frames"
            )
        if n == 0:
            empty: Future = Future()
            empty.set_result(np.zeros(0, dtype=bool))
            return empty
        ids = np.asarray(ids, dtype=np.int64)
        shape = (n, 2) if kind == _DEPENDS else (n,)
        if ids.shape != shape:
            raise ValueError(f"{kind} ids must have shape {shape}, got {ids.shape}")
        key = _request_key(kind, view, run, variant)
        return self._enqueue(_Request(key, n, ids, False, view, variant, trace), block)

    def submit_many(
        self,
        kind: str,
        items,
        view,
        *,
        run: str = DEFAULT_RUN,
        variant=None,
        block: bool = True,
        trace: "TraceContext | None" = None,
    ) -> "list[Future] | None":
        """:meth:`submit_batch` with one Future per item (the compatibility API).

        ``items`` are ``(d1, d2)`` pairs or uids; the batch travels the queue
        as one frame and a single callback on its future resolves the
        returned per-item futures (``items`` order, plain ``bool`` answers).
        Same ``block``/``trace`` semantics; ``None`` when a non-blocking
        batch was refused.  Callers that can take one bool array should use
        :meth:`submit_batch` and skip the ``len(items)`` futures.
        """
        if not hasattr(items, "__len__"):
            items = list(items)
        frame = self.submit_batch(
            kind, items, view, run=run, variant=variant, block=block, trace=trace
        )
        if frame is None:
            return None
        futures: "list[Future]" = [Future() for _ in range(len(items))]
        frame.add_done_callback(lambda done: _fan_out(futures, done))
        return futures

    def depends(
        self,
        d1: int,
        d2: int,
        view,
        *,
        run: str = DEFAULT_RUN,
        variant=None,
    ) -> bool:
        """Blocking convenience: submit and wait (inline drain when no workers)."""
        future = self.submit(d1, d2, view, run=run, variant=variant)
        return self._resolve(future)

    def is_visible(
        self,
        uid: int,
        view,
        *,
        run: str = DEFAULT_RUN,
        variant=None,
    ) -> bool:
        future = self.submit_visible(uid, view, run=run, variant=variant)
        return self._resolve(future)

    def drain_once(self) -> int:
        """Take one scheduling step on the caller's thread (no linger).

        Pops whole requests worth up to ``max_batch`` queries, serves them
        as grouped engine calls and returns how many queries were answered —
        the deterministic, threadless way to run the scheduler (tests,
        single-threaded tools).
        """
        with self._cond:
            batch, queries = self._pop_step()
        if batch:
            self._process(batch)
        return queries

    # -- observability -----------------------------------------------------------

    def attach_watchdog(
        self,
        slos=None,
        *,
        interval_s: float = 1.0,
        start: bool = True,
    ) -> Watchdog:
        """Attach (and by default start) an SLO watchdog over this stack.

        The watchdog ticks on its own daemon thread, evaluating the given
        :class:`~repro.obs.watchdog.SLO` specs (default:
        :func:`~repro.obs.watchdog.default_slos`) against this server's
        shared registry; its verdict surfaces through the network tier's
        stats payload.  Re-attaching stops the previous one.
        """
        if self.watchdog is not None:
            self.watchdog.stop()
        self.watchdog = Watchdog(self.metrics, slos, interval_s=interval_s)
        if start:
            self.watchdog.start()
        return self.watchdog

    @property
    def stats(self) -> ServerStats:
        """One consistent :class:`ServerStats` view over the registry.

        Every counter — the server's *and* the engine's structural/matrix
        pair tallies — comes from a single
        :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` (one lock
        acquisition), so a scrape never mixes counts from two instants; the
        last-error fields are read under their own lock right after.
        """
        return self.stats_from(self.metrics.snapshot())

    def stats_from(self, snap: dict) -> ServerStats:
        """Build :class:`ServerStats` from an already-taken registry snapshot.

        Snapshots consume watermark gauges (reading resets them), so a
        caller assembling several stats views — the net tier's stats
        payload builds this *and* :class:`~repro.net.server.NetStats` — must
        take one snapshot and feed it to both, or the second view would see
        the watermarks already zeroed by the first.
        """

        def counter(name: str) -> int:
            return int(snap.get(name, {}).get((), 0))

        pairs = snap.get("engine_pairs_total", {})
        with self._stats_lock:
            last_error = self._last_error
            last_warm_error = self._last_warm_error
        return ServerStats(
            submitted=counter("serve_submitted_total"),
            answered=counter("serve_answered_total"),
            batches=counter("serve_batches_total"),
            engine_calls=counter("serve_engine_calls_total"),
            coalesced=counter("serve_coalesced_total"),
            largest_batch=counter("serve_largest_batch"),
            queue_peak=counter("serve_queue_peak"),
            probes=counter("serve_probes_total"),
            reopens=counter("serve_reopens_total"),
            structural_pairs=int(pairs.get(("structural",), 0)),
            matrix_pairs=int(pairs.get(("matrix",), 0)),
            worker_restarts=counter("serve_worker_restarts_total"),
            queue_depth_high_watermark=counter("serve_queue_depth_high_watermark"),
            last_error=last_error,
            last_warm_error=last_warm_error,
        )

    @property
    def pending(self) -> int:
        """Queries queued right now (a frame of ``n`` counts ``n``)."""
        return self._queue_depth()

    # -- internals ---------------------------------------------------------------

    def _enqueue(self, request: _Request, block: bool = True) -> "Future | None":
        n = request.n
        max_queue = self._policy.max_queue
        if not block:
            try:
                # Deterministic shed injection: a harness arming this point
                # makes the non-blocking edge refuse admission exactly as a
                # full queue would, without having to race the queue full.
                faults.hit("scheduler.admit")
            except InjectedFault:
                return None
        with self._cond:
            if self._stopping:
                raise RuntimeError("provenance server is stopped")
            while self._queued + n > max_queue:
                if not block:
                    return None
                if not self._threads:
                    raise RuntimeError(
                        "request queue is full and no workers are running; "
                        "start() the server or drain_once() between submissions"
                    )
                self._cond.wait(_QUEUE_POLL_S)
                if self._stopping:
                    raise RuntimeError("provenance server is stopped")
            self._queue.append(request)
            self._queued += n
            depth = self._queued
            self._cond.notify_all()
        self._submitted_c.inc(n)
        self._queue_peak_g.set_max(depth)
        self._queue_hwm_g.set_max(depth)
        return request.future

    def _pop_step(self) -> "tuple[list[_Request], int]":
        """Pop one step's requests (caller holds ``_cond``): whole frames only.

        Requests are taken in arrival order until the next one would push
        the step past ``max_batch`` queries; a frame is never split, so one
        larger than ``max_batch`` is a step of its own.
        """
        max_batch = self._policy.max_batch
        queue = self._queue
        batch: "list[_Request]" = []
        queries = 0
        while queue and (not batch or queries + queue[0].n <= max_batch):
            request = queue.popleft()
            batch.append(request)
            queries += request.n
        if batch:
            self._queued -= queries
            self._cond.notify_all()  # wake blocked submitters
        return batch, queries

    def _resolve(self, future: Future) -> bool:
        if not self._threads:
            while not future.done():
                if self.drain_once() == 0:
                    # Empty queue but unresolved: a concurrent inline caller
                    # popped the request into its in-flight batch — wait for
                    # that drain (or a stop()) to settle the future.
                    try:
                        return future.result(timeout=_QUEUE_POLL_S)
                    except FuturesTimeoutError:
                        continue
        return future.result()

    def _worker_entry(self) -> None:
        """Supervise one worker thread: restart it when a step escapes.

        The per-batch guard in :meth:`_worker` already contains failures
        *inside* a scheduling step, but an exception between steps — in
        :meth:`_collect_batch` itself, or at the ``scheduler.batch`` fault
        point — would kill the thread and silently strand every future
        submitter.  The supervisor fails the batch the dead worker was
        holding (loudly, on its futures), counts the restart, and spins a
        fresh loop unless the server is stopping with a drained queue.
        """
        in_flight: "list[list[_Request] | None]" = [None]
        while True:
            try:
                self._worker(in_flight)
                return  # clean exit: stopping, queue drained
            except Exception as exc:
                batch = in_flight[0]
                in_flight[0] = None
                self.last_error = exc
                if batch:
                    for request in batch:
                        _safe_set_exception(request.future, exc)
                self._worker_restarts_c.inc()
                obs_events.emit(
                    "worker_restart",
                    error=repr(exc),
                    failed_requests=sum(r.n for r in batch) if batch else 0,
                )
                with self._cond:
                    if self._stopping and not self._queue:
                        return

    def _worker(self, in_flight: "list[list[_Request] | None]") -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            # Published before the fault point so the supervisor can fail
            # exactly the requests this thread popped, should it die here.
            in_flight[0] = batch
            faults.hit("scheduler.batch")
            try:
                self._process(batch)
            except Exception as exc:
                # A fault outside the per-group guards (e.g. a probe hitting
                # a corrupt file) must not kill the worker: a dead worker
                # with live submitters is a silent deadlock.  Fail this
                # batch's still-pending futures and keep serving.
                self.last_error = exc
                for request in batch:
                    _safe_set_exception(request.future, exc)
            finally:
                in_flight[0] = None

    def _collect_batch(self) -> "list[_Request] | None":
        policy = self._policy
        with self._cond:
            while True:
                while not self._queue and not self._stopping:
                    self._cond.wait()
                if not self._queue:
                    return None  # stopping, and the queue is drained
                if policy.max_linger_us > 0 and self._lingering():
                    # Hold the first request briefly: under concurrency the
                    # linger converts a stream of singletons into one batch.
                    # The deadline runs on the injected clock (like the probe
                    # backoff), so tests drive linger with a fake clock; only
                    # the condition waits themselves are OS-timed.
                    deadline = self._clock() + policy.max_linger_us / 1e6
                    while self._lingering():
                        remaining = deadline - self._clock()
                        if remaining <= 0:
                            break
                        self._cond.wait(min(remaining, _QUEUE_POLL_S))
                if not self._queue:
                    continue  # another worker took everything while we lingered
                return self._pop_step()[0]

    def _lingering(self) -> bool:
        """Whether the head of the queue should wait for company (``_cond`` held).

        Only while everything queued is a singleton (a frame already *is* a
        batch: holding it buys nothing and costs it the timer), the step is
        not full and the server is not stopping.
        """
        return (
            self._queued == len(self._queue)
            and self._queued < self._policy.max_batch
            and not self._stopping
        )

    def _process(self, batch: "list[_Request]") -> None:
        queries = sum(request.n for request in batch)
        groups: dict[tuple, list[_Request]] = {}
        for request in batch:
            groups.setdefault(request.key, []).append(request)
        # One ``scheduler.batch`` span per distinct trace in the step, each
        # recording *all* the trace ids this step coalesced — the span tree
        # of any one request shows which strangers shared its batch.
        sched_spans: dict[int, object] = {}
        coalesced_ids: list[int] = []
        seen_traces: set[int] = set()
        for request in batch:
            ctx = request.trace
            if ctx is not None and id(ctx.trace) not in seen_traces:
                seen_traces.add(id(ctx.trace))
                coalesced_ids.append(ctx.trace_id)
        if coalesced_ids:
            for request in batch:
                ctx = request.trace
                if ctx is None or id(ctx.trace) in sched_spans:
                    continue
                sched_spans[id(ctx.trace)] = ctx.trace.begin_span(
                    "scheduler.batch",
                    parent_id=ctx.parent_id,
                    attrs={
                        "requests": len(batch),
                        "queries": queries,
                        "groups": len(groups),
                        "coalesced_traces": list(coalesced_ids),
                    },
                )
        # The step is counted before any of its futures resolves (and every
        # engine call as it returns, in ``_evaluate``): a client that holds
        # its answer finds it in the counters, with or without a linger
        # between two steps to hide the gap.
        self._batches_c.inc()
        self._answered_c.inc(queries)
        sizes = [sum(member.n for member in members) for members in groups.values()]
        coalesced = sum(size for size in sizes if size > 1)
        if coalesced:
            self._coalesced_c.inc(coalesced)
        self._largest_batch_g.set_max(queries)
        served_runs: dict[str, int] = {}
        for key, members in groups.items():
            # Engine/store spans of this group nest under the first traced
            # member's scheduler span; the other coalesced traces still
            # record the step itself (ids above) without duplicate subtrees.
            group_ctx = next((m.trace for m in members if m.trace is not None), None)
            group_span = sched_spans.get(id(group_ctx.trace)) if group_ctx else None
            with activate(
                group_ctx.trace if group_ctx is not None else None,
                getattr(group_span, "span_id", None),
            ):
                served = self._serve_group(key, members)
            if served:
                served_runs[key[1]] = served_runs.get(key[1], 0) + served
        for span in sched_spans.values():
            if span is not None:
                span.finish()
        for run, count in served_runs.items():
            self._note_served(run, count)

    def _serve_group(self, key: tuple, members: "list[_Request]") -> int:
        """Answer one same-key group; returns the queries served.

        The group is one coalesced engine call.  If that call raises and the
        group has company, every member is re-evaluated alone, so one
        frame's unknown uid fails that frame only — the strangers it was
        coalesced with still get their bits.
        """
        try:
            self._evaluate(key, members)
            return sum(member.n for member in members)
        except Exception as exc:
            if len(members) == 1:
                _safe_set_exception(members[0].future, exc)
                return 0
        served = 0
        for member in members:
            try:
                self._evaluate(key, [member])
                served += member.n
            except Exception as exc:
                _safe_set_exception(member.future, exc)
        return served

    def _evaluate(self, key: tuple, members: "list[_Request]") -> None:
        """One engine call over ``members``' ids; each future gets its slice."""
        first = members[0]
        frames = [member for member in members if not member.scalar]
        scalars = [member for member in members if member.scalar]
        if not frames:
            ids = [member.ids for member in scalars]
        elif len(members) == 1:
            ids = first.ids
        else:
            parts = [member.ids for member in frames]
            if scalars:
                parts.append(
                    np.asarray([member.ids for member in scalars], dtype=np.int64)
                )
            ids = np.concatenate(parts)
        engine = self._engine
        call = engine.depends_batch if key[0] == _DEPENDS else engine.is_visible_batch
        try:
            answers = call(ids, first.view, run=key[1], variant=first.variant)
        finally:
            self._engine_calls_c.inc()
        offset = 0
        if frames:
            bits = np.asarray(answers, dtype=bool)
            for member in frames:
                _safe_set_result(member.future, bits[offset : offset + member.n])
                offset += member.n
        for member, answer in zip(scalars, answers[offset:]):
            _safe_set_result(member.future, answer)

    def _note_served(self, run: str, count: int) -> None:
        """Advance the run's probe backoff; probe + remap when a bound fires."""
        now = self._clock()
        policy = self._reopen_policy
        with self._stats_lock:
            state = self._probe_state.get(run)
            if state is None:
                state = self._probe_state[run] = [0, now]
            state[0] += count
            if (
                state[0] < policy.after_queries
                and now - state[1] < policy.after_seconds
            ):
                return
            state[0] = 0
            state[1] = now
        self._probes_c.inc()
        try:
            reopened = self._engine.maybe_reopen(run)
        except LabelingError as exc:
            if run in self._engine.run_ids:
                # A registered run failing to remap is a real fault (foreign
                # specification, shrunk file) — record it for operators and
                # re-raise: inline callers see it directly, worker threads
                # keep serving the old mapping with the fault pinned on
                # :attr:`last_error` (the batch's answers already resolved).
                self.last_error = exc
                raise
            return  # benign: the run was detached between batch and probe
        if reopened:
            self._reopens_c.inc()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProvenanceServer(workers={len(self._threads)}, "
            f"pending={self.pending}, running={self.running})"
        )
