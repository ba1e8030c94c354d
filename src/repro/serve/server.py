"""The query-coalescing provenance server: many clients, batched evaluation.

:class:`~repro.engine.QueryEngine` answers *batches* with no Python per
pair — but a fleet of concurrent
clients naturally issues *small frames* (often one pair), each paying the
engine's per-call overhead (state interning, shard bookkeeping, the engine
lock) and, under contention, serialising on it.  :class:`ProvenanceServer`
turns the batch path into the default under concurrency with a
micro-batching scheduler:

* every request is a *frame* of ``depends`` pairs or ``is_visible`` uids
  as one int64 id array, and every frame is **one record** — the
  :class:`~repro.obs.trace.Request` the sampler also keeps.  The record is
  the queue entry: it carries the ids, the group key, the view as the
  caller passed it and a reply sink, which the step that answers the frame
  calls exactly once with one bool array or one error.
  :meth:`~ProvenanceServer.submit_batch` is the one
  :class:`concurrent.futures.Future` adapter (its sink resolves the future)
  and :meth:`~ProvenanceServer.submit_many`'s sink resolves one future per
  item; a request edge brings its own record and sink;
* records land in one bounded queue whose depth, bounds and counters are
  all denominated in *queries* (a frame of ``n`` pairs weighs ``n``).  A
  scheduling step pops whole frames, up to ``max_batch`` queries (a frame
  is never split across steps), groups them per ``(kind, run, view)``,
  concatenates each group's id arrays and answers it with a single
  vectorised ``depends_batch`` / ``is_visible_batch`` call, handing every
  member its slice;
* there is no serving thread: steps run by **flat combining** (Hendler,
  Incze, Shavit and Tzafrir, SPAA 2010).  A submitter queues its record
  and, if no step is in flight, becomes the *combiner*: it takes steps on
  its own thread until the queue is empty (:meth:`~ProvenanceServer.combine`).
  A submitter that finds a combiner leaves its record to it.  Whatever
  arrives while a step runs is popped together by the next one, so
  concurrent frames still coalesce.  A request edge that reads frames on a
  thread of its own (the net tier's event loop) queues or sheds them
  without blocking through :meth:`~ProvenanceServer.serve_frame`, then
  combines once per pass of intake;
* after serving a run, the server probes that run's file on a
  query-count/time backoff (:class:`ReopenPolicy` ->
  :meth:`QueryEngine.reopen`, one header read unless the generation moved
  on), so a *follower* process remaps onto a compacted generation without
  any in-process lifecycle manager;
* :meth:`~ProvenanceServer.attach` also loads the run's persistent
  hot-matrix cache (:mod:`repro.serve.matrix_cache`), so a fresh process
  answers its first queries from warm matrices.

The server adds no locking around the engine beyond what the engine already
does — correctness under concurrent queries is the engine's contract; the
server's job is turning N concurrent small frames into N/``batch`` engine
calls.  Before :meth:`~ProvenanceServer.start` nothing combines, and
``drain_once()`` takes one scheduling step on the caller's thread, so tests
and single-threaded callers get deterministic steps.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass

import numpy as np

from repro import faults
from repro.engine.engine import DEFAULT_RUN, QueryEngine
from repro.errors import CorruptionError, LabelingError, SerializationError
from repro.faults import InjectedFault
from repro.obs import events as obs_events
from repro.obs.metrics import Tally
from repro.obs.trace import Request, Sampler, activate
from repro.obs.watchdog import Watchdog
from repro.serve.matrix_cache import load_hot_matrices, matrix_cache_path, save_hot_matrices

__all__ = ["BatchPolicy", "ReopenPolicy", "ServerStats", "ProvenanceServer"]

_DEPENDS = "depends"
_VISIBLE = "visible"


@dataclass(frozen=True)
class BatchPolicy:
    """How many queries one step and the queue may hold.

    Every bound counts *queries* (a frame of ``n`` pairs weighs ``n``).
    ``max_batch`` bounds one scheduling step's batch — frames are popped
    whole, so a single frame larger than ``max_batch`` is a step of its own;
    ``max_queue`` bounds the request queue (submitters block once it is full
    — backpressure, not unbounded memory).
    """

    max_batch: int = 1024
    max_queue: int = 65536

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
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

    Every count comes from one registry snapshot, so a reader (e.g. the
    network tier's stats endpoint) sees them at one instant; the
    last-error fields are read under their own lock right after.
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
    #: The last unexpected scheduling/probe failure a step survived and the
    #: last warm-start failure attach swallowed (both ``None`` when healthy).
    last_error: "Exception | None" = None
    last_warm_error: "Exception | None" = None


def _view_name(view) -> str:
    return view if isinstance(view, str) else view.name


def _settle(future: Future, answer, error) -> None:
    try:
        if error is None:
            future.set_result(answer)
        else:
            future.set_exception(error)
    except InvalidStateError:  # pragma: no cover - caller cancelled
        pass


def _reply_future(request: Request, answers, error) -> None:
    """:meth:`~ProvenanceServer.submit_batch`'s sink: the frame's one future."""
    _settle(request.reply_to, answers, error)


def _reply_futures(request: Request, answers, error) -> None:
    """:meth:`~ProvenanceServer.submit_many`'s sink: one future per item."""
    if error is not None:
        for future in request.reply_to:
            _settle(future, None, error)
        return
    for future, answer in zip(request.reply_to, answers.tolist()):
        _settle(future, answer, None)


class ProvenanceServer:
    """Micro-batching front-end over one :class:`QueryEngine`.

    ::

        engine = QueryEngine(scheme)
        with ProvenanceServer(engine) as server:
            server.attach("/data/run.fvl", "run-1")      # + warm matrices
            future = server.submit_batch("depends", [(d1, d2)], view, run="run-1")
            ...
            assert future.result()[0]

    Start the server (or use it as a context manager) to have submitters
    combine; without ``start()`` records stay queued until :meth:`drain_once`
    takes a deterministic step on the caller's thread.  ``workers`` accepts
    only ``1``: the server starts no thread.
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
        if workers != 1:
            raise ValueError("workers must be 1: submitters serve the queue on their own threads")
        self._engine = engine
        self._policy = policy or BatchPolicy()
        self._reopen_policy = reopen or ReopenPolicy()
        self._clock = clock
        self._queue: deque[Request] = deque()
        #: Queries (not requests) in ``_queue`` — what ``max_queue``,
        #: ``max_batch`` and ``pending`` all count.
        self._queued = 0
        #: Guards the queue and the combiner role; ``_cond`` waits on it.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: Threads waiting on ``_cond`` (guarded by it): only they need a notify.
        self._waiters = 0
        self._running = False
        #: The ident of the thread taking steps in :meth:`combine`, or
        #: ``None`` when no step is in flight (guarded by ``_lock``).
        self._combiner: "int | None" = None
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
        m.gauge(
            "serve_queue_depth", "requests queued right now"
        ).set_function(lambda: self.pending)
        self._probes_c = m.counter(
            "serve_probes_total", "run-file header probes for newer generations"
        )
        self._reopens_c = m.counter(
            "serve_reopens_total", "probes that remapped a compacted generation"
        )
        self._corruption_c = m.counter(
            "corruption_detected_total",
            "checksum/structure corruption detections by layer",
            ("layer",),
        ).labels("hotmx")

    # -- lifecycle ---------------------------------------------------------------

    @property
    def engine(self) -> QueryEngine:
        return self._engine

    @property
    def running(self) -> bool:
        return self._running

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
        """The last unexpected scheduling, probe or reply-sink failure a step
        survived (the step's unanswered records are failed with it; the next
        step is served as usual).  A remap refused for corruption (foreign
        spec, shrunk file) lands here — monitor it in threaded deployments.
        Whichever thread took the step writes it and :attr:`stats` readers
        snapshot it under one lock, so observers never race a plain
        attribute store.
        """
        with self._stats_lock:
            return self._last_error

    @last_error.setter
    def last_error(self, exc: "Exception | None") -> None:
        with self._stats_lock:
            self._last_error = exc

    def start(self) -> "ProvenanceServer":
        """Turn combining on, and serve what is already queued on the caller's thread."""
        with self._cond:
            if self._running:
                raise RuntimeError("server is already running")
            self._running = True
            self._stopping = False
        self.combine()
        return self

    def stop(self) -> None:
        """Refuse new records, wait for the combiner to empty the queue, and
        fail what no combiner took (a server never started, or frames an edge
        queued and has not combined).  A submitter blocked on a full queue
        raises ``RuntimeError``, as does ``stop()`` called inside a step."""
        with self._cond:
            if self._combiner == threading.get_ident():
                raise RuntimeError("stop() inside a step would wait for its own thread")
        if self.watchdog is not None:
            self.watchdog.stop()
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
            self._waiters += 1
            self._cond.wait_for(lambda: self._combiner is None)
            self._waiters -= 1
            self._running = False
            leftovers = list(self._queue)
            self._queue.clear()
            self._queued = 0
        for request in leftovers:
            self._reply(request, None, RuntimeError("provenance server was stopped"))

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
        """Persist the shard's decided rows (see :func:`save_hot_matrices`)."""
        return save_hot_matrices(self._engine, run_id, **kwargs)

    # -- submission --------------------------------------------------------------

    def submit_batch(self, kind: str, ids, view, *, run: str = DEFAULT_RUN) -> Future:
        """Enqueue one frame of queries as **one** record with **one** future.

        ``kind`` is ``"depends"`` (``ids`` is an ``(n, 2)`` int64 array of
        ``(d1, d2)`` pairs) or ``"visible"`` (an ``(n,)`` array of uids);
        anything :func:`numpy.asarray` turns into that shape is accepted, an
        int64 array is used as is (no copy).  The returned Future resolves
        to a bool array of length ``n``, in ``ids`` order.

        The frame weighs ``n`` queries against ``max_queue`` and
        ``max_batch`` and is never split: the scheduling step that pops it
        answers all of it, coalesced with any same-key company into one
        vectorised engine call.  A frame that could never fit ``max_queue``
        raises ``ValueError`` before anything is allocated for it; one that
        does not fit right now waits for room (backpressure — a request edge
        that must not block sheds through :meth:`serve_frame` instead).  On
        a running server the caller then calls :meth:`combine`, so the
        future is resolved on return unless another thread's step is in
        flight.
        """
        ids = self._check(kind, ids)
        future = Future()
        self._submit(kind, ids, view, run, _reply_future, future)
        return future

    def serve_frame(self, request: Request, ids, view, *, run: str = DEFAULT_RUN) -> bool:
        """A request edge's non-blocking submit: queue the frame, or shed it.

        ``request`` is the edge's record (:meth:`Sampler.open
        <repro.obs.trace.Sampler.open>`): its ``op`` is the kind, and its
        ``reply`` sink is set — the step that answers the frame resolves it,
        on whichever thread took the step.  Same validation and errors as
        :meth:`submit_batch`; returns ``False``, the record not replied to,
        when the frame is shed because all of it does not fit the bounded
        queue right now, so the edge can answer with an explicit SHED reply
        instead of stalling.  No step is taken here: the edge calls
        :meth:`combine` once it has admitted everything it read, so frames
        read together are popped together.
        """
        ids = self._check(request.op, ids)
        return self._admit(request, ids, view, run, block=False)

    def submit_many(self, kind: str, items, view, *, run: str = DEFAULT_RUN) -> "list[Future]":
        """:meth:`submit_batch` with one Future per item (the compatibility API).

        ``items`` are ``(d1, d2)`` pairs or uids; the batch travels the queue
        as one record whose sink resolves the returned per-item futures
        (``items`` order, plain ``bool`` answers).  Callers that can take one
        bool array should use :meth:`submit_batch` and skip the
        ``len(items)`` futures.
        """
        if not hasattr(items, "__len__"):
            items = list(items)
        ids = self._check(kind, items)
        futures = [Future() for _ in range(len(items))]
        self._submit(kind, ids, view, run, _reply_futures, futures)
        return futures

    def drain_once(self) -> int:
        """Take one scheduling step on the caller's thread.

        Pops whole requests worth up to ``max_batch`` queries, serves them
        as grouped engine calls and returns how many queries were answered —
        the deterministic way to run a server that was not started (tests,
        single-threaded tools).
        """
        with self._cond:
            batch, queries = self._pop_step()
        if batch:
            self._process(batch)
        return queries

    def combine(self) -> None:
        """Serve everything queued on the caller's thread, unless a step is in flight.

        The thread that finds no combiner takes steps until the queue is
        empty and gives the role up under ``_cond`` in the same critical
        section that saw the queue empty, so a record queued while a step is
        in flight is always served by that step's thread.  A no-op until
        :meth:`start`.  Any exception a step raises — the ``scheduler.batch``
        fault point, or a fault outside the per-group guards such as a probe
        hitting a corrupt file — is recorded on :attr:`last_error` and fails
        that step's records not yet answered, each once; the combiner serves
        on.
        """
        with self._lock:
            if self._combiner is not None or not self._running or not self._queue:
                return
            self._combiner = threading.get_ident()
            try:
                while self._queue:
                    batch = self._pop_step()[0]
                    self._lock.release()  # the step runs off the lock
                    try:
                        faults.hit("scheduler.batch")
                        self._process(batch)
                    except Exception as exc:
                        self.last_error = exc
                        for request in batch:
                            self._reply(request, None, exc)
                    finally:
                        self._lock.acquire()
            finally:
                self._combiner = None
                if self._waiters:
                    self._cond.notify_all()  # stop() waits for the combiner

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

        Every counter comes from a single
        :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` (one lock
        acquisition), so a scrape never mixes counts from two instants; the
        last-error fields are read under their own lock right after.
        """
        return self.stats_from(self.metrics.snapshot())

    def stats_from(self, snap: dict) -> ServerStats:
        """Build :class:`ServerStats` from an already-taken registry snapshot.

        A caller assembling several stats views — the net tier's stats
        payload builds this *and* :class:`~repro.net.server.NetStats` —
        feeds them one snapshot, so they show one instant.
        """

        def counter(name: str) -> int:
            return int(snap.get(name, {}).get((), 0))

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
            last_error=last_error,
            last_warm_error=last_warm_error,
        )

    @property
    def pending(self) -> int:
        """Queries queued right now (a frame of ``n`` counts ``n``)."""
        with self._lock:
            return self._queued

    # -- internals ---------------------------------------------------------------

    def _check(self, kind: str, ids) -> np.ndarray:
        """Validate one frame's ids into an int64 array, before anything is built for it."""
        if kind not in (_DEPENDS, _VISIBLE):
            raise ValueError(
                f"unknown request kind {kind!r} (expected {_DEPENDS!r} or {_VISIBLE!r})"
            )
        if self._stopping:
            # Re-checked under the lock in _admit; here so a stopped server
            # refuses before ``ids`` is converted.
            raise RuntimeError("provenance server is stopped")
        n = len(ids)
        if n > self._policy.max_queue:
            raise ValueError(
                f"batch of {n} requests can never fit max_queue="
                f"{self._policy.max_queue}; split it across frames"
            )
        ids = np.asarray(ids, dtype=np.int64)
        shape = (n, 2) if kind == _DEPENDS else (n,)
        if n and ids.shape != shape:
            raise ValueError(f"{kind} ids must have shape {shape}, got {ids.shape}")
        return ids

    def _submit(self, kind: str, ids, view, run: str, reply, reply_to) -> None:
        """Queue an in-process caller's frame as an unsampled record, blocking
        for room, then combine on the caller's thread."""
        request = Request(0, kind, run, _view_name(view), len(ids), 0.0)
        request.reply, request.reply_to = reply, reply_to
        self._admit(request, ids, view, run, block=True)
        self.combine()

    def _admit(self, request: Request, ids, view, run: str, *, block: bool) -> bool:
        """Give ``request`` its scheduler fields and queue it; ``False`` when shed.

        An empty frame is answered at once and never queued.  With
        ``block``, a frame that does not fit waits on ``_cond`` until a step
        pops room (a pop notifies whoever waits) or :meth:`stop` refuses it.
        A request edge's record carries the admission's three counts in its
        tally until its step (or its finish, if never stepped) folds them;
        any other admission folds them here, under one registry lock.
        """
        request.ids = ids
        request.key = (request.op, run, _view_name(view))
        request.query_view = view
        n = request.n
        if not n:
            self._reply(request, np.zeros(0, dtype=bool))
            return True
        if not block:
            try:
                # Deterministic shed injection: a harness arming this point
                # makes the non-blocking edge refuse admission exactly as a
                # full queue would, without having to race the queue full.
                faults.hit("scheduler.admit")
            except InjectedFault:
                return False
        max_queue = self._policy.max_queue
        carried = request.tally is not None
        tally = request.tally if carried else Tally()
        with self._lock:
            while True:
                if self._stopping:
                    raise RuntimeError("provenance server is stopped")
                if self._queued + n <= max_queue:
                    break
                if not block:
                    return False
                if not self._running:
                    raise RuntimeError(
                        "request queue is full and the server is not running; "
                        "start() the server or drain_once() between submissions"
                    )
                if self._combiner == threading.get_ident():
                    # A reply callback submitting from inside a step: only this
                    # thread would pop room, so waiting would never end.
                    raise RuntimeError("request queue is full and this thread is serving it")
                self._waiters += 1
                self._cond.wait()
                self._waiters -= 1
            self._queue.append(request)
            self._queued += n
            # Counted under the lock: a combiner may pop the record, and fold
            # what it carries, as soon as the lock is let go.
            tally.add(self._submitted_c, n)
            tally.set_max(self._queue_peak_g, self._queued)
        if not carried:
            self.metrics.fold(tally)
        return True

    def _reply(self, request: Request, answers, error: "BaseException | None" = None) -> None:
        """Resolve ``request`` once; a sink that raises is recorded on
        :attr:`last_error` and fails neither its step nor its group."""
        try:
            request.resolve(answers, error)
        except Exception as exc:
            self.last_error = exc

    def _pop_step(self) -> "tuple[list[Request], int]":
        """Pop one step's requests (caller holds ``_lock``): whole frames only.

        Requests are taken in arrival order until the next one would push
        the step past ``max_batch`` queries; a frame is never split, so one
        larger than ``max_batch`` is a step of its own.
        """
        max_batch = self._policy.max_batch
        queue = self._queue
        batch: "list[Request]" = []
        queries = 0
        while queue and (not batch or queries + queue[0].n <= max_batch):
            request = queue.popleft()
            batch.append(request)
            queries += request.n
        if batch:
            self._queued -= queries
            if self._waiters:
                self._cond.notify_all()  # wake blocked submitters
        return batch, queries

    def _process(self, batch: "list[Request]") -> None:
        """Answer one step's records, one engine call per same-key group.

        Every count of the step — its own, its engine calls', a due probe's
        and what its records carry from their admission — is folded under
        one registry lock before any record resolves: a client that holds
        its answer finds it counted.
        """
        tally = Tally()
        carried = [tally]
        queries = 0
        groups: dict[tuple, list[Request]] = {}
        traced = []
        for request in batch:
            queries += request.n
            groups.setdefault(request.key, []).append(request)
            if request.trace is not None:
                traced.append(request)
            if request.tally is not None:
                carried.append(request.tally)
        # One ``scheduler.batch`` span per traced record in the step, each
        # recording *all* the trace ids this step coalesced — the span tree
        # of any one request shows which strangers shared its batch.
        sched_spans = {}
        if traced:
            coalesced_ids = [request.trace_id for request in traced]
            sched_spans = {
                id(request): request.trace.begin_span(
                    "scheduler.batch",
                    parent_id=request.root.span_id,
                    attrs={
                        "requests": len(batch),
                        "queries": queries,
                        "groups": len(groups),
                        "coalesced_traces": list(coalesced_ids),
                    },
                )
                for request in traced
            }
        tally.add(self._batches_c)
        tally.add(self._answered_c, queries)
        # Every queued frame holds a query, so a group of one query is a lone
        # one-query frame; every other group counts as coalesced.
        coalesced = queries
        for members in groups.values():
            if len(members) == 1 and members[0].n == 1:
                coalesced -= 1
        if coalesced:
            tally.add(self._coalesced_c, coalesced)
        tally.set_max(self._largest_batch_g, queries)
        outcomes: "list[tuple]" = []
        served_runs: dict[str, int] = {}
        try:
            for key, members in groups.items():
                # Engine/store spans of this group nest under the first traced
                # member's scheduler span; the other coalesced traces still
                # record the step itself (ids above) without duplicate subtrees.
                lead = next((m for m in members if m.trace is not None), None) if traced else None
                if lead is None:
                    served = self._serve_group(key, members, tally, outcomes)
                else:
                    span = sched_spans[id(lead)]
                    with activate(lead.trace, getattr(span, "span_id", None)):
                        served = self._serve_group(key, members, tally, outcomes)
                if served:
                    served_runs[key[1]] = served_runs.get(key[1], 0) + served
            due = []
            for run, count in served_runs.items():
                if self._probe_due(run, count):
                    due.append(run)
                    tally.add(self._probes_c)
        finally:
            self.metrics.fold(*carried)
        for request, answers, error in outcomes:
            self._reply(request, answers, error)
        if traced:
            for span in sched_spans.values():
                if span is not None:
                    span.finish()
        for run in due:
            self._probe(run)

    def _serve_group(self, key: tuple, members: "list[Request]", tally: Tally,
                     outcomes: list) -> int:
        """Answer one same-key group into ``outcomes``; returns the queries served.

        The group is one coalesced engine call.  If that call raises and the
        group has company, every member is re-evaluated alone, so one
        frame's unknown uid fails that frame only — the strangers it was
        coalesced with still get their bits.
        """
        try:
            return self._evaluate(key, members, tally, outcomes)
        except Exception as exc:
            if len(members) == 1:
                outcomes.append((members[0], None, exc))
                return 0
        served = 0
        for member in members:
            try:
                served += self._evaluate(key, [member], tally, outcomes)
            except Exception as exc:
                outcomes.append((member, None, exc))
        return served

    def _evaluate(self, key: tuple, members: "list[Request]", tally: Tally,
                  outcomes: list) -> int:
        """One engine call over ``members``' ids; each record's slice goes to
        ``outcomes``.  Returns the queries answered."""
        first = members[0]
        ids = first.ids if len(members) == 1 else np.concatenate([m.ids for m in members])
        try:
            answers = self._engine.answer(key[0], ids, first.query_view, key[1], tally)
        finally:
            tally.add(self._engine_calls_c)
        offset = 0
        for member in members:
            outcomes.append((member, answers[offset : offset + member.n], None))
            offset += member.n
        return offset

    def _probe_due(self, run: str, count: int) -> bool:
        """Advance the run's probe backoff by ``count`` queries; whether a bound fired."""
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
                return False
            state[0] = 0
            state[1] = now
        return True

    def _probe(self, run: str) -> None:
        """Probe the run's file and remap a newer generation (the step counted the probe)."""
        try:
            reopened = self._engine.reopen(run)
        except LabelingError as exc:
            if run in self._engine.run_ids:
                # A registered run failing to remap is a real fault (foreign
                # specification, shrunk file) — record it for operators and
                # re-raise: a drain_once() caller sees it directly, a combiner
                # keeps serving the old mapping with the fault pinned on
                # :attr:`last_error` (the batch's answers already resolved).
                self.last_error = exc
                raise
            return  # benign: the run was detached between batch and probe
        if reopened:
            self._reopens_c.inc()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProvenanceServer(pending={self.pending}, running={self.running})"
