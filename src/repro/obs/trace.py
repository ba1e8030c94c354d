"""Request tracing and the one request record: spans, sampling, one ring.

Spans.  A trace carries a 64-bit id that rides the wire protocol's optional
trace-id field and accumulates :class:`Span` records as the request moves
net → scheduler → engine → store.  Spans record wall time always and CPU
(thread) time when they start and end on the same thread; cross-thread
spans — e.g. a root span that opens on one thread and closes on a
combiner serving it from another — report ``cpu_s = -1.0`` rather than lie.
Propagation is explicit where threads change hands (the scheduler queues
the request record itself, which carries its trace and root span) and
implicit within a thread (a ``contextvars.ContextVar`` holds the active
trace + parent span, so the engine and store layers call the module-level
:func:`trace_span` without threading handles through every signature).

The record.  Every request frame is one :class:`Request`, opened by
:meth:`Sampler.open` at the edge and closed by :meth:`Sampler.finish` once
its reply is decided.  The same object is the scheduler's queue entry: it
carries the frame's ids, its coalescing key and a reply sink that the step
answering it calls exactly once (:meth:`Request.resolve`).  In between it
feeds everything the server knows about the request:

* **head sampling** at open — deterministic in the trace id
  (``hash(id) < rate · 2^64`` with a Fibonacci multiplier), so a given id
  samples identically on every tier and no RNG runs on the hot path; a
  sampled request carries a :class:`Trace` rooted at a ``net.frame`` span;
* **latency** at finish — ``tail_request_seconds{op,view}``;
* **the keep decision** at finish, with the outcome in hand: the first of
  ``error``, ``shed``, ``slow`` (at or above the key's live p95,
  interpolated inside its histogram bucket — a steady stream keeps a few
  percent of its requests, not the whole bucket the p95 falls in, and a
  true slowest-1% request is sure to be kept only when the p99 lies in a
  higher bucket than the p95 — and everything while the key warms up) or ``head``
  (sampled) is the record's ``reason``; kept records stamp an exemplar on
  their histogram bucket and enter **one** ring bounded by entries and
  bytes; a fast, unsampled, healthy request touches no ring;
* **cost attribution** at finish, for a head-sampled unshed request: span
  self-times fold into ``cost_seconds_total`` / ``cost_cpu_seconds_total``
  ``{run,view,phase}`` so that the phases partition the root's
  wall (:func:`phase_costs`); :func:`top_costs` ranks groups from one
  registry snapshot.

Everything past a request is bounded: a trace caps its spans
(:data:`MAX_SPANS`; overflow counts ``dropped_spans``), the ring evicts
oldest first and counts it, cost groups stop at :data:`MAX_COST_GROUPS` —
and the registry is never affected, so counters stay truthful when
records rot away.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from typing import Iterator

from repro.obs.metrics import Tally

__all__ = [
    "DEFAULT_SAMPLE_RATE",
    "PHASE_BY_SPAN",
    "Request",
    "Sampler",
    "Span",
    "Trace",
    "activate",
    "current_trace",
    "phase_costs",
    "top_costs",
    "trace_span",
]

#: Default sampling rate: 1 in 64 requests carries spans.  Chosen so the
#: bench-measured overhead at the default stays well under the 3% budget.
DEFAULT_SAMPLE_RATE = 1.0 / 64.0

#: Spans one trace may hold; past it the trace counts drops instead.
MAX_SPANS = 64
#: The one ring of kept requests, bounded by entries and estimated bytes.
RING_MAX_ENTRIES = 512
RING_MAX_BYTES = 1 << 20
#: "Slow" is at or above the PERCENTILE of the key's latency histogram
#: (interpolated inside its bucket), recomputed every REFRESH_EVERY
#: observations; the first WARMUP requests are all kept.
PERCENTILE = 0.95
WARMUP = 128
REFRESH_EVERY = 64
#: Distinct (run, view) cost groups; later ones bill to UNKNOWN.
MAX_COST_GROUPS = 128
#: The metric-label value of a run or view the engine does not know.
UNKNOWN = "(unknown)"

#: Span name -> cost phase.  Unknown span names bill to their dotted prefix.
PHASE_BY_SPAN = {
    "net.frame": "net",
    "scheduler.batch": "scheduler",
    "engine.depends_batch": "engine",
    "engine.visible_batch": "engine",
    "engine.group_eval": "engine",
    "engine.decode": "decode",
    "engine.label_view": "label_view",
    "mmap.gather": "gather",
}
QUEUE_WAIT = "queue_wait"

_FIB = 0x9E3779B97F4A7C15
_U64 = 1 << 64

# (trace, parent_span_id) for the calling thread, or None.
_ACTIVE: contextvars.ContextVar[tuple["Trace", int] | None] = contextvars.ContextVar(
    "repro_obs_active_trace", default=None
)


class Span:
    """One timed operation inside a trace."""

    __slots__ = ("name", "span_id", "parent_id", "t0", "_cpu0", "_thread",
                 "wall_s", "cpu_s", "attrs")

    def __init__(self, name: str, span_id: int, parent_id: int | None) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t0 = time.perf_counter()
        self._cpu0 = time.thread_time()
        self._thread = threading.get_ident()
        self.wall_s = -1.0
        self.cpu_s = -1.0
        self.attrs: dict | None = None

    def finish(self) -> None:
        self.wall_s = time.perf_counter() - self.t0
        if threading.get_ident() == self._thread:
            self.cpu_s = time.thread_time() - self._cpu0

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
        }
        if self.attrs:
            d["attrs"] = self.attrs
        return d


class Trace:
    """A bounded collection of spans sharing one 64-bit trace id."""

    __slots__ = ("trace_id", "spans", "dropped_spans", "max_spans", "_next_span", "_lock")

    def __init__(self, trace_id: int, *, max_spans: int = MAX_SPANS) -> None:
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self.dropped_spans = 0
        self.max_spans = max_spans
        self._next_span = itertools.count(1)
        self._lock = threading.Lock()

    def begin_span(self, name: str, parent_id: int | None = None,
                   attrs: dict | None = None) -> Span | None:
        """Allocate and start a span, or count a drop past ``max_spans``."""
        with self._lock:
            if len(self.spans) >= self.max_spans:
                self.dropped_spans += 1
                return None
            span = Span(name, next(self._next_span), parent_id)
            if attrs:
                span.attrs = attrs
            self.spans.append(span)
            return span

    def nbytes(self) -> int:
        """Cheap, stable estimate of this trace's memory footprint."""
        total = 200  # object + list overhead
        for span in self.spans:
            total += 120 + len(span.name)
            if span.attrs:
                total += sum(len(str(k)) + len(str(v)) for k, v in span.attrs.items())
        return total

    def span_tree(self) -> list[dict]:
        """Spans nested as ``{"name", ..., "path", "children": [...]}`` dicts.

        The ordering is **deterministic**: siblings appear in span-id order
        (allocation order under the trace lock), not in whatever order
        threads happened to finish — so a nested
        net → scheduler → engine trace serialises identically across runs
        and tests can replay it stably.  Each node carries ``path``, the
        slash-joined chain of ancestor span names ending in its own, so a
        flat consumer of the kept-request JSONL sees every span's full
        parent chain without re-walking the tree.
        """
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s.span_id)
        nodes = {s.span_id: {**s.to_dict(), "children": []} for s in spans}
        roots: list[dict] = []
        for span in spans:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) if span.parent_id else None
            (parent["children"] if parent else roots).append(node)

        def _paths(node: dict, prefix: str) -> None:
            path = f"{prefix}/{node['name']}" if prefix else node["name"]
            node["path"] = path
            for child in node["children"]:
                _paths(child, path)

        for root in roots:
            _paths(root, "")
        return roots


def current_trace() -> tuple[Trace, int] | None:
    """The calling thread's active ``(trace, parent_span_id)``, if any."""
    return _ACTIVE.get()


@contextmanager
def activate(trace: Trace | None, parent_id: int | None = None) -> Iterator[None]:
    """Make ``trace`` the calling thread's active trace for a ``with`` body."""
    if trace is None:
        yield
        return
    token = _ACTIVE.set((trace, parent_id or 0))
    try:
        yield
    finally:
        _ACTIVE.reset(token)


class _SpanScope:
    """An open span of the active trace, the active parent while its ``with`` body runs."""

    __slots__ = ("trace", "span", "token")

    def __init__(self, trace: Trace, span: Span) -> None:
        self.trace, self.span = trace, span

    def __enter__(self) -> Span:
        self.token = _ACTIVE.set((self.trace, self.span.span_id))
        return self.span

    def __exit__(self, *exc_info) -> None:
        _ACTIVE.reset(self.token)
        self.span.finish()


_NO_SPAN = nullcontext()  # enters as None


def trace_span(name: str, **attrs: object) -> "_SpanScope | nullcontext":
    """Open a span under the thread's active trace; no-op when inactive.

    A ``with`` target: it binds the :class:`Span` (or ``None`` when no trace
    is active or the trace's span budget is exhausted) so callers can attach
    attributes::

        with trace_span("engine.decode") as sp:
            ...
            if sp is not None:
                sp.attrs = {"groups": n}

    With no trace active this is one context-variable read and returns a
    shared no-op: an untraced request builds nothing per span.
    """
    active = _ACTIVE.get()
    if active is None:
        return _NO_SPAN
    trace, parent_id = active
    span = trace.begin_span(name, parent_id or None, attrs or None)
    return _NO_SPAN if span is None else _SpanScope(trace, span)


def _phase(span_name: str) -> str:
    return PHASE_BY_SPAN.get(span_name) or span_name.split(".", 1)[0]


def phase_costs(spans) -> dict[str, list]:
    """Partition a finished root span's wall into ``{phase: [wall_s, cpu_s]}``.

    Each span bills its *self* time — wall minus its direct children's — to
    its phase, CPU likewise where measured.  A span still open counts as
    ending where the root ended: the reply leaves (and the root closes)
    inside the scheduler step that answered it.  The gap from the root's
    start to the first ``scheduler.batch`` is carved out of the root's own
    self time as ``queue_wait``.  The walls sum to the root's wall.
    """
    spans = list(spans)
    root = next((s for s in spans if s.parent_id is None), None)
    if root is None or root.wall_s < 0.0:
        return {}
    end = root.t0 + root.wall_s
    walls = {
        s.span_id: s.wall_s if s.wall_s >= 0.0 else max(0.0, end - s.t0) for s in spans
    }
    child_wall: dict[int, float] = {}
    child_cpu: dict[int, float] = {}
    for span in spans:
        if span.parent_id:
            child_wall[span.parent_id] = child_wall.get(span.parent_id, 0.0) + walls[span.span_id]
            if span.cpu_s > 0.0:
                child_cpu[span.parent_id] = child_cpu.get(span.parent_id, 0.0) + span.cpu_s
    costs: dict[str, list] = {}
    for span in spans:
        cell = costs.setdefault(_phase(span.name), [0.0, 0.0])
        cell[0] += max(0.0, walls[span.span_id] - child_wall.get(span.span_id, 0.0))
        if span.cpu_s >= 0.0:
            cell[1] += max(0.0, span.cpu_s - child_cpu.get(span.span_id, 0.0))
    scheduled = min((s.t0 for s in spans if s.name == "scheduler.batch"), default=None)
    if scheduled is not None and scheduled > root.t0:
        own = costs[_phase(root.name)]
        wait = min(scheduled - root.t0, own[0])
        own[0] -= wait
        costs[QUEUE_WAIT] = [wait, 0.0]
    return costs


def top_costs(snapshot: dict, n: int = 5) -> list[dict]:
    """The ``n`` costliest ``(run, view)`` groups of one registry snapshot.

    Per group: sampled wall and CPU seconds over all phases and the phase
    that dominates the wall (never ``queue_wait``: waiting is not work).
    """
    cpu = snapshot.get("cost_cpu_seconds_total", {})
    groups: dict[tuple, list] = {}  # group -> [wall, cpu, dominant phase, its wall]
    for key, wall in snapshot.get("cost_seconds_total", {}).items():
        cell = groups.setdefault(key[:2], [0.0, 0.0, "", -1.0])
        cell[0] += wall
        cell[1] += cpu.get(key, 0.0)
        if key[2] != QUEUE_WAIT and wall > cell[3]:
            cell[2], cell[3] = key[2], wall
    ranked = sorted(groups.items(), key=lambda item: -item[1][0])[:n]
    return [
        {"run": run, "view": view, "wall_s": wall, "cpu_s": cpu_s, "dominant_phase": phase}
        for (run, view), (wall, cpu_s, phase, _) in ranked
    ]


class Request:
    """One request frame from admission to reply — the one record per frame.

    ``op`` is the query kind and ``n`` its query count; ``run`` and ``view``
    are metric labels (names the engine knows, or :data:`UNKNOWN`).  The
    scheduler queues the record itself and fills in ``ids`` (the frame's
    int64 id array), ``key`` (``(kind, run, view name)``, the group it
    coalesces with) and ``query_view`` (the view as the caller passed it).
    The request edge sets the reply sink: ``reply(record, answers, error)``
    writes to ``reply_to`` (a future, a list of them, a connection and a
    request id) and is called once, through :meth:`resolve`.  ``tally``
    gathers the frame's own counts, the edge's, its admission's (folded
    with its scheduling step's) and the sampler's, until
    :meth:`Sampler.finish` folds what is left.

    ``trace`` (with its ``net.frame`` ``root`` span, the parent of the
    scheduler's span on whichever thread took the step) is set only when the id was
    head-sampled; ``reason``, ``wall_s`` and ``nbytes`` only once
    :meth:`Sampler.finish` kept it.
    """

    __slots__ = ("trace_id", "op", "run", "view", "n", "t0",
                 "ids", "key", "query_view", "reply", "reply_to", "tally",
                 "trace", "root", "reason", "wall_s", "nbytes")

    def __init__(self, trace_id: int, op: str, run: str, view: str,
                 n: int, t0: float) -> None:
        self.trace_id = trace_id
        self.op = op
        self.run = run
        self.view = view
        self.n = n
        self.t0 = t0
        self.ids = None
        self.key: tuple | None = None
        self.query_view = None
        self.reply = None
        self.reply_to = None
        self.tally: Tally | None = None
        self.trace: Trace | None = None
        self.root: Span | None = None
        self.reason: str | None = None
        self.wall_s = -1.0
        self.nbytes = 0

    def resolve(self, answers, error: "BaseException | None" = None) -> None:
        """Hand the reply to the sink, once: the sink is cleared before it is
        called, so a second resolution — a failure path sweeping a step whose
        records were already answered — is a no-op."""
        reply = self.reply
        if reply is not None:
            self.reply = None
            reply(self, answers, error)

    def to_dict(self) -> dict:
        record = {
            "trace_id": self.trace_id, "op": self.op, "run": self.run,
            "view": self.view, "n": self.n,
            "wall_s": self.wall_s, "reason": self.reason,
        }
        if self.trace is not None:
            record["spans"] = self.trace.span_tree()
            record["dropped_spans"] = self.trace.dropped_spans
        return record


class Sampler:
    """Opens and finishes every request of one server stack (shared registry).

    The request edge calls :meth:`open` once per frame and :meth:`finish`
    exactly once when the reply is decided.
    """

    def __init__(self, metrics, *, sample_rate: float = DEFAULT_SAMPLE_RATE,
                 clock=time.perf_counter) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self._threshold = int(sample_rate * _U64)
        self._clock = clock
        self._ids = itertools.count(1)
        self._metrics = metrics
        self._sampled_c = metrics.counter(
            "trace_sampled_total", "requests that carried spans")
        self._hist = metrics.histogram(
            "tail_request_seconds", "request wall time from open to finish",
            ("op", "view"))
        self._considered_c = metrics.counter(
            "tail_considered_total", "requests finished")
        self._kept_c = metrics.counter(
            "tail_kept_total", "requests kept in the ring, by reason", ("reason",))
        self._evicted_c = metrics.counter(
            "tail_evicted_total", "kept requests evicted from the bounded ring")
        labels = ("run", "view", "phase")
        self._wall_c = metrics.counter(
            "cost_seconds_total", "sampled wall seconds attributed per phase", labels)
        self._cpu_c = metrics.counter(
            "cost_cpu_seconds_total", "sampled CPU seconds attributed per phase", labels)
        self._lock = threading.Lock()
        #: (op, view) -> (count at last refresh, slow threshold)
        self._thresholds: dict[tuple, tuple[int, float]] = {}
        self._groups: set[tuple] = set()
        self._ring: deque[Request] = deque()
        self._ring_bytes = 0

    def sampled(self, trace_id: int) -> bool:
        """The deterministic head decision for ``trace_id``."""
        return self._threshold >= _U64 or (trace_id * _FIB) % _U64 < self._threshold

    def open(self, trace_id: "int | None", op: str, run: str, view: str,
             n: int) -> Request:
        """Open the record of one request; a wire trace id makes it samplable."""
        sampled = trace_id is not None and self.sampled(trace_id)
        if trace_id is None:
            trace_id = (next(self._ids) * _FIB) % _U64 or 1  # exemplars still need an id
        request = Request(trace_id, op, run, view, n, self._clock())
        request.tally = Tally()
        if sampled:
            self._sampled_c.inc()
            request.trace = Trace(trace_id)
            request.root = request.trace.begin_span(
                "net.frame",
                attrs={"op": op, "run": run, "view": view, "n": n},
            )
        return request

    def finish(self, request: Request, *, error: bool = False,
               shed: bool = False) -> float:
        """Close ``request`` with its outcome known; returns its wall seconds.

        All it counts is one fold of what the record's tally still holds —
        the frame's own counts, and its admission's if no scheduling step
        folded them with its own — and of the sampler's counts (two folds
        when the slow threshold is refreshed, every :data:`REFRESH_EVERY`
        requests).
        """
        if request.root is not None:
            request.root.finish()
        wall = self._clock() - request.t0
        child = self._hist.labels(request.op, request.view)
        tally = request.tally if request.tally is not None else Tally()
        request.tally = None
        tally.observe(child, wall)
        tally.add(self._considered_c)
        if request.trace is not None and not shed:
            self._fold(request, tally)
        if error:
            reason = "error"
        elif shed:
            reason = "shed"
        elif wall >= self._slow_threshold(request, child, tally):
            reason = "slow"
        elif request.trace is not None:
            reason = "head"
        else:
            self._metrics.fold(tally)
            return wall
        request.reason, request.wall_s = reason, wall
        # The ring keeps the record, not the frame's ids or its connection.
        request.ids = request.reply = request.reply_to = request.query_view = None
        request.nbytes = 160 + len(request.run) + len(request.view) + (
            request.trace.nbytes() if request.trace is not None else 0
        )
        tally.put_exemplar(child, wall, request.trace_id)
        tally.add(self._kept_c.labels(reason))
        evicted = 0
        with self._lock:
            self._ring.append(request)
            self._ring_bytes += request.nbytes
            while self._ring and (
                len(self._ring) > RING_MAX_ENTRIES or self._ring_bytes > RING_MAX_BYTES
            ):
                self._ring_bytes -= self._ring.popleft().nbytes
                evicted += 1
        if evicted:
            tally.add(self._evicted_c, evicted)
        self._metrics.fold(tally)
        return wall

    def _slow_threshold(self, request: Request, child, tally) -> float:
        count = child.count + 1  # this request's observation still waits in ``tally``
        if count <= WARMUP:
            return 0.0
        key = (request.op, request.view)
        state = self._thresholds.get(key)
        if state is None or count - state[0] >= REFRESH_EVERY:
            self._metrics.fold(tally)  # the refresh reads the buckets this request is in
            with self._lock:
                state = self._thresholds[key] = (
                    count, child.quantile(PERCENTILE))
        return state[1]

    def _fold(self, request: Request, tally) -> None:
        group = (request.run, request.view)
        with self._lock:
            if group not in self._groups:
                if len(self._groups) < MAX_COST_GROUPS:
                    self._groups.add(group)
                else:
                    group = (UNKNOWN, UNKNOWN)
        for phase, (wall, cpu) in phase_costs(request.trace.spans).items():
            tally.add(self._wall_c.labels(*group, phase), wall)
            tally.add(self._cpu_c.labels(*group, phase), cpu)

    def kept(self) -> list[Request]:
        """The kept requests, oldest first."""
        with self._lock:
            return list(self._ring)

    def dump(self, path) -> int:
        """Write the kept ring as JSONL; returns the entry count."""
        records = self.kept()
        with open(path, "w", encoding="utf-8") as fh:
            for request in records:
                # default=repr: span attrs may carry numpy scalars or paths.
                fh.write(json.dumps(request.to_dict(), separators=(",", ":"), default=repr))
                fh.write("\n")
        return len(records)

    @property
    def ring_bytes(self) -> int:
        with self._lock:
            return self._ring_bytes
