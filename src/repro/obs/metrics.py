"""A lock-cheap metrics registry: counters, gauges, fixed-bucket histograms.

Design constraints, in the order they shaped the code:

* **Atomic snapshots.**  The serving stack's stats endpoints must never mix
  counts from two instants (a scrape that shows more answers than
  submissions reads as data loss).  All mutation and all snapshotting go
  through one registry-level lock, so :meth:`MetricsRegistry.snapshot` and
  :meth:`MetricsRegistry.exposition` see every family at a single instant.
* **Lock-cheap, not lock-free.**  The stack already mutates its counters at
  batch/frame granularity — one increment per scheduler batch, not per
  pair — so a single uncontended ``threading.Lock`` per registry costs well
  under a microsecond per update and removes a whole class of torn-read
  bugs.  The registry lock is a *leaf* lock: no callback or I/O ever runs
  under it (gauge callbacks are evaluated outside the lock for this reason).
* **Histogram updates are numpy-batch.**  Latency observations arrive as
  whole batches; :meth:`Histogram.observe_many` turns a float array into
  per-bucket increments with one ``searchsorted`` + ``bincount`` instead of
  a Python loop.
* **One lock per request, not per update.**  A scheduling step or a reply
  writes its updates to a :class:`Tally`, and :meth:`MetricsRegistry.fold`
  applies them under one acquisition: a snapshot sees all of them or none.

Families are keyed by a tuple of label *values* matching the family's
declared label *names* — the serving stack uses ``(run, view, op)``.
A family declared with no label names acts as its own single child, so
``registry.counter("x").inc()`` works without a ``labels()`` hop.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "MetricsRegistry",
    "Tally",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "percentile_from_counts",
]

#: Default latency buckets, in seconds: log-spaced from 10 microseconds to
#: ~30 s (4 buckets per decade), with +inf implied as the final bucket.
LATENCY_BUCKETS: tuple[float, ...] = tuple(
    round(10.0 ** (exp / 4.0), 10) for exp in range(-20, 7)
)


def percentile_from_counts(
    buckets: Sequence[float],
    counts: Sequence[int],
    q: float,
    *,
    interpolate: bool = False,
) -> float:
    """The q-quantile bound from histogram bucket counts.

    ``buckets`` are the finite upper edges, ``counts`` the per-bucket (not
    cumulative) tallies with the +inf overflow slot last — the shape a
    :class:`Histogram` and the registry snapshot carry.  Returns the matched
    bucket's *upper* edge (a conservative over-estimate, the Prometheus
    convention), or with ``interpolate=True`` an estimate inside the bucket,
    linear in the observations it holds (Prometheus's ``histogram_quantile``; the first
    bucket starts at 0).  Empty data returns 0.0; a quantile landing in the
    overflow slot returns the last finite edge.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    total = int(sum(counts))
    if total == 0:
        return 0.0
    need = q * total
    cumulative = 0
    for index, count in enumerate(counts):
        below = cumulative
        cumulative += int(count)
        if cumulative >= need:
            if index >= len(buckets):
                return float(buckets[-1])
            if interpolate:
                low = float(buckets[index - 1]) if index > 0 else 0.0
                return low + (float(buckets[index]) - low) * (need - below) / int(count)
            return float(buckets[index])
    return float(buckets[-1])  # pragma: no cover - cumulative == total above


def _quote_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _labels_text(names: Sequence[str], values: Sequence[str], extra: str = "") -> str:
    parts = [f'{n}="{_quote_label(str(v))}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """A monotonic counter child.  Mutations hold the registry lock."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters are monotonic; use a gauge for deltas")
        with self._lock:
            self.value += amount


class Gauge:
    """A settable gauge child; ``set_function`` defers to a callback at read.

    Reading a gauge changes nothing: a peak ratcheted with :meth:`set_max`
    is the peak over the gauge's lifetime, whoever read it before.
    """

    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0
        self._fn: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            self._fn = None

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set_max(self, value: float) -> None:
        """Ratchet: keep the largest value ever seen (queue peaks etc.).

        A value that would not raise it takes no lock.
        """
        if value > self._value:
            with self._lock:
                if value > self._value:
                    self._value = value

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read ``fn()`` at snapshot time, *outside* the registry lock."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        fn = self._fn
        if fn is not None:
            return float(fn())
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram child with numpy-bincount batch updates.

    Observations must be finite and non-negative (the families here are all
    durations and sizes): NaN, inf, and negative values are *dropped* and
    tallied on the registry's ``observe_invalid_total{family=...}`` counter
    instead of polluting a bucket — a NaN would land in the +inf slot via
    ``searchsorted`` and poison every percentile read after it.
    """

    __slots__ = ("_lock", "_edges", "_bounds", "counts", "sum", "count", "exemplars",
                 "_invalid")

    def __init__(self, lock: threading.Lock, edges: np.ndarray,
                 invalid: "Counter | None" = None) -> None:
        self._lock = lock
        self._edges = edges
        #: The edges as Python floats: one scalar's bucket is a ``bisect``
        #: away, where ``np.searchsorted`` on a scalar costs ~8x as much.
        self._bounds = tuple(edges.tolist())
        # One slot per finite edge plus the +inf overflow slot.
        self.counts = np.zeros(len(edges) + 1, dtype=np.int64)
        self.sum = 0.0
        self.count = 0
        #: bucket index -> ("trace id hex", value): the most recent exemplar
        #: observation attached to that bucket (see :meth:`put_exemplar`).
        self.exemplars: "dict[int, tuple[str, float]] | None" = None
        self._invalid = invalid

    def observe(self, value: float) -> None:
        with self._lock:
            self._observe(value)

    def _observe(self, value: float) -> None:
        """:meth:`observe` with the registry lock held."""
        value = float(value)
        if 0.0 <= value < math.inf:  # NaN fails both comparisons
            self.counts[bisect.bisect_left(self._bounds, value)] += 1
            self.sum += value
            self.count += 1
        elif self._invalid is not None:
            self._invalid.value += 1

    def observe_many(self, values: Iterable[float]) -> None:
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                         dtype=np.float64)
        if arr.size == 0:
            return
        valid = np.isfinite(arr) & (arr >= 0.0)
        n_invalid = int(arr.size - valid.sum())
        if n_invalid:
            if self._invalid is not None:
                self._invalid.inc(n_invalid)
            arr = arr[valid]
            if arr.size == 0:
                return
        # bucket index per observation, tallied outside the lock...
        idx = np.searchsorted(self._edges, arr, side="left")
        add = np.bincount(idx, minlength=len(self.counts))
        total = float(arr.sum())
        # ...merged under it.
        with self._lock:
            self.counts += add
            self.sum += total
            self.count += int(arr.size)

    def put_exemplar(self, value: float, trace_id: "int | str") -> None:
        """Attach a trace id to the bucket ``value`` falls in.

        Exemplars link a histogram bucket to one concrete trace that landed
        there (OpenMetrics-style), so "what does a p99 request look like"
        is one exposition read away.  The newest exemplar per bucket wins.
        """
        with self._lock:
            self._put_exemplar(value, trace_id)

    def _put_exemplar(self, value: float, trace_id: "int | str") -> None:
        value = float(value)
        if 0.0 <= value < math.inf:
            if self.exemplars is None:
                self.exemplars = {}
            tid = trace_id if isinstance(trace_id, str) else format(int(trace_id), "016x")
            self.exemplars[bisect.bisect_left(self._bounds, value)] = (tid, value)

    def quantile(self, q: float) -> float:
        """The q-quantile, interpolated inside its bucket; 0.0 when empty."""
        with self._lock:
            counts = self.counts.copy()
        return percentile_from_counts(self._edges, counts, q, interpolate=True)


class Tally:
    """Updates gathered off the registry lock, applied by one
    :meth:`MetricsRegistry.fold` under one acquisition.

    Targets are children; a label-less family stands for its single child,
    made when first named here, as by a direct update.
    """

    __slots__ = ("adds", "maxima", "observations", "exemplars")

    def __init__(self) -> None:
        self.adds, self.maxima, self.observations, self.exemplars = [], [], [], []

    def add(self, counter, amount: int = 1) -> None:
        """:meth:`Counter.inc`, deferred."""
        if amount < 0:
            raise ValueError("counters are monotonic; use a gauge for deltas")
        if counter.__class__ is CounterFamily:
            counter = counter._solo_child or counter._solo
        self.adds.append((counter, amount))

    def set_max(self, gauge, value: float) -> None:
        """:meth:`Gauge.set_max`, deferred."""
        if gauge.__class__ is GaugeFamily:
            gauge = gauge._solo_child or gauge._solo
        self.maxima.append((gauge, value))

    def observe(self, histogram, value: float) -> None:
        """:meth:`Histogram.observe`, deferred."""
        self.observations.append((histogram, value))

    def put_exemplar(self, histogram, value: float, trace_id: "int | str") -> None:
        """:meth:`Histogram.put_exemplar`, deferred."""
        self.exemplars.append((histogram, value, trace_id))


class _Family:
    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: tuple[str, ...]) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._children: dict[tuple[str, ...], object] = {}
        self._solo_child: object = None

    def _make_child(self) -> object:
        raise NotImplementedError

    def labels(self, *values: object) -> object:
        child = self._children.get(values)  # a known child: its values as given
        if child is not None:
            return child
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames!r}, got {values!r}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._registry._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    @property
    def _solo(self) -> object:
        """The single unlabeled child of a label-less family (kept once made)."""
        child = self._solo_child
        if child is None:
            if self.labelnames:
                raise ValueError(f"{self.name} is labeled; call .labels(...) first")
            child = self._solo_child = self.labels()
        return child

    def children(self) -> dict[tuple[str, ...], object]:
        with self._registry._lock:
            return dict(self._children)


class CounterFamily(_Family):
    kind = "counter"

    def _make_child(self) -> Counter:
        return Counter(self._registry._lock)

    def inc(self, amount: int = 1) -> None:
        self._solo.inc(amount)

    @property
    def value(self) -> int:
        return self._solo.value


class GaugeFamily(_Family):
    kind = "gauge"

    def _make_child(self) -> Gauge:
        return Gauge(self._registry._lock)

    def set(self, value: float) -> None:
        self._solo.set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._solo.inc(amount)

    def set_max(self, value: float) -> None:
        self._solo.set_max(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._solo.set_function(fn)

    @property
    def value(self) -> float:
        return self._solo.value


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: tuple[str, ...], buckets: Sequence[float]) -> None:
        super().__init__(registry, name, help, labelnames)
        edges = np.asarray(sorted(buckets), dtype=np.float64)
        if edges.size == 0:
            raise ValueError("histogram needs at least one bucket edge")
        self.buckets = tuple(float(e) for e in edges)
        self._edges = edges
        #: Shared drop counter for invalid observations; wired up by the
        #: registry after construction (outside the meta lock).
        self._invalid: "Counter | None" = None

    def _make_child(self) -> Histogram:
        return Histogram(self._registry._lock, self._edges, self._invalid)

    def observe(self, value: float) -> None:
        self._solo.observe(value)

    def observe_many(self, values: Iterable[float]) -> None:
        self._solo.observe_many(values)


class MetricsRegistry:
    """A set of named metric families sharing one mutation/snapshot lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._meta_lock = threading.Lock()

    # -- family constructors (idempotent: same name returns same family) --------

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> CounterFamily:
        return self._family(CounterFamily, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> GaugeFamily:
        return self._family(GaugeFamily, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> HistogramFamily:
        family = self._family(HistogramFamily, name, help, labelnames, buckets)
        # The invalid-drop counter is a family of its own, so registering it
        # must happen outside the meta lock (counter() takes it too).
        if family._invalid is None:
            family._invalid = self.counter(
                "observe_invalid_total",
                "NaN/negative/inf observations dropped instead of bucketed",
                ("family",),
            ).labels(name)
        return family

    def _family(self, cls: type, name: str, help: str, labelnames: Sequence[str], *extra) -> _Family:
        labelnames = tuple(labelnames)
        with self._meta_lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = cls(self, name, help, labelnames, *extra)
            elif type(family) is not cls:
                raise ValueError(f"{name} already registered as {family.kind}")
            elif family.labelnames != labelnames:
                raise ValueError(
                    f"{name} already registered with labels {family.labelnames!r}"
                )
            return family

    def families(self) -> dict[str, _Family]:
        with self._meta_lock:
            return dict(self._families)

    def fold(self, *tallies: Tally) -> None:
        """Apply every update in ``tallies`` under one acquisition of the lock, and empty them."""
        with self._lock:
            for tally in tallies:
                for child, amount in tally.adds:
                    child.value += amount
                for child, value in tally.maxima:
                    if value > child._value:
                        child._value = value
                for child, value in tally.observations:
                    child._observe(value)
                for child, value, trace_id in tally.exemplars:
                    child._put_exemplar(value, trace_id)
        for tally in tallies:
            tally.adds, tally.maxima, tally.observations, tally.exemplars = [], [], [], []

    # -- snapshotting -----------------------------------------------------------

    def snapshot(self) -> dict[str, dict[tuple[str, ...], object]]:
        """Every family's children captured under ONE lock acquisition.

        A pure read: taking one changes no value.  Counters/gauges map to
        numbers; histograms map to
        ``{"counts": tuple, "sum": float, "count": int, "buckets": tuple}``.
        Callback gauges are evaluated after the lock is released (they read
        live structures guarded by their own locks; calling them under the
        registry lock would invert lock ordering).
        """
        families = self.families()
        deferred: list[tuple[dict, tuple[str, ...], Callable[[], float]]] = []
        out: dict[str, dict[tuple[str, ...], object]] = {}
        with self._lock:
            for name, family in families.items():
                row: dict[tuple[str, ...], object] = {}
                for key, child in family._children.items():
                    if isinstance(child, Counter):
                        row[key] = child.value
                    elif isinstance(child, Gauge):
                        if child._fn is not None:
                            deferred.append((row, key, child._fn))
                            row[key] = 0.0
                        else:
                            row[key] = child._value
                    elif isinstance(child, Histogram):
                        row[key] = {
                            "counts": tuple(int(c) for c in child.counts),
                            "sum": float(child.sum),
                            "count": int(child.count),
                            "buckets": family.buckets,
                            "exemplars": (
                                dict(child.exemplars) if child.exemplars else {}
                            ),
                        }
                out[name] = row
        for row, key, fn in deferred:
            try:
                row[key] = float(fn())
            except Exception:
                row[key] = math.nan
        return out

    def exposition(self) -> str:
        """Prometheus text exposition (format 0.0.4) of the whole registry."""
        families = self.families()
        snap = self.snapshot()
        lines: list[str] = []
        for name in sorted(families):
            family = families[name]
            values = snap.get(name, {})
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(values):
                value = values[key]
                if family.kind == "histogram":
                    hist: Mapping = value  # type: ignore[assignment]
                    exemplars = hist.get("exemplars") or {}

                    def _exemplar(idx: int) -> str:
                        ex = exemplars.get(idx)
                        if ex is None:
                            return ""
                        tid, observed = ex
                        # OpenMetrics exemplar syntax: the trace that landed
                        # in this bucket, and the exact value it observed.
                        return f' # {{trace_id="{tid}"}} {_format_value(observed)}'

                    cumulative = 0
                    for idx, (edge, count) in enumerate(
                        zip(hist["buckets"], hist["counts"])
                    ):
                        cumulative += count
                        le = 'le="' + repr(edge) + '"'
                        labels = _labels_text(family.labelnames, key, le)
                        lines.append(
                            f"{name}_bucket{labels} {cumulative}{_exemplar(idx)}"
                        )
                    labels = _labels_text(family.labelnames, key, 'le="+Inf"')
                    lines.append(
                        f"{name}_bucket{labels} {hist['count']}"
                        f"{_exemplar(len(hist['buckets']))}"
                    )
                    label_text = _labels_text(family.labelnames, key)
                    lines.append(f"{name}_sum{label_text} {_format_value(hist['sum'])}")
                    lines.append(f"{name}_count{label_text} {hist['count']}")
                else:
                    label_text = _labels_text(family.labelnames, key)
                    lines.append(f"{name}{label_text} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse Prometheus text back into ``{(name, ((label, value), ...)): number}``.

    A deliberately small parser for tests and smoke scripts — handles the
    subset :meth:`MetricsRegistry.exposition` emits.
    """
    out: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        # Drop an OpenMetrics exemplar suffix (` # {trace_id="..."} value`).
        line = line.split(" # ", 1)[0]
        name_part, _, value_part = line.rpartition(" ")
        if "{" in name_part:
            name, _, label_blob = name_part.partition("{")
            label_blob = label_blob.rstrip("}")
            labels = []
            for item in _split_labels(label_blob):
                lname, _, lvalue = item.partition("=")
                labels.append((lname, lvalue.strip('"').replace('\\"', '"')
                               .replace("\\n", "\n").replace("\\\\", "\\")))
            key = (name, tuple(labels))
        else:
            key = (name_part, ())
        value = float(value_part)
        out[key] = value
    return out


def _split_labels(blob: str) -> list[str]:
    items, depth_quote, start = [], False, 0
    for i, ch in enumerate(blob):
        if ch == '"' and (i == 0 or blob[i - 1] != "\\"):
            depth_quote = not depth_quote
        elif ch == "," and not depth_quote:
            items.append(blob[start:i])
            start = i + 1
    if blob[start:]:
        items.append(blob[start:])
    return items
