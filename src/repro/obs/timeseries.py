"""Time series over registry snapshots: deltas, rates, percentiles.

The metrics registry is deliberately cumulative — counters only go up, and a
single scrape carries no time dimension.  :class:`SnapshotRing` adds that
dimension without touching the hot path: a caller (the watchdog, a
dashboard) records whole :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
dicts at a fixed-ish interval, and the ring answers windowed questions —
"what was the shed *rate* over the last 10 s", "what is the p99 of the
requests observed *since* 30 s ago" — by differencing two snapshots.

Differencing histograms is the part worth having: subtracting two cumulative
bucket-count vectors yields the distribution of *only* the observations that
arrived in the window, so percentile trends do not drown in the lifetime
distribution the way a cumulative scrape does.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Mapping

from repro.obs.metrics import percentile_from_counts

__all__ = ["SnapshotRing"]


def _series_value(snap: Mapping, name: str, labels: "tuple[str, ...] | None"):
    """One family's value at one snapshot: a number, or a merged histogram.

    ``labels=None`` sums every child (counters/gauges) or merges their
    bucket counts (histograms); a label tuple selects one child exactly.
    """
    family = snap.get(name)
    if not family:
        return None
    if labels is not None:
        return family.get(tuple(str(v) for v in labels))
    children = list(family.values())
    if isinstance(children[0], Mapping):  # histogram children
        merged = None
        for child in children:
            if merged is None:
                merged = {
                    "counts": list(child["counts"]),
                    "sum": float(child["sum"]),
                    "count": int(child["count"]),
                    "buckets": child["buckets"],
                }
            else:
                for i, c in enumerate(child["counts"]):
                    merged["counts"][i] += c
                merged["sum"] += float(child["sum"])
                merged["count"] += int(child["count"])
        return merged
    total = 0.0
    for value in children:
        try:
            total += float(value)
        except (TypeError, ValueError):  # pragma: no cover - mixed family
            pass
    return total


class SnapshotRing:
    """A bounded ring of ``(timestamp, registry-snapshot)`` pairs.

    Thread-safe: the watchdog's tick thread records while dashboards and the
    stats endpoint read.  Snapshots are plain nested dicts (the registry
    already copied them), so readers never share mutable state with the
    registry.
    """

    def __init__(self, capacity: int = 256, *, clock=time.monotonic) -> None:
        if capacity < 2:
            raise ValueError("a ring of fewer than 2 snapshots cannot difference")
        self._capacity = capacity
        self._clock = clock
        self._ring: "deque[tuple[float, dict]]" = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(self, registry) -> dict:
        """Snapshot ``registry`` and append it; returns the snapshot."""
        snap = registry.snapshot()
        self.record_snapshot(snap)
        return snap

    def record_snapshot(self, snap: dict, ts: "float | None" = None) -> None:
        with self._lock:
            self._ring.append((self._clock() if ts is None else float(ts), snap))

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def latest(self) -> "tuple[float, dict] | None":
        with self._lock:
            return self._ring[-1] if self._ring else None

    def _window(self, window_s: "float | None") -> "tuple[tuple[float, dict], tuple[float, dict]] | None":
        """The (baseline, latest) snapshot pair spanning at most ``window_s``."""
        with self._lock:
            if len(self._ring) < 2:
                return None
            newest_ts, newest = self._ring[-1]
            if window_s is None:
                return self._ring[0], self._ring[-1]
            horizon = newest_ts - window_s
            base = None
            for ts, snap in self._ring:
                if ts >= horizon:
                    base = (ts, snap)
                    break
            if base is None or base[0] >= newest_ts:
                base = self._ring[-2]
            return base, (newest_ts, newest)

    def delta(
        self,
        name: str,
        labels: "tuple[str, ...] | None" = None,
        window_s: "float | None" = None,
    ) -> "tuple[float, float]":
        """``(increase, elapsed_s)`` of a counter over the window."""
        pair = self._window(window_s)
        if pair is None:
            return (0.0, 0.0)
        (ts0, snap0), (ts1, snap1) = pair
        v0 = _series_value(snap0, name, labels)
        v1 = _series_value(snap1, name, labels)
        if v1 is None or isinstance(v1, Mapping):
            return (0.0, ts1 - ts0)
        base = 0.0 if (v0 is None or isinstance(v0, Mapping)) else float(v0)
        return (float(v1) - base, ts1 - ts0)

    def rate(
        self,
        name: str,
        labels: "tuple[str, ...] | None" = None,
        window_s: "float | None" = None,
    ) -> float:
        """Per-second increase of a counter over the window (0.0 when unknown)."""
        increase, elapsed = self.delta(name, labels, window_s)
        if elapsed <= 0.0:
            return 0.0
        return max(0.0, increase) / elapsed

    def hist_delta(
        self,
        name: str,
        labels: "tuple[str, ...] | None" = None,
        window_s: "float | None" = None,
    ) -> "dict | None":
        """The histogram of only the observations that arrived in the window."""
        pair = self._window(window_s)
        if pair is None:
            return None
        (_ts0, snap0), (_ts1, snap1) = pair
        h1 = _series_value(snap1, name, labels)
        if not isinstance(h1, Mapping):
            return None
        h0 = _series_value(snap0, name, labels)
        if not isinstance(h0, Mapping):
            h0 = None
        counts = [
            int(c1) - (int(h0["counts"][i]) if h0 is not None else 0)
            for i, c1 in enumerate(h1["counts"])
        ]
        if any(c < 0 for c in counts):  # a reset/restart mid-window
            counts = [int(c) for c in h1["counts"]]
            h0 = None
        return {
            "counts": counts,
            "count": sum(counts),
            "sum": float(h1["sum"]) - (float(h0["sum"]) if h0 is not None else 0.0),
            "buckets": h1["buckets"],
        }

    def percentile(
        self,
        name: str,
        q: float,
        labels: "tuple[str, ...] | None" = None,
        window_s: "float | None" = None,
    ) -> float:
        """The windowed q-quantile (upper bucket edge) of a histogram family.

        Falls back to the latest cumulative distribution when the ring holds
        fewer than two snapshots.  A window with no observations (an idle
        server) reads 0.0, as does a series with no data at all.
        """
        windowed = self.hist_delta(name, labels, window_s)
        if windowed is None:
            latest = self.latest
            windowed = _series_value(latest[1], name, labels) if latest else None
            if not isinstance(windowed, Mapping):
                return 0.0
        return percentile_from_counts(windowed["buckets"], windowed["counts"], q)
