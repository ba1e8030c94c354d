"""Harness arithmetic: pure functions over samples, spans and ladder rungs.

Nothing here imports the program or reads a clock, so ``perf/tests`` can
check every formula on hand-made numbers.
"""

from __future__ import annotations

import statistics

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def summary(samples) -> dict:
    """Median, quartiles and count of ``samples`` (the shape every metric prints)."""
    data = sorted(samples)
    if not data:
        raise ValueError("no samples")
    if len(data) == 1:
        q1 = q3 = data[0]
    else:
        q1, _, q3 = statistics.quantiles(data, n=4)
    return {"median": statistics.median(data), "q1": q1, "q3": q3, "n": len(data)}


def top_percentile(samples, beyond: int = 10) -> "tuple[float, float] | None":
    """``(percentile, value)`` for the highest tail the sample count supports.

    A percentile is supported when at least ``beyond`` samples lie above it,
    so one slow frame cannot be the reported tail.  ``None`` when even the
    lowest candidate has fewer.
    """
    data = sorted(samples)
    n = len(data)
    for pct in TAIL_PERCENTILES:
        above = int(n * (100.0 - pct) / 100.0)
        if above >= beyond:
            return pct, data[n - above - 1]
    return None


def speed_factor(calib_before_ms: float, calib_after_ms: float, ref_ms: float) -> float:
    """How much slower than the reference host the phase between two kernel runs ran."""
    return (calib_before_ms + calib_after_ms) / 2.0 / ref_ms


def normalise_duration(value: float, k: float) -> float:
    """A duration measured at speed factor ``k``, restated at reference speed."""
    return value / k


def normalise_rate(value: float, k: float) -> float:
    """A rate (work per second) measured at speed factor ``k``, at reference speed."""
    return value * k


def relative_difference(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the ``second`` value is worse (negative = better)."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> dict:
    """Self time per span name: duration minus what its children cover.

    ``spans`` are ``(span_id, parent_id, name, start, end)`` rows.  Children
    may overlap each other (two client threads under one ``serve_block``):
    the covered part is the *union* of the child intervals clipped to the
    parent, so concurrent children are not subtracted twice.
    """
    children: dict = {}
    for span_id, parent_id, _name, start, end in spans:
        if parent_id is not None:
            children.setdefault(parent_id, []).append((start, end))
    totals: dict = {}
    for span_id, _parent, name, start, end in spans:
        clipped = [
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(span_id, ())
            if min(hi, end) > max(lo, start)
        ]
        totals[name] = totals.get(name, 0.0) + (end - start) - _union_length(clipped)
    return totals


def ladder_deltas(rungs) -> list:
    """``(name, value, delta over the rung below)`` for an ordered ladder.

    The deltas telescope: they sum to the top rung's value, so the table
    reads as "where the top rung's cost comes from".
    """
    rows = []
    below = 0.0
    for name, value in rungs:
        rows.append((name, value, value - below))
        below = value
    return rows
