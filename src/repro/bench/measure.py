"""Measurement helpers for the experiment harness (timers, sizes, statistics)."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = ["time_call", "mean", "maximum", "ResultTable"]


def time_call(fn: Callable[[], object], repeat: int = 1) -> float:
    """Wall-clock seconds for ``repeat`` calls of ``fn`` (total, not per call)."""
    start = time.perf_counter()
    for _ in range(repeat):
        fn()
    return time.perf_counter() - start


def mean(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.fmean(data) if data else 0.0


def maximum(values: Iterable[float]) -> float:
    data = list(values)
    return max(data) if data else 0.0


@dataclass
class ResultTable:
    """A small tabular result: named columns plus rows of values.

    The experiment functions return these; the reporting module renders them
    as aligned text tables (the same rows/series the paper's figures show)
    or CSV files.
    """

    title: str
    columns: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list[object]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]
