"""Rendering of experiment results as text tables and CSV files."""

from __future__ import annotations

import csv
import os
from typing import Iterable

from repro.bench.measure import ResultTable

__all__ = ["format_table", "write_csv", "write_all_csv"]


def format_table(table: ResultTable) -> str:
    """Render one result table as aligned monospace text."""
    headers = [str(c) for c in table.columns]
    rows = [[str(value) for value in row] for row in table.rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [table.title]
    if table.notes:
        lines.append(f"  ({table.notes})")
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def write_csv(table: ResultTable, path: str) -> None:
    """Write one result table to a CSV file."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.columns)
        writer.writerows(table.rows)


def write_all_csv(tables: Iterable[ResultTable], directory: str) -> list[str]:
    """Write every table to ``directory`` (one CSV per table); returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for index, table in enumerate(tables, start=1):
        slug = table.title.split(" - ")[0].strip().lower().replace(" ", "_")
        path = os.path.join(directory, f"{slug or f'table{index}'}.csv")
        write_csv(table, path)
        paths.append(path)
    return paths
