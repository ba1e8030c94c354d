"""A segmented run file reads exactly like its compacted rewrite.

One run is checkpointed in 1, 2, 3 and 12 slices, and a copy of each file is
compacted.  Every integer column of the segmented file must answer the reads
of the mapped surface — ``gather_rows``, ``column[i]`` (and slices),
iteration and ``columns()`` — exactly as the compacted copy does, at random
rows and at the first and last row of every extent, and a row just outside
the column must raise instead of reading a neighbouring extent or the page
padding.
"""

from __future__ import annotations

import contextlib
import shutil
import struct

import numpy as np
import pytest

from repro.core import FVLScheme
from repro.core.run_labeler import RunLabeler
from repro.errors import SerializationError
from repro.store import PAGE_SIZE, MappedRunStore, checkpoint_run, compact
from repro.store.runfile import BLOB, SCHEMA
from repro.workloads import build_bioaid_specification, random_run


@pytest.fixture(scope="module")
def spec():
    return build_bioaid_specification()


@pytest.fixture(scope="module")
def scheme(spec):
    return FVLScheme(spec)


def _checkpointed(scheme, spec, path, slices: int):
    """One run checkpointed after each of ``slices`` slices of its events."""
    events = random_run(spec, 400, seed=61).events
    labeler = RunLabeler(scheme.index)
    bounds = np.linspace(0, len(events), slices + 1).astype(int)
    for lo, hi in zip(bounds, bounds[1:]):
        for event in events[lo:hi]:
            labeler(event)
        checkpoint_run(path, labeler.store, labeler.tree.nodes)
    return labeler


def _int_columns(mapped) -> dict[str, object]:
    """Each integer schema column of a mapping, by section name."""
    raw = mapped.table.raw_columns() + mapped.store.raw_columns() + mapped.nodes.raw_columns()
    names = [
        column.name
        for column in SCHEMA
        if mapped.header.carries(column) and column.dtype != BLOB
    ]
    assert len(names) == len(raw)
    return dict(zip(names, raw))


def _probe_rows(mapped, name: str, n: int, rng) -> np.ndarray:
    """Random rows plus the first and last row of every extent of a column."""
    edges = [
        row
        for section, extent in mapped.sections()
        if section == name and extent.n_rows
        for row in (extent.row_start, extent.row_start + extent.n_rows - 1)
    ]
    return np.concatenate([rng.integers(0, n, size=200), np.asarray(edges, dtype=np.int64)])


@pytest.mark.parametrize("slices", [1, 2, 3, 12])
def test_a_segmented_file_reads_like_its_compacted_copy(scheme, spec, tmp_path, slices):
    path = tmp_path / "run.fvl"
    labeler = _checkpointed(scheme, spec, path, slices)
    merged = tmp_path / "merged.fvl"
    shutil.copyfile(path, merged)
    compact(merged)
    rng = np.random.default_rng(slices)
    with MappedRunStore(path) as segmented, MappedRunStore(merged) as compacted:
        assert segmented.n_segments == slices and compacted.n_segments == 1
        assert max(segmented.extents_per_column().values()) == slices
        left, right = _int_columns(segmented), _int_columns(compacted)
        for name, column in left.items():
            n = len(right[name])
            assert len(column) == n > 0, name
            rows = _probe_rows(segmented, name, n, rng)
            assert [column[int(row)] for row in rows] == [right[name][int(row)] for row in rows], name
            assert list(column) == list(right[name]), name
            for cut in (slice(1, None), slice(None, None, 3), slice(-5, None)):
                assert np.array_equal(column[cut], right[name][cut]), (name, cut)
            for outside in (-n - 1, n):
                with pytest.raises(IndexError):
                    column[outside]

        n_items = len(labeler.store)
        rows = _probe_rows(segmented, "label.producer_path", n_items, rng)
        expected = compacted.store.gather_rows(rows)
        assert all(got.dtype == np.int32 for got in expected)
        for got, want in zip(segmented.store.gather_rows(rows), expected):
            assert np.array_equal(got, want)
        for mapped in (segmented, compacted):
            for outside in (-1, n_items):
                with pytest.raises(IndexError):
                    mapped.store.gather_rows(np.asarray([0, outside]))

        for table in ("table", "store", "nodes"):
            ours = getattr(segmented, table).columns()
            theirs = getattr(compacted, table).columns()
            assert ours.keys() == theirs.keys()
            for name in ours:
                assert np.array_equal(ours[name], theirs[name]), (table, name)
        for name, column in labeler.store.columns().items():
            assert np.array_equal(segmented.store.columns()[name], column)


@pytest.mark.parametrize("store", ["live", "mapped", "segmented"])
def test_a_row_outside_the_store_is_an_index_error(scheme, spec, tmp_path, store):
    """Row -1 is not the last row and row ``len`` is past it, whatever serves the run."""
    path = tmp_path / "run.fvl"
    labeler = _checkpointed(scheme, spec, path, 3 if store == "segmented" else 1)
    with contextlib.ExitStack() as stack:
        target = labeler.store
        if store != "live":
            mapped = stack.enter_context(MappedRunStore(path))
            assert mapped.n_segments == (3 if store == "segmented" else 1)
            target = mapped.store
        for outside in (-1, len(target)):
            with pytest.raises(IndexError):
                target.gather_rows(np.asarray([outside]))


# The section-table layout of ``repro.store.runfile``: a segment header
# (magic, section count, segment end), then one entry per section.
_SEGMENT_HEADER = struct.Struct("<4sIQ")
_SECTION_ENTRY = struct.Struct("<IIQQQQ")  # id, dtype, row_start, n_rows, offset, nbytes


def test_a_misaligned_extent_offset_is_a_malformed_file(scheme, spec, tmp_path):
    path = tmp_path / "run.fvl"
    _checkpointed(scheme, spec, path, 2)
    data = bytearray(path.read_bytes())
    # The first section of the first segment: move its payload two bytes
    # back, still inside the file but off its 4- or 8-byte dtype grid.
    entry = PAGE_SIZE + _SEGMENT_HEADER.size
    sid, dtype, row_start, n_rows, offset, nbytes = _SECTION_ENTRY.unpack_from(data, entry)
    assert offset % 4 == 0 and n_rows > 0
    _SECTION_ENTRY.pack_into(data, entry, sid, dtype, row_start, n_rows, offset - 2, nbytes)
    path.write_bytes(bytes(data))
    for verify in ("lazy", "attach"):
        with pytest.raises(SerializationError, match="not a multiple"):
            MappedRunStore(path, verify=verify)
