"""Mapped (read-only) runs: one ``mmap`` per file, served with no decode pass.

:class:`MappedRunStore` opens a run file (format: :mod:`repro.store.runfile`)
and serves it straight from the mapping: each integer dtype is one
zero-copy numpy view of the whole mapping (lazy page-in), a column is a slice
of it or, over several segments, that view plus its extent table, and the
uid/module-name intern blobs are decoded only if a consumer asks for node
identities.  The mapped :class:`MappedLabelStore` /
:class:`MappedPathTable` / :class:`MappedNodeTable` are drop-in *read-only*
replacements for their in-memory classes, so the query engine, the codec and
the analysis helpers work on disk-backed runs larger than RAM unchanged.

:func:`run_file_info` (header peek, optional chain scan) and
:func:`verify_run` (scrub) are the two read-only entry points that need no
long-lived mapping.
"""

from __future__ import annotations

import mmap
import os
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro import faults
from repro.errors import SerializationError
from repro.store import runfile
from repro.store.label_store import LabelStore, _check_rows
from repro.store.node_table import NodeTable
from repro.store.path_table import ROOT_PATH, PathTable
from repro.store.runfile import SCHEMA, Extent, Header

__all__ = [
    "RunFileInfo",
    "VerifyReport",
    "run_file_info",
    "verify_run",
    "MappedRunStore",
    "MappedLabelStore",
    "MappedPathTable",
    "MappedNodeTable",
]


def _read_only(*_args, **_kwargs):
    raise SerializationError(
        "mapped run stores are read-only; append to the in-memory run and "
        "checkpoint_run() the delta instead"
    )


class _ChunkedColumn:
    """A column of several extents: a typed view of the mapping and an extent table.

    Runs checkpointed more than once have one extent per segment.  Every
    extent of a column lies in the one typed view of the whole mapping that
    its dtype shares with the file's other columns, so a row is arithmetic
    on the extent table: row ``r`` of the extent that starts at row
    ``starts[k]`` is element ``r + bases[k]`` of the view.  No view is made
    per extent and nothing is concatenated for a row read or a gather; a
    single-extent column skips this class entirely (a slice of the view is
    used).
    """

    __slots__ = ("_flat", "_starts", "_bases", "_start_array", "_base_array", "_length", "_whole")

    def __init__(self, flat: np.ndarray, starts: list[int], bases: list[int], length: int) -> None:
        self._flat = flat
        self._starts = starts
        self._bases = bases
        self._start_array = np.asarray(starts, dtype=np.int64)
        self._base_array = np.asarray(bases, dtype=np.int64)
        self._length = length
        self._whole: np.ndarray | None = None

    def __len__(self) -> int:
        return self._length

    def _spans(self) -> list[np.ndarray]:
        """Each extent's rows as a slice of the typed view, in row order."""
        ends = self._starts[1:] + [self._length]
        return [
            self._flat[start + base : end + base]
            for start, end, base in zip(self._starts, ends, self._bases)
        ]

    def __iter__(self):
        for span in self._spans():
            yield from span

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.gather(np.arange(*index.indices(self._length)))
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(index)
        return self._flat[index + self._bases[bisect_right(self._starts, index) - 1]]

    def concatenated(self) -> np.ndarray:
        """One contiguous array over all extents (built once, then cached).

        The copy is the price of ``columns()``-style whole-column access on a
        multi-segment file; per-row reads and :meth:`gather` never trigger it.
        """
        if self._whole is None:
            self._whole = np.concatenate(self._spans())
        return self._whole

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """``column[rows]`` as a copy: one ``searchsorted``, one add, one fancy index.

        Only the pages the requested rows live on fault in, whatever the
        segment count.  A row outside ``[0, len)`` raises ``IndexError``
        instead of reading a neighbouring extent or the page padding.
        """
        rows = np.asarray(rows, dtype=np.int64)
        _check_rows(rows, self._length)
        return self.take(rows)

    def take(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`gather` of int64 ``rows`` already checked to lie in ``[0, len)``
        (``ndarray.take``'s name, so a single-extent column reads the same way)."""
        extent = self._start_array.searchsorted(rows, side="right") - 1
        return self._flat[rows + self._base_array[extent]]


def _as_ndarray(column) -> np.ndarray:
    return column.concatenated() if isinstance(column, _ChunkedColumn) else column


class MappedPathTable(PathTable):
    """A read-only :class:`PathTable` whose columns are mmap-backed views."""

    __slots__ = ()

    def __init__(self, parent, packed, c) -> None:
        self._parent = parent
        self._packed = packed
        self._c = c
        self._ids = {}
        self._indexed = False
        self._tuples = {ROOT_PATH: ()}

    extend_production = _read_only
    extend_recursion = _read_only
    new_production_child = _read_only
    new_recursion_child = _read_only
    extend = _read_only
    intern = _read_only

    def edge_fields(self, path_id: int) -> tuple[int, int, int, int]:
        # Coerce the numpy scalars of the mapped columns: materialised edge
        # labels must carry plain ints (the bit codec calls ``.bit_length``).
        kind, a, b, c = super().edge_fields(path_id)
        return (int(kind), int(a), int(b), int(c))

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "parent": _as_ndarray(self._parent),
            "packed": _as_ndarray(self._packed),
            "c": _as_ndarray(self._c),
        }


class MappedLabelStore(LabelStore):
    """A read-only :class:`LabelStore` whose columns are mmap-backed views."""

    __slots__ = ()

    def __init__(
        self,
        table: MappedPathTable,
        producer_path,
        producer_port,
        consumer_path,
        consumer_port,
        *,
        base_uid: int,
    ) -> None:
        self._table = table
        self._producer_path = producer_path
        self._producer_port = producer_port
        self._consumer_path = consumer_path
        self._consumer_port = consumer_port
        self._base = base_uid if len(producer_path) else None
        self._view = None
        self._label_cache = {}

    append = _read_only
    extend_items = _read_only

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "producer_path_id": _as_ndarray(self._producer_path),
            "producer_port": _as_ndarray(self._producer_port),
            "consumer_path_id": _as_ndarray(self._consumer_path),
            "consumer_port": _as_ndarray(self._consumer_port),
        }

    def gather_rows(self, rows: np.ndarray, fields: tuple = LabelStore.GATHER_FIELDS):
        """The requested columns gathered at ``rows``, as copies read in place.

        Overrides the in-memory element-wise gather: a mapped column is a
        view of the mapping, so each requested one is fancy-indexed in place
        (a multi-segment column through its extent table, never
        concatenated into heap memory), and the per-batch page-in is bounded
        by the rows (and columns) actually asked for.  The one-byte port
        columns are widened, so every copy is int32 as on a live store.  A
        row outside ``[0, len(self))`` raises ``IndexError``, whatever the
        segment count.
        """
        faults.hit("mmap.gather")
        rows = np.asarray(rows, dtype=np.int64)
        _check_rows(rows, len(self))
        columns = dict(zip(self.GATHER_FIELDS, self.raw_columns()))
        return tuple(columns[field].take(rows).astype(np.int32, copy=False) for field in fields)

    def gather_resolved(self, rows: np.ndarray) -> tuple:
        """:meth:`LabelStore.gather_resolved` read in place: four ``take`` calls,
        the ports left one byte wide.  The ``mmap.gather`` fault point fires
        here too, once per batch."""
        faults.hit("mmap.gather")
        return (
            self._producer_path.take(rows),
            self._producer_port.take(rows),
            self._consumer_path.take(rows),
            self._consumer_port.take(rows),
        )


class MappedNodeTable(NodeTable):
    """A read-only :class:`NodeTable` whose columns are mmap-backed views.

    ``child_count`` is recomputed from the parent column (vectorised, lazy);
    the uid and module-name intern lists are decoded from their blobs only if
    a consumer actually asks for node identities.
    """

    __slots__ = ("_uid_loader", "_name_loader")

    def __init__(self, parent, path_id, meta, uid_id, uid_loader, name_loader) -> None:
        self._parent = parent
        self._path_id = path_id
        self._meta = meta
        self._uid_id = uid_id
        self._child_count = None
        self._uids = None
        self._module_ids = {}
        self._module_names = None
        self._uid_loader = uid_loader
        self._name_loader = name_loader

    module_id = _read_only
    append_module = _read_only
    append_recursive = _read_only

    # -- lazily derived state ----------------------------------------------------

    def _counts(self) -> np.ndarray:
        if self._child_count is None:
            parents = _as_ndarray(self._parent)
            self._child_count = np.bincount(
                parents[parents >= 0], minlength=len(parents)
            ).astype(np.int32)
        return self._child_count

    def _uid_list(self) -> list[str]:
        if self._uids is None:
            self._uids = self._uid_loader()
        return self._uids

    @property
    def n_uids(self) -> int:
        return len(self._uid_list())

    @property
    def module_names(self) -> list[str]:
        if self._module_names is None:
            self._module_names = self._name_loader()
        return self._module_names

    def module_name(self, row: int) -> str | None:
        meta = self._meta[self._check(row)]
        if meta & 1:
            return None
        return self.module_names[(meta >> 1) & 0xFFFF]

    def uid(self, row: int) -> str | None:
        uid_id = self._uid_id[self._check(row)]
        return None if uid_id < 0 else self._uid_list()[uid_id]

    def child_count(self, row: int) -> int:
        return int(self._counts()[self._check(row)])

    def max_fanout(self) -> int:
        counts = self._counts()
        return int(counts.max()) if len(counts) else 0

    def uid_slice(self, start: int) -> list[str]:
        return self._uid_list()[start:]

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "parent": _as_ndarray(self._parent),
            "path_id": _as_ndarray(self._path_id),
            "meta": _as_ndarray(self._meta),
            "uid_id": _as_ndarray(self._uid_id),
            "child_count": np.asarray(self._counts()),
        }


# ---------------------------------------------------------------------------
# the mapped run store
# ---------------------------------------------------------------------------


def _load_blob(mm, column: runfile.Column, parts: list[Extent]) -> list[str]:
    """Decode an intern list from its extents (on first use, see the loaders)."""
    values: list[str] = []
    for part in parts:
        chunk = runfile.decode_blob(mm[part.offset : part.offset + part.nbytes])
        if len(chunk) != part.n_rows:
            raise SerializationError(f"run store blob {column.name!r} is malformed")
        values.extend(chunk)
    return values


class MappedRunStore:
    """One labelled run served straight from its file mapping.

    ``MappedRunStore(path)`` maps the file and exposes:

    * :attr:`store` — a read-only :class:`MappedLabelStore` (drop-in for the
      query engine's batch evaluation);
    * :attr:`table` — the run's :class:`MappedPathTable` trie;
    * :attr:`nodes` — the :class:`MappedNodeTable` (``None`` if the file was
      checkpointed without node rows).

    Nothing is decoded at open time beyond the header and the per-segment
    section tables (a few pages); column pages fault in on first access.

    ``verify`` controls when the payload extents are checked against the
    CRC32s of their segment tables:

    * ``"lazy"`` (default) — the whole file is scrubbed once, before the
      first of :attr:`store` / :attr:`table` / :attr:`nodes` hands out a
      view, and a mismatch raises
      :class:`~repro.errors.CorruptionError` instead of serving the bytes.
      Attach itself, the header properties and :meth:`sections` stay a few
      page reads.
    * ``"attach"`` — scrub everything before ``__init__`` returns (a corrupt
      file never produces a usable store).
    """

    def __init__(self, path, *, verify: str = "lazy") -> None:
        if verify not in ("lazy", "attach"):
            raise ValueError(f"verify must be 'lazy' or 'attach', not {verify!r}")
        self._path = os.fspath(path)
        self._file = open(self._path, "rb")
        stat = os.fstat(self._file.fileno())
        self._inode = (stat.st_dev, stat.st_ino)
        self._verified = False
        self._verify_lock = threading.Lock()
        self._views: dict[np.dtype, np.ndarray] = {}
        try:
            self._mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:
            self._file.close()
            raise SerializationError(f"cannot map empty run store {self._path!r}") from exc
        try:
            mm = self._mm
            self._header = Header.unpack(mm[: runfile.HEADER_SIZE])
            self._extents = runfile.read_chain(
                lambda offset, n: mm[offset : offset + n], len(mm), self._header
            )
            self._build()
            if verify == "attach":
                self.verify()
        except Exception:
            self.close()
            raise

    # -- construction ------------------------------------------------------------

    def _typed(self, dtype: np.dtype) -> np.ndarray:
        """The one typed view of the whole mapping for ``dtype`` (made on first use)."""
        view = self._views.get(dtype)
        if view is None:
            view = np.frombuffer(self._mm, dtype=dtype, count=len(self._mm) // dtype.itemsize)
            self._views[dtype] = view
        return view

    def _column(self, column: runfile.Column):
        """The mapped rows of one schema column, bookkeeping validated."""
        parts = self._extents.get(column.sid, [])
        expected = getattr(self._header, column.family)
        total = sum(part.n_rows for part in parts)
        if total != expected:
            raise SerializationError(
                f"run store column {column.name!r} has {total} rows, header "
                f"says {expected}"
            )
        if column.dtype == runfile.BLOB:
            # Bound to the mapping, not to ``self``: the views must not keep
            # their owner alive in a reference cycle.
            return partial(_load_blob, self._mm, column, parts)
        starts = []
        bases = []
        cursor = 0
        for part in parts:
            if part.row_start != cursor:
                raise SerializationError(
                    f"run store column {column.name!r} has a gap at row {cursor}"
                )
            starts.append(cursor)
            bases.append(runfile.extent_base(column, part) - cursor)
            cursor += part.n_rows
        if not parts:
            return np.empty(0, dtype=column.numpy_dtype)
        flat = self._typed(column.numpy_dtype)
        if len(parts) == 1:
            return flat[bases[0] : bases[0] + cursor]
        return _ChunkedColumn(flat, starts, bases, cursor)

    def _build(self) -> None:
        header = self._header
        # Schema order within a table is its constructor's positional order.
        tables: dict[str, list] = {"path": [], "label": [], "node": []}
        for column in SCHEMA:
            if header.carries(column):
                tables[column.name.partition(".")[0]].append(self._column(column))
        self._table = MappedPathTable(*tables["path"])
        self._store = MappedLabelStore(self._table, *tables["label"], base_uid=header.base_uid)
        self._nodes = MappedNodeTable(*tables["node"]) if header.has_nodes else None

    # -- the manifest and checksum verification ----------------------------------

    def sections(self) -> list[tuple[str, Extent]]:
        """The file's manifest: ``(section name, extent)`` in section-id order.

        Read from the already-parsed section tables — no payload page is
        touched and nothing is verified, so a lazily opened mapping can list
        the extents of a file whose payload is damaged.
        """
        return [
            (runfile.section_name(sid), part)
            for sid in sorted(self._extents)
            for part in self._extents[sid]
        ]

    def payload(self, extent: Extent) -> bytes:
        """The (unverified) payload bytes of one extent of :meth:`sections`."""
        return self._mm[extent.offset : extent.offset + extent.nbytes]

    def verify(self) -> None:
        """Scrub every payload extent against its segment-table CRC32.

        Idempotent and thread-safe: the file is scrubbed at most once per
        mapping; concurrent first readers serialise on an internal lock.  A
        mismatch raises :class:`~repro.errors.CorruptionError` — and keeps
        raising on every later access, so a corrupt mapping can never serve
        a silently wrong answer.
        """
        if self._verified:
            return
        with self._verify_lock:
            if self._verified:
                return
            with memoryview(self._mm) as view:
                for parts in self._extents.values():
                    for extent in parts:
                        runfile.check_extent(self._path, extent, view)
            self._verified = True

    # -- the serving surface -----------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    # The three views are the only way to payload bytes, so the scrub hangs
    # on handing them out: whichever column a consumer reads first, it reads
    # it from a verified file.

    @property
    def store(self) -> MappedLabelStore:
        self.verify()
        return self._store

    @property
    def table(self) -> MappedPathTable:
        self.verify()
        return self._table

    @property
    def nodes(self) -> MappedNodeTable | None:
        self.verify()
        return self._nodes

    def structural_index(self):
        """The ``(pre, post, level)`` interval columns of an older file, if current.

        Builds before the decode kernel classified products wrote the parse
        tree's interval columns as full snapshots with every segment that
        appended node rows (:data:`~repro.store.runfile.LEGACY_INTERVALS`).
        This returns zero-copy int64 views of the **last** snapshot whose row
        count matches the header's node watermark, or ``None`` — always, for
        a file this build wrote.  Nothing is served from them; the file is
        scrubbed before the views are handed out.
        """
        header = self._header
        if not header.has_nodes or header.n_nodes == 0:
            return None
        chosen = []
        for column in runfile.LEGACY_INTERVALS:
            current = [
                part
                for part in self._extents.get(column.sid, ())
                if part.row_start == 0 and part.n_rows == header.n_nodes
            ]
            if not current:
                return None
            chosen.append((column, current[-1]))
        self.verify()
        views = []
        for column, part in chosen:
            base = runfile.extent_base(column, part)
            views.append(self._typed(column.numpy_dtype)[base : base + part.n_rows])
        return tuple(views)

    @property
    def n_paths(self) -> int:
        return self._header.n_paths

    @property
    def n_items(self) -> int:
        return self._header.n_items

    @property
    def n_nodes(self) -> int:
        return self._header.n_nodes

    @property
    def n_segments(self) -> int:
        return self._header.n_segments

    @property
    def fingerprint(self) -> int:
        """The specification fingerprint recorded at checkpoint (0 = unchecked)."""
        return self._header.fingerprint

    @property
    def generation(self) -> int:
        """The rewrite generation this mapping was opened at."""
        return self._header.generation

    @property
    def inode(self) -> tuple[int, int]:
        """``(st_dev, st_ino)`` of the file this mapping holds open.

        A new generation is only ever published by ``os.replace`` of a new
        inode (:func:`repro.store.compaction.compact`), and this inode cannot
        be reused while the mapping holds it, so a path that still names it
        carries this mapping's generation: ``os.stat`` of the path settles a
        reopen probe without opening the file.
        """
        return self._inode

    @property
    def header(self) -> Header:
        """The file header this mapping was opened at."""
        return self._header

    def extents_per_column(self) -> dict[int, int]:
        """Segment manifest summary: section id -> number of data extents.

        A freshly compacted file has exactly one extent per column; each
        incremental checkpoint adds one per column it touched.
        """
        return {sid: len(parts) for sid, parts in self._extents.items()}

    def read_amplification(self) -> float:
        """Bytes this mapping serves per byte its compacted rewrite would.

        Computed from the already-parsed section tables (no extra I/O): the
        difference is the chain's per-segment section-table pages plus the
        per-extent page padding that merging the extents reclaims.  ``1.0``
        for a freshly compacted file.
        """
        return max(1.0, self._header.end_offset / runfile.compacted_bytes(self._extents))

    def label(self, uid: int):
        """Materialise the :class:`~repro.core.labels.DataLabel` of one item."""
        return self.store.label(uid)

    def row(self, uid: int) -> tuple[int, int, int, int]:
        return self.store.row(uid)

    def __len__(self) -> int:
        return self._header.n_items

    def close(self) -> None:
        """Drop the mapping.  Column views must no longer be used afterwards."""
        try:
            self._mm.close()
        except (BufferError, ValueError):
            # Numpy views still alive keep the pages mapped; the mmap object
            # is closed when they are collected.
            pass
        finally:
            self._file.close()

    def __enter__(self) -> "MappedRunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MappedRunStore({self._path!r}, items={self.n_items}, "
            f"paths={self.n_paths}, nodes={self.n_nodes}, "
            f"segments={self.n_segments})"
        )


# ---------------------------------------------------------------------------
# header peek and scrub
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunFileInfo:
    """The header of a run file, peeked without mapping its columns."""

    path: str
    n_paths: int
    n_items: int
    n_nodes: int
    n_segments: int
    generation: int
    fingerprint: int


def run_file_info(path) -> RunFileInfo:
    """Read a run file's header watermarks (one small read, no mmap).

    The lifecycle manager uses this to resume watermark accounting over an
    existing file and to track its segment chain against
    ``compact_after_segments``; :meth:`repro.engine.QueryEngine.reopen`
    uses it to detect that a compacted generation has been swapped in under
    a mapping's path.
    """
    file_path = os.fspath(path)
    with open(file_path, "rb") as handle:
        header = Header.unpack(handle.read(runfile.HEADER_SIZE))
    return RunFileInfo(
        path=file_path,
        n_paths=header.n_paths,
        n_items=header.n_items,
        n_nodes=header.n_nodes,
        n_segments=header.n_segments,
        generation=header.generation,
        fingerprint=header.fingerprint,
    )


@dataclass(frozen=True)
class VerifyReport:
    """What one :func:`verify_run` scrub covered (failures raise instead)."""

    path: str
    n_segments: int
    extents_checked: int
    bytes_verified: int


def verify_run(path, *, deep: bool = True) -> VerifyReport:
    """Scrub a run file: structure always, payload checksums with ``deep``.

    Mapping the file validates the header, the segment chain, the section
    tables and every column's row bookkeeping; ``deep=True`` (default)
    additionally CRC-checks each payload extent against its segment table
    (``deep=False`` touches no payload page).  Structural damage raises
    :class:`~repro.errors.SerializationError`; a checksum mismatch raises
    :class:`~repro.errors.CorruptionError` naming the section and offset.
    On success a :class:`VerifyReport` tallies the coverage.
    """
    with MappedRunStore(path, verify="attach" if deep else "lazy") as mapped:
        checked = [extent for _, extent in mapped.sections()] if deep else []
        return VerifyReport(
            path=mapped.path,
            n_segments=mapped.n_segments,
            extents_checked=len(checked),
            bytes_verified=sum(extent.nbytes for extent in checked),
        )
