"""Mapped (read-only) runs: one ``mmap`` per file, served with no decode pass.

:class:`MappedRunStore` opens a run file (format: :mod:`repro.store.runfile`)
and serves it straight from the mapping: every integer column becomes a
zero-copy numpy view (lazy page-in; multi-segment columns are stitched with a
chunked indexer), and the uid/module-name intern blobs are decoded only if a
consumer asks for node identities.  The mapped :class:`MappedLabelStore` /
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
from repro.store.label_store import LabelStore
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
    """Several per-segment numpy views stitched into one indexable column.

    Runs checkpointed more than once have one extent per segment; the chunked
    indexer keeps them zero-copy (no concatenation) and resolves a row with
    one bisect.  Most accesses in practice hit a single-extent column, which
    skips this class entirely (the raw view is used).
    """

    __slots__ = ("_starts", "_chunks", "_length", "_flat", "_starts_array")

    def __init__(self, starts: list[int], chunks: list[np.ndarray]) -> None:
        self._starts = starts
        self._chunks = chunks
        self._length = starts[-1] + len(chunks[-1])
        self._flat: np.ndarray | None = None
        self._starts_array = np.asarray(starts, dtype=np.int64)

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        for chunk in self._chunks:
            yield from chunk

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._length))]
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(index)
        chunk_index = bisect_right(self._starts, index) - 1
        return self._chunks[chunk_index][index - self._starts[chunk_index]]

    def concatenated(self) -> np.ndarray:
        """One contiguous array over all chunks (built once, then cached).

        The copy is the price of ``columns()``-style whole-column access on a
        multi-segment file; per-row reads stay zero-copy through
        :meth:`__getitem__` and never trigger it.
        """
        if self._flat is None:
            self._flat = np.concatenate(self._chunks)
        return self._flat

    def gather(self, rows: np.ndarray, chunk: int = 0) -> np.ndarray:
        """``column[rows]`` without materialising the whole column.

        Rows are resolved per extent with one vectorised ``searchsorted``, so
        only the pages the requested rows live on fault in — unlike
        :meth:`concatenated`, which copies every segment's extent into heap
        memory.  ``chunk`` (0 = whole batch) processes the row array in
        fixed-size slabs to bound the transient index/mask allocations.
        """
        rows = np.asarray(rows, dtype=np.int64)
        out = np.empty(rows.size, dtype=self._chunks[0].dtype)
        if rows.size == 0:
            return out
        step = rows.size if chunk <= 0 else chunk
        for lo in range(0, rows.size, step):
            slab = rows[lo : lo + step]
            view = out[lo : lo + slab.size]
            chunk_ids = np.searchsorted(self._starts_array, slab, side="right") - 1
            for ci in np.unique(chunk_ids):
                mask = chunk_ids == ci
                view[mask] = self._chunks[ci][slab[mask] - self._starts[ci]]
        return out


def _as_ndarray(column) -> np.ndarray:
    return column.concatenated() if isinstance(column, _ChunkedColumn) else column


#: Slab size (rows) for chunked gathers over mapped columns — bounds the
#: transient allocations of one `gather_rows` batch without changing which
#: file pages fault in.
GATHER_CHUNK_ROWS = 65536


def _gather(column, rows: np.ndarray) -> np.ndarray:
    """Gather ``column[rows]`` as a copy, never concatenating multi-segment columns."""
    if isinstance(column, _ChunkedColumn):
        return column.gather(rows, chunk=GATHER_CHUNK_ROWS)
    return column[rows]


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
    """A read-only :class:`LabelStore` whose columns are mmap-backed views.

    Sparse (non-dense) runs keep their uid column mapped too; the uid->row
    index is built lazily on the first keyed access, so attaching decodes
    nothing.
    """

    __slots__ = ("_sparse",)

    def __init__(
        self,
        table: MappedPathTable,
        producer_path,
        producer_port,
        consumer_path,
        consumer_port,
        uids=None,
        *,
        dense: bool,
        base_uid: int,
    ) -> None:
        self._table = table
        self._producer_path = producer_path
        self._producer_port = producer_port
        self._consumer_path = consumer_path
        self._consumer_port = consumer_port
        self._sparse = not dense
        if dense:
            self._uids = []
            self._base = base_uid if len(producer_path) else None
        else:
            self._uids = uids if uids is not None else []
            self._base = None
        self._row_of = None
        self._view = None
        self._label_cache = {}

    append = _read_only
    extend_items = _read_only
    append_label = _read_only
    _go_sparse = _read_only

    def _ensure_index(self) -> None:
        # The base class reads ``_row_of is None`` as "dense"; a mapped
        # sparse store defers building the dict until a keyed access needs it.
        if self._sparse and self._row_of is None:
            self._row_of = {int(uid): row for row, uid in enumerate(self._uids)}

    def _row(self, uid: int) -> int:
        self._ensure_index()
        return super()._row(uid)

    def rows_for(self, uids: np.ndarray) -> np.ndarray:
        self._ensure_index()
        return super().rows_for(uids)

    def __contains__(self, uid: object) -> bool:
        self._ensure_index()
        return super().__contains__(uid)

    def uids(self):
        if self._sparse:
            return iter(self._uids)
        return super().uids()

    @property
    def is_dense(self) -> bool:
        return not self._sparse

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "producer_path_id": _as_ndarray(self._producer_path),
            "producer_port": _as_ndarray(self._producer_port),
            "consumer_path_id": _as_ndarray(self._consumer_path),
            "consumer_port": _as_ndarray(self._consumer_port),
        }

    def gather_rows(self, rows: np.ndarray, fields: tuple = LabelStore.GATHER_FIELDS):
        """Chunked gather over the mapped extents (no whole-column reads).

        Overrides the in-memory element-wise gather: mapped extents are
        immutable numpy views, so each requested one is fancy-indexed in
        place — a multi-segment column is never concatenated into heap
        memory, and the per-batch page-in is bounded by the rows (and
        columns) actually asked for.
        """
        faults.hit("mmap.gather")
        columns = {
            "producer_path_id": self._producer_path,
            "producer_port": self._producer_port,
            "consumer_path_id": self._consumer_path,
            "consumer_port": self._consumer_port,
        }
        return tuple(_gather(columns[field], rows) for field in fields)


class MappedNodeTable(NodeTable):
    """A read-only :class:`NodeTable` whose columns are mmap-backed views.

    ``child_count`` is recomputed from the parent column (vectorised, lazy);
    the uid and module-name intern lists are decoded from their blobs only if
    a consumer actually asks for node identities.
    """

    __slots__ = ("_uid_loader", "_name_loader", "_row_of_uid")

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
        self._row_of_uid: dict[str, int] | None = None

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

    def row_for_uid(self, instance_uid: str) -> int:
        """The node row of a module instance (index built lazily, once)."""
        if self._row_of_uid is None:
            uids = self._uid_list()
            self._row_of_uid = {
                uids[uid_id]: row
                for row, uid_id in enumerate(self._uid_id)
                if uid_id >= 0
            }
        try:
            return self._row_of_uid[instance_uid]
        except KeyError:
            raise SerializationError(
                f"no persisted parse-tree node for instance {instance_uid!r}"
            ) from None

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
        self._verified = False
        self._verify_lock = threading.Lock()
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
        views = []
        starts = []
        cursor = 0
        for part in parts:
            if part.row_start != cursor:
                raise SerializationError(
                    f"run store column {column.name!r} has a gap at row {cursor}"
                )
            views.append(runfile.view_rows(self._mm, column, part))
            starts.append(cursor)
            cursor += part.n_rows
        if not views:
            return np.empty(0, dtype=column.numpy_dtype)
        if len(views) == 1:
            return views[0]
        return _ChunkedColumn(starts, views)

    def _build(self) -> None:
        header = self._header
        # Schema order within a table is its constructor's positional order.
        tables: dict[str, list] = {"path": [], "label": [], "node": []}
        for column in SCHEMA:
            if header.carries(column):
                tables[column.name.partition(".")[0]].append(self._column(column))
        self._table = MappedPathTable(*tables["path"])
        self._store = MappedLabelStore(
            self._table, *tables["label"], dense=header.dense, base_uid=header.base_uid
        )
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
                for _, extent in self.sections():
                    runfile.check_extent(self._path, extent, view)
            self._verified = True

    @property
    def verified(self) -> bool:
        """Whether the mapping's full checksum scrub has completed."""
        return self._verified

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
        return tuple(runfile.view_rows(self._mm, column, part) for column, part in chosen)

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
