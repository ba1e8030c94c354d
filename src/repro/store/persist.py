"""File-backed labelled runs: page-aligned columns, mmap serving, checkpoints.

With PR 2's label columns and the node arena, a labelled run is nothing but a
handful of append-only integer columns (path-table trie, label rows, node
rows) plus two small string intern lists.  This module gives that columnar
run an at-rest form designed to be *mapped*, not parsed:

* :func:`checkpoint_run` writes (or extends) a run file.  The file starts
  with a fixed versioned header page carrying the ``(n_paths, n_items,
  n_nodes)`` watermarks, followed by one or more *segments*.  Each segment
  has a section-table page and then one page-aligned data extent per column,
  covering exactly the rows appended since the previous checkpoint — the
  arenas are append-only, so an incremental checkpoint writes only delta
  rows and never rewrites existing pages.
* :class:`MappedRunStore` opens such a file with one ``mmap`` and serves it
  with **no decode pass**: every integer column becomes a zero-copy numpy
  view over the mapping (lazy page-in; multi-segment columns are stitched
  with a chunked indexer), and the uid/module-name intern blobs are decoded
  only if a consumer asks for node identities.  The mapped
  :class:`MappedLabelStore` / :class:`MappedPathTable` /
  :class:`MappedNodeTable` are drop-in *read-only* replacements for their
  in-memory classes, so the query engine, the codec and the analysis helpers
  work on disk-backed runs larger than RAM unchanged.

The derived ``child_count`` node column is not persisted (it mutates in
place); the mapped reader recomputes it with one vectorised ``bincount`` on
first use.
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
import zlib
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro import faults
from repro.errors import CorruptionError, SerializationError
from repro.obs import events as obs_events
from repro.index.structural import compute_tree_intervals
from repro.store.label_store import LabelStore
from repro.store.node_table import NodeTable
from repro.store.path_table import ROOT_PATH, PathTable

__all__ = [
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
    "PAGE_SIZE",
    "CheckpointResult",
    "RunFileInfo",
    "VerifyReport",
    "checkpoint_run",
    "checkpoint_batch",
    "run_file_info",
    "verify_run",
    "MappedRunStore",
    "MappedLabelStore",
    "MappedPathTable",
    "MappedNodeTable",
]

FORMAT_MAGIC = b"FVLRUN01"
#: Version 3 adds per-section CRC32 checksums to the segment tables (the
#: ``SEG2`` segment magic).  Readers accept mixed chains: ``SEG1`` segments
#: from v1/v2 files simply have no checksums to verify.
FORMAT_VERSION = 3
#: Oldest readable header layout.  Version 1 lacked the trailing
#: ``generation`` field; the header page has always been zero-padded, so a
#: v1 header simply reads back generation 0 and is upgraded in place by the
#: next checkpoint.
MIN_FORMAT_VERSION = 1
PAGE_SIZE = 4096

#: header: magic, version, page_size, flags, n_segments, n_paths, n_items,
#: n_nodes, n_node_uids, n_module_names, base_uid, end_offset, fingerprint,
#: generation
_HEADER = struct.Struct("<8sIIIQQQQQQqQQQ")
_SEGMENT = struct.Struct("<4sIQ")  # magic, n_sections, segment_end
_SECTION = struct.Struct("<IIQQQQ")  # id, dtype, row_start, n_rows, offset, nbytes
_SEGMENT_MAGIC = b"SEG1"  # legacy: section entries only
#: Checksummed segment: the section entries are followed by ``n_sections``
#: little-endian u32 CRC32s, one per payload extent, in entry order.
_SEGMENT_MAGIC_CRC = b"SEG2"
_CRC = struct.Struct("<I")

_FLAG_DENSE = 1
_FLAG_NODES = 2

#: Section (column) identifiers.  Path columns include the root row so a
#: mapped view is indexable by path id with no prepend copy.
_SEC_PATH_PARENT = 1
_SEC_PATH_PACKED = 2
_SEC_PATH_C = 3
_SEC_LAB_PPATH = 10
_SEC_LAB_PPORT = 11
_SEC_LAB_CPATH = 12
_SEC_LAB_CPORT = 13
_SEC_LAB_UIDS = 14
_SEC_NODE_PARENT = 20
_SEC_NODE_PATH = 21
_SEC_NODE_META = 22
_SEC_NODE_UID_ID = 23
_SEC_NODE_UID_BLOB = 24
_SEC_MODULE_NAME_BLOB = 25
#: Structural interval columns (PR 8): whole-tree ``pre``/``post``/``level``
#: snapshots derived from ``node.parent``.  Unlike the delta columns above,
#: these are written as *full* snapshots (``row_start == 0``) at every
#: checkpoint that appends nodes — pre-order ranks are global properties of
#: the tree, so a delta encoding would be meaningless.  Readers use the last
#: snapshot matching the header watermark and ignore the rest.
_SEC_NODE_PRE = 26
_SEC_NODE_POST = 27
_SEC_NODE_LEVEL = 28
_STRUCTURAL_SIDS = (_SEC_NODE_PRE, _SEC_NODE_POST, _SEC_NODE_LEVEL)

_SECTION_NAMES = {
    _SEC_PATH_PARENT: "path.parent",
    _SEC_PATH_PACKED: "path.packed",
    _SEC_PATH_C: "path.c",
    _SEC_LAB_PPATH: "label.producer_path",
    _SEC_LAB_PPORT: "label.producer_port",
    _SEC_LAB_CPATH: "label.consumer_path",
    _SEC_LAB_CPORT: "label.consumer_port",
    _SEC_LAB_UIDS: "label.uids",
    _SEC_NODE_PARENT: "node.parent",
    _SEC_NODE_PATH: "node.path_id",
    _SEC_NODE_META: "node.meta",
    _SEC_NODE_UID_ID: "node.uid_id",
    _SEC_NODE_UID_BLOB: "node.uids",
    _SEC_MODULE_NAME_BLOB: "node.module_names",
    _SEC_NODE_PRE: "node.pre",
    _SEC_NODE_POST: "node.post",
    _SEC_NODE_LEVEL: "node.level",
}

_DTYPE_I32 = 0
_DTYPE_I64 = 1
_DTYPE_BLOB = 2

_NP_DTYPES = {_DTYPE_I32: np.dtype("<i4"), _DTYPE_I64: np.dtype("<i8")}
_TYPECODES = {_DTYPE_I32: "i", _DTYPE_I64: "q"}


def _align(offset: int) -> int:
    return (offset + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE


def _read_only(*_args, **_kwargs):
    raise SerializationError(
        "mapped run stores are read-only; append to the in-memory run and "
        "checkpoint_run() the delta instead"
    )


@dataclass(frozen=True)
class _Header:
    n_segments: int
    n_paths: int
    n_items: int
    n_nodes: int
    n_node_uids: int
    n_module_names: int
    base_uid: int
    end_offset: int
    dense: bool
    has_nodes: bool
    #: Caller-supplied specification identity (0 = unchecked).  The engine
    #: passes a structural grammar fingerprint so a run file can never be
    #: attached to a different specification and silently decode garbage.
    fingerprint: int = 0
    #: Rewrite generation of the file.  Incremental checkpoints never change
    #: it; :func:`repro.store.compaction.compact` bumps it when it swaps the
    #: merged single-extent rewrite over the path, which is how live mapped
    #: readers detect that they should remap onto the compacted file.
    generation: int = 0

    def pack(self) -> bytes:
        flags = (_FLAG_DENSE if self.dense else 0) | (
            _FLAG_NODES if self.has_nodes else 0
        )
        return _HEADER.pack(
            FORMAT_MAGIC,
            FORMAT_VERSION,
            PAGE_SIZE,
            flags,
            self.n_segments,
            self.n_paths,
            self.n_items,
            self.n_nodes,
            self.n_node_uids,
            self.n_module_names,
            self.base_uid,
            self.end_offset,
            self.fingerprint,
            self.generation,
        )


def _unpack_header(buffer: bytes) -> _Header:
    if len(buffer) < _HEADER.size:
        raise SerializationError("truncated run store: missing header")
    (
        magic,
        version,
        page_size,
        flags,
        n_segments,
        n_paths,
        n_items,
        n_nodes,
        n_node_uids,
        n_module_names,
        base_uid,
        end_offset,
        fingerprint,
        generation,
    ) = _HEADER.unpack_from(buffer)
    if magic != FORMAT_MAGIC:
        raise SerializationError(f"not a run store (bad magic {magic!r})")
    if not MIN_FORMAT_VERSION <= version <= FORMAT_VERSION:
        raise SerializationError(
            f"unsupported run-store version {version} "
            f"(supported: {MIN_FORMAT_VERSION}..{FORMAT_VERSION})"
        )
    if page_size != PAGE_SIZE:
        raise SerializationError(f"unsupported page size {page_size}")
    return _Header(
        n_segments=n_segments,
        n_paths=n_paths,
        n_items=n_items,
        n_nodes=n_nodes,
        n_node_uids=n_node_uids,
        n_module_names=n_module_names,
        base_uid=base_uid,
        end_offset=end_offset,
        dense=bool(flags & _FLAG_DENSE),
        has_nodes=bool(flags & _FLAG_NODES),
        fingerprint=fingerprint,
        generation=generation,
    )


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointResult:
    """What one :func:`checkpoint_run` call actually wrote."""

    path: str
    created: bool
    delta_paths: int
    delta_items: int
    delta_nodes: int
    bytes_written: int

    @property
    def wrote_segment(self) -> bool:
        return self.bytes_written > 0


def _column_bytes(seq, dtype_code: int, start: int, stop: int) -> bytes:
    # Slices are bounded by the snapshotted counts, never open-ended: rows a
    # concurrent ingest appends after the snapshot belong to the next delta.
    delta = seq[start:stop]
    if isinstance(delta, array) and delta.typecode == _TYPECODES[dtype_code]:
        return delta.tobytes()
    return array(_TYPECODES[dtype_code], delta).tobytes()


def _blob_bytes(strings: list[str], what: str) -> bytes:
    for value in strings:
        if not value or "\n" in value:
            # Empty entries are rejected too: a segment whose only entry is
            # "" would serialise to zero bytes and decode to zero entries.
            raise SerializationError(
                f"{what} {value!r} must be non-empty and newline-free"
            )
    return "\n".join(strings).encode("utf-8")


@dataclass
class _PendingCheckpoint:
    """One planned checkpoint: validated delta sections, not yet on disk."""

    file_path: str
    created: bool
    header: _Header
    sections: list[tuple[int, int, int, int, bytes]]
    n_paths: int
    n_items: int
    n_nodes: int
    n_uids: int
    n_names: int
    delta_paths: int
    delta_items: int
    delta_nodes: int
    #: New-header identity fields, snapshotted at plan time (an empty file
    #: may legitimately change density/base before its first rows land).
    dense: bool
    base_uid: int
    has_nodes: bool
    fingerprint: int


def _plan_checkpoint(
    path,
    store: LabelStore,
    node_table: NodeTable | None,
    fingerprint: int,
    structural_index: bool = True,
) -> _PendingCheckpoint:
    """Snapshot, validate and assemble one run's delta sections (no writes)."""
    if not isinstance(store, LabelStore):
        raise SerializationError(
            "checkpoint_run requires a columnar LabelStore (the object "
            "representation has no columns to persist)"
        )
    if isinstance(store, MappedLabelStore):
        raise SerializationError("mapped run stores are read-only; nothing to checkpoint")
    file_path = os.fspath(path)
    table = store.table

    created = not os.path.exists(file_path)
    if created:
        header = _Header(
            n_segments=0,
            n_paths=0,
            n_items=0,
            n_nodes=0,
            n_node_uids=0,
            n_module_names=0,
            base_uid=0,
            end_offset=PAGE_SIZE,
            dense=store.is_dense,
            has_nodes=node_table is not None,
            fingerprint=fingerprint,
        )
    else:
        with open(file_path, "rb") as handle:
            header = _unpack_header(handle.read(_HEADER.size))
        if fingerprint and header.fingerprint and fingerprint != header.fingerprint:
            raise SerializationError(
                "run file was checkpointed under a different specification "
                f"(fingerprint {header.fingerprint} != {fingerprint})"
            )

    # Snapshot order matters under concurrent ingest: labels and nodes
    # reference path ids (and module names) interned *before* their rows are
    # appended, so those intern counts are read after the row counts — every
    # persisted row resolves within the persisted prefix.  Each family's
    # count is the minimum over its columns, so a row whose appends are still
    # in flight is left for the next delta rather than half-written.
    n_items_now = min(len(column) for column in store.raw_columns())
    if node_table is not None:
        node_columns = node_table.raw_columns()
        n_nodes_now = min(len(column) for column in node_columns)
        n_uids_now = node_table.n_uids
        # A module row appends its uid-intern reference just before the uid
        # itself; drop trailing rows whose uid is not interned yet.
        uid_ids = node_columns[3]
        while n_nodes_now > header.n_nodes and uid_ids[n_nodes_now - 1] >= n_uids_now:
            n_nodes_now -= 1
        n_names_now = len(node_table.module_names)
    else:
        n_nodes_now = n_uids_now = n_names_now = 0
    n_paths_now = min(len(column) for column in table.raw_columns())

    if header.n_segments > 0:
        if (node_table is not None) != header.has_nodes:
            raise SerializationError(
                "run file and checkpoint disagree on whether node rows are "
                "persisted; pass the same node_table (or None) every time"
            )
        if header.n_items > 0 and store.is_dense != header.dense:
            raise SerializationError(
                "the store changed uid density since the last checkpoint; "
                "write a fresh run file"
            )
        if header.n_items > 0 and store.is_dense and store.base_uid != header.base_uid:
            raise SerializationError(
                f"dense base uid changed ({header.base_uid} -> {store.base_uid}); "
                "this is a different run"
            )
    for label, now, watermark in (
        ("paths", n_paths_now, header.n_paths),
        ("items", n_items_now, header.n_items),
        ("nodes", n_nodes_now, header.n_nodes),
    ):
        if now < watermark:
            raise SerializationError(
                f"run has fewer {label} ({now}) than the file watermark "
                f"({watermark}); this is not the persisted run"
            )

    delta_paths = n_paths_now - header.n_paths
    delta_items = n_items_now - header.n_items
    delta_nodes = n_nodes_now - header.n_nodes

    # Assemble the delta sections: (id, dtype, row_start, n_rows, payload).
    # The uid/name watermarks advance by what is actually written, which can
    # trail the live intern counts when the row snapshot was clamped.
    sections: list[tuple[int, int, int, int, bytes]] = []
    n_uids_persisted = header.n_node_uids
    n_names_persisted = header.n_module_names
    if delta_paths:
        parent, packed, c = table.raw_columns()
        start = header.n_paths
        sections.append(
            (_SEC_PATH_PARENT, _DTYPE_I32, start, delta_paths, _column_bytes(parent, _DTYPE_I32, start, n_paths_now))
        )
        sections.append(
            (_SEC_PATH_PACKED, _DTYPE_I64, start, delta_paths, _column_bytes(packed, _DTYPE_I64, start, n_paths_now))
        )
        sections.append(
            (_SEC_PATH_C, _DTYPE_I32, start, delta_paths, _column_bytes(c, _DTYPE_I32, start, n_paths_now))
        )
    if delta_items:
        ppath, pport, cpath, cport = store.raw_columns()
        start = header.n_items
        for sid, column in (
            (_SEC_LAB_PPATH, ppath),
            (_SEC_LAB_PPORT, pport),
            (_SEC_LAB_CPATH, cpath),
            (_SEC_LAB_CPORT, cport),
        ):
            sections.append(
                (sid, _DTYPE_I32, start, delta_items, _column_bytes(column, _DTYPE_I32, start, n_items_now))
            )
        if not store.is_dense:
            uid_delta = list(islice(store.uids(), start, n_items_now))
            sections.append(
                (
                    _SEC_LAB_UIDS,
                    _DTYPE_I64,
                    start,
                    delta_items,
                    array("q", uid_delta).tobytes(),
                )
            )
    if node_table is not None and delta_nodes:
        node_parent, node_path, node_meta, node_uid_id = node_table.raw_columns()
        start = header.n_nodes
        sections.append(
            (_SEC_NODE_PARENT, _DTYPE_I32, start, delta_nodes, _column_bytes(node_parent, _DTYPE_I32, start, n_nodes_now))
        )
        sections.append(
            (_SEC_NODE_PATH, _DTYPE_I32, start, delta_nodes, _column_bytes(node_path, _DTYPE_I32, start, n_nodes_now))
        )
        sections.append(
            (_SEC_NODE_META, _DTYPE_I64, start, delta_nodes, _column_bytes(node_meta, _DTYPE_I64, start, n_nodes_now))
        )
        sections.append(
            (_SEC_NODE_UID_ID, _DTYPE_I32, start, delta_nodes, _column_bytes(node_uid_id, _DTYPE_I32, start, n_nodes_now))
        )
        uid_delta = node_table.uid_slice(header.n_node_uids)[
            : n_uids_now - header.n_node_uids
        ]
        n_uids_persisted += len(uid_delta)
        if uid_delta:
            sections.append(
                (
                    _SEC_NODE_UID_BLOB,
                    _DTYPE_BLOB,
                    header.n_node_uids,
                    len(uid_delta),
                    _blob_bytes(uid_delta, "instance uid"),
                )
            )
        name_delta = node_table.module_names[header.n_module_names : n_names_now]
        n_names_persisted += len(name_delta)
        if name_delta:
            sections.append(
                (
                    _SEC_MODULE_NAME_BLOB,
                    _DTYPE_BLOB,
                    header.n_module_names,
                    len(name_delta),
                    _blob_bytes(name_delta, "module name"),
                )
            )
        if structural_index:
            # Full-snapshot interval columns over the tree as persisted by
            # this segment.  Slicing the live column first yields a private
            # buffer, so the numpy conversion never pins the growing arena.
            parent_snapshot = np.asarray(node_parent[:n_nodes_now], dtype=np.int64)
            for sid, column in zip(
                _STRUCTURAL_SIDS, compute_tree_intervals(parent_snapshot)
            ):
                sections.append(
                    (
                        sid,
                        _DTYPE_I64,
                        0,
                        n_nodes_now,
                        column.astype("<i8", copy=False).tobytes(),
                    )
                )

    if sections and _SEGMENT.size + len(sections) * (_SECTION.size + _CRC.size) > PAGE_SIZE:
        raise SerializationError("segment section table exceeds one page")
    return _PendingCheckpoint(
        file_path=file_path,
        created=created,
        header=header,
        sections=sections,
        n_paths=n_paths_now,
        n_items=n_items_now,
        n_nodes=n_nodes_now,
        n_uids=n_uids_persisted,
        n_names=n_names_persisted,
        delta_paths=delta_paths,
        delta_items=delta_items,
        delta_nodes=delta_nodes,
        dense=store.is_dense,
        base_uid=store.base_uid if store.is_dense else 0,
        has_nodes=node_table is not None,
        fingerprint=header.fingerprint or fingerprint,
    )


def _write_segment_at(handle, segment_offset: int, sections, *, checksums: bool = True) -> int:
    """Write one segment (table page, payload extents, page pad) at an offset.

    The single encoder of the segment layout — incremental checkpoints
    append with it and compaction rewrites with it, so the two writers can
    never drift apart.  With ``checksums`` (the default) the segment is
    written with the ``SEG2`` magic and a per-section CRC32 array after the
    section entries; ``checksums=False`` emits a legacy ``SEG1`` segment
    (the benchmark baseline).  Returns the segment's end offset
    (page-aligned).
    """
    table_bytes = _SECTION.size + (_CRC.size if checksums else 0)
    if _SEGMENT.size + len(sections) * table_bytes > PAGE_SIZE:
        raise SerializationError("segment section table exceeds one page")
    data_offset = segment_offset + PAGE_SIZE
    entries = []
    crcs = []
    payload_chunks: list[tuple[int, bytes]] = []
    payload_end = data_offset
    for sid, dtype_code, row_start, n_rows, payload in sections:
        entries.append(
            _SECTION.pack(sid, dtype_code, row_start, n_rows, data_offset, len(payload))
        )
        if checksums:
            crcs.append(_CRC.pack(zlib.crc32(payload)))
        payload_chunks.append((data_offset, payload))
        payload_end = data_offset + len(payload)
        data_offset = _align(payload_end)
    end_offset = data_offset
    magic = _SEGMENT_MAGIC_CRC if checksums else _SEGMENT_MAGIC
    handle.seek(segment_offset)
    handle.write(_SEGMENT.pack(magic, len(sections), end_offset))
    handle.write(b"".join(entries))
    if checksums:
        handle.write(b"".join(crcs))
    faults.hit("persist.write")
    for offset, payload in payload_chunks:
        handle.seek(offset)
        handle.write(payload)
    if end_offset > payload_end:
        # Pad so the file ends on a page boundary (mmap-friendly, and the
        # next segment header lands exactly at end_offset).  When the last
        # payload already ends on a boundary there is nothing to pad —
        # writing would clobber its final byte.
        handle.seek(end_offset - 1)
        handle.write(b"\0")
    return end_offset


def _write_segment_data(
    handle, pending: _PendingCheckpoint, *, checksums: bool = True
) -> tuple[_Header, int]:
    """Write one planned segment's table, payloads and pad (flushed, no fsync)."""
    header = pending.header
    end_offset = _write_segment_at(
        handle, header.end_offset, pending.sections, checksums=checksums
    )
    handle.flush()
    new_header = _Header(
        n_segments=header.n_segments + 1,
        n_paths=pending.n_paths,
        n_items=pending.n_items,
        n_nodes=pending.n_nodes,
        n_node_uids=pending.n_uids,
        n_module_names=pending.n_names,
        base_uid=pending.base_uid,
        end_offset=end_offset,
        dense=pending.dense,
        has_nodes=pending.has_nodes,
        fingerprint=pending.fingerprint,
        generation=header.generation,
    )
    bytes_written = PAGE_SIZE + sum(len(p) for _, _, _, _, p in pending.sections)
    return new_header, bytes_written


class _StagedCheckpoint:
    """Mutable per-job commit state (handle, new header, rollback tracking)."""

    __slots__ = ("pending", "handle", "new_header", "bytes_written", "header_written")

    def __init__(self, pending: _PendingCheckpoint) -> None:
        self.pending = pending
        self.handle = None
        self.new_header: _Header | None = None
        self.bytes_written = 0
        self.header_written = False


def _fsync(handle) -> None:
    faults.hit("persist.fsync")
    os.fsync(handle.fileno())


def _commit_checkpoints(
    pendings: list[_PendingCheckpoint], *, checksums: bool = True
) -> list[CheckpointResult]:
    """Write the planned segments with batched fsync barriers.

    Per file the crash-ordering invariant is unchanged — its advanced header
    is written only after its segment data has been fsynced — but the
    barriers are grouped across the batch (all files opened, all data
    writes, all data fsyncs, all header writes, all header fsyncs) so
    flushing N runs costs one ordered sweep instead of N interleaved
    write/sync/write/sync cycles.

    Failure containment: every file is opened before any byte is written
    (an unopenable path fails the batch with nothing on disk), and if a
    later phase fails, files this call *created* that never received their
    header are unlinked — a headerless run file would otherwise poison
    every future checkpoint of that run.  Pre-existing files keep their old
    header, i.e. their previous watermark, exactly as after a crash.
    """
    staged = [_StagedCheckpoint(pending) for pending in pendings]
    try:
        # Phase 0: open (or create) every file up front.
        for entry in staged:
            if entry.pending.sections:
                entry.handle = open(
                    entry.pending.file_path,
                    "w+b" if entry.pending.created else "r+b",
                )
        # Phase 1: segment data (and empty-file headers), flushed.
        for entry in staged:
            pending = entry.pending
            if entry.handle is None:
                if pending.created:
                    with open(pending.file_path, "w+b") as handle:
                        handle.write(pending.header.pack())
                        handle.seek(PAGE_SIZE - 1)
                        handle.write(b"\0")
                        handle.flush()
                        _fsync(handle)
                    entry.bytes_written = _HEADER.size
                    entry.header_written = True
                continue
            entry.new_header, entry.bytes_written = _write_segment_data(
                entry.handle, pending, checksums=checksums
            )
        # Phase 2-4: data fsyncs, headers, header fsyncs.
        for entry in staged:
            if entry.handle is not None:
                _fsync(entry.handle)
        for entry in staged:
            if entry.handle is not None:
                entry.handle.seek(0)
                entry.handle.write(entry.new_header.pack())
                entry.handle.flush()
                entry.header_written = True
        for entry in staged:
            if entry.handle is not None:
                _fsync(entry.handle)
    except BaseException:
        for entry in staged:
            if entry.handle is not None:
                entry.handle.close()
                entry.handle = None
            if entry.pending.created and not entry.header_written:
                try:
                    os.remove(entry.pending.file_path)
                except OSError:
                    pass
        raise
    finally:
        for entry in staged:
            if entry.handle is not None:
                entry.handle.close()
    results = [
        CheckpointResult(
            path=entry.pending.file_path,
            created=entry.pending.created,
            delta_paths=entry.pending.delta_paths,
            delta_items=entry.pending.delta_items,
            delta_nodes=entry.pending.delta_nodes,
            bytes_written=entry.bytes_written,
        )
        for entry in staged
    ]
    for result in results:
        if result.wrote_segment or result.created:
            obs_events.emit(
                "checkpoint",
                path=result.path,
                created=result.created,
                items=result.delta_items,
                paths=result.delta_paths,
                nodes=result.delta_nodes,
                bytes=result.bytes_written,
            )
    return results


def checkpoint_run(
    path,
    store: LabelStore,
    node_table: NodeTable | None = None,
    *,
    fingerprint: int = 0,
    checksums: bool = True,
    structural_index: bool = True,
) -> CheckpointResult:
    """Write (or incrementally extend) the persistent form of a labelled run.

    On a fresh ``path`` the whole run is written; on an existing run file the
    header watermarks are compared against the live arenas and **only the
    delta rows** appended since the last checkpoint are written, as one new
    segment.  The store (and the node table, when given) must be the same
    growing run the file was created from — shrinking counts, a changed
    density mode, a changed dense base or a changed ``fingerprint`` are
    rejected rather than guessed at.

    ``fingerprint`` is an optional specification identity (any nonzero int,
    e.g. a grammar hash): it is stored in the header on creation and
    re-checked on every later checkpoint, and readers can use it to refuse
    serving the file under a different specification
    (:meth:`repro.engine.QueryEngine.attach` does).

    Checkpointing a run that another thread is still ingesting is safe in
    the snapshot sense: counts are snapshotted once (label/node rows first,
    the path trie — which they reference — last) and every column is sliced
    to its snapshot, so the segment is internally consistent and rows
    appended mid-write simply land in the next delta.

    Note that the persisted path trie is ``store.table`` in its entirety: a
    query-engine shard interns into the engine's *shared* arena, so the file
    carries sibling runs' paths too — ids must stay globally consistent for
    the mapped store to serve the same answers.

    ``checksums`` (default on) stamps a CRC32 per section into the segment
    table; readers verify it at attach or on first gather.  Disabling it
    writes legacy ``SEG1`` segments — the benchmark baseline, not a
    production mode.

    ``structural_index`` (default on) rides full-snapshot ``pre``/``post``/
    ``level`` interval columns along with any segment that appends node rows,
    enabling the engine's structural fast path on mapped attach; disabling it
    writes a pre-index file (compaction upgrades those in place).
    """
    return _commit_checkpoints(
        [_plan_checkpoint(path, store, node_table, fingerprint, structural_index)],
        checksums=checksums,
    )[0]


def checkpoint_batch(
    jobs, *, fingerprint: int = 0, checksums: bool = True, structural_index: bool = True
) -> list[CheckpointResult]:
    """Checkpoint several runs with batched fsync barriers.

    ``jobs`` is an iterable of ``(path, store, node_table)`` triples, one per
    run (``node_table`` may be ``None``).  Every job is planned and validated
    before any file is touched, so a bad job fails the whole batch cleanly;
    the writes then proceed in four grouped phases (segment data, data
    fsyncs, headers, header fsyncs) instead of per-run barriers — this is
    what :class:`repro.service.RunLifecycleManager` uses when several managed
    runs come due in the same sweep.  Results line up with ``jobs``.

    Two jobs naming the same file are rejected: both would plan against the
    same header and the second's segment would overwrite the first's.
    """
    pendings = [
        _plan_checkpoint(path, store, node_table, fingerprint, structural_index)
        for path, store, node_table in jobs
    ]
    seen: dict[str, None] = {}
    for pending in pendings:
        key = os.path.realpath(pending.file_path)
        if key in seen:
            raise SerializationError(
                f"two batch jobs target the same run file {pending.file_path!r}; "
                "each run needs its own file"
            )
        seen[key] = None
    return _commit_checkpoints(pendings, checksums=checksums)


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
    size_bytes: int
    #: Estimated size of the file's single-segment (compacted) rewrite —
    #: header page, one section-table page, page-aligned merged extents.
    #: ``None`` unless :func:`run_file_info` was asked to scan the segment
    #: chain (``estimate_amplification=True``).
    compacted_bytes_estimate: int | None = None

    @property
    def read_amplification(self) -> float | None:
        """Measured amplification: current bytes per compacted byte.

        Counts what compaction would actually reclaim — the per-segment
        section-table pages and per-extent page padding of the chain ("dead
        chain + padding").  ``None`` when the chain was not scanned; ``1.0``
        for an already-compacted (or empty) file.
        """
        if self.compacted_bytes_estimate is None:
            return None
        if self.compacted_bytes_estimate <= 0:
            return 1.0
        return max(1.0, self.size_bytes / self.compacted_bytes_estimate)


def _estimate_compacted_bytes(column_nbytes: dict[int, int]) -> int:
    """Size of a one-segment rewrite of columns totalling ``column_nbytes``.

    Mirrors :func:`_write_segment_at`'s layout (one header page, one
    section-table page, each merged extent padded to a page).  Blob columns
    gain a few join separators when merged; the estimate ignores them — it
    guides a compaction *policy*, not an allocator.
    """
    total = 2 * PAGE_SIZE  # file header page + the single section-table page
    for nbytes in column_nbytes.values():
        total += _align(nbytes)
    return total


def run_file_info(path, *, estimate_amplification: bool = False) -> RunFileInfo:
    """Read a run file's header watermarks (one small read, no mmap).

    The lifecycle manager uses this to resume watermark accounting over an
    existing file and to decide when a segment chain is worth compacting;
    mapped readers use it (via :meth:`MappedRunStore.current_generation`) to
    detect that a compacted generation has been swapped in under their path.

    With ``estimate_amplification=True`` the per-segment section tables are
    also read (one extra page read per segment) and the result carries a
    :attr:`RunFileInfo.compacted_bytes_estimate`, from which
    :attr:`RunFileInfo.read_amplification` measures how many bytes of dead
    chain and padding a compaction would reclaim.
    """
    file_path = os.fspath(path)
    compacted_estimate = None
    with open(file_path, "rb") as handle:
        header = _unpack_header(handle.read(_HEADER.size))
        if estimate_amplification:
            column_nbytes: dict[int, int] = {}
            offset = PAGE_SIZE
            for _ in range(header.n_segments):
                handle.seek(offset)
                page = handle.read(_SEGMENT.size)
                if len(page) < _SEGMENT.size:
                    raise SerializationError(
                        "truncated run store: missing segment header"
                    )
                magic, n_sections, segment_end = _SEGMENT.unpack(page)
                if magic not in (_SEGMENT_MAGIC, _SEGMENT_MAGIC_CRC):
                    raise SerializationError(
                        f"corrupt run store: bad segment magic at offset {offset}"
                    )
                table = handle.read(n_sections * _SECTION.size)
                if len(table) < n_sections * _SECTION.size:
                    raise SerializationError(
                        "truncated run store: section table cut off"
                    )
                for index in range(n_sections):
                    sid, _, _, _, _, nbytes = _SECTION.unpack_from(
                        table, index * _SECTION.size
                    )
                    if sid in _STRUCTURAL_SIDS:
                        # Full snapshots supersede each other: the rewrite
                        # keeps one (the latest), not the concatenation.
                        column_nbytes[sid] = nbytes
                    else:
                        column_nbytes[sid] = column_nbytes.get(sid, 0) + nbytes
                if segment_end <= offset:
                    raise SerializationError("corrupt run store: bad segment end")
                offset = segment_end
            compacted_estimate = _estimate_compacted_bytes(column_nbytes)
    return RunFileInfo(
        path=file_path,
        n_paths=header.n_paths,
        n_items=header.n_items,
        n_nodes=header.n_nodes,
        n_segments=header.n_segments,
        generation=header.generation,
        fingerprint=header.fingerprint,
        size_bytes=os.path.getsize(file_path),
        compacted_bytes_estimate=compacted_estimate,
    )


@dataclass(frozen=True)
class VerifyReport:
    """What one :func:`verify_run` scrub covered (failures raise instead)."""

    path: str
    n_segments: int
    extents_checked: int
    #: Extents with no stored checksum (legacy ``SEG1`` segments of v1/v2
    #: files, or files written with ``checksums=False``).
    extents_unchecksummed: int
    bytes_verified: int

    @property
    def fully_checksummed(self) -> bool:
        return self.extents_unchecksummed == 0


def verify_run(path, *, deep: bool = True) -> VerifyReport:
    """Scrub a run file: structure always, payload checksums with ``deep``.

    Mapping the file validates the header, the segment chain, the section
    tables and every column's row bookkeeping; ``deep=True`` (default)
    additionally CRC-checks each checksummed payload extent against its
    segment table.  Structural damage raises
    :class:`~repro.errors.SerializationError`; a checksum mismatch raises
    :class:`~repro.errors.CorruptionError` naming the section and offset.
    On success a :class:`VerifyReport` tallies the coverage — legacy
    extents without checksums are reported, not failed, so a scrub of a
    v2 file succeeds with ``fully_checksummed=False``.
    """
    with MappedRunStore(path, verify="attach" if deep else "off") as mapped:
        checked = unchecksummed = verified_bytes = 0
        for parts in mapped._extents.values():
            for part in parts:
                if part.crc is None:
                    unchecksummed += 1
                elif deep:
                    checked += 1
                    verified_bytes += part.nbytes
        return VerifyReport(
            path=mapped.path,
            n_segments=mapped.n_segments,
            extents_checked=checked,
            extents_unchecksummed=unchecksummed,
            bytes_verified=verified_bytes,
        )


# ---------------------------------------------------------------------------
# mapped (read-only) columns
# ---------------------------------------------------------------------------


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
        self._compacted = True

    extend_production = _read_only
    extend_recursion = _read_only
    new_production_child = _read_only
    new_recursion_child = _read_only
    extend = _read_only
    intern = _read_only

    def compact(self) -> "MappedPathTable":
        return self

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

    def memory_bytes(self) -> int:
        """Resident (heap) bytes — the columns live in the file mapping."""
        return 0


class MappedLabelStore(LabelStore):
    """A read-only :class:`LabelStore` whose columns are mmap-backed views.

    Sparse (non-dense) runs keep their uid column mapped too; the uid->row
    index is built lazily on the first keyed access, so attaching decodes
    nothing.

    Under lazy verification (:class:`MappedRunStore` ``verify="lazy"``) the
    owning store plants ``_verify_hook``: the first row/gather/column access
    scrubs the whole file's checksums before any byte is served, and the
    hook is cleared only on success — after a
    :class:`~repro.errors.CorruptionError` every later access fails again
    rather than serving unverified pages.
    """

    __slots__ = ("_sparse", "_verify_hook")

    def __init__(
        self,
        table: MappedPathTable,
        producer_path,
        producer_port,
        consumer_path,
        consumer_port,
        *,
        dense: bool,
        base_uid: int,
        uids=None,
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
        self._compacted = True
        self._verify_hook = None

    append = _read_only
    extend_items = _read_only
    append_label = _read_only
    _go_sparse = _read_only

    def _verify_once(self) -> None:
        hook = self._verify_hook
        if hook is not None:
            hook()  # raises CorruptionError on a checksum mismatch
            self._verify_hook = None

    def _ensure_index(self) -> None:
        # The base class reads ``_row_of is None`` as "dense"; a mapped
        # sparse store defers building the dict until a keyed access needs it.
        if self._sparse and self._row_of is None:
            self._row_of = {int(uid): row for row, uid in enumerate(self._uids)}

    def _row(self, uid: int) -> int:
        self._verify_once()
        self._ensure_index()
        return super()._row(uid)

    def rows_for(self, uids: np.ndarray) -> np.ndarray:
        self._verify_once()
        self._ensure_index()
        return super().rows_for(uids)

    def __contains__(self, uid: object) -> bool:
        self._verify_once()
        self._ensure_index()
        return super().__contains__(uid)

    def uids(self):
        self._verify_once()
        if self._sparse:
            return iter(self._uids)
        return super().uids()

    @property
    def is_dense(self) -> bool:
        return not self._sparse

    def compact(self) -> "MappedLabelStore":
        return self

    def columns(self) -> dict[str, np.ndarray]:
        self._verify_once()
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
        self._verify_once()
        faults.hit("mmap.gather")
        columns = {
            "producer_path_id": self._producer_path,
            "producer_port": self._producer_port,
            "consumer_path_id": self._consumer_path,
            "consumer_port": self._consumer_port,
        }
        return tuple(_gather(columns[field], rows) for field in fields)

    def memory_bytes(self) -> int:
        """Resident (heap) bytes — the columns live in the file mapping."""
        return 64 * len(self._row_of) if self._row_of is not None else 0


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
        self._compacted = True
        self._uid_loader = uid_loader
        self._name_loader = name_loader
        self._row_of_uid: dict[str, int] | None = None

    module_id = _read_only
    append_module = _read_only
    append_recursive = _read_only

    def compact(self) -> "MappedNodeTable":
        return self

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

    def memory_bytes(self) -> int:
        """Resident (heap) bytes — the columns live in the file mapping."""
        total = 0
        if self._child_count is not None:
            total += self._child_count.nbytes
        if self._uids is not None:
            total += 8 * len(self._uids)
        return total


# ---------------------------------------------------------------------------
# the mapped run store
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Extent:
    dtype_code: int
    row_start: int
    n_rows: int
    offset: int
    nbytes: int
    #: CRC32 of the payload bytes (``None`` for legacy ``SEG1`` segments,
    #: which carry no checksums).
    crc: "int | None" = None


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

    ``verify`` controls checksum verification of the payload extents
    (``SEG2`` segments; legacy ``SEG1`` extents have no checksums):

    * ``"lazy"`` (default) — the whole file is scrubbed once, triggered by
      the first row/gather/column access, and a mismatch raises
      :class:`~repro.errors.CorruptionError` instead of serving the bytes.
      Attach itself stays a few page reads.
    * ``"attach"`` — scrub everything before ``__init__`` returns (a corrupt
      file never produces a usable store).
    * ``"off"`` — trust the bytes (benchmark baseline).
    """

    def __init__(self, path, *, verify: str = "lazy") -> None:
        if verify not in ("lazy", "attach", "off"):
            raise ValueError(f"verify must be 'lazy', 'attach' or 'off', not {verify!r}")
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
            self._header = _unpack_header(self._mm[: _HEADER.size])
            self._extents = self._parse_segments()
            self._build(self._extents)
            if verify == "attach":
                self.verify()
            elif verify == "lazy":
                self._store._verify_hook = self.verify
            else:  # "off": trust the bytes, including blob loads
                self._verified = True
        except Exception:
            self.close()
            raise

    # -- construction ------------------------------------------------------------

    def _parse_segments(self) -> dict[int, list[_Extent]]:
        header = self._header
        extents: dict[int, list[_Extent]] = {}
        offset = PAGE_SIZE
        size = len(self._mm)
        for _ in range(header.n_segments):
            if offset + _SEGMENT.size > size:
                raise SerializationError("truncated run store: missing segment header")
            magic, n_sections, segment_end = _SEGMENT.unpack_from(self._mm, offset)
            if magic not in (_SEGMENT_MAGIC, _SEGMENT_MAGIC_CRC):
                raise SerializationError(
                    f"corrupt run store: bad segment magic at offset {offset}"
                )
            checksummed = magic == _SEGMENT_MAGIC_CRC
            entry_offset = offset + _SEGMENT.size
            table_bytes = n_sections * _SECTION.size
            if checksummed:
                table_bytes += n_sections * _CRC.size
            if entry_offset + table_bytes > size:
                raise SerializationError("truncated run store: section table cut off")
            crc_offset = entry_offset + n_sections * _SECTION.size
            for index in range(n_sections):
                sid, dtype_code, row_start, n_rows, data_offset, nbytes = (
                    _SECTION.unpack_from(self._mm, entry_offset)
                )
                entry_offset += _SECTION.size
                if data_offset + nbytes > size:
                    raise SerializationError("truncated run store: section out of range")
                crc = None
                if checksummed:
                    (crc,) = _CRC.unpack_from(self._mm, crc_offset + index * _CRC.size)
                extents.setdefault(sid, []).append(
                    _Extent(dtype_code, row_start, n_rows, data_offset, nbytes, crc)
                )
            if segment_end <= offset or segment_end > size:
                raise SerializationError("corrupt run store: bad segment end")
            offset = segment_end
        if offset != self._header.end_offset:
            raise SerializationError("corrupt run store: segment chain mismatch")
        return extents

    def _int_column(
        self, extents: dict[int, list[_Extent]], sid: int, expected_rows: int, name: str
    ):
        parts = extents.get(sid, [])
        total = sum(part.n_rows for part in parts)
        if total != expected_rows:
            raise SerializationError(
                f"run store column {name!r} has {total} rows, header says "
                f"{expected_rows}"
            )
        if not parts:
            return np.empty(0, dtype=np.int32)
        views = []
        starts = []
        cursor = 0
        for part in parts:
            if part.row_start != cursor:
                raise SerializationError(
                    f"run store column {name!r} has a gap at row {cursor}"
                )
            dtype = _NP_DTYPES.get(part.dtype_code)
            if dtype is None or part.nbytes != part.n_rows * dtype.itemsize:
                raise SerializationError(f"run store column {name!r} is malformed")
            views.append(
                np.frombuffer(self._mm, dtype=dtype, count=part.n_rows, offset=part.offset)
            )
            starts.append(cursor)
            cursor += part.n_rows
        if len(views) == 1:
            return views[0]
        return _ChunkedColumn(starts, views)

    def _blob_loader(
        self, extents: dict[int, list[_Extent]], sid: int, expected: int, name: str
    ):
        parts = extents.get(sid, [])
        total = sum(part.n_rows for part in parts)
        if total != expected:
            raise SerializationError(
                f"run store blob {name!r} has {total} entries, header says {expected}"
            )
        mm = self._mm
        store = self

        def load() -> list[str]:
            values: list[str] = []
            for part in parts:
                store._verify_extent(part, name)
                raw = mm[part.offset : part.offset + part.nbytes]
                chunk = raw.decode("utf-8").split("\n") if raw else []
                if len(chunk) != part.n_rows:
                    raise SerializationError(f"run store blob {name!r} is malformed")
                values.extend(chunk)
            return values

        return load

    def _build(self, extents: dict[int, list[_Extent]]) -> None:
        header = self._header
        self._table = MappedPathTable(
            self._int_column(extents, _SEC_PATH_PARENT, header.n_paths, "path.parent"),
            self._int_column(extents, _SEC_PATH_PACKED, header.n_paths, "path.packed"),
            self._int_column(extents, _SEC_PATH_C, header.n_paths, "path.c"),
        )
        uid_column = None
        if not header.dense:
            uid_column = self._int_column(
                extents, _SEC_LAB_UIDS, header.n_items, "label.uids"
            )
        self._store = MappedLabelStore(
            self._table,
            self._int_column(extents, _SEC_LAB_PPATH, header.n_items, "label.producer_path"),
            self._int_column(extents, _SEC_LAB_PPORT, header.n_items, "label.producer_port"),
            self._int_column(extents, _SEC_LAB_CPATH, header.n_items, "label.consumer_path"),
            self._int_column(extents, _SEC_LAB_CPORT, header.n_items, "label.consumer_port"),
            dense=header.dense,
            base_uid=header.base_uid,
            uids=uid_column,
        )
        self._nodes: MappedNodeTable | None = None
        if header.has_nodes:
            self._nodes = MappedNodeTable(
                self._int_column(extents, _SEC_NODE_PARENT, header.n_nodes, "node.parent"),
                self._int_column(extents, _SEC_NODE_PATH, header.n_nodes, "node.path_id"),
                self._int_column(extents, _SEC_NODE_META, header.n_nodes, "node.meta"),
                self._int_column(extents, _SEC_NODE_UID_ID, header.n_nodes, "node.uid_id"),
                self._blob_loader(
                    extents, _SEC_NODE_UID_BLOB, header.n_node_uids, "node.uids"
                ),
                self._blob_loader(
                    extents,
                    _SEC_MODULE_NAME_BLOB,
                    header.n_module_names,
                    "node.module_names",
                ),
            )

    # -- checksum verification ---------------------------------------------------

    def _verify_extent(self, extent: _Extent, name: str) -> None:
        """CRC-check one payload extent (no-op once the file is scrubbed)."""
        if extent.crc is None or self._verified:
            return
        with memoryview(self._mm) as view:
            chunk = view[extent.offset : extent.offset + extent.nbytes]
            try:
                actual = zlib.crc32(chunk)
            finally:
                chunk.release()
        if actual != extent.crc:
            obs_events.emit(
                "corruption",
                path=self._path,
                section=name,
                offset=extent.offset,
                nbytes=extent.nbytes,
                stored_crc=extent.crc,
                computed_crc=actual,
            )
            raise CorruptionError(
                f"run store {self._path!r}: section {name!r} at offset "
                f"{extent.offset} ({extent.nbytes} bytes) fails its checksum "
                f"(stored {extent.crc:#010x}, computed {actual:#010x})"
            )

    def verify(self) -> None:
        """Scrub every checksummed extent against its segment-table CRC32.

        Idempotent and thread-safe: the file is scrubbed at most once per
        mapping; concurrent first readers serialise on an internal lock.  A
        mismatch raises :class:`~repro.errors.CorruptionError` — and keeps
        raising on every later access, so a corrupt mapping can never serve
        a silently wrong answer.  Legacy ``SEG1`` extents (v1/v2 files) carry
        no checksums and are skipped.
        """
        if self._verified:
            return
        with self._verify_lock:
            if self._verified:
                return
            for sid in self._extents:
                name = _SECTION_NAMES.get(sid, f"section#{sid}")
                for part in self._extents[sid]:
                    self._verify_extent(part, name)
            self._verified = True

    @property
    def verified(self) -> bool:
        """Whether the mapping's full checksum scrub has completed."""
        return self._verified

    # -- the serving surface -----------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    @property
    def store(self) -> MappedLabelStore:
        return self._store

    @property
    def table(self) -> MappedPathTable:
        return self._table

    @property
    def nodes(self) -> MappedNodeTable | None:
        return self._nodes

    def structural_index(self):
        """The persisted ``(pre, post, level)`` interval columns, if current.

        Each checkpoint that appends node rows writes the interval columns
        as full snapshots; this returns zero-copy int64 views of the **last**
        snapshot whose row count matches the header's node watermark, or
        ``None`` when the file predates the index (or carries only stale
        snapshots for an older watermark — the engine then recomputes from
        ``node.parent``).  The views are CRC-verified before being handed
        out, so a flipped index byte raises
        :class:`~repro.errors.CorruptionError` rather than steering a query.
        """
        header = self._header
        if not header.has_nodes or header.n_nodes == 0:
            return None
        dtype = _NP_DTYPES[_DTYPE_I64]
        views = []
        for sid in _STRUCTURAL_SIDS:
            chosen = None
            for part in self._extents.get(sid, ()):
                if part.row_start == 0 and part.n_rows == header.n_nodes:
                    chosen = part
            if chosen is None:
                return None
            name = _SECTION_NAMES[sid]
            if chosen.dtype_code != _DTYPE_I64 or chosen.nbytes != chosen.n_rows * dtype.itemsize:
                raise SerializationError(f"run store column {name!r} is malformed")
            self._verify_extent(chosen, name)
            views.append(
                np.frombuffer(self._mm, dtype=dtype, count=chosen.n_rows, offset=chosen.offset)
            )
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

    def current_generation(self) -> int:
        """The generation of the file *currently* at ``path`` on disk.

        After :func:`repro.store.compaction.compact` atomically swaps a
        merged rewrite over the path, this store keeps serving the old inode
        unchanged; a value greater than :attr:`generation` tells the owner
        (e.g. :meth:`repro.engine.QueryEngine.reopen`) that remapping onto
        the compacted file is worthwhile.
        """
        return run_file_info(self._path).generation

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
        column_nbytes: dict[int, int] = {}
        for sid, parts in self._extents.items():
            if sid in _STRUCTURAL_SIDS:
                # Full snapshots supersede each other; only the latest
                # survives a rewrite.
                column_nbytes[sid] = parts[-1].nbytes
            else:
                column_nbytes[sid] = sum(part.nbytes for part in parts)
        estimate = _estimate_compacted_bytes(column_nbytes)
        if estimate <= 0:
            return 1.0
        return max(1.0, self._header.end_offset / estimate)

    def label(self, uid: int):
        """Materialise the :class:`~repro.core.labels.DataLabel` of one item."""
        return self._store.label(uid)

    def row(self, uid: int) -> tuple[int, int, int, int]:
        return self._store.row(uid)

    def __len__(self) -> int:
        return len(self._store)

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
