"""The run-file format, written down once.

A labelled run is a handful of append-only integer columns (path-table trie,
label rows, node rows) plus two small string intern lists; its at-rest form
is designed to be *mapped*, not parsed:

* one fixed **header** page — magic, version, flags and the append-only
  ``(n_paths, n_items, n_nodes, n_node_uids, n_module_names)`` watermarks,
  the segment count and chain end, the specification fingerprint and the
  rewrite generation;
* a chain of **segments**, one per checkpoint: a section-table page (one
  entry and one CRC32 per section) followed by one page-aligned payload
  extent per column, covering exactly the rows appended since the previous
  checkpoint.

Which columns exist, what they hold and how they grow is the :data:`SCHEMA`
table; the checkpoint planner (:mod:`repro.store.checkpoint`), the mapped
reader (:mod:`repro.store.mapped`) and compaction
(:mod:`repro.store.compaction`) all iterate it instead of naming columns.
This module owns every byte-level decision — the header codec, the one
segment encoder (:func:`write_segment`), the one chain decoder
(:func:`read_chain`), the extent checksum and the compacted-size estimate —
and is the only store module that touches ``struct`` or ``zlib``.

The derived ``child_count`` node column is not persisted (it mutates in
place); the mapped reader recomputes it with one vectorised ``bincount`` on
first use.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from repro import faults
from repro.errors import CorruptionError, SerializationError
from repro.obs import events as obs_events

__all__ = [
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
    "PAGE_SIZE",
    "HEADER_SIZE",
    "I32",
    "I64",
    "BLOB",
    "SCHEMA",
    "LEGACY_INTERVALS",
    "Column",
    "Header",
    "Extent",
    "section_name",
    "in_schema",
    "encode_rows",
    "decode_blob",
    "merge_payloads",
    "view_rows",
    "write_segment",
    "read_chain",
    "check_extent",
    "compacted_bytes",
]

FORMAT_MAGIC = b"FVLRUN01"
#: The one readable (and written) layout: generation-carrying header, ``SEG2``
#: segments with a CRC32 per section.  Files of earlier versions are refused;
#: rewrite them with a checkout that still wrote them (see the README).
FORMAT_VERSION = 3
PAGE_SIZE = 4096

#: header: magic, version, page_size, flags, n_segments, n_paths, n_items,
#: n_nodes, n_node_uids, n_module_names, base_uid, end_offset, fingerprint,
#: generation
_HEADER = struct.Struct("<8sIIIQQQQQQqQQQ")
HEADER_SIZE = _HEADER.size
_SEGMENT = struct.Struct("<4sIQ")  # magic, n_sections, segment_end
_SECTION = struct.Struct("<IIQQQQ")  # id, dtype, row_start, n_rows, offset, nbytes
#: The section entries are followed by ``n_sections`` little-endian u32
#: CRC32s, one per payload extent, in entry order.
_CRC = struct.Struct("<I")
_SEGMENT_MAGIC = b"SEG2"

_FLAG_DENSE = 1
_FLAG_NODES = 2

I32, I64, BLOB = 0, 1, 2  # on-disk dtype codes
_NP_DTYPES = {I32: np.dtype("<i4"), I64: np.dtype("<i8")}
_TYPECODES = {I32: "i", I64: "q"}


class Column(NamedTuple):
    """One row of :data:`SCHEMA`: a persisted column of the run."""

    sid: int
    #: ``<table>.<column>``; the name checksum failures and manifests report.
    name: str
    #: The :class:`Header` watermark that counts this column's rows.
    family: str
    dtype: int

    @property
    def numpy_dtype(self) -> np.dtype:
        return _NP_DTYPES[self.dtype]


#: Every section a checkpoint writes, in section-id order; each segment holds
#: the rows its columns gained since the previous checkpoint.  Within one
#: table the rows follow that table's ``raw_columns()`` order, which is also
#: the positional order of its ``Mapped*`` constructor.  Path columns include
#: the root row so a mapped view is indexable by path id with no prepend
#: copy; ``label.uids`` exists only in sparse (non-dense) files and the
#: ``node.*`` columns only in files checkpointed with a node table.
SCHEMA = (
    Column(1, "path.parent", "n_paths", I32),
    Column(2, "path.packed", "n_paths", I64),
    Column(3, "path.c", "n_paths", I32),
    Column(10, "label.producer_path", "n_items", I32),
    Column(11, "label.producer_port", "n_items", I32),
    Column(12, "label.consumer_path", "n_items", I32),
    Column(13, "label.consumer_port", "n_items", I32),
    Column(14, "label.uids", "n_items", I64),
    Column(20, "node.parent", "n_nodes", I32),
    Column(21, "node.path_id", "n_nodes", I32),
    Column(22, "node.meta", "n_nodes", I64),
    Column(23, "node.uid_id", "n_nodes", I32),
    Column(24, "node.uids", "n_node_uids", BLOB),
    Column(25, "node.module_names", "n_module_names", BLOB),
)
#: Sections only files of earlier builds carry: the parse tree's interval
#: columns, every extent a whole snapshot (``row_start == 0``) of the node
#: rows persisted so far.  Nothing is served from them and nothing writes
#: them; such a file still attaches, the extents are scrubbed like any other,
#: and compaction leaves them behind.
LEGACY_INTERVALS = (
    Column(26, "node.pre", "n_nodes", I64),
    Column(27, "node.post", "n_nodes", I64),
    Column(28, "node.level", "n_nodes", I64),
)
_SCHEMA_SIDS = frozenset(column.sid for column in SCHEMA)
_NAMES = {column.sid: column.name for column in SCHEMA + LEGACY_INTERVALS}
# A segment carries each column at most once, so its table always fits.
assert _SEGMENT.size + len(SCHEMA) * (_SECTION.size + _CRC.size) <= PAGE_SIZE


def section_name(sid: int) -> str:
    return _NAMES.get(sid, f"section#{sid}")


def in_schema(sid: int) -> bool:
    """Whether a compacted rewrite keeps section ``sid`` (else it is left behind)."""
    return sid in _SCHEMA_SIDS


def _align(offset: int) -> int:
    return (offset + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE


# ---------------------------------------------------------------------------
# header
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Header:
    # The ten counters are declared in on-disk order (see ``_HEADER``); the
    # two trailing booleans are the bits of the flags word.
    n_segments: int = 0
    n_paths: int = 0
    n_items: int = 0
    n_nodes: int = 0
    n_node_uids: int = 0
    n_module_names: int = 0
    base_uid: int = 0
    end_offset: int = PAGE_SIZE
    #: Caller-supplied specification identity (0 = unchecked).  The engine
    #: passes a structural grammar fingerprint so a run file can never be
    #: attached to a different specification and silently decode garbage.
    fingerprint: int = 0
    #: Rewrite generation of the file.  Incremental checkpoints never change
    #: it; :func:`repro.store.compaction.compact` bumps it when it swaps the
    #: merged single-extent rewrite over the path, which is how live mapped
    #: readers detect that they should remap onto the compacted file.
    generation: int = 0
    dense: bool = True
    has_nodes: bool = False

    def carries(self, column: Column) -> bool:
        """Whether a file with these flags has ``column`` at all."""
        if column.name == "label.uids":
            return not self.dense
        return self.has_nodes or not column.name.startswith("node.")

    def pack(self) -> bytes:
        *counters, dense, has_nodes = astuple(self)
        flags = (_FLAG_DENSE if dense else 0) | (_FLAG_NODES if has_nodes else 0)
        return _HEADER.pack(FORMAT_MAGIC, FORMAT_VERSION, PAGE_SIZE, flags, *counters)

    @classmethod
    def unpack(cls, buffer: bytes) -> "Header":
        if len(buffer) < HEADER_SIZE:
            raise SerializationError("truncated run store: missing header")
        magic, version, page_size, flags, *counters = _HEADER.unpack_from(buffer)
        if magic != FORMAT_MAGIC:
            raise SerializationError(f"not a run store (bad magic {magic!r})")
        if version != FORMAT_VERSION:
            raise SerializationError(
                f"unsupported run-store version {version} (this build reads "
                f"and writes version {FORMAT_VERSION} only)"
            )
        if page_size != PAGE_SIZE:
            raise SerializationError(f"unsupported page size {page_size}")
        return cls(
            *counters,
            dense=bool(flags & _FLAG_DENSE),
            has_nodes=bool(flags & _FLAG_NODES),
        )


# ---------------------------------------------------------------------------
# segments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Extent:
    """One section-table entry: where a run of a column's rows lives."""

    sid: int
    dtype_code: int
    row_start: int
    n_rows: int
    offset: int
    nbytes: int
    #: CRC32 of the payload bytes.
    crc: int


def encode_rows(column: Column, rows) -> bytes:
    """The payload bytes of ``rows`` (ints, or strings for a blob column)."""
    if column.dtype == BLOB:
        for value in rows:
            if not value or "\n" in value:
                # Empty entries are rejected too: a segment whose only entry
                # is "" would serialise to zero bytes and decode to zero
                # entries.
                raise SerializationError(
                    f"{column.name} entry {value!r} must be non-empty and "
                    "newline-free"
                )
        return "\n".join(rows).encode("utf-8")
    if isinstance(rows, np.ndarray):
        return rows.astype(column.numpy_dtype, copy=False).tobytes()
    typecode = _TYPECODES[column.dtype]
    if isinstance(rows, array) and rows.typecode == typecode:
        return rows.tobytes()
    return array(typecode, rows).tobytes()


def decode_blob(raw: bytes) -> list[str]:
    return raw.decode("utf-8").split("\n") if raw else []


def merge_payloads(dtype_code: int, payloads: list[bytes]) -> bytes:
    """The payload of one extent holding the rows of ``payloads`` in order."""
    if dtype_code == BLOB:
        # Blob extents are newline-joined string lists; merging two non-empty
        # lists needs the separator the per-extent encoding leaves out.
        return b"\n".join(chunk for chunk in payloads if chunk)
    return b"".join(payloads)


def view_rows(buffer, column: Column, extent: Extent) -> np.ndarray:
    """A zero-copy numpy view of one extent of an integer column."""
    dtype = column.numpy_dtype
    if extent.dtype_code != column.dtype or extent.nbytes != extent.n_rows * dtype.itemsize:
        raise SerializationError(f"run store column {column.name!r} is malformed")
    return np.frombuffer(buffer, dtype=dtype, count=extent.n_rows, offset=extent.offset)


def write_segment(handle, segment_offset: int, sections) -> int:
    """Write one segment (table page, payload extents, page pad) at an offset.

    The single encoder of the segment layout — incremental checkpoints
    append with it and compaction rewrites with it, so the two writers can
    never drift apart.  ``sections`` are ``(sid, dtype_code, row_start,
    n_rows, payload)`` tuples.  Returns the segment's end offset
    (page-aligned).  Nothing is flushed or fsynced here.
    """
    if _SEGMENT.size + len(sections) * (_SECTION.size + _CRC.size) > PAGE_SIZE:
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
        crcs.append(_CRC.pack(zlib.crc32(payload)))
        payload_chunks.append((data_offset, payload))
        payload_end = data_offset + len(payload)
        data_offset = _align(payload_end)
    end_offset = data_offset
    handle.seek(segment_offset)
    handle.write(_SEGMENT.pack(_SEGMENT_MAGIC, len(sections), end_offset))
    handle.write(b"".join(entries))
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


def read_chain(read, size: int, header: Header) -> dict[int, list[Extent]]:
    """Walk and validate the segment chain: section id -> extents, file order.

    ``read(offset, n)`` returns ``n`` bytes of a file of ``size`` bytes, so
    the mapped reader (slicing its mapping) and the header-only scan
    (``pread`` on a plain descriptor) accept exactly the same files.  Only
    table pages are read; every table, payload extent and segment end is
    bounds-checked against ``size`` and the chain must end on the header's
    ``end_offset``.  Structural damage raises
    :class:`~repro.errors.SerializationError`.
    """
    extents: dict[int, list[Extent]] = {}
    offset = PAGE_SIZE
    for _ in range(header.n_segments):
        if offset + _SEGMENT.size > size:
            raise SerializationError("truncated run store: missing segment header")
        magic, n_sections, segment_end = _SEGMENT.unpack(read(offset, _SEGMENT.size))
        if magic != _SEGMENT_MAGIC:
            raise SerializationError(
                f"corrupt run store: bad segment magic at offset {offset}"
            )
        table_offset = offset + _SEGMENT.size
        crc_offset = n_sections * _SECTION.size
        table_bytes = crc_offset + n_sections * _CRC.size
        if table_offset + table_bytes > size:
            raise SerializationError("truncated run store: section table cut off")
        table = read(table_offset, table_bytes)
        for index in range(n_sections):
            sid, dtype_code, row_start, n_rows, data_offset, nbytes = _SECTION.unpack_from(
                table, index * _SECTION.size
            )
            if data_offset + nbytes > size:
                raise SerializationError("truncated run store: section out of range")
            (crc,) = _CRC.unpack_from(table, crc_offset + index * _CRC.size)
            extents.setdefault(sid, []).append(
                Extent(sid, dtype_code, row_start, n_rows, data_offset, nbytes, crc)
            )
        if segment_end <= offset or segment_end > size:
            raise SerializationError("corrupt run store: bad segment end")
        offset = segment_end
    if offset != header.end_offset:
        raise SerializationError("corrupt run store: segment chain mismatch")
    return extents


def check_extent(file_path: str, extent: Extent, view: memoryview) -> None:
    """CRC-check one payload extent of the file viewed by ``view``.

    A mismatch emits a ``corruption`` event and raises
    :class:`~repro.errors.CorruptionError` naming the section and offset.
    """
    chunk = view[extent.offset : extent.offset + extent.nbytes]
    try:
        actual = zlib.crc32(chunk)
    finally:
        chunk.release()
    if actual != extent.crc:
        name = section_name(extent.sid)
        obs_events.emit(
            "corruption",
            path=file_path,
            section=name,
            offset=extent.offset,
            nbytes=extent.nbytes,
            stored_crc=extent.crc,
            computed_crc=actual,
        )
        raise CorruptionError(
            f"run store {file_path!r}: section {name!r} at offset "
            f"{extent.offset} ({extent.nbytes} bytes) fails its checksum "
            f"(stored {extent.crc:#010x}, computed {actual:#010x})"
        )


def compacted_bytes(extents: dict[int, list[Extent]]) -> int:
    """Size of the one-segment rewrite of a chain with these extents.

    Mirrors :func:`write_segment`'s layout (one header page, one
    section-table page, each schema column's merged extent padded to a
    page).  Blob columns gain a few join separators when merged; the
    estimate ignores them — it guides a compaction *policy*, not an
    allocator.
    """
    total = 2 * PAGE_SIZE  # file header page + the single section-table page
    for sid, parts in extents.items():
        if in_schema(sid):
            total += _align(sum(part.nbytes for part in parts))
    return total
