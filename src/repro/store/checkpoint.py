"""Checkpoints: append the rows a live run grew past its file's watermarks.

:func:`checkpoint_run` writes (or extends) a run file
(:mod:`repro.store.runfile` describes the bytes).  The arenas are
append-only, so a checkpoint *plans* one new segment holding exactly the
delta rows of every :data:`~repro.store.runfile.SCHEMA` column — never
rewriting an existing page — and then *commits* it data first, header last,
with an fsync barrier in between.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro import faults
from repro.errors import SerializationError
from repro.obs import events as obs_events
from repro.store.label_store import LabelStore
from repro.store.mapped import MappedLabelStore
from repro.store.node_table import NodeTable
from repro.store.runfile import (
    HEADER_SIZE,
    PAGE_SIZE,
    SCHEMA,
    Header,
    encode_rows,
    fsync_dir,
    write_segment,
)

__all__ = ["CheckpointResult", "checkpoint_run"]


@dataclass(frozen=True)
class CheckpointResult:
    """What one :func:`checkpoint_run` call actually wrote."""

    path: str
    created: bool
    delta_paths: int
    delta_items: int
    delta_nodes: int
    bytes_written: int
    #: The header's row totals after this call: the next one's watermarks.
    n_paths: int
    n_items: int
    n_nodes: int

    @property
    def wrote_segment(self) -> bool:
        return self.bytes_written > 0


@dataclass
class _PendingCheckpoint:
    """One planned checkpoint: validated delta sections, not yet on disk."""

    file_path: str
    created: bool
    #: The header on disk (a fresh one for a file about to be created).
    header: Header
    #: The header after this checkpoint, bar the segment count and chain end
    #: the commit fills in.  Identity fields are snapshotted at plan time (an
    #: empty file may legitimately change its base before its first rows
    #: land).
    advanced: Header
    sections: list[tuple[int, int, int, int, bytes]]


def _sliced(sequence):
    # Slices are bounded by the snapshotted counts, never open-ended: rows a
    # concurrent ingest appends after the snapshot belong to the next delta.
    return lambda start, stop: sequence[start:stop]


def _plan_checkpoint(
    path, store: LabelStore, node_table: NodeTable | None, fingerprint: int
) -> _PendingCheckpoint:
    """Snapshot, validate and assemble one run's delta sections (no writes)."""
    if isinstance(store, MappedLabelStore):
        raise SerializationError("mapped run stores are read-only; nothing to checkpoint")
    file_path = os.fspath(path)
    table = store.table
    has_nodes = node_table is not None

    created = not os.path.exists(file_path)
    if created:
        header = Header(has_nodes=has_nodes, fingerprint=fingerprint)
    else:
        # The header only: a resuming checkpoint never walks the chain.
        with open(file_path, "rb") as handle:
            header = Header.unpack(handle.read(HEADER_SIZE))
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
    n_items = min(len(column) for column in store.raw_columns())
    n_nodes = n_uids = n_names = 0
    if has_nodes:
        node_columns = node_table.raw_columns()
        n_nodes = min(len(column) for column in node_columns)
        n_uids = node_table.n_uids
        # A module row appends its uid-intern reference just before the uid
        # itself; drop trailing rows whose uid is not interned yet.
        uid_ids = node_columns[3]
        while n_nodes > header.n_nodes and uid_ids[n_nodes - 1] >= n_uids:
            n_nodes -= 1
        n_names = len(node_table.module_names)
    n_paths = min(len(column) for column in table.raw_columns())

    if header.n_segments > 0:
        if has_nodes != header.has_nodes:
            raise SerializationError(
                "run file and checkpoint disagree on whether node rows are "
                "persisted; pass the same node_table (or None) every time"
            )
        if header.n_items > 0 and store.base_uid != header.base_uid:
            raise SerializationError(
                f"base uid changed ({header.base_uid} -> {store.base_uid}); "
                "this is a different run"
            )
    if n_nodes == header.n_nodes:
        # The uid/name intern lists are persisted with the node rows that
        # reference them: no new rows, no new entries.
        n_uids, n_names = header.n_node_uids, header.n_module_names
    advanced = replace(
        header,
        n_paths=n_paths,
        n_items=n_items,
        n_nodes=n_nodes,
        n_node_uids=n_uids,
        n_module_names=n_names,
        base_uid=store.base_uid,
        fingerprint=header.fingerprint or fingerprint,
        has_nodes=has_nodes,
    )
    for family in ("n_paths", "n_items", "n_nodes", "n_node_uids", "n_module_names"):
        now, watermark = getattr(advanced, family), getattr(header, family)
        if now < watermark:
            raise SerializationError(
                f"run has fewer {family[2:]} ({now}) than the file watermark "
                f"({watermark}); this is not the persisted run"
            )

    # One live source per schema column this run carries, in schema order;
    # each yields the column's rows ``[start, stop)``.
    sources = [_sliced(column) for column in table.raw_columns() + store.raw_columns()]
    if has_nodes:
        sources += [_sliced(column) for column in node_columns]
        sources.append(lambda start, stop: node_table.uid_slice(start)[: stop - start])
        sources.append(_sliced(node_table.module_names))

    # Assemble the delta sections: (id, dtype, row_start, n_rows, payload).
    sections = []
    carried = (column for column in SCHEMA if advanced.carries(column))
    for column, rows in zip(carried, sources):
        start, stop = getattr(header, column.family), getattr(advanced, column.family)
        if stop > start:
            payload = encode_rows(column, rows(start, stop))
            sections.append((column.sid, column.dtype, start, stop - start, payload))
    return _PendingCheckpoint(file_path, created, header, advanced, sections)


def _fsync(handle) -> None:
    faults.hit("persist.fsync")
    os.fsync(handle.fileno())


def _commit_checkpoint(pending: _PendingCheckpoint) -> CheckpointResult:
    """Write one planned segment: data, fsync, header, fsync.

    The advanced header is written only after the segment data is fsynced,
    so a crash leaves the previous header — the previous watermark — over
    durable data, and a failed header fsync writes the previous header back
    before it raises.  A file this call creates is removed if the commit fails:
    a headerless run file would otherwise poison every later checkpoint of
    the run.  Once a created file's header is durable its directory is
    fsynced too, so the new entry survives a crash.  A pre-existing file
    keeps its old header on failure, exactly as after a crash.
    """
    header, advanced = pending.header, pending.advanced
    bytes_written = 0
    if pending.sections or pending.created:
        try:
            with open(pending.file_path, "w+b" if pending.created else "r+b") as handle:
                if pending.sections:
                    end_offset = write_segment(handle, header.end_offset, pending.sections)
                    handle.flush()
                    _fsync(handle)
                    committed = replace(
                        advanced, n_segments=header.n_segments + 1, end_offset=end_offset
                    )
                    bytes_written = PAGE_SIZE + sum(len(s[-1]) for s in pending.sections)
                else:
                    # An empty run: the header page alone.
                    handle.seek(PAGE_SIZE - 1)
                    handle.write(b"\0")
                    committed = header
                    bytes_written = HEADER_SIZE
                handle.seek(0)
                handle.write(committed.pack())
                handle.flush()
                try:
                    _fsync(handle)
                except BaseException:
                    # The advanced header may sit in the page cache: put the
                    # durable one back, so a retry re-plans the delta from
                    # the old watermark instead of finding nothing to write.
                    handle.seek(0)
                    handle.write(header.pack())
                    handle.flush()
                    raise
        except BaseException:
            if pending.created:
                try:
                    os.remove(pending.file_path)
                except OSError:
                    pass
            raise
        if pending.created:
            fsync_dir(os.path.dirname(pending.file_path))
    result = CheckpointResult(
        path=pending.file_path,
        created=pending.created,
        delta_paths=advanced.n_paths - header.n_paths,
        delta_items=advanced.n_items - header.n_items,
        delta_nodes=advanced.n_nodes - header.n_nodes,
        bytes_written=bytes_written,
        n_paths=advanced.n_paths,
        n_items=advanced.n_items,
        n_nodes=advanced.n_nodes,
    )
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
    return result


def checkpoint_run(
    path,
    store: LabelStore,
    node_table: NodeTable | None = None,
    *,
    fingerprint: int = 0,
) -> CheckpointResult:
    """Write (or incrementally extend) the persistent form of a labelled run.

    On a fresh ``path`` the whole run is written; on an existing run file the
    header watermarks are compared against the live arenas and **only the
    delta rows** appended since the last checkpoint are written, as one new
    segment.  The store (and the node table, when given) must be the same
    growing run the file was created from — shrinking counts, a changed
    base uid or a changed ``fingerprint`` are rejected rather than guessed
    at.

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

    Every section's CRC32 is stamped into the segment table; readers verify
    it at attach or before the first column is served.
    """
    return _commit_checkpoint(_plan_checkpoint(path, store, node_table, fingerprint))

