"""Checkpoints: append the rows a live run grew past its file's watermarks.

:func:`checkpoint_run` writes (or extends) a run file
(:mod:`repro.store.runfile` describes the bytes).  The arenas are
append-only, so a checkpoint *plans* one new segment holding exactly the
delta rows of every :data:`~repro.store.runfile.SCHEMA` column — never
rewriting an existing page — and then *commits* it data first, header last,
with an fsync barrier in between; :func:`checkpoint_batch` groups those
barriers across several runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from itertools import islice

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
    write_segment,
)

__all__ = ["CheckpointResult", "checkpoint_run", "checkpoint_batch"]


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


@dataclass
class _PendingCheckpoint:
    """One planned checkpoint: validated delta sections, not yet on disk."""

    file_path: str
    created: bool
    #: The header on disk (a fresh one for a file about to be created).
    header: Header
    #: The header after this checkpoint, bar the segment count and chain end
    #: the commit fills in.  Identity fields are snapshotted at plan time (an
    #: empty file may legitimately change density/base before its first rows
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
    if not isinstance(store, LabelStore):
        raise SerializationError(
            "checkpoint_run requires a columnar LabelStore (the object "
            "representation has no columns to persist)"
        )
    if isinstance(store, MappedLabelStore):
        raise SerializationError("mapped run stores are read-only; nothing to checkpoint")
    file_path = os.fspath(path)
    table = store.table
    has_nodes = node_table is not None

    created = not os.path.exists(file_path)
    if created:
        header = Header(dense=store.is_dense, has_nodes=has_nodes, fingerprint=fingerprint)
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
        base_uid=store.base_uid if store.is_dense else 0,
        fingerprint=header.fingerprint or fingerprint,
        dense=store.is_dense,
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
    if not store.is_dense:
        sources.append(lambda start, stop: list(islice(store.uids(), start, stop)))
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


class _StagedCheckpoint:
    """Mutable per-job commit state (handle, new header, rollback tracking)."""

    __slots__ = ("pending", "handle", "new_header", "bytes_written", "header_written")

    def __init__(self, pending: _PendingCheckpoint) -> None:
        self.pending = pending
        self.handle = None
        self.new_header: Header | None = None
        self.bytes_written = 0
        self.header_written = False


def _commit_checkpoints(pendings: list[_PendingCheckpoint]) -> list[CheckpointResult]:
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
                    entry.bytes_written = HEADER_SIZE
                    entry.header_written = True
                continue
            end_offset = write_segment(entry.handle, pending.header.end_offset, pending.sections)
            entry.handle.flush()
            entry.new_header = replace(
                pending.advanced,
                n_segments=pending.header.n_segments + 1,
                end_offset=end_offset,
            )
            entry.bytes_written = PAGE_SIZE + sum(len(s[-1]) for s in pending.sections)
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
    results = []
    for entry in staged:
        header, advanced = entry.pending.header, entry.pending.advanced
        result = CheckpointResult(
            path=entry.pending.file_path,
            created=entry.pending.created,
            delta_paths=advanced.n_paths - header.n_paths,
            delta_items=advanced.n_items - header.n_items,
            delta_nodes=advanced.n_nodes - header.n_nodes,
            bytes_written=entry.bytes_written,
        )
        results.append(result)
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

    Every section's CRC32 is stamped into the segment table; readers verify
    it at attach or before the first column is served.
    """
    return _commit_checkpoints([_plan_checkpoint(path, store, node_table, fingerprint)])[0]


def checkpoint_batch(jobs, *, fingerprint: int = 0) -> list[CheckpointResult]:
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
        _plan_checkpoint(path, store, node_table, fingerprint)
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
    return _commit_checkpoints(pendings)
