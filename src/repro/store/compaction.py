"""Offline run-file compaction: merge delta segments, verify, swap, GC.

Incremental checkpoints (:func:`repro.store.checkpoint.checkpoint_run`) append
one segment per interval, so a long-lived streaming run accumulates one data
extent *per column per interval* — every whole-column read then pays the
chain (read amplification), and the section tables grow without bound.
:func:`compact` is the log-structured counterpart: an offline rewrite that

1. reads the segmented file through its mapping and merges every schema
   column's extents into **one** extent (blobs included; sections of older
   builds that are no longer in the schema are left behind), under a header
   whose ``generation`` is bumped by one;
2. **verifies** the merged file bit-identically against the source — every
   label/path/node column, the uid and module-name intern lists and all
   watermarks are compared before the original is touched;
3. atomically swaps the merged file over the original path with
   ``os.replace`` (readers holding the old mapping keep serving the old
   inode until they remap — :meth:`repro.engine.QueryEngine.reopen` does
   that when it sees the new generation) and fsyncs the directory entry;
4. GCs superseded state: the replaced inode carries the old segment chain
   away once the last reader closes, and leftover temporaries of crashed
   compactions are removed.

The caller must ensure no writer appends to the path during the rewrite
(:class:`repro.service.RunLifecycleManager` holds the run's file lock;
purely offline use is naturally exclusive).  Checkpoints may resume on the
compacted file afterwards — watermarks are preserved, so the next delta
simply becomes segment 2 of the new generation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from repro import faults
from repro.errors import SerializationError
from repro.obs import events as obs_events
from repro.store.lockfile import FileLease
from repro.store.mapped import MappedRunStore
from repro.store.runfile import (
    PAGE_SIZE,
    Header,
    fsync_dir,
    in_schema,
    merge_payloads,
    write_segment,
)

__all__ = ["CompactionResult", "compact"]


@dataclass(frozen=True)
class CompactionResult:
    """What one :func:`compact` call did to a run file."""

    path: str
    #: False when there was nothing to merge (0 or 1 segments); the file is
    #: left untouched and the generation unchanged.
    compacted: bool
    #: The generation now current at ``path``.
    generation: int
    segments_before: int
    bytes_before: int
    bytes_after: int
    #: Stale temporaries of crashed earlier compactions that were GC'd.
    removed: tuple[str, ...]

    @property
    def space_amplification(self) -> float:
        """Segmented-file bytes per compacted byte (page padding + dead chain)."""
        return self.bytes_before / self.bytes_after if self.bytes_after else 1.0


def _temp_path(file_path: str, generation: int) -> str:
    return f"{file_path}.compact-g{generation}.tmp"


def _gc_stale_temps(file_path: str) -> list[str]:
    """Remove leftover ``<path>.compact-g*.tmp`` files from crashed rewrites."""
    directory = os.path.dirname(file_path) or "."
    prefix = os.path.basename(file_path) + ".compact-"
    removed = []
    for name in sorted(os.listdir(directory)):
        if name.startswith(prefix) and name.endswith(".tmp"):
            candidate = os.path.join(directory, name)
            os.remove(candidate)
            removed.append(candidate)
    return removed


def _merged_sections(source: MappedRunStore) -> list[tuple[int, int, int, int, bytes]]:
    """One ``(sid, dtype, row_start, n_rows, payload)`` per schema column, extents merged."""
    sections = []
    for _, group in groupby(source.sections(), key=lambda pair: pair[0]):
        parts = [extent for _, extent in group]
        first = parts[0]
        if in_schema(first.sid):
            sections.append(
                (
                    first.sid,
                    first.dtype_code,
                    first.row_start,
                    sum(part.n_rows for part in parts),
                    merge_payloads(first.dtype_code, [source.payload(part) for part in parts]),
                )
            )
    return sections


def _write_merged(tmp_path: str, header: Header, sections) -> None:
    """Write the single-segment rewrite (the swap, not this write, publishes it)."""
    with open(tmp_path, "w+b") as handle:
        end_offset = write_segment(handle, PAGE_SIZE, sections)
        new_header = replace(
            header, n_segments=1, end_offset=end_offset, generation=header.generation + 1
        )
        handle.seek(0)
        handle.write(new_header.pack())
        handle.flush()
        os.fsync(handle.fileno())


def _require_equal(name: str, left, right) -> None:
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        equal = np.array_equal(np.asarray(left), np.asarray(right))
    else:
        equal = left == right
    if not equal:
        raise SerializationError(
            f"compaction verification failed: column {name!r} diverges from "
            "the segmented source"
        )


def _verify_against_source(source: MappedRunStore, merged: MappedRunStore) -> None:
    """Assert the rewrite serves bit-identical columns before the swap."""
    if merged.n_segments != 1:
        raise SerializationError("compacted file must carry exactly one segment")
    for field in ("n_paths", "n_items", "n_nodes", "fingerprint"):
        _require_equal(field, getattr(source, field), getattr(merged, field))
    for name, column in source.table.columns().items():
        _require_equal(f"path.{name}", column, merged.table.columns()[name])
    for name, column in source.store.columns().items():
        _require_equal(f"label.{name}", column, merged.store.columns()[name])
    _require_equal("label.base_uid", source.store.base_uid, merged.store.base_uid)
    _require_equal("nodes.present", source.nodes is None, merged.nodes is None)
    if source.nodes is not None:
        for name, column in source.nodes.columns().items():
            _require_equal(f"node.{name}", column, merged.nodes.columns()[name])
        _require_equal("node.uids", source.nodes.uid_slice(0), merged.nodes.uid_slice(0))
        _require_equal(
            "node.module_names", source.nodes.module_names, merged.nodes.module_names
        )


def compact(path, *, lease: FileLease | None = None) -> CompactionResult:
    """Rewrite a segmented run file into one extent per column, atomically.

    See the module docstring for the full contract.  Returns a
    :class:`CompactionResult`; when the file already has at most one segment
    nothing is rewritten (``compacted=False``) but stale compaction
    temporaries are still GC'd.

    The rewrite runs under the file's cross-process writer lease
    (:class:`~repro.store.lockfile.FileLease`): with ``lease=None`` one is
    acquired for the duration — raising
    :class:`~repro.store.lockfile.LeaseHeldError` if another *process* is
    the writer — while a caller that already holds the lease (the lifecycle
    manager) passes it in and keeps it.  In-process lease sharing means a
    bare ``compact(path)`` still works alongside a manager of the same
    process; serialising those two is the manager's per-file threading lock.
    """
    file_path = os.fspath(path)
    if lease is not None:
        if not lease.held:
            raise SerializationError(
                "compact() was passed a writer lease that is not held"
            )
        if os.path.realpath(lease.path) != os.path.realpath(file_path):
            raise SerializationError(
                f"writer lease guards {lease.path!r}, not {file_path!r}"
            )
        return _compact_locked(file_path)
    with FileLease(file_path):
        return _compact_locked(file_path)


def _compact_locked(file_path: str) -> CompactionResult:
    removed = _gc_stale_temps(file_path)
    source = MappedRunStore(file_path)
    try:
        bytes_before = os.path.getsize(file_path)
        header = source.header
        if header.n_segments <= 1:
            return CompactionResult(
                path=file_path,
                compacted=False,
                generation=header.generation,
                segments_before=header.n_segments,
                bytes_before=bytes_before,
                bytes_after=bytes_before,
                removed=tuple(removed),
            )
        # A corrupt source is never rewritten under fresh checksums: the
        # scrub runs before the first payload byte is read.
        source.verify()
        tmp_path = _temp_path(file_path, header.generation + 1)
        _write_merged(tmp_path, header, _merged_sections(source))
        try:
            merged = MappedRunStore(tmp_path)
            try:
                _verify_against_source(source, merged)
            finally:
                merged.close()
        except Exception:
            try:
                os.remove(tmp_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise
        # The swap is the commit point: the tmp file is fully fsynced, so
        # after the (atomic) rename either the old or the new generation is
        # at the path — never a mix.  Readers mapping the old inode are
        # unaffected until they reopen.  A crash here (the injectable
        # ``compact.swap`` fault) leaves the tmp file behind for the next
        # call's GC and the source untouched.
        faults.hit("compact.swap")
        os.replace(tmp_path, file_path)
        fsync_dir(os.path.dirname(file_path))
        bytes_after = os.path.getsize(file_path)
        obs_events.emit(
            "compaction",
            path=file_path,
            generation=header.generation + 1,
            segments_before=header.n_segments,
            bytes_before=bytes_before,
            bytes_after=bytes_after,
        )
        return CompactionResult(
            path=file_path,
            compacted=True,
            generation=header.generation + 1,
            segments_before=header.n_segments,
            bytes_before=bytes_before,
            bytes_after=bytes_after,
            removed=tuple(removed),
        )
    finally:
        source.close()
