"""Persistent hot-pair matrix cache: warm starts for fresh serving processes.

The engine's per-view :class:`~repro.engine.cache.DecodedViewState` turns
repeated ``(producer path, consumer path)`` reachability questions into
probes of a sorted pair table — but the table is process-private, so every
fresh process (a restarted server, a follower attaching a leader's run file)
pays the cold decode for exactly the keys the previous process already
decided.

This module persists the decided rows *alongside the run file*
(``<run-file>.hotmx``) as what they are in memory — the columns of a
:class:`~repro.core.pair_table.PairTable`, not a second representation:

* :func:`save_hot_matrices` ranks every row of a shard's pair tables — matrix,
  no-dependency, verdict and boundary rows alike — by the engine's per-row
  hit count, ties broken by decision order (the first keys a process decided
  are the ones its successor asks first), keeps every row whose path ids
  fall inside the file's persisted watermark (a boundary row's ``ABSENT``
  side names no path) — or the ``max_entries`` hottest, if asked — and
  writes each view's share as one :meth:`PairTable.take` (atomic replace).
  There is no default row cap: the engine's ``state_budget_bytes`` already
  bounds what the tables hold, and so what a file holds and what a save
  allocates (``take`` copies the matrix rows' blocks and nothing per
  sentinel row);
* :func:`load_hot_matrices` walks the section headers first, then copies
  each column out once for every section it keeps and checks the whole
  file in one pass — a pass or two over a column each, per-section
  meanings kept (keys ascend within a section, ranks permute a section's
  rows, a section's sentinels leave its count of matrices), the blocks'
  padding one line of every block of the file at a time — so a file of
  many small sections costs about what one section of all their rows
  would.  Each view's table is cut out of the checked columns and merged
  with one :meth:`DecodedViewState.admit` — so the saver's ranking becomes
  the rows' decision order, rows the engine already decided are never
  clobbered, the byte budget holds (where it bites, the best-ranked rows
  are admitted first), and the carried-over hit counts let a follower that
  loads and re-saves keep the hot set instead of ranking it at zero.

Layout (format v5, little-endian; the per-entry v1/v2 files, the v3 files
of decoder rows alone and the v4 files, whose sections named a label
materialisation beside the view, are refused by their version and the attach proceeds cold)::

    file header   magic, version, grammar fingerprint, run-file generation,
                  n_paths watermark, body bytes, CRC32 of the body
    per section   name bytes, view fingerprint, rows n, ports, matrices m;
                  the view name (UTF-8); then
      keys   n x i8   producer path << 32 | consumer path, strictly ascending
                      (ABSENT on a boundary row's missing side)
      rows   n x i4   the matrix's real shape inside its ports x ports block;
      cols   n x i4   (0, 0) on a sentinel row
      off    n x i1   0 (a matrix; the k-th such row owns block k) |
                      NO_DEPENDENCY | VERDICT_FALSE | VERDICT_TRUE
      hits   n x i8
      order  n x i4   the row's rank in the saver's ranking
      pool            np.packbits of the m zero-padded blocks

Safety: the file is tagged with the grammar fingerprint, the run file's
generation and its ``n_paths`` watermark.  Path ids are immutable once
interned (the trie is append-only and compaction preserves rows
bit-identically), so rows stay valid across later checkpoints and
compactions of the *same* run; a cache from a different specification (a
fingerprint of 0 included: no saver writes one, and the header is outside
the checksum), from a *newer* generation than the file at the path, or
referencing unknown path ids is rejected loudly
(:class:`~repro.errors.SerializationError`).  Views are matched by name
**and** a structural fingerprint — a same-named view with different visible
composites or perceived dependencies never receives foreign rows.  Damage is
a :class:`~repro.errors.CorruptionError`: a cut file, a body that fails its
checksum, and — because the decode kernel trusts what the table holds —
columns no saver writes: keys out of order, an id at or beyond the mapped
trie other than ``ABSENT``, a shape beyond ``ports``, an ``off`` outside its
four values, a sentinel row with a shape, a boundary row that is no matrix
(its ports are read against its shape), ranks that are no permutation, a
matrix count the sentinels contradict, a set bit in a block's padding.  A
load admits a valid file's sections, or nothing.

An admitted section also proves its view safe.  A saver only holds states
of views that are proven — labelled, which is where an unsafe view raises,
or proven in turn by a section — and the file passed its checksum and both
fingerprints.  So the loader makes the view's state without labelling it
and without its decode bank: the bank is built by the first kernel pass,
for a key the file did not hold, and the label by the first batch that
reads it, that pass or visibility flags.  A view no admitted section names
(or whose fingerprint differs) is labelled by its first query, as any
unproven view is.  Grammar fingerprints render the specification's
wiring (see :func:`~repro.engine.grammar_fingerprint`), so a side file saved
before they did is refused as a foreign specification.

A fresh process therefore answers the keys its predecessor decided from
rows, without a kernel pass: on the benchmark's ``multiview_churn`` (seed
42) the file holds all 2,686 of the serving stack's rows — 879 matrix, 1,655
verdict and 152 boundary rows, 78.5 KiB where the matrix rows alone were
27.0 KiB — and none of the nine warm-up frames after a warm attach runs the
kernel, where under v3 each of them did, and none of the nine views is
labelled or builds a bank.  On ``wire_large_recursive`` it holds all
14,060 rows (6,872 matrix, 7,175 verdict, 13 boundary; 411.7 KiB), which a
4,096-row cap used to cut to 119.9 KiB, leaving one kernel pass of 124
keys and a label in every warm-up; loading all of them costs less than
that pass did.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from repro.core.pair_table import (
    ABSENT,
    VERDICT_TRUE,
    PairTable,
    pair_paths,
)
from repro.engine.engine import DEFAULT_RUN, QueryEngine, grammar_fingerprint
from repro.errors import CorruptionError, LabelingError, SerializationError
from repro.model.views import WorkflowView
from repro.obs.metrics import Tally
from repro.store import run_file_info

__all__ = [
    "CACHE_MAGIC",
    "CACHE_VERSION",
    "matrix_cache_path",
    "view_fingerprint",
    "save_hot_matrices",
    "load_hot_matrices",
]

CACHE_MAGIC = b"FVLHOTMX"
#: Version 5 is columnar, holds rows of every kind and keys a section by view
#: alone (see the module docstring); files of versions 1 and 2 (one packed
#: entry per matrix), 3 (matrix and no-dependency rows only) and 4 (a label
#: materialisation per section) are refused by their version and the attach proceeds
#: cold.
CACHE_VERSION = 5

# magic, version, fingerprint, generation, n_paths, body bytes, body CRC32
_FILE_HEADER = struct.Struct("<8sIQQQQI")
_STATE_HEADER = struct.Struct("<HQIII")  # name_len, view_fp, rows, ports, matrices
#: A section's per-row columns in file order, by their :class:`PairTable` name.
_COLUMNS = (
    ("keys", "<i8"),
    ("rows", "<i4"),
    ("cols", "<i4"),
    ("off", "<i1"),
    ("hits", "<i8"),
    ("order", "<i4"),
)
_ROW_NBYTES = sum(np.dtype(dtype).itemsize for _, dtype in _COLUMNS)


def matrix_cache_path(run_file) -> str:
    """Where the hot-matrix cache of a run file lives (beside it)."""
    return os.fspath(run_file) + ".hotmx"


def view_fingerprint(view: WorkflowView) -> int:
    """A stable structural fingerprint of a view (nonzero 32-bit int).

    Built from the visible composites and the perceived dependency pairs in
    canonical order — not from Python's salted ``hash`` — so two processes
    agree on it.  The name is deliberately excluded: the cache already keys
    sections by name, and the fingerprint guards against *different* views
    sharing one.
    """
    if view.fingerprint is None:
        parts = [",".join(sorted(view.visible_composites))]
        dependencies = view.dependencies.as_dict()
        for name in sorted(dependencies):
            pairs = ";".join(f"{i}>{o}" for i, o in sorted(dependencies[name]))
            parts.append(f"{name}:{pairs}")
        view.fingerprint = zlib.crc32("|".join(parts).encode("utf-8")) or 1
    return view.fingerprint


def save_hot_matrices(
    engine: QueryEngine,
    run_id: str = DEFAULT_RUN,
    *,
    run_file=None,
    cache_path=None,
    max_entries: "int | None" = None,
) -> int:
    """Persist the shard's pair-table rows, ranked hottest first, beside its run file.

    ``run_id`` may name an attached shard (its mapped file is the default
    ``run_file``) or a labelled shard that has been checkpointed — labelled
    shards intern into the engine's shared arena, which is exactly the trie
    :func:`~repro.store.checkpoint_run` persists, so their rows use the same
    path ids the file carries.  Only rows whose path ids lie inside the
    file's persisted ``n_paths`` watermark are written: all of them by
    default, the ``max_entries`` hottest if it is given.  What the tables
    hold is bounded already, by the engine's ``state_budget_bytes``.
    Returns the number of rows persisted, of every kind (a cache file is
    written even for zero — an honest "nothing was hot").
    """
    if max_entries is not None and max_entries < 1:
        raise ValueError("max_entries must be at least 1")
    mapped = engine.mapped_store(run_id)
    if run_file is None:
        if mapped is None:
            raise LabelingError(
                f"run {run_id!r} is a labelled shard; pass run_file= (its "
                "checkpoint target) to locate the matrix cache"
            )
        run_file = mapped.path
    run_file = os.fspath(run_file)
    info = run_file_info(run_file)
    arena = engine.shard_arena(run_id)

    # Candidates: every row of every state inside the file's watermark (ids
    # interned after the last checkpoint are not in the file; a boundary
    # row's ABSENT side is no id), each state's in decision order, off one
    # immutable table snapshot — workers may decide new keys while a live
    # server saves.
    candidates = []
    for view_name, state in engine.decoded_states().items():
        table = state.table(arena)
        at = np.nonzero(_inside(table.keys, info.n_paths))[0]
        at = at[np.argsort(table.order[at], kind="stable")]
        candidates.append((view_name, table, at))
    sizes = [at.size for *_, at in candidates]
    hits = np.concatenate([table.hits[at] for *_, table, at in candidates] + [np.empty(0, np.int64)])
    # Hottest first; the sort is stable, so equal hit counts rank by who was
    # decided first.  Only the rows that made the cut (all, by default) are
    # materialised.
    hottest = np.argsort(-hits, kind="stable")[:max_entries]
    owner = np.repeat(np.arange(len(candidates)), sizes)[hottest]
    first = np.cumsum(sizes) - sizes
    body = []
    for section in dict.fromkeys(owner.tolist()):
        view_name, table, at = candidates[section]
        chosen = at[hottest[owner == section] - first[section]]
        # The section is the sub-table of the chosen rows, which is sorted by
        # key; where each row stood in the ranking is a column of the file.
        rank = np.argsort(chosen)
        sub = table.take(chosen[rank])
        name = view_name.encode("utf-8")
        fingerprint = view_fingerprint(engine.view(view_name))
        matrices = np.count_nonzero(sub.off >= 0)
        body.append(_STATE_HEADER.pack(len(name), fingerprint, len(sub), sub.ports, matrices))
        body.append(name)
        columns = (sub.keys, sub.rows, sub.cols, np.minimum(sub.off, 0), sub.hits, rank)
        body.extend(column.astype(dtype).tobytes() for column, (_, dtype) in zip(columns, _COLUMNS))
        body.append(np.packbits(sub.pool).tobytes())
    body = b"".join(body)
    tags = grammar_fingerprint(engine.scheme.index), info.generation, info.n_paths
    header = _FILE_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, *tags, len(body), zlib.crc32(body))

    target = matrix_cache_path(run_file) if cache_path is None else os.fspath(cache_path)
    tmp = f"{target}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(header + body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    return int(hottest.size)


def load_hot_matrices(engine: QueryEngine, run_id: str = DEFAULT_RUN, *, cache_path=None) -> int:
    """Seed an attached shard's pair tables from its persistent matrix cache.

    Missing cache file -> ``0`` (warm starts are best-effort); an unreadable
    one (a directory in its place, no permission), a cache of another format
    version, from a different specification, a newer
    generation than the mapped file, or with ids beyond the file's trie is
    rejected with :class:`~repro.errors.SerializationError`, a damaged one
    with its subclass :class:`~repro.errors.CorruptionError`.  Sections for
    views the engine has not registered (or whose structure diverged — see
    :func:`view_fingerprint`) are skipped, not guessed at.  Rows never
    clobber rows the engine already decided.  A view an admitted section
    names is proven safe, and its state is made without a label (see the
    module docstring).  Returns the number of rows seeded.
    """
    mapped = engine.mapped_store(run_id)
    if mapped is None:
        raise LabelingError(
            f"run {run_id!r} is not an attached mapped shard; the matrix "
            "cache warms processes that attach a persisted run"
        )
    target = matrix_cache_path(mapped.path) if cache_path is None else os.fspath(cache_path)
    try:
        with open(target, "rb") as handle:
            buffer = handle.read()
    except FileNotFoundError:
        return 0
    except OSError as exc:
        # A directory or an unreadable file in its place: refused like a stale
        # cache, so the warm attach proceeds cold instead of raising past it.
        raise SerializationError(f"unreadable matrix cache {target!r}: {exc}") from exc
    try:
        return _load_from(buffer, target, engine, run_id, mapped)
    except SerializationError:
        raise
    except (ValueError, UnicodeDecodeError, OverflowError, struct.error) as exc:
        # However a hostile header makes numpy or struct fail, callers are promised
        # one shape: a SerializationError, which the server's warm attach swallows.
        raise CorruptionError(f"corrupt matrix cache {target!r}: {exc}") from exc


def _load_from(buffer: bytes, path: str, engine: QueryEngine, run_id: str, mapped) -> int:
    truncated = CorruptionError(f"truncated matrix cache {path!r}")
    # Every version starts alike, and the older ones' headers are shorter.
    magic, version = buffer[:8], int.from_bytes(buffer[8:12], "little")
    if magic != CACHE_MAGIC:
        raise CorruptionError(f"not a matrix cache (bad magic {magic!r})")
    if version != CACHE_VERSION:
        raise SerializationError(f"unsupported matrix-cache version {version}")
    if len(buffer) < _FILE_HEADER.size:
        raise truncated
    _, _, fingerprint, generation, n_paths, body_nbytes, crc = _FILE_HEADER.unpack_from(buffer)
    # No saver writes 0 (the fingerprint is ``crc or 1``), and the header is
    # outside the checksum: a 0 is refused like a foreign specification.
    if fingerprint != grammar_fingerprint(engine.scheme.index):
        raise SerializationError(
            "matrix cache was saved under a different specification; its "
            "matrices would answer the wrong grammar"
        )
    if generation > mapped.generation:
        raise SerializationError(
            f"matrix cache generation {generation} is newer than the mapped "
            f"run file (generation {mapped.generation}); this mapping is not "
            "the file the cache was saved against"
        )
    if n_paths > mapped.n_paths:
        raise SerializationError(
            "matrix cache references paths beyond the mapped file's trie; "
            "this is not a cache of the attached run"
        )
    # A cut file says so; anything else that is not what was written fails here.
    body = memoryview(buffer)[_FILE_HEADER.size :]
    if len(body) < body_nbytes:
        raise truncated
    if len(body) > body_nbytes or zlib.crc32(body) != crc:
        raise CorruptionError(f"matrix cache {path!r} fails its checksum")

    arena = engine.shard_arena(run_id)
    registered = set(engine.view_names)
    # The paper's constant c, which every decode state's bank pads its blocks to.
    bank_ports = max(1, engine.scheme.index.max_ports())
    # Walk every section header first; the chosen sections are then checked
    # and copied out together.
    chosen, offset = [], _FILE_HEADER.size
    while offset < len(buffer):
        name_len, view_fp, n, ports, matrices = _STATE_HEADER.unpack_from(buffer, offset)
        name = offset + _STATE_HEADER.size
        offset = name + name_len
        view_name = buffer[name:offset].decode("utf-8")
        end = offset + n * _ROW_NBYTES + (matrices * ports * ports + 7) // 8
        if end > len(buffer):
            raise truncated
        if view_name in registered and view_fingerprint(engine.view(view_name)) == view_fp:
            if ports != bank_ports:
                raise CorruptionError(f"corrupt matrix cache: {ports}-port blocks, not the bank's")
            chosen.append((view_name, offset, n, matrices))
        offset = end
    if not chosen:
        return 0
    tables = _tables(buffer, [section[1:] for section in chosen], bank_ports, mapped.n_paths)
    # Nothing is admitted before the whole file has been checked.  An admitted
    # section proves its view safe: a saver only holds states of proven views
    # (labelled, or proven by a section in turn), and the grammar and view
    # fingerprints match.  So its state is made without a label or a bank,
    # each of which waits for the first batch that reads it.
    tally = Tally()
    try:
        return sum(
            engine._decoded_state(view_name, tally, proven=True).admit(arena, table)
            for (view_name, *_), table in zip(chosen, tables)
        )
    finally:
        engine.metrics.fold(tally)


def _inside(keys, n_paths) -> np.ndarray:
    """Which keys name no path id at or beyond ``n_paths`` (``ABSENT`` names none)."""
    id1, id2 = pair_paths(keys)
    return ((id1 < n_paths) | (id1 == ABSENT)) & ((id2 < n_paths) | (id2 == ABSENT))


def _tables(buffer, sections, ports, n_paths) -> "list[PairTable]":
    """The tables of ``sections`` (``(offset, rows n, matrices)`` each), checked as one.

    Each column is copied out of ``buffer`` once for all the sections, and
    each check is a pass or two over the whole column that still means what
    it means per section: keys ascend within a section, ranks permute a
    section's rows, a section's sentinels leave its count of matrices.  Each
    table is then cut out of the checked columns in its own dtypes (so it
    owns them, and its ``hits`` takes counts): no zero-padded block per row
    is made and re-extracted.
    """

    def require(held, what: str) -> None:
        if not held:
            raise CorruptionError(f"corrupt matrix cache: {what}")

    counts = np.asarray([n for _, n, _ in sections], dtype=np.int64)
    matrices = np.asarray([m for *_, m in sections], dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    # The six columns, column after column, each section's after the one before.
    raw, pieces, ahead = memoryview(buffer), [], 0
    for _, dtype in _COLUMNS:
        nbytes = np.dtype(dtype).itemsize
        pieces += [raw[at + ahead * n : at + (ahead + nbytes) * n] for at, n, _ in sections]
        ahead += nbytes
    joined, columns, at = b"".join(pieces), [], 0
    for _, dtype in _COLUMNS:
        columns.append(np.frombuffer(joined, dtype, int(ends[-1]), at))
        at += columns[-1].nbytes
    keys, rows, cols, off, hits, order = columns
    ascending = keys[1:] > keys[:-1]
    # A section's first key may lie below the key before it, its predecessor's last.
    ascending[starts[(starts > 0) & (starts < keys.size)] - 1] = True
    require(np.all(ascending), "keys are not strictly ascending")
    require(
        np.all(keys >= 0) and np.all(_inside(keys, n_paths)), "an entry references an unknown path id"
    )
    require(
        np.all((rows >= 0) & (rows <= ports) & (cols >= 0) & (cols <= ports)),
        f"a matrix larger than the {ports} ports of any module of this specification",
    )
    # 0 (a matrix) and the three sentinels are the range -3..0; the k-th
    # matrix row of a section owns its block k.
    matrix = np.flatnonzero(off == 0)
    require(
        np.all((off >= VERDICT_TRUE) & (off <= 0))
        and np.array_equal(np.searchsorted(matrix, ends) - np.searchsorted(matrix, starts), matrices),
        "an off that is neither a matrix nor a sentinel, or another count of matrices than stored",
    )
    # A sentinel row is decided without a shape, and a boundary row always as
    # a matrix: the ports a pair reads from it are checked against its shape.
    sentinel = off < 0
    require(not np.any(sentinel & ((rows | cols) != 0)), "a sentinel row with a shape")
    id1, id2 = pair_paths(keys)
    require(
        not np.any(sentinel & ((id1 == ABSENT) | (id2 == ABSENT))), "a boundary row that is no matrix"
    )
    # Ranks in their section's range, each a slot among the file's rows: the
    # ranks permute every section when each slot is taken once.
    require(
        np.all(hits >= 0)
        and np.all((order >= 0) & (order < np.repeat(counts, counts)))
        and np.all(np.bincount(order + np.repeat(starts, counts), minlength=keys.size) == 1),
        "negative hits, or ranks that are no permutation of the rows",
    )
    stride = ports * ports
    pools = [
        np.unpackbits(
            np.frombuffer(buffer, np.uint8, (m * stride + 7) // 8, at + n * _ROW_NBYTES), count=m * stride
        ).view(bool)
        for at, n, m in sections
    ]
    # Blocks are zero-padded to ports x ports and read whole (take, merge, the
    # next save): a bit outside a matrix's shape is one no entry check sees.
    # Line i of a block is padding where the block has at most i rows, column
    # i where it has at most i columns; one line at a time over every block
    # of the file, nothing larger than the pools is made.
    blocks = np.concatenate(pools).reshape(-1, ports, ports)
    shape_rows, shape_cols = rows[matrix], cols[matrix]
    for line in range(ports):
        require(
            not blocks[shape_rows <= line, line].any()
            and not blocks[shape_cols <= line, :, line].any(),
            "a bit set outside a matrix's rows x cols",
        )
    offsets = off.astype(np.int64)
    first = np.cumsum(matrices) - matrices  # each section's first block
    offsets[matrix] = (np.arange(matrix.size) - np.repeat(first, matrices)) * stride
    return [
        PairTable(
            ports,
            keys[a:b].astype(np.int64),
            offsets[a:b].copy(),
            rows[a:b].astype(np.int32),
            cols[a:b].astype(np.int32),
            hits[a:b].astype(np.int64),
            order[a:b].astype(np.int64),
            pool,
        )
        for a, b, pool in zip(starts.tolist(), ends.tolist(), pools)
    ]
