"""Persistent hot-pair matrix cache: warm starts for fresh serving processes.

The engine's per-view :class:`~repro.core.decoder.DecodeCache` turns repeated
``(producer path, consumer path)`` reachability questions into probes of a
sorted pair table — but the cache is process-private, so every fresh process (a
restarted server, a follower attaching a leader's run file) pays the cold
decode for exactly the matrices the previous process already assembled.

This module persists the hottest decided rows *alongside the run file*
(``<run-file>.hotmx``) as what they are in memory — the columns of a
:class:`~repro.core.pair_table.PairTable`, not a second representation:

* :func:`save_hot_matrices` ranks the decoder's rows of a shard's pair
  tables by the engine's per-row hit count, ties broken by decision order —
  the first keys a process decided are the ones its successor asks first —
  keeps the ``max_entries`` hottest whose path ids fall inside the file's
  persisted watermark, and writes each ``(view, variant)``'s share as one
  :meth:`PairTable.take` (atomic replace);
* :func:`load_hot_matrices` reads each section back with one
  ``np.frombuffer`` per column, checks the columns whole, and merges them with
  one :meth:`DecodeCache.admit` — so the saver's ranking becomes the rows'
  decision order, rows the engine already decided are never clobbered, the
  byte budget holds, and the carried-over hit counts let a follower that
  loads and re-saves keep the hot set instead of ranking it at zero.

Layout (format v3, little-endian; the per-entry v1/v2 files are refused by
their version and the attach proceeds cold)::

    file header   magic, version, grammar fingerprint, run-file generation,
                  n_paths watermark, body bytes, CRC32 of the body
    per section   name bytes, variant bytes, view fingerprint, rows n, ports,
                  matrices m; the view name and the variant (UTF-8); then
      keys   n x i8   producer path << 32 | consumer path, strictly ascending
      rows   n x i4   the matrix's real shape inside its ports x ports block
      cols   n x i4
      off    n x i1   0 (a matrix; the k-th such row owns block k) | NO_DEPENDENCY
      hits   n x i8
      order  n x i4   the row's rank in the saver's ranking
      pool            np.packbits of the m zero-padded blocks

Safety: the file is tagged with the grammar fingerprint, the run file's
generation and its ``n_paths`` watermark.  Path ids are immutable once
interned (the trie is append-only and compaction preserves rows
bit-identically), so rows stay valid across later checkpoints and
compactions of the *same* run; a cache from a different specification, from a
*newer* generation than the file at the path, or referencing unknown path ids
is rejected loudly (:class:`~repro.errors.SerializationError`).  Views are
matched by name **and** a structural fingerprint — a same-named view with
different visible composites or perceived dependencies never receives foreign
matrices.  Damage is a :class:`~repro.errors.CorruptionError`: a cut file, a
body that fails its checksum, and — because the decode kernel trusts what the
table holds — columns no saver writes: keys out of order or outside the
mapped trie, a shape beyond ``ports``, a sentinel other than the two above,
ranks that are no permutation, a matrix count the sentinels contradict, a set
bit in a block's padding.  A load admits a valid file's sections, or nothing.

Verdict and boundary rows stay out: the kernel re-decides a verdict from the
bank's classes without a product; persisting them bought 3 % of the attach
for a 3.3x larger file and a second decision kind in the format.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from repro.core import FVLVariant
from repro.core.pair_table import NO_DEPENDENCY, PairTable, pair_paths
from repro.engine.engine import DEFAULT_RUN, QueryEngine, grammar_fingerprint
from repro.errors import CorruptionError, LabelingError, SerializationError
from repro.model.views import WorkflowView
from repro.store import run_file_info

__all__ = [
    "CACHE_MAGIC",
    "CACHE_VERSION",
    "DEFAULT_HOT_ENTRIES",
    "matrix_cache_path",
    "view_fingerprint",
    "save_hot_matrices",
    "load_hot_matrices",
]

CACHE_MAGIC = b"FVLHOTMX"
#: Version 3 is columnar (see the module docstring); files of versions 1 and 2
#: (one packed entry per matrix) are rejected loudly and the attach proceeds cold.
CACHE_VERSION = 3

#: Default bound on persisted matrices.  The matrices are tiny (port-count
#: squared bits, ~25 bytes each on the BioAID workload), so this is a recall
#: knob, not a disk-space one — and recall is what warm starts live on: a
#: budget below the shard's hot working set leaves the follower re-deriving
#: the uncovered pairs and erases most of the benefit.
DEFAULT_HOT_ENTRIES = 4096

# magic, version, fingerprint, generation, n_paths, body bytes, body CRC32
_FILE_HEADER = struct.Struct("<8sIQQQQI")
_STATE_HEADER = struct.Struct("<HHQIII")  # name_len, variant_len, view_fp, rows, ports, matrices
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
    max_entries: int = DEFAULT_HOT_ENTRIES,
) -> int:
    """Persist the shard's hottest decoded pair matrices beside its run file.

    ``run_id`` may name an attached shard (its mapped file is the default
    ``run_file``) or a labelled shard that has been checkpointed — labelled
    shards intern into the engine's shared arena, which is exactly the trie
    :func:`~repro.store.checkpoint_run` persists, so their cached matrices
    use the same path ids the file carries.  Only entries whose path ids lie
    inside the file's persisted ``n_paths`` watermark are written.  Returns
    the number of entries persisted (a cache file is written even for zero —
    an honest "nothing was hot").
    """
    if max_entries < 1:
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

    # Candidates: the decoder rows of every state inside the file's watermark
    # (ids interned after the last checkpoint are not in the file), each
    # state's in decision order, off one immutable table snapshot — workers
    # may decide new keys while a live server saves.
    candidates = []
    for (view_name, variant_key), state in engine.decoded_states().items():
        table = state.decode_cache.table(arena)
        at = table.decoder_rows()
        id1, id2 = pair_paths(table.keys[at])
        at = at[(id1 < info.n_paths) & (id2 < info.n_paths)]
        candidates.append((view_name, variant_key, table, at))
    sizes = [at.size for *_, at in candidates]
    hits = np.concatenate([table.hits[at] for *_, table, at in candidates] + [np.empty(0, np.int64)])
    # Hottest first; the sort is stable, so equal hit counts rank by who was
    # decided first.  Only the rows that made the cut are materialised.
    hottest = np.argsort(-hits, kind="stable")[:max_entries]
    owner = np.repeat(np.arange(len(candidates)), sizes)[hottest]
    first = np.cumsum(sizes) - sizes
    body = []
    for section in dict.fromkeys(owner.tolist()):
        view_name, variant_key, table, at = candidates[section]
        chosen = at[hottest[owner == section] - first[section]]
        # The section is the sub-table of the chosen rows, which is sorted by
        # key; where each row stood in the ranking is a column of the file.
        rank = np.argsort(chosen)
        sub = table.take(chosen[rank])
        names = view_name.encode("utf-8"), variant_key.encode("utf-8")
        fingerprint = view_fingerprint(engine.view(view_name))
        matrices = np.count_nonzero(sub.off >= 0)
        body.append(_STATE_HEADER.pack(*map(len, names), fingerprint, len(sub), sub.ports, matrices))
        body.extend(names)
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
    """Seed an attached shard's decode caches from its persistent matrix cache.

    Missing cache file -> ``0`` (warm starts are best-effort); a cache of
    another format version, from a different specification, a newer
    generation than the mapped file, or with ids beyond the file's trie is
    rejected with :class:`~repro.errors.SerializationError`, a damaged one
    with its subclass :class:`~repro.errors.CorruptionError`.  Sections for
    views the engine has not registered (or whose structure diverged — see
    :func:`view_fingerprint`) are skipped, not guessed at.  Rows never
    clobber rows the engine already decided.  Returns the number of rows
    seeded.
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
    if fingerprint and fingerprint != grammar_fingerprint(engine.scheme.index):
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
    known_variants = {variant.value for variant in FVLVariant}
    sections, offset = [], _FILE_HEADER.size
    while offset < len(buffer):
        head = _STATE_HEADER.unpack_from(buffer, offset)
        name_len, variant_len, view_fp, n, ports, matrices = head
        names = offset + _STATE_HEADER.size
        offset = names + name_len + variant_len
        view_name = buffer[names : names + name_len].decode("utf-8")
        variant_key = buffer[names + name_len : offset].decode("utf-8")
        end = offset + n * _ROW_NBYTES + (matrices * ports * ports + 7) // 8
        if end > len(buffer):
            raise truncated
        if (
            view_name in registered
            and variant_key in known_variants
            and view_fingerprint(engine.view(view_name)) == view_fp
        ):
            state = engine.decoded_state(view_name, variant_key)
            if ports != state.static.bank.ports:
                raise CorruptionError(f"corrupt matrix cache: {ports}-port blocks, not the bank's")
            fresh = _section(buffer, offset, n, ports, matrices, mapped.n_paths)
            sections.append((state.decode_cache, fresh))
        offset = end
    # Nothing is admitted before the whole file has been checked.
    return sum(cache.admit(arena, fresh) for cache, fresh in sections)


def _section(buffer, offset, n, ports, matrices, n_paths) -> PairTable:
    """One section's rows as a table, every column checked whole."""

    def require(held, what: str) -> None:
        if not held:
            raise CorruptionError(f"corrupt matrix cache: {what}")

    columns = []
    for _, dtype in _COLUMNS:
        columns.append(np.frombuffer(buffer, dtype, n, offset))
        offset += columns[-1].nbytes
    keys, rows, cols, off, hits, order = columns
    require(np.all(keys[1:] > keys[:-1]), "keys are not strictly ascending")
    id1, id2 = pair_paths(keys)
    require(
        np.all(keys >= 0) and np.all(id1 < n_paths) and np.all(id2 < n_paths),
        "an entry references an unknown path id",
    )
    require(
        np.all((rows >= 0) & (rows <= ports) & (cols >= 0) & (cols <= ports)),
        f"a matrix larger than the {ports} ports of any module of this specification",
    )
    matrix = off == 0
    require(
        np.all(matrix | (off == NO_DEPENDENCY)) and np.count_nonzero(matrix) == matrices,
        "sentinels that are no decoder row's, or another count of matrices than stored",
    )
    require(
        np.all(hits >= 0) and np.array_equal(np.sort(order), np.arange(n)),
        "negative hits, or ranks that are no permutation of the rows",
    )
    stride = ports * ports
    packed = np.frombuffer(buffer, np.uint8, (matrices * stride + 7) // 8, offset)
    pool = np.unpackbits(packed, count=matrices * stride).view(bool).reshape(matrices, ports, ports)
    # Blocks are zero-padded to ports x ports and read whole (take, merge, the
    # next save): a bit outside a matrix's shape is one no entry check sees.
    at = np.arange(ports)
    padding = (at[:, None] >= rows[matrix, None, None]) | (at >= cols[matrix, None, None])
    require(not np.any(pool & padding), "a bit set outside a matrix's rows x cols")
    blocks = np.zeros((n, stride), dtype=bool)
    blocks[matrix] = pool.reshape(matrices, stride)
    return PairTable.build(ports, keys, blocks, rows, cols, off, hits, order)
