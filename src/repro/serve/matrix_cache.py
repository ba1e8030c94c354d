"""Persistent hot-pair matrix cache: warm starts for fresh serving processes.

The engine's per-view :class:`~repro.core.decoder.DecodeCache` turns repeated
``(producer path, consumer path)`` reachability questions into probes of a
sorted pair table — but the cache is process-private, so every fresh process (a
restarted server, a follower attaching a leader's run file) pays the cold
decode for exactly the matrices the previous process already assembled.

This module persists the hottest decoded pair matrices *alongside the run
file* (``<run-file>.hotmx``):

* :func:`save_hot_matrices` ranks the decoder's rows of a shard's pair
  tables (:meth:`DecodeCache.rows`; verdict rows are not persisted)
  by the engine's per-row hit count, ties broken by decision order — the
  first keys a process decided are the ones its successor asks first —
  keeps the ``max_entries`` hottest whose path ids fall inside the file's
  persisted watermark, and writes them — *with* their hit counts — in a
  small versioned binary format (bit-packed matrices, atomic replace);
* :func:`load_hot_matrices` seeds a fresh engine's decode caches from the
  file on attach, so the first queries of a new process hit warm matrices
  instead of re-deriving them.  The persisted hit counts are seeded too:
  a follower that loads a cache and then saves one (e.g. on shutdown)
  ranks the warm entries by their carried-over heat instead of at zero, so
  a load→save cycle preserves the hot set instead of silently dropping it.

Safety: the cache file is tagged with the grammar fingerprint, the run
file's generation and its ``n_paths`` watermark.  Path ids are immutable
once interned (the trie is append-only and compaction preserves rows
bit-identically), so entries stay valid across later checkpoints and
compactions of the *same* run; a cache from a different specification, from
a *newer* generation than the file at the path, or referencing unknown path
ids is rejected loudly.  Views are matched by name **and** a structural
fingerprint — a same-named view with different visible composites or
perceived dependencies never receives foreign matrices.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from repro.core import FVLVariant
from repro.core.pair_table import NO_DEPENDENCY, PairTable, pair_keys, pair_paths
from repro.engine.engine import MATRIX_FREE, DEFAULT_RUN, QueryEngine, grammar_fingerprint
from repro.errors import LabelingError, SerializationError
from repro.matrices import BoolMatrix
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
#: Version 2 added the per-entry hit count (see ``_ENTRY``); version-1 files
#: (no hit column) are rejected loudly and the attach proceeds cold.
CACHE_VERSION = 2

#: Default bound on persisted matrices.  The matrices are tiny (port-count
#: squared bits, ~25 bytes each on the BioAID workload), so this is a recall
#: knob, not a disk-space one — and recall is what warm starts live on: a
#: budget below the shard's hot working set leaves the follower re-deriving
#: the uncovered pairs and erases most of the benefit.
DEFAULT_HOT_ENTRIES = 4096

_FILE_HEADER = struct.Struct("<8sIQQQI")  # magic, version, fingerprint, generation, n_paths, n_states
_STATE_HEADER = struct.Struct("<HHQI")  # name_len, variant_len, view_fp, n_entries
_ENTRY = struct.Struct("<qqiiQ")  # path_id1, path_id2, rows, cols (-1,-1 = None), hits


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
    parts = [",".join(sorted(view.visible_composites))]
    dependencies = view.dependencies.as_dict()
    for name in sorted(dependencies):
        pairs = ";".join(f"{i}>{o}" for i, o in sorted(dependencies[name]))
        parts.append(f"{name}:{pairs}")
    return zlib.crc32("|".join(parts).encode("utf-8")) or 1


def _pack_matrix(matrix: "BoolMatrix | None") -> tuple[int, int, bytes]:
    if matrix is None:
        return -1, -1, b""
    data = matrix.data
    return data.shape[0], data.shape[1], np.packbits(data, axis=None).tobytes()


def _pair_states(engine: QueryEngine):
    """The decoded states that carry a pair-matrix cache (skip matrix-free)."""
    for (view_name, variant_key), state in engine.decoded_states().items():
        cache = getattr(state, "decode_cache", None)
        if cache is None or variant_key == MATRIX_FREE:
            continue
        yield view_name, variant_key, cache


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
    for view_name, variant_key, cache in _pair_states(engine):
        table = cache.table(arena)
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
    sections: dict[tuple[str, str], list[tuple[int, int, object, int]]] = {}
    for section in dict.fromkeys(owner.tolist()):
        view_name, variant_key, table, at = candidates[section]
        chosen = at[hottest[owner == section] - first[section]]
        sections[(view_name, variant_key)] = list(table.matrix_rows(chosen))

    chunks = [
        _FILE_HEADER.pack(
            CACHE_MAGIC,
            CACHE_VERSION,
            grammar_fingerprint(engine.scheme.index),
            info.generation,
            info.n_paths,
            len(sections),
        )
    ]
    for (view_name, variant_key), entries in sections.items():
        name_bytes = view_name.encode("utf-8")
        variant_bytes = variant_key.encode("utf-8")
        chunks.append(
            _STATE_HEADER.pack(
                len(name_bytes),
                len(variant_bytes),
                view_fingerprint(engine.view(view_name)),
                len(entries),
            )
        )
        chunks.append(name_bytes)
        chunks.append(variant_bytes)
        for id1, id2, matrix, hits in entries:
            rows, cols, payload = _pack_matrix(matrix)
            chunks.append(_ENTRY.pack(id1, id2, rows, cols, max(0, int(hits))))
            chunks.append(payload)

    target = matrix_cache_path(run_file) if cache_path is None else os.fspath(cache_path)
    tmp = f"{target}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(b"".join(chunks))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    return int(hottest.size)


class _Reader:
    __slots__ = ("buffer", "offset", "path")

    def __init__(self, buffer: bytes, path: str) -> None:
        self.buffer = buffer
        self.offset = 0
        self.path = path

    def take(self, n: int) -> bytes:
        end = self.offset + n
        if end > len(self.buffer):
            raise SerializationError(f"truncated matrix cache {self.path!r}")
        chunk = self.buffer[self.offset : end]
        self.offset = end
        return chunk

    def unpack(self, spec: struct.Struct):
        return spec.unpack(self.take(spec.size))


def load_hot_matrices(
    engine: QueryEngine,
    run_id: str = DEFAULT_RUN,
    *,
    cache_path=None,
) -> int:
    """Seed an attached shard's decode caches from its persistent matrix cache.

    Missing cache file -> ``0`` (warm starts are best-effort); a cache from a
    different specification, a newer generation than the mapped file, or with
    ids beyond the file's trie is rejected with
    :class:`~repro.errors.SerializationError`.  Sections for views the engine
    has not registered (or whose structure diverged — see
    :func:`view_fingerprint`) are skipped, not guessed at.  Entries never
    clobber rows the engine already decided.  Returns the number of
    entries seeded.
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
            reader = _Reader(handle.read(), target)
    except FileNotFoundError:
        return 0
    try:
        return _load_from(reader, engine, run_id, mapped)
    except SerializationError:
        raise
    except (ValueError, UnicodeDecodeError, OverflowError, struct.error) as exc:
        # Corrupt payloads surface in many shapes (bad UTF-8 in a section
        # name, negative matrix dims reaching numpy, ...); callers are
        # promised one: SerializationError, which the server's warm attach
        # swallows into a cold start.
        raise SerializationError(f"corrupt matrix cache {target!r}: {exc}") from exc


def _load_from(reader: _Reader, engine: QueryEngine, run_id: str, mapped) -> int:
    magic, version, fingerprint, generation, n_paths, n_states = reader.unpack(
        _FILE_HEADER
    )
    if magic != CACHE_MAGIC:
        raise SerializationError(f"not a matrix cache (bad magic {magic!r})")
    if version != CACHE_VERSION:
        raise SerializationError(f"unsupported matrix-cache version {version}")
    engine_fp = grammar_fingerprint(engine.scheme.index)
    if fingerprint and fingerprint != engine_fp:
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

    arena = engine.shard_arena(run_id)
    registered = set(engine.view_names)
    known_variants = {variant.value for variant in FVLVariant}
    seeded = 0
    for _ in range(n_states):
        name_len, variant_len, view_fp, n_entries = reader.unpack(_STATE_HEADER)
        view_name = reader.take(name_len).decode("utf-8")
        variant_key = reader.take(variant_len).decode("utf-8")
        usable = (
            view_name in registered
            and variant_key in known_variants
            and view_fingerprint(engine.view(view_name)) == view_fp
        )
        state = engine.decoded_state(view_name, variant_key) if usable else None
        ports = state.static.bank.ports if usable else 0
        if n_entries * _ENTRY.size > len(reader.buffer) - reader.offset:
            raise SerializationError(f"truncated matrix cache {reader.path!r}")
        ids, shapes, heat = [], [], []
        blocks = np.zeros((n_entries if usable else 0, ports, ports), dtype=bool)
        for entry in range(n_entries):
            id1, id2, rows, cols, hits = reader.unpack(_ENTRY)
            payload = reader.take((rows * cols + 7) // 8) if rows >= 0 else b""
            if not usable:
                continue
            if not (0 <= id1 < mapped.n_paths and 0 <= id2 < mapped.n_paths):
                raise SerializationError(
                    "matrix cache entry references an unknown path id"
                )
            if rows >= 0:
                if rows > ports or not 0 <= cols <= ports:
                    raise SerializationError(
                        f"matrix cache entry is {rows}x{cols}; no module of this "
                        f"specification has more than {ports} ports"
                    )
                bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=rows * cols)
                blocks[entry, :rows, :cols] = bits.reshape(rows, cols)
            ids.append((id1, id2))
            shapes.append((max(rows, 0), max(cols, 0), 0 if rows >= 0 else NO_DEPENDENCY))
            # Carry the entry's heat across the process boundary: without it
            # a follower's own save_hot_matrices ranks every seeded-but-not-
            # re-queried entry at zero and a budgeted rewrite drops the warm
            # set it just loaded.
            heat.append(hits)
        if ids:
            # One merge per section; file order (the saver's ranking) becomes
            # the rows' decision order, and rows the engine already decided
            # are never clobbered.
            id1, id2 = np.asarray(ids, dtype=np.int64).T
            keys, first = np.unique(pair_keys(id1, id2), return_index=True)
            rows, cols, sentinels = np.asarray(shapes, dtype=np.int64)[first].T
            fresh = PairTable.build(
                ports,
                keys,
                blocks[first].reshape(first.size, -1),
                rows,
                cols,
                sentinels,
                np.asarray(heat, dtype=np.int64)[first],
                first,
            )
            seeded += state.decode_cache.admit(arena, fresh)
    return seeded
