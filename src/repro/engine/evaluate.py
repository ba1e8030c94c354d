"""Batch evaluation of ``depends``: one pipeline for every batch size.

The decoding predicate is path-constant — every pair whose labels share two
parse-tree paths is one matrix (or one interval verdict) plus an entry
lookup — so a batch of any size, over a store in any state, is evaluated the
same way:

1. **gather** — :meth:`~repro.store.LabelStore.rows_for` resolves both uids
   of every pair (raising the typed error for the first unlabelled one) and
   one :meth:`~repro.store.LabelStore.gather_rows` call reads their packed
   label columns; reading rows is the store's job, whatever its state;
2. **mask** — pairs with a final output on the left or an initial input on
   the right are ``False``; the other boundary pairs (an initial input on
   the left or a final output on the right) materialise their two labels
   and take the memoized segment-chain path of ``state.depends``;
3. **group** — the remaining pairs are sorted by ``(producer path id,
   consumer path id)`` packed into one int64, so equal keys form one slice;
4. **decide and scatter** — per slice, the shard's
   :class:`~repro.index.structural.ChainClassifier` (when it carries a
   structural index) gets first refusal: a verdict answers every member with
   no decode.  Only the recursive/mixed residue assembles (or finds cached)
   one matrix via :func:`~repro.core.decoder.intermediate_matrix_for_ids`
   and reads one entry per member.

The matrix-free pseudo-variant has no matrices to group by and keeps its
per-pair loop (:func:`depends_per_pair`).
"""

from __future__ import annotations

import numpy as np

from repro.core.decoder import intermediate_matrix_for_ids
from repro.obs.trace import trace_span

__all__ = ["depends_grouped", "depends_per_pair"]


def depends_per_pair(store, state, pairs) -> list[bool]:
    """``state.depends`` over materialised labels, pair by pair."""
    if isinstance(pairs, np.ndarray):
        pairs = pairs.tolist()
    label = store.label
    return [state.depends(label(d1), label(d2)) for d1, d2 in pairs]


def depends_grouped(store, arena: int, classifier, state, pairs) -> tuple[list[bool], int, int]:
    """Answer ``pairs`` against one decoded view; see the module docstring.

    ``arena`` tags the store's path-id namespace in ``state.decode_cache``.
    Returns the answers and how many pairs the classifier and the matrices
    decided.  Classified pairs are left out of ``note_pair_use``: the hot
    matrix cache should spend its budget on the residue that needs matrices.
    """
    ids = np.asarray(pairs, dtype=np.int64)
    if ids.size == 0:
        return [], 0, 0
    if ids.ndim != 2 or ids.shape[1] != 2:
        raise ValueError(f"expected (d1, d2) pairs, got an array of shape {ids.shape}")
    # Interleaved (d1, d2, d1, d2, ...), so the first unlabelled uid in pair
    # order raises and one gather serves both sides.
    rows = store.rows_for(ids.reshape(-1))
    with trace_span("mmap.gather", rows=rows.size):
        producer, producer_port, consumer, consumer_port = store.gather_rows(rows)
    p1, c1, p2, c2 = producer[0::2], consumer[0::2], producer[1::2], consumer[1::2]

    answers = np.zeros(len(ids), dtype=bool)
    # NO_PATH (-1) is the only negative id, so an OR is negative iff one of
    # its operands is absent.
    interior = (p1 | c1 | p2 | c2) >= 0
    grouped = np.nonzero(interior)[0]
    if grouped.size < len(ids):
        # Nothing depends on a final output and initial inputs depend on
        # nothing (c1 or p2 absent: False); the other boundary pairs are one
        # memoized segment chain each.
        for pos in np.nonzero(~interior & ((c1 | p2) >= 0))[0].tolist():
            d1, d2 = ids[pos].tolist()  # plain ints: the label memo is keyed by them
            answers[pos] = state.depends(store.label(d1), store.label(d2))
        if grouped.size == 0:
            return answers.tolist(), 0, 0

    keys = ((p1.astype(np.int64) << 32) | c2)[grouped]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    members = grouped[order]
    starts = np.concatenate(([0], np.nonzero(keys[1:] != keys[:-1])[0] + 1))
    # The slice loop runs over plain Python lists: per-slice numpy indexing
    # would dominate batches whose slices are two interval probes each.
    group_keys = keys[starts]
    paths1 = (group_keys >> 32).tolist()
    paths2 = (group_keys & 0xFFFFFFFF).tolist()
    starts = starts.tolist()
    ends = starts[1:] + [len(members)]
    xs = (producer_port[0::2][members] - 1).tolist()  # 0-based matrix entries
    ys = (consumer_port[1::2][members] - 1).tolist()
    verdicts = [False] * len(members)
    cache = state.decode_cache
    pair_matrices = cache.pair_matrices
    table = store.table
    structural_n = matrix_n = 0
    with trace_span("engine.group_eval") as group_span:
        for path1, path2, start, end in zip(paths1, paths2, starts, ends):
            if classifier is not None:
                verdict = classifier.classify(path1, path2)
                if verdict is not None:
                    structural_n += end - start
                    if verdict:
                        for k in range(start, end):
                            verdicts[k] = True
                    continue
            matrix_n += end - start
            key = (arena, path1, path2)
            try:
                matrix = pair_matrices[key]
            except KeyError:
                with trace_span("engine.decode", pair=(path1, path2)):
                    matrix = intermediate_matrix_for_ids(
                        table, path1, path2, state, cache, arena=arena
                    )
            cache.note_pair_use(key, end - start)
            if matrix is not None:
                entries = matrix.data
                for k in range(start, end):
                    verdicts[k] = entries[xs[k], ys[k]]
        if group_span is not None:
            group_span.attrs = {
                "groups": len(starts),
                "structural_pairs": structural_n,
                "matrix_pairs": matrix_n,
            }
    answers[members] = verdicts
    return answers.tolist(), structural_n, matrix_n
