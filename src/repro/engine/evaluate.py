"""Batch evaluation of ``depends``: one columnar pipeline for every batch size.

The decoding predicate is path-constant — every pair whose labels share two
parse-tree paths is one matrix (or one verdict for all its ports) plus an
entry lookup — so a batch of any size, over a store in any state, is
evaluated the same way, as whole-array operations from gather to answer:

1. **gather** — :meth:`~repro.store.LabelStore.rows_for` resolves both uids
   of every pair (raising the typed error for the first unlabelled one) and
   one :meth:`~repro.store.LabelStore.gather_rows` call reads their packed
   label columns; reading rows is the store's job, whatever its state;
2. **mask** — pairs with a final output on the left or an initial input on
   the right are ``False`` (decoder Case I);
3. **probe** — the remaining pairs pack ``(producer path id, consumer path
   id)`` into one int64 key each — :data:`~repro.core.pair_table.ABSENT` on
   the side an initial input or a final output does not have (Cases II–IV
   are path-constant like the interior one) — looked up in the arena's
   :class:`~repro.core.pair_table.PairTable` with one ``searchsorted``;
4. **decide the misses** — every distinct key the table does not hold is
   decided once and merged in: the stacked Algorithm 2 of
   :mod:`repro.engine.kernel` settles each with a verdict (its product is
   forced) or a matrix, and what the kernel declines, like every boundary
   key, goes to the reference decoder in ascending key order — so which
   pair raises, with which type and message, is the decoder's call;
5. **read** — one bounds-checked fancy index into the table's matrix pool
   answers every pair — each from the ``(row, column)`` ports of its case —
   and one scatter puts the bits in place.

A warm batch executes no Python per pair or per group, boundary pairs
included.  Every variant the engine accepts takes this pipeline; a coarse
view's uniform matrices are settled by the kernel as verdict rows, which is
what the paper's matrix-free encoding (:mod:`repro.core.matrix_free`, kept at
core level and held to the engine by the test tree) precomputes.
"""

from __future__ import annotations

import numpy as np

from repro.core.decoder import _inputs_chain_over, _outputs_chain_over, intermediate_matrix
from repro.core.pair_table import (
    ABSENT,
    NO_DEPENDENCY,
    VERDICT_FALSE,
    VERDICT_TRUE,
    PairTable,
    pair_keys,
    pair_paths,
)
from repro.engine.kernel import REFERENCE, decide_many
from repro.errors import DecodingError
from repro.obs.trace import trace_span

__all__ = ["depends_grouped"]


def depends_grouped(store, arena: int, state, pairs, trie) -> tuple[list[bool], int, int]:
    """Answer ``pairs`` against one decoded view; see the module docstring.

    ``arena`` names the store's path-id namespace in ``state.decode_cache``
    and ``trie()`` returns its ``(parent, packed, c)`` columns as arrays (it
    is only called when a key has to be decided).  Returns the answers and
    how many pairs were answered from a verdict row and from a matrix row.
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
    left, c1, p2, right = producer[0::2], consumer[0::2], producer[1::2], consumer[1::2]

    answers = np.zeros(len(ids), dtype=bool)
    # NO_PATH (-1) is the only negative id, so an OR is negative iff one of
    # its operands is absent.  Case I: nothing depends on a final output (no
    # consumer on the left) and initial inputs depend on nothing (no producer
    # on the right).
    grouped = (c1 | p2) >= 0
    if grouped.all():
        grouped = slice(None)  # views below, not copies
    elif not grouped.any():
        return answers.tolist(), 0, 0
    left, right, ids = left[grouped], right[grouped], ids[grouped]
    # 0-based matrix entries of each pair: (output port of d1, input port of d2).
    x, y = producer_port[0::2][grouped] - 1, consumer_port[1::2][grouped] - 1
    boundary_n = 0
    if ((left | right) < 0).any():
        # Cases II-IV: a side without a path reads the other port of its item
        # — (i1, o2) of lambda*(S), (i1, i2) of the Inputs chain over d2's
        # consumer path, (o2, o1) of the Outputs chain over d1's producer path.
        no_left, no_right = left < 0, right < 0
        o1, i1, o2 = x, consumer_port[0::2][grouped] - 1, producer_port[1::2][grouped] - 1
        x = np.where(no_left, i1, np.where(no_right, o2, o1))
        y = np.where(no_right, np.where(no_left, o2, o1), y)
        left, right = np.where(no_left, ABSENT, left), np.where(no_right, ABSENT, right)
        boundary_n = int(np.count_nonzero(no_left | no_right))

    keys = pair_keys(left, right)
    entries = (x, y, ids)
    cache = state.decode_cache
    with trace_span("engine.group_eval") as group_span:
        table = cache.table(arena)
        slot, found = table.probe(keys)
        if found.all():
            bits, structural_n = _read(table, slot, *entries)
        else:
            fresh = _decide(store, state, np.unique(keys[~found]), trie)
            cache.admit(arena, fresh)
            table = cache.table(arena)
            # Over budget, a decision is used for this batch and not stored:
            # what the table still misses is read from ``fresh`` itself.
            found = table.probe(keys)[1]
            bits = np.zeros(keys.size, dtype=bool)
            structural_n = 0
            for source, members in ((table, np.nonzero(found)[0]), (fresh, np.nonzero(~found)[0])):
                if members.size:
                    slot = source.probe(keys[members])[0]
                    bits[members], n = _read(source, slot, *(column[members] for column in entries))
                    structural_n += n
        # The two tallies split the *intermediate* pairs: verdict vs matrix.
        matrix_n = int(keys.size) - boundary_n - structural_n
        if group_span is not None:
            group_span.attrs = {
                "groups": int(np.unique(keys).size),
                "structural_pairs": structural_n,
                "matrix_pairs": matrix_n,
            }
    answers[grouped] = bits
    return answers.tolist(), structural_n, matrix_n


def _read(table: PairTable, slot, x, y, ids) -> tuple[np.ndarray, int]:
    """The bits of pairs whose rows are ``table``'s ``slot``; counts their hits.

    ``x`` / ``y`` are the pairs' 0-based matrix entries.  Returns the bits and
    how many of the pairs a verdict row answered.
    """
    off = table.off[slot]
    bits = off == VERDICT_TRUE
    matrix = np.nonzero(off >= 0)[0]
    if matrix.size:
        at, x, y = slot[matrix], x[matrix], y[matrix]
        outside = (x < 0) | (x >= table.rows[at]) | (y < 0) | (y >= table.cols[at])
        if outside.any():
            bad = int(np.argmax(outside))
            d1, d2 = ids[matrix[bad]].tolist()
            raise DecodingError(
                f"pair ({d1}, {d2}) asks for entry (output {int(x[bad]) + 1}, input "
                f"{int(y[bad]) + 1}) of a {int(table.rows[at[bad]])}x{int(table.cols[at[bad]])} "
                "reachability matrix; its ports do not belong to the modules on its paths"
            )
        bits[matrix] = table.pool[off[matrix] + x * table.ports + y]
    np.add.at(table.hits, slot, 1)
    return bits, int(np.count_nonzero(off <= VERDICT_FALSE))


def _reference_matrix(path, state, path1: int, path2: int):
    """One key through the reference decoder; ``path`` materialises a path id."""
    cache, start = state.decode_cache, state.index.start_module
    if path1 == ABSENT:
        if path2 == ABSENT:
            return state.lam_star_start()  # Case II
        return _inputs_chain_over(path(path2), state, start.n_inputs, cache)  # Case III
    if path2 == ABSENT:
        return _outputs_chain_over(path(path1), state, start.n_outputs, cache)  # Case IV
    return intermediate_matrix(path(path1), path(path2), state, cache)


def _decide(store, state, keys: np.ndarray, trie) -> PairTable:
    """Decide ascending distinct ``keys``: the kernel, then the reference decoder."""
    path1, path2 = pair_paths(keys)
    sentinels = np.zeros(keys.size, dtype=np.int64)
    bank = state.static.bank
    ports = bank.ports
    blocks = np.zeros((keys.size, ports * ports), dtype=bool)
    shapes = np.zeros((keys.size, 2), dtype=np.int32)
    # Boundary keys are the reference decoder's, the others the kernel's first.
    reference = (path1 == ABSENT) | (path2 == ABSENT)
    interior = np.nonzero(~reference)[0]
    if interior.size:
        with trace_span("engine.decode", keys=int(interior.size)) as span:
            outcome, blocks[interior], shapes[interior] = decide_many(
                trie(), bank, state, path1[interior], path2[interior]
            )
            declined = outcome == REFERENCE
            sentinels[interior] = np.where(declined, 0, outcome)  # a verdict, or 0: a matrix
            reference[interior[declined]] = True
            if span is not None:
                span.attrs = {"keys": int(interior.size), "fallback": int(declined.sum())}
    path = store.table.path
    for row in np.nonzero(reference)[0].tolist():
        matrix = _reference_matrix(path, state, int(path1[row]), int(path2[row]))
        if matrix is None:
            sentinels[row] = NO_DEPENDENCY
        else:
            shapes[row] = matrix.shape
            blocks[row].reshape(ports, ports)[: matrix.rows, : matrix.cols] = matrix.data
    return PairTable.build(ports, keys, blocks, shapes[:, 0], shapes[:, 1], sentinels)
