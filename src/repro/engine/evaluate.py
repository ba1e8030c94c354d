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
   :class:`~repro.core.pair_table.PairTable` with one ``searchsorted`` of
   the keys in ascending order (argsorted once, slots scattered back);
4. **decide the misses** — every distinct key the table does not hold is
   decided once and merged in: the stacked Algorithm 2 of
   :mod:`repro.engine.kernel` settles each with a verdict (an interior
   key whose product is forced) or a matrix (every boundary key among
   them).  A key the kernel declines is one the reference decoder raises
   for: the first in ascending key order goes to it to raise, so which
   pair raises, with which type and message, is the decoder's call;
5. **read** — one bounds-checked fancy index into the table's matrix pool
   answers every pair — each from the ``(row, column)`` ports of its case —
   and one scatter puts the bits in place.

The array that scatter filled is the answer: an ``(n,)`` ``bool`` array in
pairs order, handed up through the engine, the scheduler and the wire as is.
A warm batch executes no Python per pair or per group, boundary pairs
included.  Every view the engine serves takes this pipeline; a coarse
view's uniform matrices are settled by the kernel as verdict rows, which is
what the paper's matrix-free encoding (:mod:`repro.core.matrix_free`, kept at
core level and held to the engine by the test tree) precomputes.
"""

from __future__ import annotations

import numpy as np

# A plain ``np.unique`` imports ``numpy.ma`` on its first call (numpy 2.x asks
# ``np.ma.is_masked``): ≈14 ms that a process would otherwise pay on its
# first cold query, which after a warm restart is a client's.
import numpy.ma  # noqa: F401

from repro.core.decoder import _inputs_chain_over, _outputs_chain_over, intermediate_matrix
from repro.core.pair_table import (
    ABSENT,
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

def depends_grouped(store, arena: int, state, pairs, trie) -> tuple[np.ndarray, int, int]:
    """Answer ``pairs`` against one decoded view; see the module docstring.

    ``arena`` names the store's path-id namespace in ``state``'s pair tables
    and ``trie()`` returns its ``(parent, packed, c)`` columns as arrays (it
    is only called when a key has to be decided).  Returns the ``(n,)`` bool
    answers and how many pairs were answered from a verdict row and from a
    matrix row.
    """
    ids = np.asarray(pairs, dtype=np.int64)
    if ids.size == 0:
        return np.zeros(0, dtype=bool), 0, 0
    if ids.ndim != 2 or ids.shape[1] != 2:
        raise ValueError(f"expected (d1, d2) pairs, got an array of shape {ids.shape}")
    # Interleaved (d1, d2, d1, d2, ...), so the first unlabelled uid in pair
    # order raises and one gather serves both sides; ``rows_for`` has checked
    # every row, so the gather does not check them again.
    rows = store.rows_for(ids.reshape(-1))
    with trace_span("mmap.gather", rows=rows.size):
        producer, producer_port, consumer, consumer_port = store.gather_resolved(rows)

    # NO_PATH (-1) is the only negative id, so an OR is negative iff one of
    # its operands is absent.  Case I: nothing depends on a final output (no
    # consumer on the left) and initial inputs depend on nothing (no producer
    # on the right); ``kept`` lists the other pairs, or is None for all.
    n = ids.shape[0]
    kept = ((consumer[0::2] | producer[1::2]) >= 0).nonzero()[0]
    if kept.size == n:
        kept = None
    elif not kept.size:
        return np.zeros(n, dtype=bool), 0, 0
    # Each pair's paths and its 1-based matrix entry (output port of d1,
    # input port of d2).
    left, right, x, y = producer[0::2], consumer[1::2], producer_port[0::2], consumer_port[1::2]
    if kept is not None:
        left, right, x, y = left[kept], right[kept], x[kept], y[kept]
    boundary_n = np.count_nonzero((left | right) < 0)
    if boundary_n:
        # Cases II-IV: a side without a path reads the other port of its item
        # — (i1, o2) of lambda*(S), (i1, i2) of the Inputs chain over d2's
        # consumer path, (o2, o1) of the Outputs chain over d1's producer path
        # — and keys ABSENT there: NO_PATH & ABSENT is ABSENT, a path id
        # ANDs to itself.
        i1, o2 = consumer_port[0::2], producer_port[1::2]
        if kept is not None:
            i1, o2 = i1[kept], o2[kept]
        no_left, no_right = left < 0, right < 0
        x, y = (
            np.where(no_left, i1, np.where(no_right, o2, x)),
            np.where(no_right, np.where(no_left, o2, x), y),
        )
        left, right = left & ABSENT, right & ABSENT

    keys = pair_keys(left, right)
    with trace_span("engine.group_eval") as group_span:
        table = state.table(arena)
        slot, found = table.probe(keys)
        if np.count_nonzero(found) == keys.size:
            bits, structural_n = _read(table, slot, x, y, ids, kept)
        else:
            fresh = _decide(store, state, np.unique(keys[~found]), trie)
            state.admit(arena, fresh)
            table = state.table(arena)
            slot, found = table.probe(keys)
            bits = np.zeros(keys.size, dtype=bool)
            structural_n = 0
            for source, members in ((table, np.nonzero(found)[0]), (fresh, np.nonzero(~found)[0])):
                if members.size:
                    # Over budget, a decision is used for this batch and not
                    # stored: only the rows the table still misses are probed
                    # again, in ``fresh`` itself.
                    at = slot[members] if source is table else fresh.probe(keys[members])[0]
                    positions = members if kept is None else kept[members]
                    bits[members], n_read = _read(source, at, x[members], y[members], ids, positions)
                    structural_n += n_read
        # The two tallies split the *intermediate* pairs: verdict vs matrix.
        matrix_n = int(keys.size) - int(boundary_n) - structural_n
        if group_span is not None:
            group_span.attrs = {
                "groups": int(np.unique(keys).size),
                "structural_pairs": structural_n,
                "matrix_pairs": matrix_n,
            }
    if kept is None:
        return bits, structural_n, matrix_n
    answers = np.zeros(n, dtype=bool)
    answers[kept] = bits
    return answers, structural_n, matrix_n


def _read(table: PairTable, slot, x, y, ids, positions) -> tuple[np.ndarray, int]:
    """The bits of pairs whose rows are ``table``'s ``slot``; counts their hits.

    ``x`` / ``y`` are the pairs' 1-based matrix entries, ``positions`` where
    they sit in ``ids`` (``None``: in order).  Returns the bits and how many
    of the pairs a verdict row answered.
    """
    off = table.off[slot]
    bits = off == VERDICT_TRUE
    matrix = (off >= 0).nonzero()[0]
    if matrix.size:
        # 0-based entries, widened to int32 whatever the width of the port
        # columns (a one-byte port times ``ports`` would wrap).
        at = slot[matrix]
        x = np.subtract(x[matrix], 1, dtype=np.int32)
        y = np.subtract(y[matrix], 1, dtype=np.int32)
        outside = ((x | y) < 0) | (x >= table.rows[at]) | (y >= table.cols[at])
        if outside.any():
            bad = int(np.argmax(outside))
            pair = int(matrix[bad])
            d1, d2 = ids[pair if positions is None else positions[pair]].tolist()
            raise DecodingError(
                f"pair ({d1}, {d2}) asks for entry (output {int(x[bad]) + 1}, input "
                f"{int(y[bad]) + 1}) of a {int(table.rows[at[bad]])}x{int(table.cols[at[bad]])} "
                "reachability matrix; its ports do not belong to the modules on its paths"
            )
        bits[matrix] = table.pool[off[matrix] + x * table.ports + y]
    np.add.at(table.hits, slot, 1)
    return bits, int(np.count_nonzero(off <= VERDICT_FALSE))


def _reference_matrix(path, label, path1: int, path2: int):
    """One key through the reference decoder on the plain view ``label``.

    ``path`` materialises a path id.  The engine calls this only for a key
    the kernel declined, for the decoder to raise its error.
    """
    start = label.index.start_module
    if path1 == ABSENT:
        if path2 == ABSENT:
            return label.lam_star_start()  # Case II
        return _inputs_chain_over(path(path2), label, start.n_inputs)  # Case III
    if path2 == ABSENT:
        return _outputs_chain_over(path(path1), label, start.n_outputs)  # Case IV
    return intermediate_matrix(path(path1), path(path2), label)


def _decide(store, state, keys: np.ndarray, trie) -> PairTable:
    """Decide ascending distinct ``keys`` with the kernel.

    A key it declines ends in the reference decoder's typed error: the first
    such key is handed to the decoder to raise.
    """
    path1, path2 = pair_paths(keys)
    bank = state.static.bank
    with trace_span("engine.decode", keys=int(keys.size)):
        outcome, blocks, shapes = decide_many(trie(), bank, state, path1, path2)
    declined = np.nonzero(outcome == REFERENCE)[0]
    if declined.size:
        key = int(path1[declined[0]]), int(path2[declined[0]])
        _reference_matrix(store.table.path, state.label, *key)
        raise DecodingError(f"the decode kernel declined key {key}, which the reference decides")
    return PairTable.build(bank.ports, keys, blocks, shapes[:, 0], shapes[:, 1], outcome)
