"""Data-visibility checks (Section 5, last paragraph).

Using only a data label and a view label, one can decide in constant time
whether the data item is visible in the projected run ``R_U``: the item is
visible iff every edge label occurring in its port-label paths refers to a
production (or to recursion-cycle productions) retained by the view — that
is, iff the view label's ``I`` function is defined for all of them.

:func:`is_visible` is the original per-label-object predicate.  For runs
held in a columnar :class:`~repro.store.LabelStore`, the same test runs over
the packed columns with no label objects at all: visibility is a property of
a *path*, paths are interned once per run, and children follow parents in id
order — so :func:`path_visibility` folds the retained-production test over
the whole trie in one forward pass, and :func:`visible_batch` /
:func:`visible_mask` answer per-item queries as two flag lookups per row.
"""

from __future__ import annotations

import numpy as np

from repro.core.labels import DataLabel, ProductionEdgeLabel, RecursionEdgeLabel
from repro.errors import DecodingError
from repro.store.path_table import _FIELD_BITS, _FIELD_MASK, KIND_PRODUCTION, KIND_ROOT

__all__ = ["is_visible", "path_visibility", "visible_batch", "visible_mask"]


def is_visible(data_label: DataLabel, view_label) -> bool:
    """Whether the labelled data item is visible in the view.

    ``view_label`` may be a :class:`~repro.core.view_label.ViewLabel` or a
    :class:`~repro.core.matrix_free.MatrixFreeViewLabel`; only its
    retained-production information is consulted.
    """
    index = view_label.index
    retained = view_label.retained_productions
    for path in data_label.paths():
        for edge in path:
            if isinstance(edge, ProductionEdgeLabel):
                if edge.k not in retained:
                    return False
            elif isinstance(edge, RecursionEdgeLabel):
                length = index.cycle_length(edge.s)
                needed = min(max(edge.i - 1, 0), length)
                for offset in range(needed):
                    cycle_edge = index.cycle_edge(edge.s, edge.t + offset)
                    if cycle_edge.production not in retained:
                        return False
            else:  # pragma: no cover - defensive
                raise DecodingError(f"unknown edge label {edge!r}")
    return True


# ---------------------------------------------------------------------------
# columnar visibility (no label objects)
# ---------------------------------------------------------------------------


def _recursion_retained(index, retained, s: int, t: int, i: int) -> bool:
    """The recursion-edge half of the Section 5 test, on raw ``(s, t, i)``."""
    length = index.cycle_length(s)
    needed = min(max(i - 1, 0), length)
    for offset in range(needed):
        if index.cycle_edge(s, t + offset).production not in retained:
            return False
    return True


def _edge_retained(table, path_id: int, view_label, rec_memo: dict) -> bool:
    """Whether the *last* edge of one interned path is retained by the view."""
    kind, a, b, c = table.edge_fields(path_id)
    if kind == KIND_ROOT:
        return True
    if kind == KIND_PRODUCTION:
        return a in view_label.retained_productions
    key = (a, b, c)
    ok = rec_memo.get(key)
    if ok is None:
        ok = rec_memo[key] = _recursion_retained(
            view_label.index, view_label.retained_productions, a, b, c
        )
    return ok


def _column_slice_array(column, start: int, stop: int, dtype) -> np.ndarray:
    """A contiguous ndarray of ``column[start:stop]`` for any column kind.

    Live tables keep plain lists (or packed ``array`` buffers) and mapped
    single-extent tables numpy views; multi-segment mapped columns expose a
    cached ``concatenated()`` flat array, which beats their per-index
    chunk-bisect slicing by orders of magnitude for a whole-trie pass.
    """
    if isinstance(column, np.ndarray):
        return column[start:stop]
    concatenated = getattr(column, "concatenated", None)
    if concatenated is not None:
        return concatenated()[start:stop]
    return np.asarray(column[start:stop], dtype=dtype)


def _recursion_rows_retained(index, retained, words: np.ndarray, i: np.ndarray) -> np.ndarray:
    """The recursion-edge half of the test for many ``(s, t, i)`` rows at once.

    :func:`_recursion_retained` reads the chain position ``i`` only through
    ``min(i - 1, cycle_length(s))``, so rows are keyed on that clamp instead
    of the raw ``i`` (unbounded, and distinct for every member of a chain):
    one scalar test per distinct ``(s, t, clamp)`` answers them all.
    """
    cycles, cycle_slot = np.unique((words >> 1) & _FIELD_MASK, return_inverse=True)
    lengths = np.fromiter(
        (index.cycle_length(s) for s in cycles.tolist()), dtype=np.int64, count=cycles.size
    )
    # The clamp is at most a cycle length, i.e. at most the production count,
    # which fits the 16 bits the 33-bit packed word leaves free many times over.
    needed = np.minimum(np.maximum(i - 1, 0), lengths[cycle_slot])
    keys, key_slot = np.unique((words << _FIELD_BITS) | needed, return_inverse=True)
    verdicts = np.fromiter(
        (
            # needed + 1 stands in for i: the test clamps it to the same value.
            _recursion_retained(
                index,
                retained,
                (key >> (_FIELD_BITS + 1)) & _FIELD_MASK,
                key >> (2 * _FIELD_BITS + 1),
                (key & _FIELD_MASK) + 1,
            )
            for key in keys.tolist()
        ),
        dtype=bool,
        count=keys.size,
    )
    return verdicts[key_slot]


def path_visibility(table, view_label, *, prefix: "np.ndarray | None" = None) -> np.ndarray:
    """Per-path-id visibility flags over a :class:`~repro.store.PathTable`.

    ``flags[p]`` is True iff every edge on path ``p`` refers to productions
    retained by ``view_label`` — i.e. iff a port whose label path is ``p``
    belongs to a visible item.  The per-edge retained test is vectorised
    straight off the packed trie columns (production edges, the vast
    majority, are one mask-and-``isin`` pass; recursion edges are resolved
    once per distinct ``(s, t, clamped i)``), and the AND-fold along the
    trie is pointer jumping over ``parent``: every pass ANDs a row with its
    current ancestor and doubles the ancestor's distance, so a trie of depth
    ``d`` folds in ``log2(d)`` array passes.  Works on live, compacted and
    mapped tables alike and never materialises an edge tuple.

    ``prefix`` is an earlier result for the same ``(table, view_label)``
    pair: the trie is append-only, so the old flags are reused verbatim and
    only rows interned since are computed (the engine memoizes per decoded
    view this way — repeated visibility queries cost O(new paths), not
    O(trie)).  A prefix longer than the table is rejected as a misuse.
    """
    parent, packed, c = table.raw_columns()
    # Appends are parent-first (parent, then packed, then c), so under a
    # concurrent intern the columns can differ in length for an instant;
    # clamp to the shortest so the fold only covers fully-appended rows —
    # the torn tail simply lands in the next flags extension.
    n = min(len(parent), len(packed), len(c))
    if n == 0:
        return np.zeros(0, dtype=bool)
    start = 1
    if prefix is not None:
        if len(prefix) > n:
            raise DecodingError(
                "path-visibility prefix is longer than the trie; it belongs "
                "to a different table"
            )
        if len(prefix) == n:
            return prefix
        if len(prefix) > 1:
            start = len(prefix)
    flags = np.empty(n, dtype=bool)
    if start > 1:
        flags[:start] = prefix
    else:
        flags[0] = True  # the empty path hides nothing
    if start >= n:
        return flags

    packed_arr = _column_slice_array(packed, start, n, np.int64)
    # Production edges (kind bit 0): retained iff k is a retained production.
    edge_ok = flags[start:]
    edge_ok[:] = False
    production = (packed_arr & 1) == KIND_PRODUCTION
    retained = view_label.retained_productions
    if retained:
        k = (packed_arr >> 1) & _FIELD_MASK
        edge_ok[production] = np.isin(
            k[production], np.fromiter(retained, dtype=np.int64, count=len(retained))
        )
    recursion_rows = np.nonzero(~production)[0]
    if recursion_rows.size:
        c_arr = _column_slice_array(c, start, n, np.int64)
        edge_ok[recursion_rows] = _recursion_rows_retained(
            view_label.index, retained, packed_arr[recursion_rows], c_arr[recursion_rows]
        )
    # AND-fold by pointer jumping.  Invariant: a new row's flag covers the
    # edges between it and ``ancestor`` (exclusive); rows of the prefix are
    # final, so reaching one finishes the row (its ancestor becomes the root,
    # whose flag is True).  ``flags[ancestor]`` is gathered before the
    # in-place AND, so each pass reads the previous pass's values only.
    ancestor = _column_slice_array(parent, start, n, np.int64)
    while True:
        edge_ok &= flags[ancestor]
        live = ancestor >= start
        if not live.any():
            return flags
        ancestor = np.where(live, ancestor[np.maximum(ancestor - start, 0)], 0)


def _path_flag(
    path_id: int, flags: np.ndarray, table, view_label, late_memo: dict, rec_memo: dict
) -> bool:
    """One path's flag, walking paths interned after the snapshot up to it."""
    if path_id < len(flags):
        return bool(flags[path_id])
    ok = late_memo.get(path_id)
    if ok is None:
        ok = late_memo[path_id] = _path_flag(
            table.parent(path_id), flags, table, view_label, late_memo, rec_memo
        ) and _edge_retained(table, path_id, view_label, rec_memo)
    return ok


def _rows_visible(store, view_label, rows: np.ndarray, flags: "np.ndarray | None") -> np.ndarray:
    """Visibility of the items at ``rows``: one gather, one flag lookup per side."""
    if flags is None:
        flags = path_visibility(store.table, view_label)
    path_ids = np.concatenate(
        store.gather_rows(rows, ("producer_path_id", "consumer_path_id"))
    )
    side = path_ids < 0  # NO_PATH: a boundary label's absent side hides nothing
    known = ~side & (path_ids < len(flags))
    side[known] = flags[path_ids[known]]
    late = np.nonzero(path_ids >= len(flags))[0]
    if late.size:
        # Interned after the flags snapshot (concurrent ingest): resolved
        # one by one, walking up to the snapshotted prefix.
        late_memo: dict[int, bool] = {}
        rec_memo: dict[tuple[int, int, int], bool] = {}
        for pos, path_id in zip(late.tolist(), path_ids[late].tolist()):
            side[pos] = _path_flag(path_id, flags, store.table, view_label, late_memo, rec_memo)
    return side[: rows.size] & side[rows.size :]


def visible_batch(store, view_label, uids, *, flags: "np.ndarray | None" = None) -> list[bool]:
    """Visibility of the given items, answered from packed columns alone.

    Gathers each item's ``(producer_path_id, consumer_path_id)`` and looks
    both up in the per-path flags of :func:`path_visibility` — no
    :class:`~repro.core.labels.DataLabel` objects, no edge tuples.  Safe
    against a store another thread is still appending to: nothing is
    compacted or mutated, and rows referencing paths interned after the
    flags snapshot fall back to a scalar walk.  ``flags`` short-circuits
    the per-call trie fold with a (possibly stale-but-prefix) result of
    :func:`path_visibility` for the same table and view.
    """
    rows = store.rows_for(np.asarray(uids, dtype=np.int64))
    return _rows_visible(store, view_label, rows, flags).tolist()


def visible_mask(store, view_label, *, flags: "np.ndarray | None" = None) -> np.ndarray:
    """Visibility of *every* row of a columnar store, in insertion order.

    :func:`visible_batch` over all rows (``mask[row]`` is True iff the item
    at that row is visible), with the same ``flags`` short-circuit
    (:meth:`repro.engine.QueryEngine.visible_mask` threads its per-arena
    memo through here).
    """
    return _rows_visible(store, view_label, np.arange(len(store)), flags)
