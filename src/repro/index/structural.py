"""Structural interval index: answer ``depends`` without decoding a matrix.

Decoded pair matrices (:mod:`repro.core.decoder`) are exact but expensive to
assemble cold: the first batch against a freshly attached run pays one chain
product per distinct path pair.  For the tree-shaped part of a view this is
avoidable.  The parse tree is a tree, so XPath-accelerator-style *interval
columns* — ``pre``-order rank, ``post = pre + subtree_size - 1`` and
``level`` — decide ancestor/descendant relations between any two nodes with
two integer comparisons, and locate the lowest common ancestor with a short
parent walk instead of materialising edge-label tuples.

On top of the intervals, a per-``(view, variant)`` :class:`ChainClassifier`
splits the view's production chains into a *structural residue* and a
*recursive residue*.  Every distinct production edge ``(k, i)`` of the trie
is classified once by its ``Inputs``/``Outputs`` matrix:

* ``CLASS_TRUE`` — the matrix is all-true (with nonzero dimensions): the
  factor is neutral in a chain product of all-true factors;
* ``CLASS_FALSE`` — the matrix is all-false (including a zero dimension): it
  annihilates the product, every entry of the result is False;
* ``CLASS_MIXED`` — anything else, *including* a matrix whose construction
  raises: the answer genuinely depends on ports, so the decoder must run.

The classes are folded cumulatively along the trie, so the class content of
any root-to-leaf *segment* (the ``l1[split+1:]`` / ``l2[split+1:]`` tails of
Algorithm 2) is two subtractions.  :meth:`ChainClassifier.classify` then
answers a ``(producer_path, consumer_path)`` group ``True``/``False`` when
the decoder's matrix would be uniform, and ``None`` — *fall back to matrix
decode* — whenever recursion edges, mixed matrices or a raising factor are
involved.  The decoder stays the single source of truth: the structural path
only ever answers when the matrix answer is forced.

This module deliberately imports nothing from the store or engine packages
(only numpy), so :mod:`repro.store.checkpoint` and :mod:`repro.store.compaction`
can persist/verify the interval columns without an import cycle.  The packed
edge-word layout therefore repeats :mod:`repro.store.path_table`'s encoding
(``kind | a << 1 | b << 17``); a unit test pins the two together.
"""

from __future__ import annotations

from array import array

import numpy as np

__all__ = [
    "CLASS_TRUE",
    "CLASS_FALSE",
    "CLASS_MIXED",
    "classify_matrix",
    "compute_tree_intervals",
    "tree_levels",
    "as_int64",
    "StructuralIndex",
    "WordLanes",
    "ChainClassifier",
]

#: Edge-matrix classes (see module docstring).
CLASS_TRUE = 0
CLASS_FALSE = 1
CLASS_MIXED = 2

#: A chain classifier counts, per path, the all-false and the mixed factors
#: between the root and the path in one int64: all-false in the low 32-bit
#: lane, mixed in the high one (a count is at most the trie's depth).
_LANE_BITS = 32
_CLASS_LANE = (0, 1, 1 << _LANE_BITS)  # indexed by CLASS_TRUE / _FALSE / _MIXED

#: Packed edge-word layout — must match ``repro.store.path_table``
#: (``kind | a << 1 | b << 17``, production kind bit 0).
_KIND_PRODUCTION = 0
_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1


def as_int64(column, n: int | None = None) -> np.ndarray:
    """A private int64 snapshot of a column prefix, never aliasing live storage.

    Live arenas back their columns with plain lists or ``array`` buffers whose
    numpy views *pin* the storage (growing then raises ``BufferError``), so a
    non-ndarray column is always sliced/copied; mapped (immutable) ndarray
    columns are viewed zero-copy where the dtype allows.  Multi-segment mapped
    columns expose ``concatenated()``, which is used for the one whole-column
    pass a build needs.
    """
    concatenated = getattr(column, "concatenated", None)
    if concatenated is not None:
        column = concatenated()
    if isinstance(column, np.ndarray):
        arr = column if n is None else column[:n]
        return arr.astype(np.int64, copy=False)
    if n is not None:
        column = column[:n]  # a fresh slice object: viewing it pins nothing live
        return np.asarray(column, dtype=np.int64)
    return np.array(column, dtype=np.int64)


def tree_levels(parent: np.ndarray) -> np.ndarray:
    """Depth of every row of a parent-array forest (roots are level 0).

    Requires the arenas' append invariant — a child's row id is strictly
    greater than its parent's — and resolves one depth level per vectorised
    pass, so the cost is ``O(n)`` work times the tree depth in numpy ops.
    """
    parent = np.asarray(parent)
    n = int(parent.size)
    level = np.zeros(n, dtype=np.int64)
    if n == 0:
        return level
    safe = np.maximum(parent, 0)
    frontier = parent < 0
    pending = ~frontier
    depth = 0
    while pending.any():
        depth += 1
        advance = pending & frontier[safe]
        if not advance.any():
            raise ValueError("parent column is not topologically ordered")
        level[advance] = depth
        frontier = advance
        pending &= ~advance
    return level


def _depth_groups(level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows grouped by depth: ``(order, bounds)`` with ``order[bounds[d]:bounds[d+1]]``.

    ``order`` is a stable sort by level, so rows stay in id (= sibling) order
    within each depth.
    """
    order = np.argsort(level, kind="stable")
    depths = level[order]
    max_depth = int(depths[-1]) if depths.size else 0
    bounds = np.searchsorted(depths, np.arange(max_depth + 2))
    return order, bounds


def compute_tree_intervals(parent) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Derive ``(pre, post, level)`` int64 columns from a parent array.

    ``pre`` is the DFS pre-order rank (children visited in row-id order,
    which is the arenas' sibling order), ``post = pre + subtree_size - 1``,
    and ``level`` the depth.  Node ``a`` is an ancestor-or-self of ``b`` iff
    ``pre[a] <= pre[b] <= post[a]``.  Deterministic — checkpoint, compaction
    and the engine all recompute bit-identical columns from the same parent
    column.  Forest-safe (multiple ``parent < 0`` roots are numbered in id
    order) and fully vectorised per depth level.
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = int(parent.size)
    level = tree_levels(parent)
    pre = np.zeros(n, dtype=np.int64)
    size = np.ones(n, dtype=np.int64)
    if n == 0:
        return pre, size - 2, level
    order, bounds = _depth_groups(level)
    max_depth = len(bounds) - 2
    # Bottom-up subtree sizes, one depth at a time (children final first).
    for d in range(max_depth, 0, -1):
        rows = order[bounds[d] : bounds[d + 1]]
        np.add.at(size, parent[rows], size[rows])
    # Top-down pre-order ranks: a child's rank is its parent's plus one plus
    # the sizes of its earlier siblings (an exclusive per-parent cumsum).
    roots = order[bounds[0] : bounds[1]]
    pre[roots] = np.cumsum(size[roots]) - size[roots]
    for d in range(1, max_depth + 1):
        rows = order[bounds[d] : bounds[d + 1]]
        parents = parent[rows]
        grp = np.argsort(parents, kind="stable")
        rs = rows[grp]
        ps = parents[grp]
        csz = np.cumsum(size[rs]) - size[rs]
        starts = np.nonzero(np.r_[True, ps[1:] != ps[:-1]])[0]
        counts = np.diff(np.r_[starts, ps.size])
        within = csz - np.repeat(csz[starts], counts)
        pre[rs] = pre[ps] + 1 + within
    post = pre + size - 1
    return pre, post, level


class StructuralIndex:
    """Per-shard interval state: node intervals scattered over the path trie.

    The parse-tree ``(pre, post, level)`` columns are re-indexed by each
    node's interned *path id*, because that is the coordinate the label
    columns (and the engine's batch grouping) speak.  Every node has a
    distinct path, so the scatter is a bijection onto the ``covered`` ids;
    a run whose node rows violate that (or reference ids outside the trie)
    gets no index — :meth:`build` returns ``None`` and the engine stays on
    the decoder.  The index also carries a private int64 snapshot of the
    trie's ``parent``/``packed`` columns plus a cumulative recursion-edge
    count per path, so classification never touches live arenas, and the
    trie's *word table* — which rows are production edges, their distinct
    packed ``(k, i)`` words and each row's slot among them — which every
    :class:`ChainClassifier` over this snapshot maps its matrix classes
    through instead of re-deriving it per view.

    Instances are immutable snapshots; when a live shard's tree grows the
    engine builds a fresh index rather than mutating this one.
    """

    __slots__ = (
        "n_paths",
        "n_nodes",
        "pre",
        "post",
        "level",
        "covered",
        "parent",
        "packed",
        "rec_cnt",
        "production_rows",
        "production_words",
        "production_slots",
        "_order",
        "_bounds",
        "_pre",
        "_post",
        "_covered",
        "_parent",
        "_packed",
        "_rec",
    )

    def __init__(
        self,
        trie_parent: np.ndarray,
        trie_packed: np.ndarray,
        pre: np.ndarray,
        post: np.ndarray,
        level: np.ndarray,
        covered: np.ndarray,
        n_nodes: int,
    ) -> None:
        self.n_paths = int(trie_parent.size)
        self.n_nodes = int(n_nodes)
        self.parent = trie_parent
        self.packed = trie_packed
        self.pre = pre
        self.post = post
        self.level = level
        self.covered = covered
        trie_level = tree_levels(trie_parent)
        self._order, self._bounds = _depth_groups(trie_level)
        rec = (trie_packed & 1).astype(np.int64)
        if rec.size:
            rec[0] = 0  # the root row packs -1; it carries no edge
        self.rec_cnt = self.prefix_fold(rec)
        # (The root's -1 reads as a recursion kind bit, so it is never a row here.)
        self.production_rows = np.nonzero((trie_packed & 1) == _KIND_PRODUCTION)[0]
        self.production_words, self.production_slots = np.unique(
            trie_packed[self.production_rows], return_inverse=True
        )
        # Plain-list mirrors: the classify walk is scalar, and Python-list
        # indexing beats numpy scalar indexing by ~10x on that path.
        self._pre = pre.tolist()
        self._post = post.tolist()
        self._covered = covered.tolist()
        self._parent = trie_parent.tolist()
        self._packed = trie_packed.tolist()
        self._rec = self.rec_cnt.tolist()

    @classmethod
    def build(
        cls,
        trie_parent,
        trie_packed,
        node_parent,
        node_path_id,
        *,
        intervals=None,
    ) -> "StructuralIndex | None":
        """Assemble an index, or ``None`` when the run cannot carry one.

        ``intervals`` is an optional persisted ``(pre, post, level)`` triple
        (node-indexed, e.g. :meth:`repro.store.MappedRunStore.structural_index`);
        without it the intervals are derived from ``node_parent`` in one
        vectorised traversal.
        """
        trie_parent = as_int64(trie_parent)
        trie_packed = as_int64(trie_packed)
        n_paths = int(min(trie_parent.size, trie_packed.size))
        trie_parent = trie_parent[:n_paths]
        trie_packed = trie_packed[:n_paths]
        node_path = as_int64(node_path_id)
        n_nodes = int(node_path.size)
        if n_paths == 0 or n_nodes == 0:
            return None
        if intervals is not None:
            node_pre, node_post, node_level = (as_int64(a) for a in intervals)
            if not node_pre.size == node_post.size == node_level.size == n_nodes:
                return None
        else:
            parent = as_int64(node_parent, n_nodes)
            if parent.size != n_nodes:
                return None
            node_pre, node_post, node_level = compute_tree_intervals(parent)
        if int(node_path.min()) < 0 or int(node_path.max()) >= n_paths:
            return None
        covered = np.zeros(n_paths, dtype=bool)
        covered[node_path] = True
        if int(covered.sum()) != n_nodes:
            return None  # duplicate path ids: the scatter would be ambiguous
        pre = np.zeros(n_paths, dtype=np.int64)
        post = np.full(n_paths, -1, dtype=np.int64)  # empty interval: never an ancestor
        level = np.full(n_paths, -1, dtype=np.int64)
        pre[node_path] = node_pre
        post[node_path] = node_post
        level[node_path] = node_level
        return cls(trie_parent, trie_packed, pre, post, level, covered, n_nodes)

    def prefix_fold(self, values) -> np.ndarray:
        """Cumulative root-to-row sums of per-row values along the trie."""
        out = np.asarray(values, dtype=np.int64).copy()
        order, bounds = self._order, self._bounds
        parent = self.parent
        for d in range(1, len(bounds) - 1):
            rows = order[bounds[d] : bounds[d + 1]]
            out[rows] += out[parent[rows]]
        return out

    def is_ancestor(self, a: int, b: int) -> bool:
        """Whether path ``a`` is a prefix of (or equal to) path ``b``.

        ``b`` must be a covered id; the trie root (id 0, the empty path) is
        everybody's ancestor and needs no interval.
        """
        if a == 0:
            return True
        return self._pre[a] <= self._pre[b] <= self._post[a]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StructuralIndex({self.n_nodes} nodes over {self.n_paths} paths)"


def classify_matrix(matrix_for, *args) -> int:
    """The three-way class of one view matrix (see module docstring).

    A matrix whose construction raises (a dropped production, a malformed
    edge) classifies ``CLASS_MIXED``: the decoder must run and surface the
    same error the matrix path would.  ``is_all_false`` is checked first —
    a zero-dimension matrix reports all-true *and* all-false, but acts as an
    annihilator in a chain product, which is the all-false behaviour.
    """
    try:
        matrix = matrix_for(*args)
    except Exception:
        return CLASS_MIXED
    if matrix.is_all_false():
        return CLASS_FALSE
    if matrix.is_all_true():
        return CLASS_TRUE
    return CLASS_MIXED


class WordLanes:
    """Per production edge word, the lane increments of its ``Inputs``/``Outputs`` classes.

    One per ``(view, variant)``: the classes depend on nothing else, so a
    :class:`ChainClassifier` over a new mapping resolves only the words no
    earlier classifier of the view has met and otherwise costs its two
    folds.  ``table`` is one ``(sorted words, (2, n) lanes)`` tuple, replaced
    — never mutated — when words are added; racing classifiers each extend
    the snapshot they read, and a lost update only costs a second resolution.
    """

    __slots__ = ("table",)

    def __init__(self) -> None:
        self.table = (np.empty(0, dtype=np.int64), np.empty((2, 0), dtype=np.int64))

    def __len__(self) -> int:
        return int(self.table[0].size)

    def lanes(self, words: np.ndarray, classify) -> np.ndarray:
        """The ``(2, len(words))`` lanes of sorted distinct ``words``.

        ``classify(word)`` gives the ``(inputs, outputs)`` lanes of a new word.
        """
        known, lanes = self.table
        new = np.setdiff1d(words, known, assume_unique=True)
        if new.size:
            resolved = np.asarray([classify(word) for word in new.tolist()], dtype=np.int64).T
            known = np.concatenate((known, new))
            order = np.argsort(known)
            known, lanes = known[order], np.concatenate((lanes, resolved), axis=1)[:, order]
            self.table = (known, lanes)
        return lanes[:, np.searchsorted(known, words)]


class ChainClassifier:
    """Per-``(view, variant)`` chain classes over one shard's trie.

    Built once per decoded view state and :class:`StructuralIndex` snapshot:
    every distinct production edge word of the trie (the snapshot's word
    table) is classified by its ``Inputs`` and ``Outputs`` matrices, and the
    ``CLASS_FALSE`` / ``CLASS_MIXED`` counts are folded cumulatively along
    the trie — ``in_fold[p]`` / ``out_fold[p]`` hold both counts of path
    ``p`` in one integer (``count_false | count_mixed << 32``), so each
    function costs one fold.  The ``Z`` matrices are classified lazily per
    ``(k, i, j)`` divergence, since only queried LCAs ever need one.

    :meth:`classify` mirrors the decision order of the decoder's
    ``_case_module_lca`` exactly — including which failures raise before
    which factors are evaluated — so a non-``None`` verdict is always the
    bit the decoded matrix would have produced for *every* port pair of the
    group.
    """

    __slots__ = ("index", "state", "in_fold", "out_fold", "_classes")

    def __init__(
        self,
        index: StructuralIndex,
        state,
        classes: "dict | None" = None,
        word_lanes: "WordLanes | None" = None,
    ) -> None:
        self.index = index
        self.state = state
        # Matrix classes depend on (grammar, view, variant) only — the
        # caller may pass shared memos (the engine threads the view's
        # static ``structural_classes`` and ``word_lanes``) so classifiers
        # for other shards, and rebuilds after a re-attach or a view-state
        # eviction, skip every classified matrix.
        self._classes: dict[tuple, int] = classes if classes is not None else {}
        # Per distinct production word, the lane increments of its Inputs and
        # Outputs matrix classes; scattered over the rows through the
        # snapshot's word table and folded along the trie, one pass each.
        memo = WordLanes() if word_lanes is None else word_lanes
        lanes = memo.lanes(index.production_words, self._word_lanes)
        row_lanes = np.zeros((2, index.n_paths), dtype=np.int64)
        row_lanes[:, index.production_rows] = lanes[:, index.production_slots]
        # Packed ``array`` buffers, not lists: most lane values are beyond
        # the interpreter's small-int cache, and a list would hold one int
        # object per path.
        self.in_fold = array("q", index.prefix_fold(row_lanes[0]).tobytes())
        self.out_fold = array("q", index.prefix_fold(row_lanes[1]).tobytes())

    @property
    def nbytes(self) -> int:
        """Bytes of the two folds (the index and the class memos are shared)."""
        return (len(self.in_fold) + len(self.out_fold)) * self.in_fold.itemsize

    def _word_lanes(self, word: int) -> list[int]:
        """The ``[Inputs, Outputs]`` lane increments of one production edge word."""
        k, i = (word >> 1) & _FIELD_MASK, word >> (_FIELD_BITS + 1)
        lanes = []
        for key, matrix_for in ((("I", k, i), self.state.inputs), (("O", k, i), self.state.outputs)):
            cls_ = self._classes.get(key)
            if cls_ is None:
                cls_ = self._classes[key] = classify_matrix(matrix_for, k, i)
            lanes.append(_CLASS_LANE[cls_])
        return lanes

    def _z_class(self, k: int, i: int, j: int) -> int:
        key = ("Z", k, i, j)
        cls_ = self._classes.get(key)
        if cls_ is None:
            cls_ = self._classes[key] = classify_matrix(self.state.z, k, i, j)
        return cls_

    def classify(self, p1: int, c2: int) -> "bool | None":
        """The group verdict for producer path ``p1`` / consumer path ``c2``.

        ``True``/``False`` answer every member of the ``(p1, c2)`` group;
        ``None`` means the group belongs to the recursive (or mixed) residue
        and must be decoded.
        """
        index = self.index
        n = index.n_paths
        if not (0 <= p1 < n and 0 <= c2 < n):
            return None
        covered = index._covered
        if not ((p1 == 0 or covered[p1]) and (c2 == 0 or covered[c2])):
            return None
        # Case 1 of Algorithm 2: one path a prefix of the other — never a
        # dependency (the decoder returns a None matrix).  The interval test
        # is inlined (rather than through :meth:`StructuralIndex.is_ancestor`)
        # because this method runs once per distinct group of a batch and the
        # call overhead dominates the comparison.
        if p1 == 0 or c2 == 0:
            return False  # the root (empty path) is everybody's prefix
        pre = index._pre
        post = index._post
        pre2 = pre[c2]
        if pre[p1] <= pre2 <= post[p1] or pre2 <= pre[p1] <= post[c2]:
            return False
        parent = index._parent
        # Interval-guided LCA: walk p1 up until the parent covers c2 …
        d1 = p1
        a = parent[d1]
        while a != 0 and not (pre[a] <= pre2 <= post[a]):
            d1 = a
            a = parent[d1]
        lca = a
        # … then walk c2 up to its child-of-LCA edge.
        d2 = c2
        a = parent[d2]
        while a != lca:
            d2 = a
            a = parent[d2]
        # Any recursion edge on either diverging segment (the d1/d2 edges
        # included) routes the group to Case 2b — the recursive residue.
        rec = index._rec
        rec_lca = rec[lca] if lca > 0 else 0
        if rec[p1] != rec_lca or rec[c2] != rec_lca:
            return None
        packed = index._packed
        w1 = packed[d1]
        w2 = packed[d2]
        k = (w1 >> 1) & _FIELD_MASK
        if k != (w2 >> 1) & _FIELD_MASK:
            return None  # malformed siblings: let the decoder raise its error
        i = w1 >> (_FIELD_BITS + 1)
        j = w2 >> (_FIELD_BITS + 1)
        if i > j:
            # Producer module after consumer module in topological order.
            return False
        # Decoder order: Z is evaluated before any chain factor, so a
        # raising/mixed Z falls back *before* tail classes are consulted,
        # and an all-false Z is False regardless of what the tails would do.
        zc = self._z_class(k, i, j)
        if zc == CLASS_MIXED:
            return None
        if zc == CLASS_FALSE:
            return False
        # Tail segments l1[split+1:] (Outputs product) and l2[split+1:]
        # (Inputs product).  A mixed/raising factor anywhere defers to the
        # decoder — checked before the all-false factors, because the
        # decoder builds both chains (and raises) before multiplying.
        # d1/d2 are ancestors of p1/c2, so every lane of the difference is
        # the (non-negative) count over the tail and no lane borrows.
        tails = (self.out_fold[p1] - self.out_fold[d1]) | (
            self.in_fold[c2] - self.in_fold[d2]
        )
        if tails >> _LANE_BITS:
            return None
        if tails:
            return False
        # Every factor all-true with nonzero dimensions: the product is
        # all-true, so every port pair of the group answers True.
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChainClassifier({len(self._classes)} matrix classes over {self.index!r})"
