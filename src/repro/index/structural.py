"""Interval columns over a parse tree: an offline utility.

The parse tree is a tree, so XPath-accelerator-style *interval columns* —
``pre``-order rank, ``post = pre + subtree_size - 1`` and ``level`` — decide
ancestor/descendant relations between any two nodes with two integer
comparisons.  :func:`compute_tree_intervals` derives them from a parent
column and :class:`StructuralIndex` re-indexes them by path id.

Nothing serves from this module: the decode kernel
(:mod:`repro.engine.kernel`) finds every pair's lowest common ancestor with
its own climb over the trie's ``parent`` column and settles forced products
from the matrix bank's classes, and run files no longer carry interval
columns.  It stays for offline analysis of a run's tree and for the
benchmark's ``index.build_ms`` rung; only :mod:`repro.index` imports it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "compute_tree_intervals",
    "tree_levels",
    "StructuralIndex",
]


def _as_int64(column, n: int | None = None) -> np.ndarray:
    """An int64 array over a column prefix that pins no live storage.

    A list or ``array`` column (a live arena's) is sliced first — the slice
    is a private copy, so a numpy view of it cannot stop the arena growing;
    an ndarray (a mapped, immutable column) is viewed zero-copy where the
    dtype allows.
    """
    if isinstance(column, np.ndarray):
        return column[:n].astype(np.int64, copy=False)
    return np.asarray(column[:n], dtype=np.int64)


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
    ``pre[a] <= pre[b] <= post[a]``.  Deterministic: the same parent column
    gives bit-identical columns.  Forest-safe (multiple ``parent < 0`` roots are numbered in id
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
    """The interval columns of a run's parse tree, scattered over its path trie.

    The parse-tree ``(pre, post, level)`` columns are re-indexed by each
    node's interned *path id*, the coordinate the label columns speak.
    Every node has a distinct path, so the scatter is a bijection onto the
    ``covered`` ids; a run whose node rows violate that (or reference ids
    outside the trie) gets no index — :meth:`build` returns ``None``.
    Instances are immutable snapshots.
    """

    __slots__ = ("n_paths", "n_nodes", "pre", "post", "level", "covered", "parent", "packed")

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

        ``intervals`` is an optional precomputed ``(pre, post, level)`` triple
        (node-indexed, e.g. :meth:`repro.store.MappedRunStore.structural_index`
        of a file that still carries them); without it the intervals are
        derived from ``node_parent`` in one vectorised traversal.
        """
        trie_parent = _as_int64(trie_parent)
        trie_packed = _as_int64(trie_packed)
        n_paths = int(min(trie_parent.size, trie_packed.size))
        trie_parent = trie_parent[:n_paths]
        trie_packed = trie_packed[:n_paths]
        node_path = _as_int64(node_path_id)
        n_nodes = int(node_path.size)
        if n_paths == 0 or n_nodes == 0:
            return None
        if intervals is not None:
            node_pre, node_post, node_level = (_as_int64(a) for a in intervals)
            if not node_pre.size == node_post.size == node_level.size == n_nodes:
                return None
        else:
            parent = _as_int64(node_parent, n_nodes)
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

    def is_ancestor(self, a: int, b: int) -> bool:
        """Whether path ``a`` is a prefix of (or equal to) path ``b``.

        ``b`` must be a covered id; the trie root (id 0, the empty path) is
        everybody's ancestor and needs no interval.
        """
        if a == 0:
            return True
        return bool(self.pre[a] <= self.pre[b] <= self.post[a])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StructuralIndex({self.n_nodes} nodes over {self.n_paths} paths)"
