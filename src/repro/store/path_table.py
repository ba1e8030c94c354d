"""Arena-interned parse-tree paths (the ingest-side columnar layout).

Every port label of Section 4.2.2 carries the *path* from the root of the
compressed parse tree to the node of the module that created the port.  The
seed represented each path as a fresh tuple of frozen-dataclass edge labels,
so labeling a run allocated ``O(n * depth)`` Python objects.  But the set of
distinct paths of one run is exactly the set of parse-tree nodes — producer
and consumer paths of a data item differ in at most the last two edges
(Section 4.2.2) — so paths form a *trie* that can be stored once, as columns.

:class:`PathTable` interns every path as a small integer id.  Path ``0`` is
the empty (root) path; every other path is its parent's id plus one packed
edge, stored in struct-of-arrays columns: ``parent`` (the path with the last
edge removed), ``packed`` (edge kind and the two bounded fields in one
integer) and ``c`` (the unbounded recursion child index).  Columns are plain
lists while a run is being ingested (a list append is the cheapest write
Python offers) and mmap-backed numpy views once the run is persisted
(:class:`~repro.store.mapped.MappedPathTable`).  Materialising the edge-label
tuple a path stands for is lazy and memoized, so compatibility consumers pay
only when (and for what) they actually touch.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.labels import (
    EdgeLabel,
    ProductionEdgeLabel,
    RecursionEdgeLabel,
)
from repro.errors import LabelingError

__all__ = ["PathTable", "ROOT_PATH", "KIND_ROOT", "KIND_PRODUCTION", "KIND_RECURSION"]

#: The id of the empty path (the parse-tree root).
ROOT_PATH = 0

#: Edge kinds as reported by :meth:`PathTable.edge_fields`.
KIND_ROOT = -1
KIND_PRODUCTION = 0
KIND_RECURSION = 1

#: Bounded edge fields (production/cycle number, position/rotation) must fit
#: 16 bits each so the packed column stays a single small integer; both are
#: bounded by the constant-size specification, never by the run.
_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1


class PathTable:
    """An append-only trie of parse-tree paths, one integer id per path.

    Columns (index ``p`` holds path id ``p``):

    * ``parent`` — id of the path with the last edge removed (-1 for root);
    * ``packed`` — ``kind | a << 1 | b << 17`` where ``(a, b)`` is ``(k, i)``
      for production edges and ``(s, t)`` for recursion edges (-1 for root);
    * ``c``      — the recursion child index ``i`` (0 for production edges).

    Ids are assigned in insertion order, so a child id is always strictly
    greater than its parent id (the bulk codec relies on this).
    """

    __slots__ = ("_parent", "_packed", "_c", "_ids", "_indexed", "_tuples")

    def __init__(self) -> None:
        self._parent: list[int] = [-1]
        self._packed: list[int] = [-1]
        self._c: list[int] = [0]
        #: (parent, packed, c) -> id, the interning index.
        self._ids: dict[tuple[int, int, int], int] = {}
        self._indexed = True
        #: id -> materialized tuple of edge labels (lazy, shared).
        self._tuples: dict[int, tuple[EdgeLabel, ...]] = {ROOT_PATH: ()}

    # -- interning ---------------------------------------------------------------

    def extend_production(self, parent_id: int, k: int, i: int) -> int:
        """Intern ``parent_id``'s path extended with production edge ``(k, i)``."""
        if (k | i) >> _FIELD_BITS or k < 0 or i < 0:
            # Validate before probing: an out-of-range field could otherwise
            # pack onto an existing key and silently alias another path.
            raise LabelingError(f"production edge ({k}, {i}) out of range")
        key = (parent_id, KIND_PRODUCTION | k << 1 | i << 17, 0)
        ids = self._ids if self._indexed else self._rebuild_index()
        path_id = ids.get(key)
        if path_id is None:
            parents = self._parent
            if not 0 <= parent_id < len(parents):
                raise LabelingError(f"unknown parent path id {parent_id}")
            path_id = len(parents)
            parents.append(parent_id)
            self._packed.append(key[1])
            self._c.append(0)
            ids[key] = path_id
        return path_id

    def extend_recursion(self, parent_id: int, s: int, t: int, i: int) -> int:
        """Intern ``parent_id``'s path extended with recursion edge ``(s, t, i)``."""
        if (s | t) >> _FIELD_BITS or s < 0 or t < 0 or i < 0:
            raise LabelingError(f"recursion edge ({s}, {t}, {i}) out of range")
        key = (parent_id, KIND_RECURSION | s << 1 | t << 17, i)
        ids = self._ids if self._indexed else self._rebuild_index()
        path_id = ids.get(key)
        if path_id is None:
            parents = self._parent
            if not 0 <= parent_id < len(parents):
                raise LabelingError(f"unknown parent path id {parent_id}")
            path_id = len(parents)
            parents.append(parent_id)
            self._packed.append(key[1])
            self._c.append(i)
            ids[key] = path_id
        return path_id

    def new_production_child(self, parent_id: int, k: int, i: int) -> int:
        """Append a production-edge extension the caller knows is new.

        The parse-tree builder creates every node exactly once, so the memo
        probe of :meth:`extend_production` is guaranteed to miss; this skips
        it (and the parent bounds check — ``parent_id`` is the id of a live
        node).  The interning index is invalidated rather than updated — the
        next :meth:`intern`/:meth:`extend` rebuilds it from the columns in one
        pass, so bulk tree construction pays no per-node index write (but a
        workload that strictly alternates interning with fresh children
        rebuilds repeatedly; use :meth:`extend_production` there).
        """
        if (k | i) >> _FIELD_BITS or k < 0 or i < 0:
            raise LabelingError(f"production edge ({k}, {i}) out of range")
        parents = self._parent
        path_id = len(parents)
        parents.append(parent_id)
        self._packed.append(k << 1 | i << 17)
        self._c.append(0)
        if self._indexed:
            self._indexed = False
        return path_id

    def new_recursion_child(self, parent_id: int, s: int, t: int, i: int) -> int:
        """Append a recursion-edge extension the caller knows is new (see above)."""
        if (s | t) >> _FIELD_BITS or s < 0 or t < 0 or i < 0:
            raise LabelingError(f"recursion edge ({s}, {t}, {i}) out of range")
        parents = self._parent
        path_id = len(parents)
        parents.append(parent_id)
        self._packed.append(KIND_RECURSION | s << 1 | t << 17)
        self._c.append(i)
        if self._indexed:
            self._indexed = False
        return path_id

    def extend(self, parent_id: int, edge: EdgeLabel) -> int:
        """Intern an extension by an edge-label value object."""
        if isinstance(edge, ProductionEdgeLabel):
            return self.extend_production(parent_id, edge.k, edge.i)
        if isinstance(edge, RecursionEdgeLabel):
            return self.extend_recursion(parent_id, edge.s, edge.t, edge.i)
        raise LabelingError(f"unknown edge label {edge!r}")

    def intern(self, path: tuple[EdgeLabel, ...]) -> int:
        """Intern a whole path given as a tuple of edge labels."""
        path_id = ROOT_PATH
        for edge in path:
            path_id = self.extend(path_id, edge)
        return path_id

    def _rebuild_index(self) -> dict[tuple[int, int, int], int]:
        """Rebuild the interning index from the columns (after bulk growth)."""
        ids = self._ids = {
            row: path_id for path_id, row in enumerate(self.rows(), start=1)
        }
        self._indexed = True
        return ids

    # -- accessors ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def n_paths(self) -> int:
        return len(self._parent)

    def _check(self, path_id: int) -> int:
        if not 0 <= path_id < len(self._parent):
            raise LabelingError(f"unknown path id {path_id}")
        return path_id

    def parent(self, path_id: int) -> int:
        """Parent path id (-1 for the root path)."""
        return self._parent[self._check(path_id)]

    def depth(self, path_id: int) -> int:
        """Number of edges on the path."""
        p = self._check(path_id)
        parents = self._parent
        depth = 0
        while p > ROOT_PATH:
            p = parents[p]
            depth += 1
        return depth

    def edge_fields(self, path_id: int) -> tuple[int, int, int, int]:
        """The packed last edge ``(kind, a, b, c)`` (``kind == KIND_ROOT`` for root)."""
        p = self._check(path_id)
        packed = self._packed[p]
        if packed < 0:
            return (KIND_ROOT, 0, 0, 0)
        return (packed & 1, (packed >> 1) & _FIELD_MASK, packed >> 17, self._c[p])

    def edge(self, path_id: int) -> EdgeLabel | None:
        """Materialise the last edge of a path (``None`` for the root path)."""
        kind, a, b, c = self.edge_fields(path_id)
        if kind == KIND_ROOT:
            return None
        if kind == KIND_PRODUCTION:
            return ProductionEdgeLabel(a, b)
        return RecursionEdgeLabel(a, b, c)

    def path(self, path_id: int) -> tuple[EdgeLabel, ...]:
        """Materialise the whole edge-label tuple of a path (memoized, shared).

        Tuples are cached per id and built from the parent's cached tuple, so
        repeated materialisation shares structure exactly like the seed's
        eager per-node tuples did — but only for the paths actually touched.
        """
        tuples = self._tuples
        cached = tuples.get(path_id)
        if cached is not None:
            return cached
        self._check(path_id)
        # Walk up to the nearest materialised ancestor, then build back down.
        pending: list[int] = []
        p = path_id
        while p not in tuples:
            pending.append(p)
            p = self._parent[p]
        prefix = tuples[p]
        for q in reversed(pending):
            prefix = prefix + (self.edge(q),)
            tuples[q] = prefix
        return prefix

    def rows(self) -> Iterator[tuple[int, int, int]]:
        """Iterate the non-root rows ``(parent, packed, c)`` in id order."""
        return zip(self._parent[1:], self._packed[1:], self._c[1:])

    def raw_columns(self) -> tuple:
        """The live ``(parent, packed, c)`` column sequences, root row included.

        Used by the persistent store to slice delta rows; the returned
        sequences are the table's own storage — do not mutate them.
        """
        return (self._parent, self._packed, self._c)

    def iter_edges(self) -> Iterator[tuple[int, int, int, int, int]]:
        """Iterate the non-root rows as ``(parent, kind, a, b, c)`` in id order."""
        for parent, packed, c in self.rows():
            yield parent, packed & 1, (packed >> 1) & _FIELD_MASK, packed >> 17, c

    def columns(self) -> dict[str, np.ndarray]:
        """Numpy copies of the whole rows, in the dtypes of the mapped columns.

        Every column is cut at the shortest one, so a row whose appends are
        still in flight is left out.  The copies pin nothing: the trie keeps
        growing while they are alive.
        """
        n_paths = min(len(column) for column in self.raw_columns())
        return {
            "parent": np.array(self._parent[:n_paths], dtype=np.int32),
            "packed": np.array(self._packed[:n_paths], dtype=np.int64),
            "c": np.array(self._c[:n_paths], dtype=np.int32),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PathTable(n_paths={len(self)})"
