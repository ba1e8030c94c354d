"""Columnar parse-tree nodes: the run's tree as struct-of-arrays integer rows.

PR 2 made the *labels* of a run columnar; after that, ingest time was
dominated by building one ``ParseNode`` object (plus a child list and a dict
entry) per parse-tree node.  But a compressed-parse-tree node is fully
described by five small integers — its parent row, its interned path id, a
packed kind/module (or cycle/rotation) word, an intern id for the module
instance uid, and its child count — so the tree itself can live in the same
arena family as :class:`~repro.store.path_table.PathTable`.

:class:`NodeTable` stores exactly those five columns, append-only, in
insertion order (a child row id is always strictly greater than its parent
row id, mirroring the path table's invariant).  Columns are plain Python
lists while the run is being ingested and mmap-backed numpy views once the
run is persisted (:class:`~repro.store.mapped.MappedNodeTable`).  The ingest
path appends rows and never builds node objects —
:class:`~repro.core.parse_tree.ParseNode` is a lazy flyweight over a row id,
materialised only for nodes a compatibility consumer actually touches.

``child_count`` is the one column that is *derived* state: it is updated in
place when a child is appended, so the persistent store
(:mod:`repro.store.checkpoint`) does not write it and the mapped reader
recomputes it with one vectorised ``bincount`` instead.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import LabelingError

__all__ = ["NodeTable", "NO_NODE", "NODE_MODULE", "NODE_RECURSIVE"]

#: Sentinel row id for "no parent" (the root row) and "no node".
NO_NODE = -1

#: Node kinds as reported by :meth:`NodeTable.kind`.
NODE_MODULE = 0
NODE_RECURSIVE = 1

#: Bounded meta fields (module id, cycle id, rotation) must fit 16 bits each
#: so the packed column stays one small integer; all three are bounded by the
#: constant-size specification, never by the run.
_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1


class NodeTable:
    """An append-only arena of parse-tree nodes, one integer row per node.

    Columns (index ``r`` holds node row ``r``):

    * ``parent``      — parent row id (``NO_NODE`` for the root);
    * ``path_id``     — the node's interned path in the sibling ``PathTable``;
    * ``meta``        — ``kind | a << 1 | b << 17`` where ``(a, b)`` is
      ``(module_id, 0)`` for module rows and ``(cycle s, rotation t)`` for
      recursive rows;
    * ``uid_id``      — index into the instance-uid intern list (module rows;
      ``-1`` for recursive rows);
    * ``child_count`` — number of children appended so far (derived).

    Module names are interned once per distinct name (the grammar is of
    constant size), so a module row's name costs one small int, not a string
    reference per node.
    """

    __slots__ = (
        "_parent",
        "_path_id",
        "_meta",
        "_uid_id",
        "_child_count",
        "_uids",
        "_module_ids",
        "_module_names",
    )

    def __init__(self) -> None:
        self._parent: list[int] = []
        self._path_id: list[int] = []
        self._meta: list[int] = []
        self._uid_id: list[int] = []
        self._child_count: list[int] = []
        #: uid intern list: ``uid_id -> instance uid`` (module rows only).
        self._uids: list[str] = []
        self._module_ids: dict[str, int] = {}
        self._module_names: list[str] = []

    # -- ingest ------------------------------------------------------------------

    def module_id(self, module_name: str) -> int:
        """Intern a module name (idempotent; ids are assigned in first-seen order)."""
        mid = self._module_ids.get(module_name)
        if mid is None:
            mid = len(self._module_names)
            if mid > _FIELD_MASK:  # pragma: no cover - impossible for real grammars
                raise LabelingError("too many distinct module names")
            self._module_ids[module_name] = mid
            self._module_names.append(module_name)
        return mid

    def append_module(
        self, parent_row: int, path_id: int, module_id: int, instance_uid: str
    ) -> int:
        """Append a module-instance row; returns the new row id.

        This is the hot ingest path: five list appends, one uid-list append
        and one child-count bump — no objects.
        """
        parents = self._parent
        row = len(parents)
        if not NO_NODE <= parent_row < row:
            raise LabelingError(f"unknown parent node row {parent_row}")
        if not 0 <= module_id < len(self._module_names):
            raise LabelingError(f"unknown module id {module_id}")
        parents.append(parent_row)
        self._path_id.append(path_id)
        self._meta.append(module_id << 1)
        self._uid_id.append(len(self._uids))
        self._uids.append(instance_uid)
        self._child_count.append(0)
        if parent_row >= 0:
            self._child_count[parent_row] += 1
        return row

    def append_recursive(self, parent_row: int, path_id: int, s: int, t: int) -> int:
        """Append a recursive-node row for cycle ``s`` at rotation ``t``."""
        if (s | t) >> _FIELD_BITS or s < 0 or t < 0:
            raise LabelingError(f"recursive node fields ({s}, {t}) out of range")
        parents = self._parent
        row = len(parents)
        if not NO_NODE <= parent_row < row:
            raise LabelingError(f"unknown parent node row {parent_row}")
        parents.append(parent_row)
        self._path_id.append(path_id)
        self._meta.append(NODE_RECURSIVE | s << 1 | t << 17)
        self._uid_id.append(NO_NODE)
        self._child_count.append(0)
        if parent_row >= 0:
            self._child_count[parent_row] += 1
        return row

    # -- accessors ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def n_nodes(self) -> int:
        return len(self._parent)

    @property
    def n_uids(self) -> int:
        """Number of interned instance uids (== number of module rows)."""
        return len(self._uids)

    @property
    def module_names(self) -> list[str]:
        """The interned module-name list (``module_id -> name``)."""
        return self._module_names

    def _check(self, row: int) -> int:
        if not 0 <= row < len(self._parent):
            raise LabelingError(f"unknown node row {row}")
        return row

    def parent_row(self, row: int) -> int:
        """Parent row id (``NO_NODE`` for the root)."""
        return self._parent[self._check(row)]

    def path_id(self, row: int) -> int:
        """The node's interned path id."""
        return self._path_id[self._check(row)]

    def kind(self, row: int) -> int:
        """``NODE_MODULE`` or ``NODE_RECURSIVE``."""
        return self._meta[self._check(row)] & 1

    def is_module(self, row: int) -> bool:
        return self._meta[self._check(row)] & 1 == NODE_MODULE

    def is_recursive(self, row: int) -> bool:
        return self._meta[self._check(row)] & 1 == NODE_RECURSIVE

    def module_name(self, row: int) -> str | None:
        """The module name of a module row (``None`` for recursive rows)."""
        meta = self._meta[self._check(row)]
        if meta & 1:
            return None
        return self._module_names[(meta >> 1) & _FIELD_MASK]

    def uid(self, row: int) -> str | None:
        """The instance uid of a module row (``None`` for recursive rows)."""
        uid_id = self._uid_id[self._check(row)]
        return None if uid_id < 0 else self._uids[uid_id]

    def cycle(self, row: int) -> int | None:
        """The cycle id ``s`` of a recursive row (``None`` for module rows)."""
        meta = self._meta[self._check(row)]
        if not meta & 1:
            return None
        return (meta >> 1) & _FIELD_MASK

    def rotation(self, row: int) -> int | None:
        """The rotation ``t`` of a recursive row (``None`` for module rows)."""
        meta = self._meta[self._check(row)]
        if not meta & 1:
            return None
        return meta >> 17

    def child_count(self, row: int) -> int:
        """Number of children of a row (theta_t contributions, fanout analysis)."""
        return self._child_count[self._check(row)]

    def children_rows(self, row: int) -> list[int]:
        """Row ids of the node's children, in insertion (= sibling) order.

        This scans the parent column — it is a compatibility accessor for
        consumers that walk the tree top-down (tests, examples), not an
        ingest- or serving-path operation.
        """
        self._check(row)
        return [r for r, parent in enumerate(self._parent) if parent == row]

    def module_rows(self) -> Iterator[int]:
        """Row ids of all module rows, in insertion order."""
        for row, uid_id in enumerate(self._uid_id):
            if uid_id >= 0:
                yield row

    def max_fanout(self) -> int:
        """Maximum child count over all rows (0 for an empty table)."""
        return max(self._child_count, default=0)

    def rows(self) -> Iterator[tuple[int, int, int, int]]:
        """Iterate ``(parent, path_id, meta, uid_id)`` in row order."""
        return zip(self._parent, self._path_id, self._meta, self._uid_id)

    def raw_columns(self) -> tuple:
        """The live ``(parent, path_id, meta, uid_id)`` column sequences.

        ``child_count`` is deliberately excluded: it is derived state that is
        updated in place (not append-only), so the persistent store never
        writes it and mapped readers recompute it instead.
        """
        return (self._parent, self._path_id, self._meta, self._uid_id)

    def uid_slice(self, start: int) -> list[str]:
        """The interned instance uids from index ``start`` on (delta slices)."""
        return self._uids[start:]

    def columns(self) -> dict[str, np.ndarray]:
        """Numpy copies of the whole rows, in the dtypes of the mapped columns.

        Every column is cut at the shortest one, so a row whose appends are
        still in flight is left out.  The copies pin nothing: the arena keeps
        growing while they are alive.
        """
        columns = self.raw_columns() + (self._child_count,)
        n_nodes = min(len(column) for column in columns)
        return {
            "parent": np.array(self._parent[:n_nodes], dtype=np.int32),
            "path_id": np.array(self._path_id[:n_nodes], dtype=np.int32),
            "meta": np.array(self._meta[:n_nodes], dtype=np.int64),
            "uid_id": np.array(self._uid_id[:n_nodes], dtype=np.int32),
            "child_count": np.array(self._child_count[:n_nodes], dtype=np.int32),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NodeTable({len(self)} nodes, {len(self._uids)} module instances)"
