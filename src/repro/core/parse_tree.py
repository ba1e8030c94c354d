"""The compressed parse tree of a workflow run (Section 4.2.1).

The *basic parse tree* (Definition 17) mirrors the derivation: the children
of a composite-module node are the modules produced by the production applied
to it.  Its depth can be linear in the run size, which is why data labels
built from it would be linear as well; the library never builds it.

The *compressed parse tree* (Definition 18) flattens linear recursions: a
*recursive node* is inserted for every unfolded cycle of the production
graph, and the chain of nested composite modules obtained by unfolding the
cycle becomes its children.  For strictly linear-recursive grammars the depth
of the compressed tree is bounded by twice the number of composite modules
(Lemma 4), which is what makes logarithmic data labels possible.

:class:`CompressedParseTree` is built *online*, node by node, as the
derivation proceeds (Section 4.2.3), and it is columnar: every node is one
integer row in a :class:`~repro.store.node_table.NodeTable` (parent row,
interned path id, packed kind/module word, uid intern id, child count), and
every node path is interned in a :class:`~repro.store.path_table.PathTable`.
The ingest path (:meth:`CompressedParseTree.expand_event`) appends rows and
**constructs no node objects at all**; :class:`ParseNode` is a lazy
flyweight over a row id, materialised (and cached, so identity is stable)
only for the nodes a consumer actually touches.
"""

from __future__ import annotations

from repro.core.labels import EdgeLabel
from repro.core.preprocessing import GrammarIndex
from repro.errors import LabelingError
from repro.store.node_table import NO_NODE, NodeTable
from repro.store.path_table import (
    KIND_RECURSION,
    ROOT_PATH,
    PathTable,
)

__all__ = ["ParseNode", "CompressedParseTree"]


class ParseNode:
    """A lazy flyweight over one :class:`~repro.store.node_table.NodeTable` row.

    Every attribute is derived from the node's columnar row on access; the
    object itself holds nothing but the owning tree and the row id.  Trees
    cache flyweights per row, so ``tree.node_for(uid)`` returns the *same*
    object for the same node and ``node.parent`` identity works as it did for
    eager nodes.
    """

    __slots__ = ("_tree", "row")

    def __init__(self, tree: "CompressedParseTree", row: int) -> None:
        self._tree = tree
        self.row = row

    @property
    def kind(self) -> str:
        """``"module"`` for module-instance nodes, ``"recursive"`` otherwise."""
        return "module" if self._tree.nodes.is_module(self.row) else "recursive"

    @property
    def is_recursive(self) -> bool:
        return self._tree.nodes.is_recursive(self.row)

    @property
    def module_name(self) -> str | None:
        return self._tree.nodes.module_name(self.row)

    @property
    def instance_uid(self) -> str | None:
        return self._tree.nodes.uid(self.row)

    @property
    def cycle(self) -> int | None:
        return self._tree.nodes.cycle(self.row)

    @property
    def rotation(self) -> int | None:
        return self._tree.nodes.rotation(self.row)

    @property
    def path_id(self) -> int:
        return self._tree.nodes.path_id(self.row)

    @property
    def parent(self) -> "ParseNode | None":
        parent_row = self._tree.nodes.parent_row(self.row)
        return None if parent_row < 0 else self._tree._node(parent_row)

    @property
    def children(self) -> list["ParseNode"]:
        """The node's children (empty for leaves; compatibility accessor)."""
        node = self._tree._node
        return [node(row) for row in self._tree.nodes.children_rows(self.row)]

    @property
    def path(self) -> tuple[EdgeLabel, ...]:
        """The edge labels from the root to this node (materialised, shared)."""
        return self._tree.path_table.path(self.path_id)

    @property
    def edge_from_parent(self) -> EdgeLabel | None:
        """The label of the edge from the parent node (``None`` for the root)."""
        return self._tree.path_table.edge(self.path_id)

    @property
    def depth(self) -> int:
        return self._tree.path_table.depth(self.path_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = self.instance_uid if self.kind == "module" else f"R(cycle={self.cycle})"
        return f"ParseNode({name}, path={list(self.path)})"


class CompressedParseTree:
    """Online columnar builder of the compressed parse tree (Section 4.2.3)."""

    def __init__(
        self,
        index: GrammarIndex,
        path_table: PathTable | None = None,
        node_table: NodeTable | None = None,
    ) -> None:
        self._index = index
        self._table = path_table if path_table is not None else PathTable()
        # A private arena sees every node exactly once, so edges can be
        # appended blindly; a shared arena (query-engine shards) must go
        # through the interning probe so identical paths of sibling runs
        # dedupe to one id (and the bulk codec never sees duplicate rows).
        if path_table is None:
            self._add_production_edge = self._table.new_production_child
            self._add_recursion_edge = self._table.new_recursion_child
        else:
            self._add_production_edge = self._table.extend_production
            self._add_recursion_edge = self._table.extend_recursion
        self._nodes = node_table if node_table is not None else NodeTable()
        #: instance uid -> node row id (the only per-node dict the tree keeps;
        #: node_for is keyed by uid, so it cannot be columnar).
        self._by_instance: dict[str, int] = {}
        #: row id -> flyweight, filled lazily so ``node.parent is node2.parent``
        #: style identity holds for compatibility consumers without the ingest
        #: path ever constructing a node object.
        self._flyweights: dict[int, ParseNode] = {}
        self._started = False

    # -- accessors -----------------------------------------------------------

    @property
    def root(self) -> ParseNode | None:
        return self._node(0) if len(self._nodes) else None

    @property
    def path_table(self) -> PathTable:
        """The arena all node paths of this tree are interned in."""
        return self._table

    @property
    def nodes(self) -> NodeTable:
        """The columnar node arena backing this tree."""
        return self._nodes

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    def _node(self, row: int) -> ParseNode:
        node = self._flyweights.get(row)
        if node is None:
            node = self._flyweights[row] = ParseNode(self, row)
        return node

    def node_row_for(self, instance_uid: str) -> int:
        """The node row of a module instance (raises for unknown instances)."""
        try:
            return self._by_instance[instance_uid]
        except KeyError:
            raise LabelingError(
                f"no parse-tree node for instance {instance_uid!r}; the labeler "
                "must observe every derivation event in order"
            ) from None

    def node_for(self, instance_uid: str) -> ParseNode:
        return self._node(self.node_row_for(instance_uid))

    def has_node(self, instance_uid: str) -> bool:
        return instance_uid in self._by_instance

    def depth(self) -> int:
        """Maximum depth over all module nodes (used in quality analysis)."""
        nodes = self._nodes
        depth = self._table.depth
        return max(
            (depth(nodes.path_id(row)) for row in nodes.module_rows()), default=0
        )

    def max_fanout(self) -> int:
        """Maximum number of children of any node (theta_t in Theorem 10)."""
        return self._nodes.max_fanout()

    # -- construction ------------------------------------------------------------

    def start_event(self, instance_uid: str) -> int:
        """Create the root structure for the start module (rule (1)/(2) of 4.2.3).

        This is the ingest entry point: it appends the root row(s) and returns
        the start instance's *path id* without materialising a node object.
        """
        if self._started:
            raise LabelingError("the parse tree already has a root")
        self._started = True
        nodes = self._nodes
        start_name = self._index.grammar.start
        if self._index.is_recursive_module(start_name):
            s, t = self._index.cycle_position(start_name)
            recursive_row = nodes.append_recursive(NO_NODE, ROOT_PATH, s, t)
            path_id = self._table.extend_recursion(ROOT_PATH, s, t, 1)
            row = nodes.append_module(
                recursive_row, path_id, nodes.module_id(start_name), instance_uid
            )
        else:
            path_id = ROOT_PATH
            row = nodes.append_module(
                NO_NODE, ROOT_PATH, nodes.module_id(start_name), instance_uid
            )
        self._by_instance[instance_uid] = row
        return path_id

    def expand_event(
        self,
        parent_instance_uid: str,
        production_k: int,
        instances,
        position_path_ids: list[int] | None = None,
    ) -> None:
        """Insert the nodes for one production application (a derivation event).

        ``instances`` are the event's :class:`~repro.model.run.ModuleInstance`
        children, which a :class:`~repro.model.derivation.Derivation` emits in
        the production's fixed topological order; everything else about the
        children comes from the grammar's cached per-production template, so
        the per-child work is a handful of integer column appends.  Created
        nodes are reachable through :meth:`node_for`; no node objects (and no
        per-call dict) are built.  When the caller passes
        ``position_path_ids`` (a list of length ``len(instances) + 1``), slot
        ``position`` is filled with the created node's path id — the ingest
        path resolves data items by production position through it instead
        of hashing instance uids.

        The insertion rules follow Section 4.2.3: non-recursive children
        become children of the expanded node with a ``(k, i)`` edge; a child
        in the *same* cycle as the expanded module becomes the next child of
        the enclosing recursive node (label ``(s, t, i+1)``); a child in a
        *different* cycle gets a fresh recursive node in between.
        """
        entries = self._index.production_children(production_k)
        if len(entries) != len(instances):
            raise LabelingError(
                f"production {production_k} has {len(entries)} right-hand-side "
                f"modules but the event carries {len(instances)} children"
            )
        uids = [instance.uid for instance in instances]
        self._expand_rows(
            parent_instance_uid, production_k, entries, uids, position_path_ids
        )

    def _expand_rows(
        self,
        parent_instance_uid: str,
        production_k: int,
        entries,
        uids: list[str],
        position_path_ids: list[int] | None,
    ) -> None:
        parent_row = self.node_row_for(parent_instance_uid)
        nodes = self._nodes
        parent_module = nodes.module_name(parent_row)
        if parent_module is None:
            raise LabelingError("only module nodes can be expanded")
        table = self._table
        add_production_edge = self._add_production_edge
        add_recursion_edge = self._add_recursion_edge
        append_module = nodes.append_module
        module_id = nodes.module_id
        by_instance = self._by_instance
        parent_cycle_position = self._index.cycle_positions.get(parent_module)
        parent_cycle = (
            parent_cycle_position[0] if parent_cycle_position is not None else None
        )
        parent_path = nodes.path_id(parent_row)
        for (position, module_name, cycle_position), instance_uid in zip(entries, uids):
            if cycle_position is not None:
                if cycle_position[0] == parent_cycle:
                    # Rule (2a): continue the recursion chain as the next
                    # sibling of the expanded node under the recursive node.
                    recursive_row = nodes.parent_row(parent_row)
                    if recursive_row < 0 or not nodes.is_recursive(recursive_row):
                        raise LabelingError(
                            "recursive module instance is not attached to a "
                            "recursive parse node; events were fed out of order"
                        )
                    kind, s, t, i = table.edge_fields(parent_path)
                    assert kind == KIND_RECURSION
                    path_id = add_recursion_edge(
                        nodes.path_id(recursive_row), s, t, i + 1
                    )
                    row = append_module(
                        recursive_row, path_id, module_id(module_name), instance_uid
                    )
                else:
                    # Rule (2b): start a new recursion chain below this node.
                    s, t = cycle_position
                    recursive_path = add_production_edge(
                        parent_path, production_k, position
                    )
                    recursive_row = nodes.append_recursive(
                        parent_row, recursive_path, s, t
                    )
                    path_id = add_recursion_edge(recursive_path, s, t, 1)
                    row = append_module(
                        recursive_row, path_id, module_id(module_name), instance_uid
                    )
            else:
                path_id = add_production_edge(parent_path, production_k, position)
                row = append_module(
                    parent_row, path_id, module_id(module_name), instance_uid
                )
            by_instance[instance_uid] = row
            if position_path_ids is not None:
                position_path_ids[position] = path_id
