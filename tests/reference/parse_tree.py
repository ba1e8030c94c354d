"""The seed's object parse tree: one eager node object per parse-tree node.

:class:`ObjectParseTree` builds the compressed parse tree of Definition 18
with the same builder API as :class:`repro.core.CompressedParseTree`, but
keeps an :class:`ObjectParseNode` per node with parent and child pointers.
It is the reference the differential tests compare the columnar tree
against; nothing in ``src/`` uses it.
"""

from __future__ import annotations

from repro.core.labels import EdgeLabel
from repro.core.preprocessing import GrammarIndex
from repro.errors import LabelingError
from repro.store.path_table import KIND_RECURSION, ROOT_PATH, PathTable

__all__ = ["ObjectParseNode", "ObjectParseTree"]


class ObjectParseNode:
    """A seed-style eager node of the compressed parse tree.

    Kept (together with :class:`ObjectParseTree`) as the object-representation
    reference: the differential property tests assert behavioural equality.
    """

    __slots__ = (
        "module_name",
        "instance_uid",
        "cycle",
        "rotation",
        "parent",
        "_children",
        "path_id",
        "_table",
    )

    def __init__(
        self,
        table: PathTable,
        path_id: int,
        module_name: str | None = None,
        instance_uid: str | None = None,
        cycle: int | None = None,
        rotation: int | None = None,
        parent: "ObjectParseNode | None" = None,
    ) -> None:
        self.module_name = module_name
        self.instance_uid = instance_uid
        self.cycle = cycle
        self.rotation = rotation
        self.parent = parent
        #: Lazily allocated: most parse-tree nodes are leaves, so the child
        #: list exists only once a first child is attached.
        self._children: list["ObjectParseNode"] | None = None
        self.path_id = path_id
        self._table = table

    @property
    def kind(self) -> str:
        return "module" if self.module_name is not None else "recursive"

    @property
    def children(self) -> list["ObjectParseNode"]:
        children = self._children
        return children if children is not None else []

    def _attach(self, child: "ObjectParseNode") -> None:
        children = self._children
        if children is None:
            self._children = [child]
        else:
            children.append(child)

    @property
    def path(self) -> tuple[EdgeLabel, ...]:
        return self._table.path(self.path_id)

    @property
    def edge_from_parent(self) -> EdgeLabel | None:
        return self._table.edge(self.path_id)

    @property
    def is_recursive(self) -> bool:
        return self.module_name is None

    @property
    def depth(self) -> int:
        return self._table.depth(self.path_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = self.instance_uid if self.kind == "module" else f"R(cycle={self.cycle})"
        return f"ObjectParseNode({name}, path={list(self.path)})"


class ObjectParseTree:
    """The seed's per-node object builder behind the columnar tree's API."""

    def __init__(self, index: GrammarIndex, path_table: PathTable | None = None) -> None:
        self._index = index
        self._table = path_table if path_table is not None else PathTable()
        if path_table is None:
            self._add_production_edge = self._table.new_production_child
            self._add_recursion_edge = self._table.new_recursion_child
        else:
            self._add_production_edge = self._table.extend_production
            self._add_recursion_edge = self._table.extend_recursion
        self._n_nodes = 0
        self._root: ObjectParseNode | None = None
        self._by_instance: dict[str, ObjectParseNode] = {}

    # -- accessors -----------------------------------------------------------

    @property
    def root(self) -> ObjectParseNode | None:
        return self._root

    @property
    def path_table(self) -> PathTable:
        return self._table

    @property
    def n_nodes(self) -> int:
        return self._n_nodes

    def node_for(self, instance_uid: str) -> ObjectParseNode:
        try:
            return self._by_instance[instance_uid]
        except KeyError:
            raise LabelingError(
                f"no parse-tree node for instance {instance_uid!r}; the labeler "
                "must observe every derivation event in order"
            ) from None

    def has_node(self, instance_uid: str) -> bool:
        return instance_uid in self._by_instance

    def depth(self) -> int:
        return max(
            (node.depth for node in self._by_instance.values()), default=0
        )

    def max_fanout(self) -> int:
        best = 0
        seen: set[int] = set()
        for node in self._by_instance.values():
            current: ObjectParseNode | None = node
            while current is not None and id(current) not in seen:
                seen.add(id(current))
                best = max(best, len(current.children))
                current = current.parent
        return best

    # -- construction ------------------------------------------------------------

    def start_event(self, instance_uid: str) -> int:
        if self._root is not None:
            raise LabelingError("the parse tree already has a root")
        start_name = self._index.grammar.start
        if self._index.is_recursive_module(start_name):
            s, t = self._index.cycle_position(start_name)
            recursive = ObjectParseNode(
                self._table, ROOT_PATH, None, None, s, t, None
            )
            self._n_nodes += 1
            self._root = recursive
            node = ObjectParseNode(
                self._table,
                self._table.extend_recursion(ROOT_PATH, s, t, 1),
                start_name,
                instance_uid,
                None,
                None,
                recursive,
            )
            self._n_nodes += 1
            recursive._attach(node)
        else:
            node = ObjectParseNode(
                self._table, ROOT_PATH, start_name, instance_uid, None, None, None
            )
            self._n_nodes += 1
            self._root = node
        self._by_instance[instance_uid] = node
        return node.path_id

    def expand_event(
        self,
        parent_instance_uid: str,
        production_k: int,
        instances,
        position_path_ids: list[int] | None = None,
    ) -> None:
        entries = self._index.production_children(production_k)
        if len(entries) != len(instances):
            raise LabelingError(
                f"production {production_k} has {len(entries)} right-hand-side "
                f"modules but the event carries {len(instances)} children"
            )
        uids = [instance.uid for instance in instances]
        self._expand(parent_instance_uid, production_k, entries, uids, position_path_ids)

    def _expand(
        self,
        parent_instance_uid: str,
        production_k: int,
        entries,
        uids: list[str],
        position_path_ids: list[int] | None,
    ) -> None:
        parent_node = self.node_for(parent_instance_uid)
        if parent_node.kind != "module":
            raise LabelingError("only module nodes can be expanded")
        parent_module = parent_node.module_name
        table = self._table
        add_production_edge = self._add_production_edge
        add_recursion_edge = self._add_recursion_edge
        by_instance = self._by_instance
        parent_cycle_position = self._index.cycle_positions.get(parent_module)
        parent_cycle = (
            parent_cycle_position[0] if parent_cycle_position is not None else None
        )
        n_nodes = self._n_nodes
        for (position, module_name, cycle_position), instance_uid in zip(entries, uids):
            if cycle_position is not None:
                if cycle_position[0] == parent_cycle:
                    recursive = parent_node.parent
                    if recursive is None or not recursive.is_recursive:
                        raise LabelingError(
                            "recursive module instance is not attached to a "
                            "recursive parse node; events were fed out of order"
                        )
                    kind, s, t, i = table.edge_fields(parent_node.path_id)
                    assert kind == KIND_RECURSION
                    node = ObjectParseNode(
                        table,
                        add_recursion_edge(recursive.path_id, s, t, i + 1),
                        module_name,
                        instance_uid,
                        None,
                        None,
                        recursive,
                    )
                    n_nodes += 1
                else:
                    s, t = cycle_position
                    recursive = ObjectParseNode(
                        table,
                        add_production_edge(
                            parent_node.path_id, production_k, position
                        ),
                        None,
                        None,
                        s,
                        t,
                        parent_node,
                    )
                    n_nodes += 1
                    parent_node._attach(recursive)
                    node = ObjectParseNode(
                        table,
                        add_recursion_edge(recursive.path_id, s, t, 1),
                        module_name,
                        instance_uid,
                        None,
                        None,
                        recursive,
                    )
                    n_nodes += 1
            else:
                node = ObjectParseNode(
                    table,
                    add_production_edge(
                        parent_node.path_id, production_k, position
                    ),
                    module_name,
                    instance_uid,
                    None,
                    None,
                    parent_node,
                )
                n_nodes += 1
            node_parent = node.parent
            siblings = node_parent._children
            if siblings is None:
                node_parent._children = [node]
            else:
                siblings.append(node)
            by_instance[instance_uid] = node
            if position_path_ids is not None:
                position_path_ids[position] = node.path_id
        self._n_nodes = n_nodes

