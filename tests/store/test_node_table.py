"""Unit tests for the columnar node arena and the ParseNode flyweight."""

import pytest

from repro.core import CompressedParseTree, GrammarIndex, ParseNode
from repro.errors import LabelingError
from repro.model import Derivation
from repro.store import (
    NO_NODE,
    NODE_MODULE,
    NODE_RECURSIVE,
    ROOT_PATH,
    NodeTable,
    PathTable,
)


# -- NodeTable ---------------------------------------------------------------


def _table_with_rows():
    paths = PathTable()
    nodes = NodeTable()
    mid_s = nodes.module_id("S")
    mid_a = nodes.module_id("A")
    root = nodes.append_module(NO_NODE, ROOT_PATH, mid_s, "S:1")
    p1 = paths.extend_production(ROOT_PATH, 1, 1)
    rec = nodes.append_recursive(root, p1, 2, 1)
    p2 = paths.extend_recursion(p1, 2, 1, 1)
    child = nodes.append_module(rec, p2, mid_a, "A:1")
    return paths, nodes, (root, rec, child)


def test_node_table_rows_and_accessors():
    paths, nodes, (root, rec, child) = _table_with_rows()
    assert len(nodes) == nodes.n_nodes == 3
    assert nodes.parent_row(root) == NO_NODE
    assert nodes.parent_row(child) == rec
    assert nodes.kind(root) == NODE_MODULE
    assert nodes.kind(rec) == NODE_RECURSIVE
    assert nodes.is_module(child) and not nodes.is_recursive(child)
    assert nodes.module_name(root) == "S"
    assert nodes.module_name(rec) is None
    assert nodes.uid(child) == "A:1"
    assert nodes.uid(rec) is None
    assert nodes.cycle(rec) == 2 and nodes.rotation(rec) == 1
    assert nodes.cycle(child) is None and nodes.rotation(child) is None
    assert nodes.path_id(child) == 2
    assert list(nodes.module_rows()) == [root, child]
    assert nodes.n_uids == 2


def test_node_table_child_counts_and_children():
    _, nodes, (root, rec, child) = _table_with_rows()
    assert nodes.child_count(root) == 1
    assert nodes.child_count(rec) == 1
    assert nodes.child_count(child) == 0
    assert nodes.max_fanout() == 1
    assert nodes.children_rows(root) == [rec]
    assert nodes.children_rows(child) == []


def test_node_table_module_interning_is_idempotent():
    nodes = NodeTable()
    a = nodes.module_id("A")
    assert nodes.module_id("A") == a
    assert nodes.module_id("B") == a + 1
    assert nodes.module_names == ["A", "B"]


def test_node_table_rejects_bad_rows():
    nodes = NodeTable()
    mid = nodes.module_id("S")
    with pytest.raises(LabelingError):
        nodes.append_module(5, ROOT_PATH, mid, "S:1")  # unknown parent
    with pytest.raises(LabelingError):
        nodes.append_module(NO_NODE, ROOT_PATH, 99, "S:1")  # unknown module id
    with pytest.raises(LabelingError):
        nodes.append_recursive(NO_NODE, ROOT_PATH, 1 << 16, 0)  # field overflow
    nodes.append_module(NO_NODE, ROOT_PATH, mid, "S:1")
    with pytest.raises(LabelingError):
        nodes.parent_row(42)


def test_node_table_rows_iteration_matches_columns():
    _, nodes, _ = _table_with_rows()
    rows = list(nodes.rows())
    assert len(rows) == 3
    parents = [parent for parent, _, _, _ in rows]
    assert parents == [NO_NODE, 0, 1]


# -- the flyweight over a columnar tree --------------------------------------


@pytest.fixture()
def running_tree(running_spec):
    index = GrammarIndex(running_spec.grammar)
    tree = CompressedParseTree(index)
    derivation = Derivation(running_spec)
    tree.start_event("S:1")
    for uid, k in [("S:1", 1), ("A:1", 2), ("B:1", 4), ("A:2", 2)]:
        event = derivation.expand(uid, k)
        tree.expand_event(uid, k, event.children)
    return tree


def test_flyweights_are_cached_and_identity_stable(running_tree):
    node = running_tree.node_for("A:1")
    assert isinstance(node, ParseNode)
    assert running_tree.node_for("A:1") is node
    assert node.parent is running_tree.node_for("B:1").parent
    assert node in node.parent.children


def test_flyweight_attributes_derive_from_columns(running_tree):
    node = running_tree.node_for("B:1")
    assert node.kind == "module"
    assert node.module_name == "B"
    assert node.instance_uid == "B:1"
    recursive = node.parent
    assert recursive.is_recursive
    assert recursive.kind == "recursive"
    assert recursive.instance_uid is None
    assert recursive.cycle is not None
    assert node.depth == len(node.path)
    assert node.edge_from_parent == node.path[-1]
    assert running_tree.root is not None
    assert running_tree.root.parent is None


def test_tree_summaries_match_flyweight_walk(running_tree):
    # depth()/max_fanout() are computed from the columns; cross-check against
    # the flyweight API.
    nodes = running_tree.nodes
    by_walk = max(
        running_tree.node_for(nodes.uid(row)).depth for row in nodes.module_rows()
    )
    assert running_tree.depth() == by_walk
    fanouts = []

    def walk(node):
        fanouts.append(len(node.children))
        for child in node.children:
            walk(child)

    walk(running_tree.root)
    assert running_tree.max_fanout() == max(fanouts)
    assert running_tree.n_nodes == len(running_tree.nodes)
