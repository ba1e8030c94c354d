"""Tests for data labels, the compressed parse tree and the dynamic run labeler."""

import pytest

from repro.core import (
    DataLabel,
    PortLabel,
    ProductionEdgeLabel,
    RecursionEdgeLabel,
    common_prefix_length,
)
from repro.errors import LabelingError
from repro.model import Derivation
from repro.store import NO_PATH, ROOT_PATH
from tests.conftest import derive_running


def test_edge_label_value_semantics():
    assert ProductionEdgeLabel(1, 2) == ProductionEdgeLabel(1, 2)
    assert ProductionEdgeLabel(1, 2) != RecursionEdgeLabel(1, 2, 1)
    assert RecursionEdgeLabel(1, 1, 3).as_tuple() == (1, 1, 3)


def test_common_prefix_length():
    a = (ProductionEdgeLabel(1, 1), ProductionEdgeLabel(2, 2))
    b = (ProductionEdgeLabel(1, 1), ProductionEdgeLabel(2, 3))
    assert common_prefix_length(a, b) == 1
    assert common_prefix_length(a, a) == 2
    assert common_prefix_length((), a) == 0


def test_data_label_classification():
    port = PortLabel((), 1)
    assert DataLabel(None, port).is_initial_input
    assert DataLabel(port, None).is_final_output
    assert DataLabel(port, port).is_intermediate
    assert DataLabel(port, port).shared_prefix_length() == 0


def _label_run(scheme, spec, productions):
    derivation = Derivation(spec)
    labeler = scheme.label_run(derivation)
    for uid, k in productions:
        derivation.expand(uid, k)
    return derivation, labeler


def test_initial_labels_have_empty_paths(running_scheme, running_spec):
    derivation, labeler = _label_run(running_scheme, running_spec, [])
    label = labeler.label(derivation.initial_event.input_items[0])
    assert label.is_initial_input
    assert label.consumer.path == ()
    assert label.consumer.port == 1


def test_expansion_labels_use_production_edges(running_scheme, running_spec):
    derivation, labeler = _label_run(running_scheme, running_spec, [("S:1", 1)])
    # The item produced by a:1 (position 1) and consumed by A:1 (position 3).
    item = derivation.run.item_at("a:1", "out", 1)
    label = labeler.label(item)
    assert label.producer.path == (ProductionEdgeLabel(1, 1),)
    # A is recursive, so its node hangs below a fresh recursive node: the
    # consumer path is the production edge (1, 3) followed by a (s, t, 1) edge.
    assert label.consumer.path[0] == ProductionEdgeLabel(1, 3)
    assert isinstance(label.consumer.path[1], RecursionEdgeLabel)
    assert label.consumer.path[1].i == 1
    assert label.producer.port == 1


def test_recursion_chain_becomes_siblings(running_scheme, running_spec):
    # Unroll the A<->B recursion twice: A:1 -p2-> B:1 -p4-> A:2 -p2-> ...
    derivation, labeler = _label_run(
        running_scheme,
        running_spec,
        [("S:1", 1), ("A:1", 2), ("B:1", 4), ("A:2", 2)],
    )
    tree = labeler.tree
    node_a1 = tree.node_for("A:1")
    node_b1 = tree.node_for("B:1")
    node_a2 = tree.node_for("A:2")
    assert node_a1.parent is node_b1.parent is node_a2.parent
    assert node_a1.parent.is_recursive
    assert isinstance(node_a1.edge_from_parent, RecursionEdgeLabel)
    assert node_a1.edge_from_parent.i == 1
    assert node_b1.edge_from_parent.i == 2
    assert node_a2.edge_from_parent.i == 3
    # The self-recursion over D creates a separate recursive node.
    derivation.expand("C:1", 5)
    derivation.expand("D:1", 6)
    node_d1 = tree.node_for("D:1")
    node_d2 = tree.node_for("D:2")
    assert node_d1.parent.is_recursive
    assert node_d1.parent is node_d2.parent
    assert node_d1.parent is not node_a1.parent


def test_compressed_tree_depth_is_bounded(running_scheme, running_spec):
    """Lemma 4: the compressed-tree depth never exceeds 2 * |Delta|."""
    bound = 2 * len(running_spec.grammar.composite_modules)
    for seed in range(4):
        derivation = derive_running(running_spec, seed=seed)
        labeler = running_scheme.label_run(derivation)
        assert labeler.tree.depth() <= bound


def test_basic_tree_depth_grows_with_recursion(running_scheme, running_spec):
    derivation, labeler = _label_run(
        running_scheme,
        running_spec,
        [("S:1", 1), ("A:1", 2), ("B:1", 4), ("A:2", 2), ("B:2", 4), ("A:3", 2)],
    )
    # The basic parse tree (Definition 17) is the derivation itself: a node's
    # depth is its number of ancestors, and its path is the (k, i) of each
    # instance below the root.
    run = derivation.run
    basic_depth = max(len(run.ancestors(uid)) for uid in run.instances)
    chain = [run.instance(uid) for uid in reversed(run.ancestors("A:3"))]
    basic_path = tuple(
        (inst.production_index, inst.position) for inst in chain[1:] + [run.instance("A:3")]
    )
    assert basic_depth >= 6
    assert labeler.tree.depth() <= 2 * len(running_spec.grammar.composite_modules)
    assert basic_path[0] == (1, 3)


def test_labels_are_immutable_and_unique(running_scheme, running_spec):
    derivation = Derivation(running_spec)
    labeler = running_scheme.label_run(derivation)
    derivation.expand("S:1", 1)
    with pytest.raises(LabelingError, match="already labelled"):
        labeler.store.append(1, NO_PATH, 0, ROOT_PATH, 1)


def test_labeler_requires_initial_event_first(running_scheme, running_spec):
    derivation = Derivation(running_spec)
    derivation.expand("S:1", 1)
    labeler = running_scheme.run_labeler()
    with pytest.raises(LabelingError):
        labeler(derivation.events[1])  # expansion before the initial event


def test_every_item_gets_exactly_one_label(running_scheme, running_spec):
    derivation = derive_running(running_spec, seed=7)
    labeler = running_scheme.label_run(derivation)
    assert len(labeler) == derivation.run.n_data_items
    assert all(uid in labeler for uid in derivation.run.data_items)


def test_label_unknown_item_raises(running_scheme, running_spec):
    derivation = Derivation(running_spec)
    labeler = running_scheme.label_run(derivation)
    with pytest.raises(LabelingError):
        labeler.label(999)
