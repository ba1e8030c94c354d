"""Property tests: the columnar parse tree is behaviourally identical to the
object tree, and the persistent run store round-trips losslessly.

For random runs of the BioAID-like specification and of a small one whose
start module lies on a cycle (so the root is a recursive node), a
:class:`~repro.store.NodeTable`-backed :class:`CompressedParseTree` must be
observationally identical to the seed's :class:`ObjectParseTree` (kept in
:mod:`tests.reference`): the same
node kinds, paths, edge labels, depths and fanouts for every module instance,
and the same materialised data labels.  On top of that, an mmap reload of a
checkpointed run — including an incremental checkpoint append mid-derivation —
must reproduce the in-memory columns and labels exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FVLScheme
from repro.core.run_labeler import RunLabeler
from repro.model import (
    DataEdge,
    DependencyAssignment,
    Module,
    Production,
    SimpleWorkflow,
    WorkflowGrammar,
    WorkflowSpecification,
)
from repro.store import MappedRunStore, checkpoint_run
from repro.workloads import build_bioaid_specification, random_run
from tests.reference import label_run_objects


def _start_on_a_cycle() -> WorkflowSpecification:
    """``S -> a S'``-style mutual recursion through the start module.

    ``S -> (a, T)``, ``T -> (b, S) | (c)``: P(G) has the one cycle
    ``S -> T -> S`` of length 2, so the root of every run is a recursive
    node at rotation 1 of cycle 1.
    """
    s, t = Module("S", 1, 1), Module("T", 1, 1)
    a, b, c = Module("a", 1, 1), Module("b", 1, 1), Module("c", 1, 1)
    grammar = WorkflowGrammar(
        {m.name: m for m in (s, t, a, b, c)},
        {"S", "T"},
        "S",
        [
            Production(s, SimpleWorkflow([("a", a), ("T", t)], [DataEdge("a", 1, "T", 1)])),
            Production(t, SimpleWorkflow([("b", b), ("S", s)], [DataEdge("b", 1, "S", 1)])),
            Production(t, SimpleWorkflow([("c", c)], [])),
        ],
    )
    return WorkflowSpecification(grammar, DependencyAssignment({name: {(1, 1)} for name in "abc"}))


@pytest.fixture(scope="module")
def spec():
    return build_bioaid_specification()


@pytest.fixture(scope="module")
def scheme(spec):
    return FVLScheme(spec)


@pytest.fixture(scope="module")
def schemes(spec, scheme):
    start_on_a_cycle = _start_on_a_cycle()
    return {
        "bioaid": (spec, scheme),
        "start-on-a-cycle": (start_on_a_cycle, FVLScheme(start_on_a_cycle)),
    }


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), size=st.sampled_from([40, 150, 400]))
def test_columnar_tree_matches_object_tree(schemes, seed, size):
    # Every example runs on both specifications, so the recursive root of
    # the second is compared as often as BioAID's plain one.
    for spec, scheme in schemes.values():
        _columnar_tree_matches_object_tree(spec, scheme, seed, size)


def _columnar_tree_matches_object_tree(spec, scheme, seed, size):
    derivation = random_run(spec, size, seed=seed)
    columnar = scheme.label_run(derivation)
    objects = label_run_objects(scheme, derivation)
    col_tree, obj_tree = columnar.tree, objects.tree

    assert col_tree.n_nodes == obj_tree.n_nodes
    assert col_tree.depth() == obj_tree.depth()
    assert col_tree.max_fanout() == obj_tree.max_fanout()

    for uid in derivation.run.instances:
        assert col_tree.has_node(uid) == obj_tree.has_node(uid)
        if not col_tree.has_node(uid):
            continue
        flyweight = col_tree.node_for(uid)
        eager = obj_tree.node_for(uid)
        assert flyweight.kind == eager.kind == "module"
        assert flyweight.module_name == eager.module_name
        assert flyweight.instance_uid == eager.instance_uid == uid
        assert flyweight.path == eager.path
        assert flyweight.edge_from_parent == eager.edge_from_parent
        assert flyweight.depth == eager.depth
        fly_parent, eager_parent = flyweight.parent, eager.parent
        assert (fly_parent is None) == (eager_parent is None)
        if fly_parent is not None:
            assert fly_parent.kind == eager_parent.kind
            assert fly_parent.cycle == eager_parent.cycle
            assert fly_parent.rotation == eager_parent.rotation
            assert fly_parent.path == eager_parent.path
            assert len(fly_parent.children) == len(eager_parent.children)

    # Both representations feed the same labels downstream.
    for uid in derivation.run.data_items:
        assert columnar.label(uid) == objects.label(uid)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_checkpoint_reload_and_incremental_append_lossless(spec, scheme, seed, tmp_path_factory):
    derivation = random_run(spec, 250, seed=seed)
    events = derivation.events
    half = max(1, len(events) // 2)

    labeler = RunLabeler(scheme.index)
    for event in events[:half]:
        labeler(event)
    run_file = tmp_path_factory.mktemp("runs") / f"run-{seed}.fvl"
    first = checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    for event in events[half:]:
        labeler(event)
    second = checkpoint_run(run_file, labeler.store, labeler.tree.nodes)

    assert first.created and not second.created
    assert second.delta_items == len(labeler.store) - first.delta_items

    with MappedRunStore(run_file) as mapped:
        assert mapped.n_segments == 2
        assert mapped.n_items == len(labeler.store)
        assert mapped.n_paths == len(labeler.store.table)
        assert mapped.n_nodes == len(labeler.tree.nodes)
        for uid in derivation.run.data_items:
            assert tuple(mapped.row(uid)) == tuple(labeler.store.row(uid))
            assert mapped.label(uid) == labeler.label(uid)
        nodes = labeler.tree.nodes
        for row in range(len(nodes)):
            assert int(mapped.nodes.parent_row(row)) == nodes.parent_row(row)
            assert int(mapped.nodes.path_id(row)) == nodes.path_id(row)
            assert mapped.nodes.kind(row) == nodes.kind(row)
            assert mapped.nodes.uid(row) == nodes.uid(row)
            assert mapped.nodes.module_name(row) == nodes.module_name(row)
            assert mapped.nodes.child_count(row) == nodes.child_count(row)
        assert mapped.nodes.max_fanout() == labeler.tree.max_fanout()
