"""Allocation-count guard: per-item/per-node objects must not silently return.

The columnar ingest path exists to kill the seed's per-item object churn:
labeling a run must construct **zero** ``PortLabel``/``DataLabel``/edge-label
value objects *and* — since the node arena — zero ``ParseNode`` objects and
zero path tuples (all of them are lazy, materialised only for what a caller
reads).  Like ``tests/engine/test_perf_guard.py``, the guard counts
constructor calls instead of timing anything, so it cannot flake — if someone
reintroduces per-item or per-node construction on the ingest path, the count
goes from zero to O(n) and the assertion names the regression precisely.
"""

from __future__ import annotations

import pytest

from repro.core import FVLScheme, ParseNode
from repro.core.labels import (
    DataLabel,
    PortLabel,
    ProductionEdgeLabel,
    RecursionEdgeLabel,
)
from repro.store import LabelStore, NodeTable
from repro.workloads import build_bioaid_specification, random_run
from tests.reference import ObjectParseNode, label_run_objects


@pytest.fixture(scope="module")
def prepared():
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 400, seed=5)
    return scheme, derivation


def _counting(monkeypatch, cls, counts):
    original = cls.__init__

    def counted(self, *args, **kwargs):
        counts[cls.__name__] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)


def test_columnar_labeling_constructs_no_label_objects(prepared, monkeypatch):
    scheme, derivation = prepared
    counts = {
        "PortLabel": 0,
        "DataLabel": 0,
        "ProductionEdgeLabel": 0,
        "RecursionEdgeLabel": 0,
    }
    for cls in (PortLabel, DataLabel, ProductionEdgeLabel, RecursionEdgeLabel):
        _counting(monkeypatch, cls, counts)

    labeler = scheme.label_run(derivation)

    assert isinstance(labeler.store, LabelStore)
    assert len(labeler) == derivation.run.n_data_items
    assert counts == {
        "PortLabel": 0,
        "DataLabel": 0,
        "ProductionEdgeLabel": 0,
        "RecursionEdgeLabel": 0,
    }, f"ingest constructed label value objects: {counts}"

    # Materialisation is lazy and bounded: reading one label builds exactly
    # its own objects (two ports, one label, the edges of its two paths).
    uid = next(iter(derivation.run.data_items))
    label = labeler.label(uid)
    assert counts["DataLabel"] == 1
    assert counts["PortLabel"] == len(label.paths())


def test_columnar_ingest_constructs_no_parse_nodes_or_path_tuples(prepared, monkeypatch):
    """Tree construction is pure column appends: no flyweights, no tuples."""
    scheme, derivation = prepared
    counts = {"ParseNode": 0}
    _counting(monkeypatch, ParseNode, counts)

    labeler = scheme.label_run(derivation)

    tree = labeler.tree
    assert isinstance(tree.nodes, NodeTable)
    assert tree.n_nodes >= len(derivation.run.instances)
    assert counts["ParseNode"] == 0, (
        f"ingest constructed {counts['ParseNode']} ParseNode flyweights"
    )
    # No path tuple was materialised either: the arena memo still holds only
    # the root path.
    assert len(tree.path_table._tuples) == 1

    # Touching one instance materialises exactly its own chain of flyweights
    # (the node plus the ancestors the walk touches), nothing run-sized.
    uid = next(iter(derivation.run.instances))
    node = tree.node_for(uid)
    assert tree.node_for(uid) is node
    assert 1 <= counts["ParseNode"] <= node.depth + 2


def test_object_representation_still_constructs_objects(prepared, monkeypatch):
    """The guard's counter actually observes the object path (sanity check)."""
    scheme, derivation = prepared
    counts = {"PortLabel": 0, "DataLabel": 0, "ObjectParseNode": 0}
    for cls in (PortLabel, DataLabel, ObjectParseNode):
        _counting(monkeypatch, cls, counts)
    labeler = label_run_objects(scheme, derivation)
    assert counts["DataLabel"] == derivation.run.n_data_items
    assert counts["ObjectParseNode"] == labeler.tree.n_nodes


def test_labels_property_returns_cached_view_not_copy(prepared):
    scheme, derivation = prepared
    labeler = scheme.label_run(derivation)
    assert labeler.labels is labeler.labels
    assert not isinstance(labeler.labels, dict)
