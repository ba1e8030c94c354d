"""Differential test: the production graph against the seed's, module by module.

:class:`repro.analysis.ProductionGraph` keeps one tuple of target names per
production, builds :class:`PGEdge` objects on demand and runs Tarjan over
composite modules only.  :mod:`tests.reference.production_graph` is the seed's
graph — an edge object per occurrence and Tarjan over every module.  On every
specification below the two must agree on everything the labelling scheme
and the recursion analyses read: the cycles edge by edge (so cycle ids and
first edges), ``reaches`` for every ordered pair of modules, the recursion
classes, the edge ids and their errors, and the grammar fingerprint of the
index built over each.
"""

from __future__ import annotations

import itertools

import pytest

from repro.analysis import ProductionGraph
from repro.core.preprocessing import GrammarIndex
from repro.engine.engine import grammar_fingerprint
from repro.errors import AnalysisError, NotStrictlyLinearError
from repro.model import DataEdge, Module, Production, SimpleWorkflow, WorkflowGrammar
from repro.workloads import (
    build_bioaid_specification,
    build_nested_chain_specification,
    build_synthetic_specification,
)
from repro.workloads.paper_examples import (
    build_nonstrict_example,
    build_running_example,
    build_unsafe_example,
)
from tests.reference.production_graph import ProductionGraph as ReferenceGraph


def _nonlinear_grammar() -> WorkflowGrammar:
    s, a, b, c = Module("S", 1, 1), Module("a", 1, 2), Module("b", 2, 1), Module("c", 1, 1)
    twice = SimpleWorkflow(
        [("a", a), ("S1", s), ("S2", s), ("b", b)],
        [
            DataEdge("a", 1, "S1", 1),
            DataEdge("a", 2, "S2", 1),
            DataEdge("S1", 1, "b", 1),
            DataEdge("S2", 1, "b", 2),
        ],
    )
    base = SimpleWorkflow([("c", c)], [])
    return WorkflowGrammar(
        {"S": s, "a": a, "b": b, "c": c}, {"S"}, "S", [Production(s, twice), Production(s, base)]
    )


GRAMMARS = {
    "bioaid": lambda: build_bioaid_specification().grammar,
    "running": lambda: build_running_example().grammar,
    "chain": lambda: build_nested_chain_specification(40, 30, 3).grammar,
    "nested-chain": lambda: build_nested_chain_specification(6, 12, 2).grammar,
    "synthetic-default": lambda: build_synthetic_specification().grammar,
    "synthetic-small": lambda: build_synthetic_specification(
        workflow_size=8, module_degree=3, nesting_depth=3, recursion_length=2
    ).grammar,
    "synthetic-long-cycles": lambda: build_synthetic_specification(
        workflow_size=12, module_degree=2, nesting_depth=5, recursion_length=4, seed=3
    ).grammar,
    "synthetic-self-loops": lambda: build_synthetic_specification(
        workflow_size=10, module_degree=3, nesting_depth=6, recursion_length=1, seed=11
    ).grammar,
    "nonstrict": lambda: build_nonstrict_example().grammar,
    "unsafe": lambda: build_unsafe_example()[0],
    "nonlinear": _nonlinear_grammar,
}


def _cycles_or_error(graph):
    try:
        return [list(cycle) for cycle in graph.cycles()]
    except NotStrictlyLinearError as exc:
        return ("error", str(exc))


@pytest.fixture(scope="module", params=sorted(GRAMMARS))
def graphs(request):
    grammar = GRAMMARS[request.param]()
    return grammar, ProductionGraph(grammar), ReferenceGraph(grammar)


def test_cycles_match_edge_by_edge(graphs):
    _, graph, reference = graphs
    assert _cycles_or_error(graph) == _cycles_or_error(reference)
    # The same answer (or the same error) on a second ask.
    assert _cycles_or_error(graph) == _cycles_or_error(reference)


def test_reaches_matches_for_every_module_pair(graphs):
    grammar, graph, reference = graphs
    names = grammar.module_names + ("no-such-module",)
    pairs = list(itertools.product(names, names))
    assert [graph.reaches(*pair) for pair in pairs] == [reference.reaches(*pair) for pair in pairs]


def test_recursion_classes_match(graphs):
    _, graph, reference = graphs
    assert graph.recursive_modules() == reference.recursive_modules()
    assert graph.is_recursive() == reference.is_recursive()
    assert graph.is_linear_recursive() == reference.is_linear_recursive()
    assert graph.is_strictly_linear_recursive() == reference.is_strictly_linear_recursive()


def test_edge_ids_match_and_out_of_range_keys_raise(graphs):
    grammar, graph, reference = graphs
    assert graph.n_edges == reference.n_edges
    assert graph.edges == reference.edges
    assert all(graph.edge(*e.key) == e for e in reference.edges)
    longest = max(len(p.rhs) for p in grammar.productions)
    n = len(grammar.productions)
    for key in itertools.product(range(-1, n + 2), range(-1, longest + 2)):
        assert graph.has_edge(*key) == reference.has_edge(*key)
        if reference.has_edge(*key):
            assert graph.edge(*key) == reference.edge(*key)
            continue
        with pytest.raises(AnalysisError) as expected:
            reference.edge(*key)
        with pytest.raises(AnalysisError) as actual:
            graph.edge(*key)
        assert str(actual.value) == str(expected.value)


def test_an_edge_is_one_object_per_id(graphs):
    _, graph, _ = graphs
    for edge in graph.edges:
        assert graph.edge(*edge.key) is edge


@pytest.mark.parametrize("name", sorted(set(GRAMMARS) - {"nonstrict", "nonlinear"}))
def test_grammar_fingerprint_is_the_reference_index_fingerprint(name, monkeypatch):
    grammar = GRAMMARS[name]()
    index = GrammarIndex(grammar)
    fingerprint = grammar_fingerprint(index)
    monkeypatch.setattr("repro.core.preprocessing.ProductionGraph", ReferenceGraph)
    reference = GrammarIndex(grammar)
    assert [[e.key for e in c] for c in index.cycles] == [[e.key for e in c] for c in reference.cycles]
    assert index.cycle_positions == reference.cycle_positions
    assert fingerprint == grammar_fingerprint(reference)


def test_nonstrict_error_message_is_the_reference_message():
    grammar = build_nonstrict_example().grammar
    with pytest.raises(NotStrictlyLinearError) as expected:
        ReferenceGraph(grammar).cycles()
    with pytest.raises(NotStrictlyLinearError) as actual:
        GrammarIndex(grammar)
    assert str(actual.value) == str(expected.value)
