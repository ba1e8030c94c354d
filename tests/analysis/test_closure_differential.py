"""The body closure against the definition, and the labels it yields against goldens.

``PortLayout.closure`` (one sweep per production body) is the only
reachability ``src/`` uses on the labelling path; ``WorkflowPortGraph`` (port
graph + one search per port) is the paper's definition.  Here every slice of
the former — induced matrix, ``I``, ``O``, ``Z`` — is compared with the
latter on random bodies, and every view the benchmark labels is compared with
a label assembled from the definition alone.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FVLScheme, FVLVariant
from repro.analysis import dependency_matrix
from repro.analysis.reachability import ClosureSlices, PortLayout, port_layout
from repro.errors import UnsafeWorkflowError
from repro.matrices import BoolMatrix
from repro.model.module import Module
from repro.model.production import Production
from repro.model.specification import WorkflowSpecification
from repro.model.views import default_view
from repro.model.workflow import DataEdge, SimpleWorkflow
from repro.workloads import (
    build_bioaid_specification,
    build_nested_chain_specification,
    build_unsafe_example,
    random_view,
)


@st.composite
def bodies(draw):
    """A production over a random DAG body, and a few ``lambda*`` for it.

    Few module types and more occurrences than types (so modules repeat under
    different occurrence ids); the topological rank is a permutation drawn
    independently of declaration order; wires are a random non-adjacent subset
    of the forward port pairs, so diamonds, fan-in and disconnected
    occurrences all occur; boundary orders and both port maps are shuffled.
    """
    types = [
        Module(f"m{t}", draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        for t in range(draw(st.integers(1, 3)))
    ]
    n = draw(st.integers(1, 6))
    declared = [(f"o{p}", draw(st.sampled_from(types))) for p in range(n)]
    rank = dict(zip((occ for occ, _ in declared), draw(st.permutations(range(n)))))
    out_ports = [(occ, port) for occ, module in declared for port in module.output_ports]
    in_ports = draw(
        st.permutations([(occ, port) for occ, module in declared for port in module.input_ports])
    )
    edges, fed = [], set()
    for src, src_port in draw(st.permutations(out_ports)):
        for dst, dst_port in in_ports:
            if rank[src] < rank[dst] and (dst, dst_port) not in fed and draw(st.booleans()):
                fed.add((dst, dst_port))
                edges.append(DataEdge(src, src_port, dst, dst_port))
                break
    plain = SimpleWorkflow(declared, edges)
    rhs = SimpleWorkflow(
        declared,
        edges,
        initial_input_order=draw(st.permutations(plain.initial_inputs)),
        final_output_order=draw(st.permutations(plain.final_outputs)),
    )
    lhs = Module("L", rhs.n_initial_inputs, rhs.n_final_outputs)
    production = Production(
        lhs,
        rhs,
        input_map=draw(st.permutations(range(1, lhs.n_inputs + 1))),
        output_map=draw(st.permutations(range(1, lhs.n_outputs + 1))),
    )
    assignments = [
        {
            module.name: BoolMatrix(
                np.asarray(
                    draw(
                        st.lists(
                            st.booleans(),
                            min_size=module.n_inputs * module.n_outputs,
                            max_size=module.n_inputs * module.n_outputs,
                        )
                    ),
                    dtype=bool,
                ).reshape(module.n_inputs, module.n_outputs)
            )
            for module in types
        }
        for _ in range(draw(st.integers(1, 3)))
    ]
    return production, assignments


def assert_same(got: BoolMatrix, want: BoolMatrix, what) -> None:
    assert got.shape == want.shape, what
    assert got.data.dtype == want.data.dtype == np.dtype(bool), what
    assert np.array_equal(got.data, want.data), what


def assert_same_functions(got, want) -> None:
    for got_table, want_table in zip(got, want):
        assert sorted(got_table) == sorted(want_table)
        for key, matrix in want_table.items():
            assert_same(got_table[key], matrix, key)


@settings(max_examples=150, deadline=None)
@given(bodies())
def test_closure_slices_equal_port_graph_search(portgraph_functions, body):
    production, assignments = body
    layout = PortLayout(production)
    assert port_layout(production) is port_layout(production)
    for matrices in assignments:
        induced, *functions = portgraph_functions(production, 7, matrices)
        closure = layout.closure(matrices)
        assert closure.dtype == np.dtype(bool)
        assert closure.shape == (layout.n_ports, layout.n_ports)
        assert_same(layout.induced(closure), induced, "induced")
        assert_same_functions(ClosureSlices(layout, closure).functions(7), functions)


def _reference_lam_star(grammar, dependencies, portgraph_functions):
    """``lambda*`` by fixed point over the definition's induced matrices."""
    matrices = {
        name: dependency_matrix(grammar.module(name), dependencies.pairs(name))
        for name in grammar.atomic_modules
    }
    progress = True
    while progress:
        progress = False
        for production in grammar.productions:
            if production.lhs.name not in matrices and all(
                name in matrices for name in production.rhs.module_names()
            ):
                matrices[production.lhs.name] = portgraph_functions(production, 0, matrices)[0]
                progress = True
    return matrices


def _perf_views(name):
    """A specification and the view shapes of ``perf/inputs.py`` (chain scaled down)."""
    grey8 = [(8, "grey"), (8, "grey"), (2, "grey")]
    if name == "chain":
        return build_nested_chain_specification(6, 30, 3), grey8
    if name == "bioaid":
        return build_bioaid_specification(), grey8
    churn = [(2 + i % 5, "grey" if i % 2 == 0 else "black") for i in range(9)]
    return build_bioaid_specification(), churn + [(2, "grey")]


#: ``size_bits()`` per variant (default, space-efficient, query-efficient) and
#: the number of retained productions, as labelled before the closure existed.
GOLDEN = {
    "chain": [
        ([26739, 1629, 26739], 6),
        ([26739, 1629, 26739], 6),
        ([8919, 549, 8919], 2),
    ],
    "bioaid": [
        ([4768, 928, 4896], 11),
        ([3920, 784, 3984], 9),
        ([1680, 272, 1680], 2),
    ],
    "churn": [
        ([1680, 272, 1680], 2),
        ([1904, 336, 1904], 3),
        ([2608, 464, 2608], 4),
        ([3248, 592, 3312], 6),
        ([3328, 640, 3392], 7),
        ([1680, 272, 1680], 2),
        ([1904, 336, 1904], 3),
        ([2608, 464, 2608], 4),
        ([2768, 528, 2832], 6),
        ([1680, 272, 1680], 2),
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_perf_views_label_as_through_the_port_graph(portgraph_functions, name):
    specification, shapes = _perf_views(name)
    scheme = FVLScheme(specification)
    grammar = specification.grammar
    for position, (size, mode) in enumerate(shapes):
        view = random_view(
            specification, size, seed=100 + position, mode=mode, name=f"view-{position}"
        )
        restricted = view.restricted_grammar(grammar)
        lam_star = _reference_lam_star(restricted, view.dependencies, portgraph_functions)
        retained = frozenset(
            k
            for k, production in enumerate(grammar.productions, start=1)
            if production.lhs.name in restricted.composite_modules
        )
        want = ({}, {}, {})
        for k in retained:
            _, *functions = portgraph_functions(grammar.production(k), k, lam_star)
            for table, part in zip(want, functions):
                table.update(part)
        sizes, n_retained = GOLDEN[name][position]
        assert len(retained) == n_retained
        for variant, bits in zip(FVLVariant, sizes):
            label = scheme.label_view(view, variant)
            assert label.retained_productions == retained
            assert label.size_bits() == bits, (name, position, variant)
            assert sorted(label._lam_star) == sorted(lam_star)
            for module_name, matrix in lam_star.items():
                assert_same(label.lam_star(module_name), matrix, module_name)
            got = ({}, {}, {})
            for k in retained:
                for table, part in zip(got, label.production_matrices(k)):
                    table.update(part)
            assert_same_functions(got, want)
            if variant is FVLVariant.SPACE_EFFICIENT:
                # Every function has been read: the variant still stores none.
                assert not (label._inputs or label._outputs or label._z)


def test_unsafe_view_message_is_unchanged():
    grammar, dependencies = build_unsafe_example()
    specification = WorkflowSpecification(grammar, dependencies)
    with pytest.raises(UnsafeWorkflowError) as raised:
        FVLScheme(specification).label_view(default_view(specification))
    assert str(raised.value) == (
        "specification is unsafe: production 2 (S -> ['b']) induces input/output "
        "dependencies [(1, 2), (2, 1)] but another derivation of 'S' induces "
        "[(1, 1), (2, 2)]"
    )


@pytest.mark.parametrize("variant", list(FVLVariant))
def test_label_functions_own_their_memory(variant):
    specification, _ = _perf_views("chain")
    scheme = FVLScheme(specification)
    view = random_view(specification, 8, seed=100, mode="grey", name="view-0")
    label = scheme.label_view(view, variant)
    reference = scheme.label_view(view, variant)
    bits = label.size_bits()
    for k in sorted(label.retained_productions):
        n = len(specification.grammar.production(k).rhs)
        read = [label.z(k, 1, 2), label.inputs(k, n), label.outputs(k, 1)]
        for part in label.production_matrices(k):
            read.extend(part.values())
        if variant is not FVLVariant.SPACE_EFFICIENT:
            closure = label._slices[k].closure
            assert not closure.flags.writeable
            assert not any(np.shares_memory(m.data, closure) for m in read)
        # Scribble over one function: no other function of the label moves.
        scribbled = label.z(k, 1, 2)
        scribbled.data[...] = ~scribbled.data
        got = label.production_matrices(k)
        want = reference.production_matrices(k)
        del got[2][(k, 1, 2)], want[2][(k, 1, 2)]
        assert_same_functions(got, want)
        assert_same(label.inputs(k, n), reference.inputs(k, n), "I")
    assert label.size_bits() == bits
    if variant is FVLVariant.SPACE_EFFICIENT:
        assert not (label._inputs or label._outputs or label._z)
