"""Tests for boolean matrices, fast powering (Lemma 5) and grammar preprocessing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GrammarIndex
from repro.errors import NotStrictlyLinearError
from repro.matrices import BoolMatrix, MatrixPowerTable, chain_product


def test_boolmatrix_constructors_and_accessors():
    m = BoolMatrix.from_pairs({(1, 2), (2, 1)}, 2, 2)
    assert m.get(1, 2) and m.get(2, 1)
    assert not m.get(1, 1)
    assert m.shape == (2, 2)
    assert m.count() == 2
    assert m.to_pairs() == frozenset({(1, 2), (2, 1)})
    assert BoolMatrix.ones(2, 3).is_all_true()
    assert BoolMatrix.zeros(2, 3).is_all_false()
    assert BoolMatrix.identity(3).get(2, 2)


def test_boolmatrix_rejects_bad_pairs():
    with pytest.raises(ValueError):
        BoolMatrix.from_pairs({(3, 1)}, 2, 2)


@pytest.mark.parametrize("extra", [0, 100])
@pytest.mark.parametrize("bad", [(0, 1), (3, 1), (1, 0), (1, 4)])
def test_boolmatrix_from_pairs_names_the_pair_out_of_bounds(bad, extra):
    pairs = [(1, 1)] * extra + [bad]
    with pytest.raises(ValueError) as raised:
        BoolMatrix.from_pairs(pairs, 2, 3)
    assert str(raised.value) == f"pair {bad} outside a 2x3 matrix"
    good = [(1, 2)] * extra + [(2, 3)]
    assert BoolMatrix.from_pairs(good, 2, 3).to_pairs() == set(good)


def test_boolmatrix_from_pairs_rejects_a_pair_that_is_not_two_long():
    with pytest.raises(ValueError, match=r"^from_pairs expects \(row, col\) pairs$"):
        BoolMatrix.from_pairs([(1, 1, 1)], 2, 3)


def test_boolmatrix_product_is_boolean_composition():
    a = BoolMatrix.from_pairs({(1, 2)}, 2, 2)
    b = BoolMatrix.from_pairs({(2, 1)}, 2, 2)
    assert (a @ b).to_pairs() == frozenset({(1, 1)})
    assert (b @ a).to_pairs() == frozenset({(2, 2)})


def test_boolmatrix_shape_mismatch():
    with pytest.raises(ValueError):
        BoolMatrix.ones(2, 3) @ BoolMatrix.ones(2, 3)


def test_boolmatrix_transpose_union_power():
    a = BoolMatrix.from_pairs({(1, 2)}, 2, 2)
    assert a.T.to_pairs() == frozenset({(2, 1)})
    assert a.union(a.T).count() == 2
    assert a.power(0) == BoolMatrix.identity(2)
    assert a.power(3) == a @ a @ a


def test_chain_product_empty_needs_identity_size():
    assert chain_product([], identity_size=2) == BoolMatrix.identity(2)
    with pytest.raises(ValueError):
        chain_product([])


@settings(max_examples=50, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=4),
    pairs=st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=8
    ),
    exponent=st.integers(min_value=1, max_value=60),
)
def test_power_table_matches_direct_powering(size, pairs, exponent):
    """Property: the Lemma-5 table agrees with repeated multiplication."""
    pairs = {(min(i, size), min(o, size)) for i, o in pairs}
    matrix = BoolMatrix.from_pairs(pairs, size, size)
    table = MatrixPowerTable(matrix)
    assert table.power(exponent) == matrix.power(exponent)


def test_power_table_detects_repetition():
    matrix = BoolMatrix.identity(3)
    table = MatrixPowerTable(matrix)
    assert table.cycle_length == 1
    assert table.power(100) == matrix


def test_grammar_index_cycles_and_positions(running_scheme):
    index = running_scheme.index
    assert index.n_cycles == 2
    assert index.cycle_position("A")[0] == index.cycle_position("B")[0]
    assert index.same_cycle("A", "B")
    assert not index.same_cycle("A", "D")
    assert index.is_recursive_module("D")
    assert not index.is_recursive_module("C")
    # The cycle over D is the self-loop through edge (6, 2).
    s, t = index.cycle_position("D")
    assert index.cycle_edge(s, t).key == (6, 2)
    assert index.cycle_length(s) == 1
    assert index.normalize_rotation(s, 5) == 1


def test_grammar_index_chain_member_module(running_scheme):
    index = running_scheme.index
    s, t = index.cycle_position("A")
    assert index.chain_member_module(s, t, 1).name == "A"
    assert index.chain_member_module(s, t, 2).name == "B"
    assert index.chain_member_module(s, t, 3).name == "A"


def test_grammar_index_rejects_nonstrict(nonstrict_spec):
    with pytest.raises(NotStrictlyLinearError):
        GrammarIndex(nonstrict_spec.grammar)


def test_grammar_index_constants(running_scheme):
    index = running_scheme.index
    assert index.n_productions() == 8
    assert index.max_ports() == 2
    assert index.max_rhs_size() == 6
    assert index.edge_target_module(5, 3).name == "E"
    assert index.edge_source_module(5).name == "C"
