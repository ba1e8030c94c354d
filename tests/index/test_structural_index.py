"""Unit tests for what decides a forced product, and for the interval utility.

The kernel's matrix classes — all-true, all-false (zero dimensions
included), mixed, and "raises" — are nailed down on a four-path trie whose
matrices the test dictates, and the packed edge-word layout the kernel
unpacks is pinned to :mod:`repro.store.path_table`.  ``compute_tree_intervals``
(an offline utility since the kernel classifies) is differentially checked
against a naive recursive DFS on random topologically-ordered forests, and
the ``StructuralIndex.build`` edge cases stay nailed down.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernel import (
    MATRIX,
    REFERENCE,
    VERDICT_FALSE,
    VERDICT_TRUE,
    MatrixBank,
    decide_many,
)
from repro.index import StructuralIndex, compute_tree_intervals, tree_levels
from repro.matrices import BoolMatrix

pytestmark = pytest.mark.usefixtures("detach_engines")

# -- interval columns vs a naive DFS reference ---------------------------------


def _reference_intervals(parent):
    """pre/post/level by explicit recursive DFS (children in row-id order)."""
    n = len(parent)
    children = [[] for _ in range(n)]
    roots = []
    for row, p in enumerate(parent):
        (roots if p < 0 else children[p]).append(row)
    pre = [0] * n
    post = [0] * n
    level = [0] * n
    counter = 0

    def visit(row, depth):
        nonlocal counter
        pre[row] = counter
        level[row] = depth
        counter += 1
        for child in children[row]:
            visit(child, depth + 1)
        post[row] = counter - 1

    for root in roots:
        visit(root, 0)
    return pre, post, level


@st.composite
def parent_forests(draw):
    """Random topologically-ordered parent arrays (possibly multi-root)."""
    n = draw(st.integers(min_value=0, max_value=120))
    parent = []
    for row in range(n):
        # -1 opens a new root; anything else attaches below an earlier row,
        # keeping the array topologically ordered by construction.
        parent.append(draw(st.integers(min_value=-1, max_value=row - 1)))
    return parent


@settings(max_examples=80, deadline=None)
@given(parent=parent_forests())
def test_intervals_match_recursive_dfs(parent):
    pre, post, level = compute_tree_intervals(np.asarray(parent, dtype=np.int64))
    ref_pre, ref_post, ref_level = _reference_intervals(parent)
    assert pre.tolist() == ref_pre
    assert post.tolist() == ref_post
    assert level.tolist() == ref_level


@settings(max_examples=40, deadline=None)
@given(parent=parent_forests(), data=st.data())
def test_interval_containment_is_ancestry(parent, data):
    """pre[a] <= pre[b] <= post[a]  <=>  a is an ancestor-or-self of b."""
    if not parent:
        return
    pre, post, _ = compute_tree_intervals(np.asarray(parent, dtype=np.int64))
    a = data.draw(st.integers(0, len(parent) - 1))
    b = data.draw(st.integers(0, len(parent) - 1))
    walk = b
    is_anc = False
    while walk >= 0:
        if walk == a:
            is_anc = True
            break
        walk = parent[walk]
    assert (pre[a] <= pre[b] <= post[a]) == is_anc


def test_tree_levels_rejects_cyclic_parent():
    # Rows 1 and 2 point at each other: their depths can never resolve, so
    # the per-level passes must fail loudly instead of spinning forever.
    with pytest.raises(ValueError, match="topologically ordered"):
        tree_levels(np.asarray([-1, 2, 1], dtype=np.int64))


def test_empty_forest_yields_empty_columns():
    pre, post, level = compute_tree_intervals(np.asarray([], dtype=np.int64))
    assert pre.size == post.size == level.size == 0


# -- the packed edge-word layout the kernel unpacks is the store's ---------------


def test_packed_word_layout_matches_path_table():
    from repro.engine import kernel
    from repro.store import path_table

    assert kernel._WORD_BITS == 2 * path_table._FIELD_BITS + 1
    # Round-trip one production and one recursion edge through the store's
    # encoder and the kernel's shifts: kind at bit 0, a at bit 1, b at bit 17.
    table = path_table.PathTable()
    for kind, a, b, path_id in (
        (path_table.KIND_PRODUCTION, 37, 11, table.extend_production(0, 37, 11)),
        (path_table.KIND_RECURSION, 3, 2, table.extend_recursion(0, 3, 2, 5)),
    ):
        word = table.raw_columns()[1][path_id]
        assert 0 <= word < 1 << kernel._WORD_BITS
        assert word & 1 == kind
        assert (word >> 1) & kernel._FIELD_MASK == a
        assert word >> (kernel._FIELD_BITS + 1) == b


# -- matrix classes, and the keys they settle -------------------------------------


class _Grammar:
    """The productions of a grammar (the kernel keeps its port columns per grammar object)."""

    def __init__(self, productions):
        self.productions = productions


class _FakeView:
    """A decoded view of two productions whose matrices the test dictates.

    The trie below hangs paths 1 = (1, 1) and 2 = (1, 2) off the root and
    path 3 = (2, 1) off path 1, so the key (3, 2) multiplies
    ``Outputs(2, 1)^T · Z(1, 1, 2)`` and the key (1, 2) is ``Z(1, 1, 2)`` alone.
    Each production's body is two modules whose port counts are the dictated
    matrix's shape, and its closure holds the matrix where the bank gathers
    it from: ``Z(1, 1, 2)`` from module 1's outputs to module 2's inputs,
    ``O(2, 1)`` from module 1's outputs to the left-hand side's outputs (module
    2's).  A factory that raises leaves its production out of the view.
    """

    trie = (
        np.asarray([-1, 0, 0, 1], dtype=np.int64),
        np.asarray([-1, 1 << 1 | 1 << 17, 1 << 1 | 2 << 17, 2 << 1 | 1 << 17], dtype=np.int64),
        np.zeros(4, dtype=np.int64),
    )

    def __init__(self, z, outputs):
        self._closures = {}
        productions = []
        for k, factory in ((1, z), (2, outputs)):
            try:
                matrix = factory()
            except RuntimeError:
                matrix = None  # the view does not retain production k
            rows, cols = (2, 2) if matrix is None else matrix.shape
            if k == 1:  # Z(1, 1, 2): module 1 has `rows` outputs, module 2 `cols` inputs
                ports = ((1, rows), (cols, 1))
            else:  # O(2, 1): module 1 has `cols` outputs, module 2 (the LHS's) `rows`
                ports = ((1, cols), (1, rows))
            blocks, end = [], 0
            for n_in, n_out in ports:
                blocks.append((end, end + n_in, end + n_in + n_out))
                end = blocks[-1][2]
            (start1, mid1, _), (start2, mid2, end2) = blocks
            layout = SimpleNamespace(
                blocks=tuple(blocks),
                bounds=np.asarray(blocks, dtype=np.int64),
                n_ports=end,
                lhs_in=np.asarray([start1], dtype=np.intp),
                lhs_out=np.arange(mid2, end2, dtype=np.intp),
            )
            productions.append(SimpleNamespace(port_layout=layout))
            if matrix is not None:
                closure = np.zeros((end, end), dtype=bool)
                if k == 1:
                    closure[mid1 : mid1 + rows, start2 : start2 + cols] = matrix.data
                else:
                    closure[mid1 : mid1 + cols, mid2 : mid2 + rows] = matrix.data.T
                self._closures[k] = closure
        self.index = SimpleNamespace(
            max_ports=lambda: 2,
            cycles=(),
            grammar=_Grammar(productions),
            start_module=SimpleNamespace(n_inputs=1, n_outputs=1),
        )

    def closure(self, k):
        return self._closures.get(k)

    def decide(self, path1, path2):
        outcome, _, _ = decide_many(
            self.trie, MatrixBank(self.index), self, np.asarray([path1]), np.asarray([path2])
        )
        return int(outcome[0])


def _ones():
    return BoolMatrix.ones(2, 2)


def _zeros():
    return BoolMatrix.zeros(2, 2)


def _mixed():
    return BoolMatrix.identity(2)


def test_classify_matrix_three_way():
    assert _FakeView(_ones, _ones).decide(1, 2) == VERDICT_TRUE
    assert _FakeView(_zeros, _ones).decide(1, 2) == VERDICT_FALSE
    assert _FakeView(_mixed, _ones).decide(1, 2) == MATRIX
    # A tail factor counts like Z: all-true keeps the verdict, all-false
    # annihilates whatever the others hold, mixed asks for the product.
    assert _FakeView(_ones, _ones).decide(3, 2) == VERDICT_TRUE
    assert _FakeView(_ones, _zeros).decide(3, 2) == VERDICT_FALSE
    assert _FakeView(_mixed, _zeros).decide(3, 2) == VERDICT_FALSE
    assert _FakeView(_ones, _mixed).decide(3, 2) == MATRIX


def test_classify_matrix_zero_dimension_is_annihilator():
    # A zero-dim matrix is vacuously all-true AND all-false; in a chain
    # product it annihilates, so the all-false class must win.
    assert BoolMatrix.zeros(0, 2).is_all_true() and BoolMatrix.zeros(0, 2).is_all_false()
    assert _FakeView(_ones, lambda: BoolMatrix.zeros(0, 2)).decide(3, 2) == VERDICT_FALSE
    assert _FakeView(lambda: BoolMatrix.zeros(2, 0), _ones).decide(1, 2) == VERDICT_FALSE


def test_classify_matrix_raising_factory_is_mixed():
    """A factor whose construction raises has no class: the decoder must run, and raise it."""

    def boom():
        raise RuntimeError("dropped production")

    assert _FakeView(boom, _ones).decide(1, 2) == REFERENCE
    assert _FakeView(_ones, boom).decide(3, 2) == REFERENCE
    # ... but only where the decoder would have got that far: an all-false Z
    # answers before any tail factor is looked at.
    assert _FakeView(_zeros, boom).decide(3, 2) == VERDICT_FALSE


# -- index build refusals ------------------------------------------------------


def _tiny_trie():
    # Root plus two production edges.
    parent = np.asarray([-1, 0, 0], dtype=np.int64)
    packed = np.asarray([-1, 1 << 1, 2 << 1], dtype=np.int64)
    return parent, packed


def test_build_refuses_duplicate_path_ids():
    trie_parent, trie_packed = _tiny_trie()
    node_parent = np.asarray([-1, 0], dtype=np.int64)
    node_path = np.asarray([1, 1], dtype=np.int64)  # two nodes, one path id
    assert (
        StructuralIndex.build(trie_parent, trie_packed, node_parent, node_path)
        is None
    )


def test_build_refuses_out_of_range_path_ids():
    trie_parent, trie_packed = _tiny_trie()
    node_parent = np.asarray([-1, 0], dtype=np.int64)
    node_path = np.asarray([1, 99], dtype=np.int64)
    assert (
        StructuralIndex.build(trie_parent, trie_packed, node_parent, node_path)
        is None
    )


def test_build_scatters_intervals_by_path_id():
    trie_parent, trie_packed = _tiny_trie()
    node_parent = np.asarray([-1, 0], dtype=np.int64)
    node_path = np.asarray([2, 1], dtype=np.int64)  # node 0 -> path 2, node 1 -> path 1
    index = StructuralIndex.build(trie_parent, trie_packed, node_parent, node_path)
    assert index is not None
    pre, post, level = compute_tree_intervals(node_parent)
    assert index.pre[2] == pre[0] and index.post[2] == post[0]
    assert index.pre[1] == pre[1] and index.level[1] == level[1]
    assert index.is_ancestor(2, 1) and not index.is_ancestor(1, 2)
    assert index.is_ancestor(0, 1)  # the empty path is everybody's prefix


# -- pair-table hit accounting stays bounded -----------------------------------


def test_hit_column_has_one_cell_per_row_and_dies_with_it(running_spec, running_scheme, tmp_path):
    """Hits live in the pair table: no row, no counter — nothing left to decay.

    The old accounting dict could outgrow the matrices it counted (evicted
    keys kept their counters) and needed a decay sweep; a hit *column* has
    exactly one cell per row, an over-budget key gets none, and ``detach``
    drops an arena's rows and counts together.
    """
    from repro.engine import QueryEngine
    from repro.model import ViewProjection, default_view
    from repro.workloads import random_run

    derivation = random_run(running_spec, 300, seed=8)
    view = default_view(running_spec)
    uids = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = [(a, b) for a in uids[:12] for b in uids[-12:]]
    writer = QueryEngine(running_scheme)
    writer.add_run("default", derivation)
    expected = writer.depends_batch(pairs, view)
    asked = len(writer.decoded_state(view).table(0))  # distinct keys of the batch
    run_file = tmp_path / "hits.fvl"
    writer.checkpoint(run_file)

    # A budget measured, not guessed: every static byte the batch wants, and
    # a third of what its rows (and nothing else per-run) weigh.
    wanted = writer.decoded_state(view).table(0).nbytes
    static = writer.stats.views.bytes - writer.decoded_state(view).nbytes
    engine = QueryEngine(running_scheme, state_budget_bytes=static + wanted // 3)
    engine.attach(run_file)
    arena = engine.shard_arena()
    for _ in range(3):
        assert np.array_equal(engine.depends_batch(pairs, view), expected)
    state = engine.decoded_state(view)  # over budget on its own, and still resident
    table = state.table(arena)
    stats = engine.stats.views
    assert stats.bytes <= stats.max_bytes and stats.evictions == 0  # the budget held ...
    assert 0 < table.nbytes == state.nbytes <= wanted // 3
    assert asked > len(table) > 0  # ... so some keys were decided per batch and never stored ...
    assert table.hits.shape == table.keys.shape  # ... and only stored rows have a counter,
    assert int(table.hits.min()) >= 3  # which counted each of the three passes.
    assert 0 < sum(hits for _, _, _, hits in state.rows(arena)) <= int(table.hits.sum())

    engine.detach("default")
    assert arena not in state.pair_tables and not state.arenas()
    assert list(state.rows(arena)) == [] and len(state.table(arena)) == 0


# -- the bank's class column on real views ---------------------------------------


@pytest.mark.parametrize("view_number", [0, 1, 2])
def test_classifier_folds_count_classes_along_each_path(
    running_spec, running_scheme, running_views, view_number
):
    """Along every path, the bank's classes count what the matrices themselves say."""
    from repro.engine import kernel
    from repro.engine.cache import DecodedViewState, StaticViewState
    from repro.workloads import random_run

    labeler = running_scheme.label_run(random_run(running_spec, 400, seed=5))
    parent, packed, _ = labeler.store.table.raw_columns()
    view = running_views[view_number % len(running_views)]
    state = DecodedViewState(StaticViewState(
        view.name, running_scheme.index, lambda: running_scheme.label_view(view)
    ))
    bank = state.static.bank

    def by_the_matrix(matrix_for, k, i):
        try:
            matrix = matrix_for(k, i)
        except Exception:
            return None  # no class: the decoder raises for a key with this factor
        if matrix.is_all_false():
            return kernel._ALL_FALSE
        return kernel._ALL_TRUE if matrix.is_all_true() else kernel._MIXED

    def by_the_bank(family, k, i):
        key = np.asarray([kernel._bank_key(family, k, i, 0)])
        (code,) = bank.codes(key, np.zeros_like(key), state)
        return None if code < 0 else int(bank.classes[code])

    checked = set()
    for path in range(1, len(parent)):
        expected, got = [], []
        row = path
        while row > 0:
            word = int(packed[row])
            if not word & 1:  # a production edge (k, i)
                k, i = (word >> 1) & 0xFFFF, word >> 17
                expected += [
                    by_the_matrix(state.label.inputs, k, i),
                    by_the_matrix(state.label.outputs, k, i),
                ]
                got += [by_the_bank(kernel._INPUTS, k, i), by_the_bank(kernel._OUTPUTS, k, i)]
                checked.add((k, i))
            row = int(parent[row])
        assert got == expected, path
    assert len(checked) > 5 and len(bank.classes) == len(bank.matrices) == len(bank.shapes)
