"""Unit tests for the structural interval index primitives.

``compute_tree_intervals`` is differentially checked against a naive
recursive DFS on random topologically-ordered forests, the packed edge-word
layout is pinned to :mod:`repro.store.path_table` (the index module repeats
the encoding to stay import-cycle free), and ``classify_matrix`` /
``StructuralIndex.build`` edge cases are nailed down.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import (
    CLASS_FALSE,
    CLASS_MIXED,
    CLASS_TRUE,
    StructuralIndex,
    classify_matrix,
    compute_tree_intervals,
    tree_levels,
)


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


# -- the packed edge-word layout is pinned to the store's ----------------------


def test_packed_word_layout_matches_path_table():
    from repro.index import structural
    from repro.store import path_table

    assert structural._KIND_PRODUCTION == path_table.KIND_PRODUCTION
    assert structural._FIELD_BITS == path_table._FIELD_BITS
    assert structural._FIELD_MASK == path_table._FIELD_MASK
    # Round-trip one production edge through the store's encoder and the
    # index's decoder: kind bit 0, k at bit 1, i at bit 17.
    k, i = 37, 11
    word = path_table.KIND_PRODUCTION | k << 1 | i << 17
    assert (word & 1) == structural._KIND_PRODUCTION
    assert (word >> 1) & structural._FIELD_MASK == k
    assert word >> (structural._FIELD_BITS + 1) == i


# -- matrix classification -----------------------------------------------------


class _FakeMatrix:
    def __init__(self, all_true, all_false):
        self._t, self._f = all_true, all_false

    def is_all_true(self):
        return self._t

    def is_all_false(self):
        return self._f


def test_classify_matrix_three_way():
    assert classify_matrix(lambda: _FakeMatrix(True, False)) == CLASS_TRUE
    assert classify_matrix(lambda: _FakeMatrix(False, True)) == CLASS_FALSE
    assert classify_matrix(lambda: _FakeMatrix(False, False)) == CLASS_MIXED


def test_classify_matrix_zero_dimension_is_annihilator():
    # A zero-dim matrix is vacuously all-true AND all-false; in a chain
    # product it annihilates, so CLASS_FALSE must win.
    assert classify_matrix(lambda: _FakeMatrix(True, True)) == CLASS_FALSE


def test_classify_matrix_raising_factory_is_mixed():
    def boom():
        raise RuntimeError("dropped production")

    assert classify_matrix(boom) == CLASS_MIXED


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


# -- DecodeCache hit accounting stays bounded ----------------------------------


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
    asked = len(writer.decoded_state(view).decode_cache.table(0))  # distinct keys of the batch
    run_file = tmp_path / "hits.fvl"
    writer.checkpoint(run_file)

    # A budget measured, not guessed: every static byte the batch wants, and
    # a third of what its rows (and nothing else per-run) weigh.
    wanted = writer.decoded_state(view).decode_cache.nbytes
    static = writer.stats.views.bytes - writer.decoded_state(view).nbytes
    engine = QueryEngine(running_scheme, state_budget_bytes=static + wanted // 3)
    engine.attach(run_file)
    arena = engine.shard_arena()
    for _ in range(3):
        assert engine.depends_batch(pairs, view) == expected
    state = engine.decoded_state(view)  # over budget on its own, and still resident
    cache = state.decode_cache
    table = cache.table(arena)
    stats = engine.stats.views
    assert stats.bytes <= stats.max_bytes and stats.evictions == 0  # the budget held ...
    assert 0 < table.nbytes == cache.nbytes == state.nbytes <= wanted // 3
    assert asked > len(table) > 0  # ... so some keys were decided per batch and never stored ...
    assert table.hits.shape == table.keys.shape  # ... and only stored rows have a counter,
    assert int(table.hits.min()) >= 3  # which counted each of the three passes.
    assert 0 < sum(hits for _, _, _, hits in cache.rows(arena)) <= int(table.hits.sum())

    engine.detach("default")
    assert arena not in cache.pair_tables and not cache.arenas()
    assert list(cache.rows(arena)) == [] and len(cache.table(arena)) == 0


# -- the per-index word table and the one-pass classifier fold ------------------


def _live_index(spec, scheme, items=400, seed=5):
    from repro.workloads import random_run

    labeler = scheme.label_run(random_run(spec, items, seed=seed))
    node_parent, node_path, _, _ = labeler.tree.nodes.raw_columns()
    trie_parent, trie_packed, _ = labeler.store.table.raw_columns()
    index = StructuralIndex.build(trie_parent, trie_packed, node_parent, node_path)
    assert index is not None
    return index


def test_word_table_is_a_property_of_the_trie(running_spec, running_scheme):
    index = _live_index(running_spec, running_scheme)
    packed = index.packed
    rows = np.asarray([p for p in range(1, index.n_paths) if not packed[p] & 1])
    assert index.production_rows.tolist() == rows.tolist()
    assert index.production_words.tolist() == sorted(set(packed[rows].tolist()))
    assert (index.production_words[index.production_slots] == packed[rows]).all()


@pytest.mark.parametrize("view_number", [0, 1, 2])
def test_classifier_folds_count_classes_along_each_path(
    running_spec, running_scheme, running_views, view_number
):
    """Each fold packs the all-false (low lane) and mixed (high lane) edge counts of a path."""
    from repro.engine.cache import DecodedViewState, StaticViewState
    from repro.index import ChainClassifier

    index = _live_index(running_spec, running_scheme)
    view = running_views[view_number % len(running_views)]
    state = DecodedViewState(StaticViewState(running_scheme.label_view(view)))
    classes: dict = {}
    classifier = ChainClassifier(index, state, classes)
    # A second classifier over the same snapshot classifies nothing anew.
    before = dict(classes)
    again = ChainClassifier(index, state, classes)
    assert classes == before
    assert again.in_fold == classifier.in_fold and again.out_fold == classifier.out_fold

    for p in range(index.n_paths):
        expected = [0, 0]  # inputs, outputs
        row = p
        while row > 0:
            word = int(index.packed[row])
            if not word & 1:
                k, i = (word >> 1) & 0xFFFF, word >> 17
                for which, matrix_for in enumerate((state.inputs, state.outputs)):
                    cls_ = classify_matrix(matrix_for, k, i)
                    expected[which] += (cls_ == CLASS_FALSE) + ((cls_ == CLASS_MIXED) << 32)
            row = int(index.parent[row])
        assert [classifier.in_fold[p], classifier.out_fold[p]] == expected
    assert len(classifier.in_fold) == len(classifier.out_fold) == index.n_paths


def test_a_second_classifier_of_the_view_resolves_no_word_again(
    running_spec, running_scheme, running_views, monkeypatch
):
    """The view's word lanes make a classifier over a new mapping cost its two folds."""
    import repro.index.structural as structural
    from repro.engine.cache import DecodedViewState, StaticViewState
    from repro.index import ChainClassifier

    small = _live_index(running_spec, running_scheme, items=120, seed=3)
    large = _live_index(running_spec, running_scheme, items=400, seed=5)
    state = DecodedViewState(StaticViewState(running_scheme.label_view(running_views[0])))
    lanes = state.static.word_lanes
    first = ChainClassifier(large, state, state.static.structural_classes, lanes)
    assert len(lanes) == large.production_words.size > 0

    def forbidden(*args):
        raise AssertionError("a word was classified twice")

    monkeypatch.setattr(structural, "classify_matrix", forbidden)
    assert set(small.production_words.tolist()) <= set(large.production_words.tolist())
    for index in (large, small):  # even with no class memo to fall back on
        again = ChainClassifier(index, state, {}, lanes)
        assert len(again.in_fold) == index.n_paths
    assert again.in_fold != first.in_fold and len(lanes) == large.production_words.size
    assert ChainClassifier(large, state, {}, lanes).in_fold == first.in_fold
