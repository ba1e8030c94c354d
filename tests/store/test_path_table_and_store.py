"""Unit tests for the columnar store layer (PathTable, LabelStore, live columns)."""

import contextlib

import numpy as np
import pytest

from repro.core import FVLScheme, ProductionEdgeLabel, RecursionEdgeLabel
from repro.errors import LabelingError
from repro.store import (
    KIND_PRODUCTION,
    KIND_RECURSION,
    KIND_ROOT,
    NO_NODE,
    NO_PATH,
    ROOT_PATH,
    LabelStore,
    LabelStoreMapping,
    NodeTable,
    PathTable,
)
from tests.reference import ObjectLabelStore


# -- PathTable ---------------------------------------------------------------


def test_path_table_interns_paths_once():
    table = PathTable()
    a = table.extend_production(ROOT_PATH, 1, 2)
    b = table.extend_production(ROOT_PATH, 1, 2)
    c = table.extend_recursion(a, 1, 1, 3)
    assert a == b
    assert c != a
    assert len(table) == 3  # root + 2
    assert table.parent(c) == a
    assert table.depth(c) == 2


def test_path_table_materialises_lazily_and_shares():
    table = PathTable()
    a = table.extend_production(ROOT_PATH, 2, 1)
    b = table.extend_recursion(a, 1, 2, 5)
    assert table.path(ROOT_PATH) == ()
    assert table.path(b) == (ProductionEdgeLabel(2, 1), RecursionEdgeLabel(1, 2, 5))
    # The parent's tuple is the prefix of the child's, shared by identity.
    assert table.path(b)[:1] == table.path(a)
    assert table.edge(a) == ProductionEdgeLabel(2, 1)
    assert table.edge(ROOT_PATH) is None
    assert table.edge_fields(a) == (KIND_PRODUCTION, 2, 1, 0)
    assert table.edge_fields(b) == (KIND_RECURSION, 1, 2, 5)
    assert table.edge_fields(ROOT_PATH)[0] == KIND_ROOT


def test_path_table_intern_round_trips_tuples():
    table = PathTable()
    path = (
        ProductionEdgeLabel(1, 3),
        RecursionEdgeLabel(2, 1, 7),
        ProductionEdgeLabel(4, 2),
    )
    pid = table.intern(path)
    assert table.path(pid) == path
    assert table.intern(path) == pid


def test_new_child_invalidates_and_rebuilds_the_index():
    table = PathTable()
    a = table.new_production_child(ROOT_PATH, 1, 1)
    r = table.new_recursion_child(a, 2, 1, 7)
    assert not table._indexed  # bulk growth skips the per-node index write
    # Interning afterwards rebuilds the index and resolves existing paths...
    assert table.extend_production(ROOT_PATH, 1, 1) == a
    assert table._indexed
    assert table.extend_recursion(a, 2, 1, 7) == r
    # ...and can still grow the trie.
    b = table.extend_production(a, 2, 1)
    assert b == len(table) - 1
    assert table.parent(b) == a
    assert table.path(b) == (ProductionEdgeLabel(1, 1), ProductionEdgeLabel(2, 1))
    assert table.path(r) == (ProductionEdgeLabel(1, 1), RecursionEdgeLabel(2, 1, 7))


def test_path_table_rejects_bad_ids_and_fields():
    table = PathTable()
    with pytest.raises(LabelingError):
        table.extend_production(99, 1, 1)
    with pytest.raises(LabelingError):
        table.extend_production(ROOT_PATH, 1 << 20, 1)
    with pytest.raises(LabelingError):
        table.extend_recursion(ROOT_PATH, -1, 0, 1)
    with pytest.raises(LabelingError):
        table.path(42)


def test_path_table_iter_edges_matches_contents():
    table = PathTable()
    a = table.extend_production(ROOT_PATH, 3, 1)
    table.extend_recursion(a, 1, 2, 9)
    rows = list(table.iter_edges())
    assert rows == [(ROOT_PATH, KIND_PRODUCTION, 3, 1, 0), (a, KIND_RECURSION, 1, 2, 9)]


# -- LabelStore --------------------------------------------------------------


def _store():
    table = PathTable()
    a = table.extend_production(ROOT_PATH, 1, 1)
    b = table.extend_production(ROOT_PATH, 1, 2)
    return LabelStore(table), a, b


def test_label_store_dense_rows_and_labels():
    store, a, b = _store()
    store.append(10, a, 1, b, 2)
    store.append(11, NO_PATH, 0, a, 1)
    store.append(12, b, 3, NO_PATH, 0)
    assert len(store) == 3
    assert store.row(10) == (a, 1, b, 2)
    assert list(store.uids()) == [10, 11, 12]
    label = store.label(10)
    assert label.producer.path == store.table.path(a)
    assert label.producer.port == 1
    assert store.label(11).is_initial_input
    assert store.label(12).is_final_output
    with pytest.raises(LabelingError):
        store.row(99)
    with pytest.raises(LabelingError):
        store.append(11, a, 1, b, 1)  # duplicate


@pytest.mark.parametrize(
    "uid, message",
    [(13, "not the run's next uid 12"), (11, "already labelled"), (9, "not the run's next uid 12")],
    ids=["gap", "duplicate", "below-base"],
)
def test_append_refuses_a_uid_that_is_not_the_next_one(uid, message):
    """A run's items are one consecutive uid range: anything else is refused."""
    store, a, b = _store()
    for next_uid in (10, 11):
        store.append(next_uid, a, next_uid, b, 1)
    with pytest.raises(LabelingError, match=message):
        store.append(uid, b, 7, a, 7)
    assert len(store) == 2
    assert list(store.uids()) == [10, 11]
    assert [store.row(u) for u in (10, 11)] == [(a, 10, b, 1), (a, 11, b, 1)]
    assert [len(column) for column in store.raw_columns()] == [2] * 4
    assert (uid in store) == (uid == 11)
    store.append(12, b, 1, a, 1)  # the run's next uid still lands
    assert store.row(12) == (b, 1, a, 1)


def test_extend_items_keeps_the_consecutive_rows_before_a_gap():
    from repro.model.derivation import NewItem

    store, a, b = _store()
    path_ids = [NO_PATH, a, b]  # by 1-based production position
    items = [NewItem(uid, "P:1", 1, 1, "C:1", 2, uid) for uid in (5, 6, 8, 9)]
    with pytest.raises(LabelingError, match="data item 8 is not the run's next uid 7"):
        store.extend_items(items, path_ids)
    assert list(store.uids()) == [5, 6]
    assert [store.row(uid) for uid in (5, 6)] == [(a, 1, b, 5), (a, 1, b, 6)]
    assert [len(column) for column in store.raw_columns()] == [2] * 4
    with pytest.raises(LabelingError, match="already labelled"):
        store.extend_items([NewItem(6, "P:1", 1, 1, "C:1", 2, 1)], path_ids)
    assert len(store) == 2


def test_half_appended_row_reads_as_not_labelled():
    """A reader racing ``append`` gets the typed error, never ``IndexError``.

    ``append`` grows ``producer_path`` first and ``consumer_port`` last; the
    torn state in between is planted by hand.
    """
    store, a, b = _store()
    store.append(10, a, 1, b, 2)
    torn = 11
    rows = len(store)
    for column in store.raw_columns()[:3]:  # the ingest thread is mid-append
        column.append(a)
    assert len(store) == rows and torn not in store
    assert list(store.uids()) == [10]
    for read in (store.row, store.label, lambda uid: store.rows_for(np.array([10, uid]))):
        with pytest.raises(LabelingError, match=f"data item {torn} has not been labelled"):
            read(torn)
    assert store.rows_for(np.array([10])).tolist() == [0]
    assert [c.tolist() for c in store.gather_rows(np.array([0]))] == [[a], [1], [b], [2]]
    store.raw_columns()[3].append(1)  # the append completes
    assert store.row(torn) == (a, a, a, 1)


def test_gather_rows_reads_a_live_store_without_pinning_it():
    store, a, b = _store()
    for uid in range(20):
        store.append(uid, a, uid, b, 2 * uid)
    rows = store.rows_for(np.array([3, 17, 3]))
    want = ([a] * 3, [3, 17, 3], [b] * 3, [6, 34, 6])
    assert [column.tolist() for column in store.gather_rows(rows)] == list(want)
    ports = store.gather_rows(rows, ("consumer_port", "producer_port"))
    assert [column.tolist() for column in ports] == [want[3], want[1]]
    store.append(20, b, 1, a, 1)  # no buffer export was left behind
    assert store.row(20) == (b, 1, a, 1)


def _three_live_tables():
    """A path table, a label store and a node table, each with whole rows."""
    store, a, b = _store()
    store.append(10, a, 1, b, 2)
    store.append(11, b, 3, NO_PATH, 0)
    nodes = NodeTable()
    root = nodes.append_module(NO_NODE, ROOT_PATH, nodes.module_id("S"), "S:1")
    nodes.append_recursive(root, a, 2, 1)
    return store.table, store, nodes


def _grow(table, store, nodes):
    table.extend_production(ROOT_PATH, 5, 5)
    store.append(12, 1, 1, 2, 2)
    nodes.append_module(0, 2, 0, "S:2")


def test_live_columns_pin_nothing():
    """``columns()`` of a live table is a copy: the next append still works."""
    tables = _three_live_tables()
    held = [table.columns() for table in tables]
    _grow(*tables)  # no buffer is exported, so every table still grows
    # The tables grew, the held copies did not; a fresh read sees the new rows.
    lengths = [[len(column) for column in columns.values()] for columns in held]
    assert lengths == [[3] * 3, [2] * 4, [2] * 5]
    assert [len(next(iter(t.columns().values()))) for t in tables] == [4, 3, 3]
    # The dtypes of the mapped columns.
    assert {name: c.dtype.name for columns in held for name, c in columns.items()} == {
        "parent": "int32",
        "packed": "int64",
        "c": "int32",
        "producer_path_id": "int32",
        "producer_port": "int8",
        "consumer_path_id": "int32",
        "consumer_port": "int8",
        "path_id": "int32",
        "meta": "int64",
        "uid_id": "int32",
        "child_count": "int32",
    }


def test_live_columns_leave_out_a_row_torn_mid_append():
    """A row whose appends are in flight is in none of the returned columns."""
    table, store, nodes = _three_live_tables()
    whole = [t.columns() for t in (table, store, nodes)]
    # Each table's ingest thread is mid-append: the first columns have grown.
    for column in table.raw_columns()[:2]:
        column.append(0)
    for column in store.raw_columns()[:3]:
        column.append(0)
    for column in nodes.raw_columns()[:3]:
        column.append(0)
    for before, t in zip(whole, (table, store, nodes)):
        after = t.columns()
        assert after.keys() == before.keys()
        for name, column in after.items():
            assert column.tolist() == before[name].tolist(), name


@pytest.mark.parametrize("mapped", [False, True])
def test_numpy_uids_are_uids(mapped, tmp_path):
    """``in`` takes any integral uid, as ``row`` and ``label`` do."""
    from repro.store import MappedRunStore, checkpoint_run
    from repro.workloads import build_bioaid_specification, random_run

    spec = build_bioaid_specification()
    labeler = FVLScheme(spec).label_run(random_run(spec, 100, seed=1))
    store = labeler.store
    with contextlib.ExitStack() as stack:
        if mapped:
            checkpoint_run(tmp_path / "uids.fvl", store)
            store = stack.enter_context(MappedRunStore(tmp_path / "uids.fvl")).store
        uids = list(store.uids())
        assert uids and all(uid in store for uid in uids)
        view = store.labels_view()
        assert all(np.int64(uid) in view for uid in uids)
        assert np.int64(uids[0]) in store and np.int32(uids[-1]) in store
        assert np.int64(max(uids) + 1) not in store
        assert float(uids[0]) not in store and "1" not in store and None not in store


def test_labels_view_is_read_only_and_lazy(running_scheme, running_spec):
    from tests.conftest import derive_running

    derivation = derive_running(running_spec, seed=3)
    labeler = running_scheme.label_run(derivation)
    view = labeler.labels
    assert isinstance(view, LabelStoreMapping)
    assert labeler.labels is view  # cached, no per-access copy
    assert len(view) == derivation.run.n_data_items
    assert set(view) == set(derivation.run.data_items)
    uid = next(iter(derivation.run.data_items))
    assert view[uid] == labeler.label(uid)
    with pytest.raises(TypeError):
        view[uid] = None
    with pytest.raises(KeyError):
        view[10**9]


def test_object_store_matches_columnar_semantics():
    table = PathTable()
    a = table.extend_production(ROOT_PATH, 1, 1)
    obj = ObjectLabelStore(table)
    obj.append(1, a, 1, NO_PATH, 0)
    assert obj.label(1).is_final_output
    assert 1 in obj and 2 not in obj
    with pytest.raises(LabelingError):
        obj.append(1, a, 1, NO_PATH, 0)
    with pytest.raises(LabelingError):
        obj.label(2)
    with pytest.raises(TypeError):
        obj.labels_view()[2] = None


def test_engine_shares_one_path_arena_across_runs(running_scheme, running_spec, tmp_path):
    from tests.conftest import derive_running
    from repro.engine import QueryEngine

    engine = QueryEngine(running_scheme)
    labeler_a = engine.add_run("a", derive_running(running_spec, seed=1))
    labeler_b = engine.add_run("b", derive_running(running_spec, seed=2))
    table = labeler_a.store.table
    assert table is labeler_b.store.table
    # Sharing means real interning: identical paths of sibling runs dedupe to
    # one row, so the arena never holds duplicate (parent, edge) rows...
    rows = list(table.rows())
    assert len(rows) == len(set(rows))
    # ...and a run file round-trips an engine-labelled store, shared trie
    # (sibling runs' paths) and all.
    from repro.store import MappedRunStore

    run_file = tmp_path / "b.fvl"
    engine.checkpoint(run_file, "b")
    with MappedRunStore(run_file) as mapped:
        assert list(mapped.store.iter_rows()) == list(labeler_b.store.iter_rows())
        assert mapped.n_paths == len(table)
        for uid in labeler_b.store.uids():
            assert mapped.label(uid) == labeler_b.label(uid)


def test_out_of_range_field_cannot_alias_an_existing_path():
    table = PathTable()
    table.extend_production(ROOT_PATH, 0, 1)
    # 65536 << 1 packs onto the same key as (0, 1); the range check must fire
    # before the memo probe or this would silently return the wrong id.
    with pytest.raises(LabelingError):
        table.extend_production(ROOT_PATH, 1 << 16, 0)
    with pytest.raises(LabelingError):
        table.extend_recursion(ROOT_PATH, 1 << 16, 0, 1)
