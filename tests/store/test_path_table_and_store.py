"""Unit tests for the columnar store layer (PathTable + LabelStore)."""

import numpy as np
import pytest

from repro.core import FVLScheme, ProductionEdgeLabel, RecursionEdgeLabel
from repro.errors import LabelingError
from repro.store import (
    KIND_PRODUCTION,
    KIND_RECURSION,
    KIND_ROOT,
    NO_PATH,
    ROOT_PATH,
    LabelStore,
    LabelStoreMapping,
    ObjectLabelStore,
    PathTable,
)


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


def test_path_table_compact_drops_and_rebuilds_index():
    table = PathTable()
    a = table.extend_production(ROOT_PATH, 1, 1)
    before = table.memory_bytes()
    table.compact()
    assert table.memory_bytes() < before
    # Interning after compaction still resolves existing paths...
    assert table.extend_production(ROOT_PATH, 1, 1) == a
    # ...and can still grow the trie.
    b = table.extend_production(a, 2, 1)
    assert table.parent(b) == a
    assert table.path(b) == (ProductionEdgeLabel(1, 1), ProductionEdgeLabel(2, 1))


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
    assert store.is_dense
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


def test_label_store_goes_sparse_on_out_of_order_uids():
    store, a, b = _store()
    store.append(5, a, 1, b, 1)
    store.append(42, a, 2, b, 2)  # gap -> sparse mode
    assert not store.is_dense
    assert store.row(5) == (a, 1, b, 1)
    assert store.row(42) == (a, 2, b, 2)
    assert 5 in store and 42 in store and 6 not in store
    with pytest.raises(LabelingError):
        store.append(5, a, 1, b, 1)


@pytest.mark.parametrize("sparse", [False, True])
def test_half_appended_row_reads_as_not_labelled(sparse):
    """A reader racing ``append`` gets the typed error, never ``IndexError``.

    ``append`` grows ``producer_path`` first and ``consumer_port`` last; the
    torn state in between is planted by hand.
    """
    store, a, b = _store()
    store.append(10, a, 1, b, 2)
    torn = 11
    if sparse:
        store.append(40, b, 1, a, 2)
        torn = 41
    rows = len(store)
    for column in store.raw_columns()[:3]:  # the ingest thread is mid-append
        column.append(a)
    assert len(store) == rows and torn not in store
    assert list(store.uids()) == ([10, 40] if sparse else [10])
    for read in (store.row, store.label, lambda uid: store.rows_for(np.array([10, uid]))):
        with pytest.raises(LabelingError, match=f"data item {torn} has not been labelled"):
            read(torn)
    assert store.rows_for(np.array([10])).tolist() == [0]
    assert [c.tolist() for c in store.gather_rows(np.array([0]))] == [[a], [1], [b], [2]]
    store.raw_columns()[3].append(1)  # the append completes
    if not sparse:
        assert store.row(torn) == (a, a, a, 1)


def test_gather_rows_reads_every_store_state_without_sealing_it():
    store, a, b = _store()
    for uid in range(20):
        store.append(uid, a, uid, b, 2 * uid)
    rows = store.rows_for(np.array([3, 17, 3]))
    want = ([a] * 3, [3, 17, 3], [b] * 3, [6, 34, 6])
    assert [column.tolist() for column in store.gather_rows(rows)] == list(want)
    assert not store.is_compacted  # a read never packs a live store
    store.compact()
    ports = store.gather_rows(rows, ("consumer_port", "producer_port"))
    assert [column.tolist() for column in ports] == [want[3], want[1]]
    store.append(20, b, 1, a, 1)  # no buffer export was left behind
    assert store.row(20) == (b, 1, a, 1)


def test_label_store_compact_preserves_contents_and_shrinks():
    store, a, b = _store()
    for uid in range(100):
        store.append(uid, a, 1, b, 2)
    before = store.memory_bytes()
    store.compact()
    assert store.is_compacted
    assert store.memory_bytes() < before
    assert store.row(57) == (a, 1, b, 2)
    # Appending after compaction still works (arrays grow in place).
    store.append(100, b, 1, a, 1)
    assert store.row(100) == (b, 1, a, 1)
    columns = store.columns()
    assert len(columns["producer_path_id"]) == 101


def test_compacted_run_memory_is_bounded_per_item_and_per_node():
    """Absolute byte bounds on a 4k-item BioAID run (no object graph to compare against).

    A compacted dense store is four int32 columns and nothing else; the path
    trie and the node arena may grow with the run's shape, so theirs are
    ceilings (measured: 20.7 bytes per item with the trie, 32.0 per node).
    """
    from repro.workloads import build_bioaid_specification, random_run

    spec = build_bioaid_specification()
    labeler = FVLScheme(spec).label_run(random_run(spec, 4000, seed=0))
    store = labeler.store.compact()
    store.table.compact()
    nodes = labeler.tree.nodes.compact()
    assert len(store) >= 4000 and len(nodes) >= 1000
    assert store.memory_bytes() == 16 * len(store)
    assert store.memory_bytes() + store.table.memory_bytes() <= 22 * len(store)
    assert nodes.memory_bytes() <= 32 * len(nodes)


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
