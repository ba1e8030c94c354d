"""Engine tests for shard lifecycle: detach hygiene, hot reopen, chunked gather."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FVLScheme, FVLVariant
from repro.core.run_labeler import RunLabeler
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.errors import LabelingError
from repro.model.projection import ViewProjection
from repro.store import checkpoint_run, compact
from repro.store.mapped import _ChunkedColumn
from repro.bench import sample_query_pairs
from repro.workloads import build_bioaid_specification, random_run, random_view


@pytest.fixture(scope="module")
def spec():
    return build_bioaid_specification()


@pytest.fixture(scope="module")
def scheme(spec):
    return FVLScheme(spec)


@pytest.fixture()
def served(scheme, spec, tmp_path):
    derivation = random_run(spec, 300, seed=41)
    view = random_view(spec, 6, seed=4, mode="grey", name="shard-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 300, seed=6)
    engine = QueryEngine(scheme)
    engine.add_run(DEFAULT_RUN, derivation)
    run_file = tmp_path / "shard.fvl"
    engine.checkpoint(run_file)
    return engine, derivation, view, pairs, run_file


def _pair_matrix_arenas(engine):
    arenas = set()
    for state in engine._states.values():
        cache = getattr(state, "decode_cache", None)
        if cache is not None:
            arenas.update(arena for arena in cache.arenas() if any(cache.rows(arena)))
    return arenas


# -- detach --------------------------------------------------------------------


def test_detach_drops_private_arena_decode_entries(served):
    engine, _, view, pairs, run_file = served
    engine.attach(run_file, run_id="disk")
    expected = engine.depends_batch(pairs, view, variant=FVLVariant.DEFAULT)
    assert engine.depends_batch(pairs, view, run="disk") == expected
    arena = engine._shards["disk"].arena
    assert arena in _pair_matrix_arenas(engine)

    engine.detach("disk")
    assert "disk" not in engine.run_ids
    assert arena not in _pair_matrix_arenas(engine)
    # The shared (arena 0) entries of the labelled shard survive.
    assert 0 in _pair_matrix_arenas(engine)
    with pytest.raises(LabelingError):
        engine.depends_batch(pairs, view, run="disk")
    # The name is reusable, and the fresh attachment gets a fresh arena.
    engine.attach(run_file, run_id="disk")
    assert engine._shards["disk"].arena != arena
    assert engine.depends_batch(pairs, view, run="disk") == expected


def test_detach_labelled_shard_only_unregisters(served):
    engine, _, view, pairs, _ = served
    engine.depends_batch(pairs, view)
    assert 0 in _pair_matrix_arenas(engine)
    engine.detach(DEFAULT_RUN)
    assert DEFAULT_RUN not in engine.run_ids
    assert 0 in _pair_matrix_arenas(engine)  # shared arena is never purged
    with pytest.raises(LabelingError):
        engine.detach(DEFAULT_RUN)


def test_detach_releases_the_mapping(served, tmp_path):
    engine, _, view, pairs, run_file = served
    engine.attach(run_file, run_id="disk")
    shard = engine._shards["disk"]
    engine.detach("disk")
    # detach closed the store (column views pin the pages only until they
    # are collected — the engine holds no reference anymore) and the file
    # handle is gone; a fresh attachment under another name still serves.
    assert shard.mapped._file.closed
    engine.attach(run_file, run_id="again")
    assert engine.depends_batch(pairs, view, run="again") == engine.depends_batch(
        pairs, view
    )


def test_attach_under_a_registered_run_id_is_rejected_not_replaced(served):
    """Regression: re-attaching a live run id must not leak the old mapping."""
    engine, _, view, pairs, run_file = served
    engine.attach(run_file, run_id="dup")
    live = engine._shards["dup"]
    expected = engine.depends_batch(pairs, view, run="dup")
    with pytest.raises(LabelingError, match="already registered.*detach"):
        engine.attach(run_file, run_id="dup")
    # The live shard was neither replaced nor closed — same mapping, same
    # arena, still serving — and no second mapping of the file leaked.
    assert engine._shards["dup"] is live
    assert not live.mapped._file.closed
    assert engine.depends_batch(pairs, view, run="dup") == expected
    engine.detach("dup")


# -- reopen --------------------------------------------------------------------


def test_reopen_all_matches_path_spellings(scheme, spec, tmp_path, monkeypatch):
    """A shard attached under a relative alias of the compacted path remaps too."""
    derivation = random_run(spec, 150, seed=44)
    labeler = RunLabeler(scheme.index)
    run_file = tmp_path / "alias.fvl"
    events = derivation.events
    half = len(events) // 2
    for event in events[:half]:
        labeler(event)
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    for event in events[half:]:
        labeler(event)
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)

    engine = QueryEngine(scheme)
    monkeypatch.chdir(tmp_path)
    engine.attach("alias.fvl", run_id="disk")  # relative spelling
    assert compact(run_file).compacted
    assert engine.reopen_all(run_file) == ["disk"]  # absolute spelling
    assert engine._shards["disk"].mapped.generation == 1


def test_is_visible_batch_memoizes_trie_flags(served):
    engine, derivation, view, _, _ = served
    uids = list(range(1, derivation.run.n_data_items + 1))
    first = engine.is_visible_batch(uids, view)
    state = engine._decoded_state(view, None)
    flags = state.visibility_flags[0]
    # Repeat queries reuse (the very same) flags array instead of re-folding
    # the trie; growth would extend it, not rebuild it.
    assert engine.is_visible_batch(uids, view) == first
    assert state.visibility_flags[0] is flags


def test_reopen_noop_without_a_new_generation(served):
    engine, _, _, _, run_file = served
    engine.attach(run_file, run_id="disk")
    assert engine.reopen("disk") is False
    with pytest.raises(LabelingError, match="labelled"):
        engine.reopen(DEFAULT_RUN)


def test_reopen_preserves_decode_cache_and_answers(scheme, spec, tmp_path):
    derivation = random_run(spec, 300, seed=42)
    view = random_view(spec, 6, seed=8, mode="grey", name="reopen-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 300, seed=9)
    run_file = tmp_path / "reopen.fvl"

    labeler = RunLabeler(scheme.index)
    events = derivation.events
    step = max(1, len(events) // 4)
    for lo in range(0, len(events), step):
        for event in events[lo : lo + step]:
            labeler(event)
        checkpoint_run(run_file, labeler.store, labeler.tree.nodes)

    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view, variant=FVLVariant.DEFAULT)

    engine = QueryEngine(scheme)
    engine.attach(run_file, run_id="disk")
    assert engine.depends_batch(pairs, view, run="disk") == expected
    arenas_before = _pair_matrix_arenas(engine)

    assert compact(run_file).compacted
    assert engine.reopen_all() == ["disk"]
    # Same arena tag, same cached matrices — the remap did not cold-start.
    assert _pair_matrix_arenas(engine) == arenas_before
    assert engine._shards["disk"].mapped.generation == 1
    assert engine.depends_batch(pairs, view, run="disk") == expected
    # Generation unchanged now: the sweep is a no-op.
    assert engine.reopen_all(run_file) == []


# -- chunked gather ------------------------------------------------------------


def test_chunked_column_gather_matches_concatenated():
    chunks = [
        np.arange(0, 7, dtype=np.int32),
        np.arange(7, 19, dtype=np.int32),
        np.arange(19, 24, dtype=np.int32),
    ]
    column = _ChunkedColumn([0, 7, 19], list(chunks))
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 24, size=1000)
    flat = column.concatenated()
    for chunk in (0, 1, 3, 64, 10_000):
        assert np.array_equal(column.gather(rows, chunk=chunk), flat[rows])
    assert column.gather(np.empty(0, dtype=np.int64)).size == 0


def test_batches_over_multi_segment_mapped_shards(scheme, spec, tmp_path):
    """The chunked gather serves batches on multi-extent columns."""
    derivation = random_run(spec, 300, seed=43)
    view = random_view(spec, 6, seed=10, mode="grey", name="gather-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 500, seed=11)
    run_file = tmp_path / "gather.fvl"
    labeler = RunLabeler(scheme.index)
    events = derivation.events
    step = max(1, len(events) // 4)
    for lo in range(0, len(events), step):
        for event in events[lo : lo + step]:
            labeler(event)
        checkpoint_run(run_file, labeler.store, labeler.tree.nodes)

    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view, variant=FVLVariant.DEFAULT)

    engine = QueryEngine(scheme)
    mapped = engine.attach(run_file)
    assert max(mapped.extents_per_column().values()) >= 3
    assert engine.depends_batch(pairs, view, variant=FVLVariant.DEFAULT) == expected
    # The gather never materialised whole columns on the mapped store.
    assert mapped.store._producer_path._flat is None
