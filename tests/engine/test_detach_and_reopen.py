"""Engine tests for shard lifecycle: detach hygiene, hot reopen, chunked gather."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import FVLScheme
from repro.core.run_labeler import RunLabeler
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.engine import engine as engine_module
from repro.errors import CorruptionError, LabelingError
from repro.model.projection import ViewProjection
from repro.store import checkpoint_run, compact
from repro.store.mapped import _ChunkedColumn
from repro.bench import sample_query_pairs
from repro.workloads import build_bioaid_specification, random_run, random_view


pytestmark = pytest.mark.usefixtures("detach_engines")


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
        arenas.update(arena for arena in state.arenas() if any(state.rows(arena)))
    return arenas


# -- detach --------------------------------------------------------------------


def test_detach_drops_private_arena_decode_entries(served):
    engine, _, view, pairs, run_file = served
    engine.attach(run_file, run_id="disk")
    expected = engine.depends_batch(pairs, view)
    assert np.array_equal(engine.depends_batch(pairs, view, run="disk"), expected)
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
    assert np.array_equal(engine.depends_batch(pairs, view, run="disk"), expected)


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
    assert np.array_equal(
        engine.depends_batch(pairs, view, run="again"), engine.depends_batch(pairs, view)
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
    assert np.array_equal(engine.depends_batch(pairs, view, run="dup"), expected)
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
    state = engine.decoded_state(view)
    flags = state.visibility_flags[0]
    # Repeat queries reuse (the very same) flags array instead of re-folding
    # the trie; growth would extend it, not rebuild it.
    assert np.array_equal(engine.is_visible_batch(uids, view), first)
    assert state.visibility_flags[0] is flags


def test_reopen_noop_without_a_new_generation(served):
    engine, _, _, _, run_file = served
    engine.attach(run_file, run_id="disk")
    assert engine.reopen("disk") is False
    assert engine.reopen(DEFAULT_RUN) is False


def test_a_probe_on_the_mapped_inode_reads_no_header(served, publish_generation, monkeypatch):
    """The path still names the mapped inode: one ``os.stat``, no open."""
    engine, _, _, _, run_file = served
    engine.attach(run_file, run_id="disk")
    peeks = []
    original = engine_module.run_file_info

    def counting(path):
        peeks.append(path)
        return original(path)

    monkeypatch.setattr(engine_module, "run_file_info", counting)
    assert [engine.reopen("disk") for _ in range(5)] == [False] * 5
    assert engine.reopen_all() == []
    assert peeks == []
    # A swap is a new inode: the header is read, once, and the shard remaps.
    publish_generation(run_file)
    assert engine.reopen("disk") is True
    assert len(peeks) == 1


def _unreadable(run_file, **_):
    # A new inode, like every swap: the old mapping's pages stay valid.
    staged = run_file.with_name("staged.fvl")
    staged.write_bytes(b"not a run file")
    os.replace(staged, run_file)


def _torn(run_file, publish, **_):
    data = run_file.read_bytes()
    publish(run_file, data[: len(data) // 2])


def _shrunk(run_file, publish, fingerprint, scheme, derivation):
    """The first half of the served run, published as its next generation."""
    labeler = RunLabeler(scheme.index)
    for event in derivation.events[: len(derivation.events) // 2]:
        labeler(event)
    prefix = run_file.with_name("prefix.fvl")
    checkpoint_run(prefix, labeler.store, labeler.tree.nodes)
    publish(run_file, prefix.read_bytes(), fingerprint=fingerprint)


#: row -> (what happens to the file, the run reopened, the outcome).
_REOPEN_CONTRACT = {
    "unknown run": (None, "nope", LabelingError),
    "labelled shard": (None, DEFAULT_RUN, False),
    "same generation": (None, "disk", False),
    "header unreadable": (_unreadable, "disk", False),
    "vanished": (lambda run_file, **_: run_file.unlink(), "disk", False),
    "torn mid-swap": (_torn, "disk", False),
    "newer generation": (lambda run_file, publish, **_: publish(run_file), "disk", True),
    "corrupt rewrite": (
        lambda run_file, publish, **_: publish(run_file, flip=True),
        "disk",
        CorruptionError,
    ),
    "foreign specification": (
        lambda run_file, publish, fingerprint, **_: publish(run_file, fingerprint=fingerprint ^ 1 or 2),
        "disk",
        LabelingError,
    ),
    "shrunk file": (_shrunk, "disk", LabelingError),
}


@pytest.mark.parametrize("row", list(_REOPEN_CONTRACT))
def test_reopen_contract(served, scheme, publish_generation, row):
    """Every outcome of ``reopen``; whatever is refused, the old mapping serves on."""
    engine, derivation, view, pairs, run_file = served
    rewrite, run, outcome = _REOPEN_CONTRACT[row]
    old = engine.attach(run_file, run_id="disk")
    arena = engine.shard_arena("disk")
    expected = engine.depends_batch(pairs, view)
    assert np.array_equal(engine.depends_batch(pairs, view, run="disk"), expected)
    corruption = _engine_corruption(engine)
    if rewrite is not None:
        rewrite(
            run_file,
            publish=publish_generation,
            fingerprint=old.fingerprint,
            scheme=scheme,
            derivation=derivation,
        )
    if isinstance(outcome, bool):
        assert engine.reopen(run) is outcome
    else:
        with pytest.raises(outcome):
            engine.reopen(run)
    assert _engine_corruption(engine) == corruption + (outcome is CorruptionError)
    mapped = engine.mapped_store("disk")
    assert (mapped is not old) is (outcome is True)
    assert mapped.generation == (1 if outcome is True else 0)
    assert engine.shard_arena("disk") == arena
    assert np.array_equal(engine.depends_batch(pairs, view, run="disk"), expected)


def _engine_corruption(engine) -> int:
    return engine.metrics.snapshot().get("corruption_detected_total", {}).get(("engine",), 0)


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
    expected = reference.depends_batch(pairs, view)

    engine = QueryEngine(scheme)
    engine.attach(run_file, run_id="disk")
    assert np.array_equal(engine.depends_batch(pairs, view, run="disk"), expected)
    arenas_before = _pair_matrix_arenas(engine)

    assert compact(run_file).compacted
    assert engine.reopen_all() == ["disk"]
    # Same arena tag, same cached matrices — the remap did not cold-start.
    assert _pair_matrix_arenas(engine) == arenas_before
    assert engine._shards["disk"].mapped.generation == 1
    assert np.array_equal(engine.depends_batch(pairs, view, run="disk"), expected)
    # Generation unchanged now: the sweep is a no-op.
    assert engine.reopen_all(run_file) == []


# -- chunked gather ------------------------------------------------------------


def test_chunked_column_gather_matches_concatenated():
    # Three extents of one buffer with padding between them, as a mapping
    # lays out the page-aligned extents of successive segments.
    lengths, gap = (7, 12, 5), 3
    buffer = np.full(sum(lengths) + gap * (len(lengths) + 1), -1, dtype=np.int32)
    starts, bases = [], []
    row = element = 0
    for n in lengths:
        element += gap
        buffer[element : element + n] = np.arange(row, row + n)
        starts.append(row)
        bases.append(element - row)
        row += n
        element += n
    column = _ChunkedColumn(buffer, starts, bases, row)
    flat = column.concatenated()
    assert flat.tolist() == list(range(24)) == list(column)
    rng = np.random.default_rng(0)
    boundary = [start for start in starts] + [start - 1 for start in starts[1:]] + [row - 1]
    for rows in (rng.integers(0, 24, size=1000), np.asarray(boundary)):
        assert np.array_equal(column.gather(rows), flat[rows])
        assert [column[int(r)] for r in rows] == flat[rows].tolist()
    assert column.gather(np.empty(0, dtype=np.int64)).size == 0
    for outside in (-1, row):
        with pytest.raises(IndexError):
            column.gather(np.asarray([0, outside]))


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
    expected = reference.depends_batch(pairs, view)

    engine = QueryEngine(scheme)
    mapped = engine.attach(run_file)
    assert max(mapped.extents_per_column().values()) >= 3
    assert np.array_equal(engine.depends_batch(pairs, view), expected)
    # The gather never materialised whole columns on the mapped store.
    assert mapped.store._producer_path._whole is None
