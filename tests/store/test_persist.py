"""Unit tests for the persistent run store and the engine's attach/checkpoint."""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.core import FVLScheme, FVLVariant
from repro.core.run_labeler import RunLabeler
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.errors import LabelingError, SerializationError
from repro.model.projection import ViewProjection
from repro.store import (
    FORMAT_MAGIC,
    PAGE_SIZE,
    LabelStore,
    MappedLabelStore,
    MappedRunStore,
    PathTable,
    checkpoint_run,
    compact,
    run_file_info,
    verify_run,
)
from repro.bench import sample_query_pairs
from repro.workloads import build_bioaid_specification, random_run, random_view


@pytest.fixture(scope="module")
def spec():
    return build_bioaid_specification()


@pytest.fixture(scope="module")
def scheme(spec):
    return FVLScheme(spec)


@pytest.fixture()
def labelled(scheme, spec):
    derivation = random_run(spec, 300, seed=21)
    labeler = scheme.label_run(derivation)
    return derivation, labeler


# -- writer validation -------------------------------------------------------


def test_checkpoint_requires_columnar_store(labelled, tmp_path, scheme, spec):
    derivation, _ = labelled
    objects = scheme.label_run(derivation, columnar=False)
    with pytest.raises(SerializationError):
        checkpoint_run(tmp_path / "x.fvl", objects.store, None)


def test_checkpoint_creates_and_appends_watermarked_segments(labelled, tmp_path):
    derivation, labeler = labelled
    run_file = tmp_path / "run.fvl"
    first = checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    assert first.created and first.wrote_segment
    assert first.delta_items == len(labeler.store)
    # No growth -> no new segment, file untouched.
    size = run_file.stat().st_size
    again = checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    assert not again.created and not again.wrote_segment
    assert run_file.stat().st_size == size
    # Sections are page-aligned: the file is a whole number of pages.
    assert size % PAGE_SIZE == 0


def test_checkpoint_rejects_a_different_run(labelled, tmp_path, scheme, spec):
    _, labeler = labelled
    run_file = tmp_path / "run.fvl"
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    other = scheme.label_run(random_run(spec, 60, seed=5))
    with pytest.raises(SerializationError, match="fewer"):
        checkpoint_run(run_file, other.store, other.tree.nodes)


def test_checkpoint_rejects_node_presence_flips(labelled, tmp_path):
    _, labeler = labelled
    run_file = tmp_path / "run.fvl"
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    with pytest.raises(SerializationError, match="node"):
        checkpoint_run(run_file, labeler.store, None)


def test_checkpoint_batch_rejects_duplicate_paths(labelled, tmp_path, scheme, spec):
    _, labeler = labelled
    other = scheme.label_run(random_run(spec, 60, seed=6))
    shared = tmp_path / "shared.fvl"
    with pytest.raises(SerializationError, match="own file"):
        from repro.store import checkpoint_batch

        checkpoint_batch(
            [
                (shared, labeler.store, labeler.tree.nodes),
                (shared, other.store, other.tree.nodes),
            ]
        )
    assert not shared.exists()


def test_pre_v3_files_are_refused_untouched(labelled, tmp_path):
    """Only version 3 with checksummed segments is readable; older layouts
    (whose writers are gone) are refused by every entry point, typed, and
    never rewritten."""
    _, labeler = labelled
    run_file = tmp_path / "run.fvl"
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    raw = run_file.read_bytes()
    assert raw[PAGE_SIZE : PAGE_SIZE + 4] == b"SEG2"

    def forged(name, offset, patch):
        path = tmp_path / name
        path.write_bytes(raw[:offset] + patch + raw[offset + len(patch) :])
        return path

    walkers = (
        MappedRunStore,
        verify_run,
        compact,
        lambda path: run_file_info(path, estimate_amplification=True),
    )
    header_only = (
        run_file_info,
        lambda path: checkpoint_run(path, labeler.store, labeler.tree.nodes),
    )
    cases = [
        (forged("v1.fvl", 8, struct.pack("<I", 1)), "version", walkers + header_only),
        (forged("v2.fvl", 8, struct.pack("<I", 2)), "version", walkers + header_only),
        # What the removed checksum-less writer produced: a v3 header over a
        # segment without the CRC array.  Refused wherever the chain is
        # walked (a resuming checkpoint reads the header only).
        (forged("seg1.fvl", PAGE_SIZE, b"SEG1"), "segment magic", walkers),
    ]
    for path, message, entry_points in cases:
        before = path.read_bytes()
        for entry_point in entry_points:
            with pytest.raises(SerializationError, match=message):
                entry_point(path)
        assert path.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))  # no rewrite was even started


def test_reader_rejects_bad_magic_and_version(labelled, tmp_path):
    _, labeler = labelled
    run_file = tmp_path / "run.fvl"
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    raw = bytearray(run_file.read_bytes())
    bad_magic = tmp_path / "bad-magic.fvl"
    bad_magic.write_bytes(b"NOTARUN!" + raw[8:])
    with pytest.raises(SerializationError, match="magic"):
        MappedRunStore(bad_magic)
    bad_version = tmp_path / "bad-version.fvl"
    corrupted = bytearray(raw)
    corrupted[8:12] = struct.pack("<I", 99)
    assert corrupted[:8] == FORMAT_MAGIC
    bad_version.write_bytes(bytes(corrupted))
    with pytest.raises(SerializationError, match="version"):
        MappedRunStore(bad_version)
    truncated = tmp_path / "truncated.fvl"
    truncated.write_bytes(bytes(raw[: PAGE_SIZE + 16]))
    with pytest.raises(SerializationError):
        MappedRunStore(truncated)


def test_mapped_store_is_read_only(labelled, tmp_path):
    _, labeler = labelled
    run_file = tmp_path / "run.fvl"
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    with MappedRunStore(run_file) as mapped:
        assert isinstance(mapped.store, MappedLabelStore)
        assert isinstance(mapped.store, LabelStore)  # engine fast path applies
        with pytest.raises(SerializationError):
            mapped.store.append(10**6, 1, 1, 2, 1)
        with pytest.raises(SerializationError):
            mapped.table.extend_production(0, 1, 1)
        with pytest.raises(SerializationError):
            mapped.nodes.append_recursive(0, 0, 1, 1)
        with pytest.raises(SerializationError):
            checkpoint_run(tmp_path / "copy.fvl", mapped.store, None)


def test_mapped_store_serves_the_live_rows_and_labels(labelled, tmp_path):
    derivation, labeler = labelled
    run_file = tmp_path / "run.fvl"
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    with MappedRunStore(run_file) as mapped:
        assert len(mapped) == len(labeler.store)
        assert list(mapped.store.iter_rows()) == list(labeler.store.iter_rows())
        assert list(mapped.table.iter_edges()) == list(labeler.store.table.iter_edges())
        for uid in derivation.run.data_items:
            assert mapped.label(uid) == labeler.label(uid)


def test_run_file_bytes_are_pinned(scheme, spec, tmp_path):
    """Golden bytes: the format is frozen at version 3.

    The sparse hash was computed with the writer as of PR 16 (one
    hand-written ``sections.append`` per column); the two dense ones were
    re-pinned when the three interval sections left the schema (PR 21) — the
    segmented file is byte for byte what ``checkpoint_run(...,
    structural_index=False)`` wrote before.  Any change to section order,
    padding, CRC placement, header packing or the compaction merge shows
    here.  Run files carry no timestamps, so the bytes are a function of the
    inputs.
    """
    events = random_run(spec, 600, seed=5).events
    labeler = RunLabeler(scheme.index)
    dense_file, sparse_file = tmp_path / "dense.fvl", tmp_path / "sparse.fvl"
    step = -(-len(events) // 4)
    for lo in range(0, len(events), step):
        for event in events[lo : lo + step]:
            labeler(event)
        checkpoint_run(dense_file, labeler.store, labeler.tree.nodes, fingerprint=0x5EED)
    sparse = LabelStore(labeler.store.table)
    for uid, *row in labeler.store.iter_rows():
        if uid % 7 != 3:
            sparse.append(uid, *row)
    checkpoint_run(sparse_file, sparse, None, fingerprint=0x5EED)

    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert run_file_info(dense_file).n_segments == 4
    assert sha256(dense_file) == (
        "7e467a1925e96dd77d660ae13fb3e186083798eb06998a1e1dba15fb0224c362"
    )
    assert sha256(sparse_file) == (
        "5dc56c84bd5c14b32aaa33f8712b14615222be1245ba6be9668007d9009353da"
    )
    assert compact(dense_file).compacted
    assert sha256(dense_file) == (
        "259f04f71fc5d2fda4f96ea0da847cd39be13cc9260975d89970267893a720e7"
    )


def test_page_aligned_final_section_is_not_clobbered(tmp_path):
    """A last section ending exactly on a page boundary keeps its final byte.

    1024 dense rows make each i32 label column exactly one page; the pad
    write used to overwrite the final byte of the last section (regression).
    """
    table = PathTable()
    a = table.extend_production(0, 1, 1)
    store = LabelStore(table)
    marker = 1 << 24  # nonzero high byte: a clobber would zero it
    for uid in range(1024):
        store.append(uid, a, 1, a, marker if uid == 1023 else 1)
    run_file = tmp_path / "aligned.fvl"
    checkpoint_run(run_file, store, None)
    with MappedRunStore(run_file) as mapped:
        assert tuple(mapped.row(1023)) == (a, 1, a, marker)


def test_sparse_stores_round_trip(tmp_path):
    table = PathTable()
    a = table.extend_production(0, 1, 1)
    b = table.extend_production(0, 1, 2)
    store = LabelStore(table)
    store.append(5, a, 1, b, 2)
    store.append(42, b, 1, a, 1)  # gap -> sparse
    assert not store.is_dense
    run_file = tmp_path / "sparse.fvl"
    checkpoint_run(run_file, store, None)
    with MappedRunStore(run_file) as mapped:
        assert not mapped.store.is_dense
        assert list(mapped.store.uids()) == [5, 42]
        assert tuple(mapped.store.row(42)) == (b, 1, a, 1)
        assert mapped.nodes is None


# -- engine integration ------------------------------------------------------


@pytest.fixture()
def engine_setup(scheme, spec):
    derivation = random_run(spec, 300, seed=21)
    view = random_view(spec, 6, seed=9, mode="grey", name="persist-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 400, seed=13)
    engine = QueryEngine(scheme)
    engine.add_run(DEFAULT_RUN, derivation)
    return engine, derivation, view, pairs


def test_attached_shard_answers_bit_identical(engine_setup, tmp_path):
    engine, _, view, pairs = engine_setup
    expected = engine.depends_batch(pairs, view, variant=FVLVariant.DEFAULT)
    run_file = tmp_path / "shard.fvl"
    engine.checkpoint(run_file)
    mapped = engine.attach(run_file, run_id="disk")
    assert mapped.n_items == len(engine.run_labeler().store)
    got = engine.depends_batch(pairs, view, run="disk", variant=FVLVariant.DEFAULT)
    assert got == expected
    # Space-efficient variant exercises the memoized decode path too.
    expected_se = engine.depends_batch(pairs, view, variant=FVLVariant.SPACE_EFFICIENT)
    got_se = engine.depends_batch(
        pairs, view, run="disk", variant=FVLVariant.SPACE_EFFICIENT
    )
    assert got_se == expected_se
    with pytest.raises(LabelingError):
        engine.run_labeler("disk")
    with pytest.raises(LabelingError):
        engine.checkpoint(run_file, run_id="disk")
    with pytest.raises(LabelingError):
        engine.attach(run_file, run_id="disk")  # name taken


def test_attach_rejects_a_different_specification(engine_setup, tmp_path):
    from repro.workloads import build_running_example

    engine, _, _, _ = engine_setup
    run_file = tmp_path / "other-spec.fvl"
    engine.checkpoint(run_file)
    other = QueryEngine(FVLScheme(build_running_example()))
    with pytest.raises(LabelingError, match="different"):
        other.attach(run_file, run_id="disk")
    # The same specification (even a fresh engine) attaches fine.
    same = QueryEngine(engine.scheme)
    assert same.attach(run_file, run_id="disk").fingerprint != 0


def test_incremental_checkpoint_then_attach_is_lossless(scheme, spec, tmp_path):
    derivation = random_run(spec, 300, seed=3)
    events = derivation.events
    half = len(events) // 2
    labeler = RunLabeler(scheme.index)
    for event in events[:half]:
        labeler(event)
    run_file = tmp_path / "grow.fvl"
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    for event in events[half:]:
        labeler(event)
    delta = checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    assert delta.wrote_segment and delta.delta_items > 0

    view = random_view(spec, 6, seed=9, mode="grey", name="grow-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 300, seed=1)

    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view)

    served = QueryEngine(scheme)
    served.attach(run_file, run_id=DEFAULT_RUN)
    assert served.depends_batch(pairs, view) == expected


def test_grouping_is_identical_across_store_states(engine_setup, tmp_path):
    engine, _, view, pairs = engine_setup
    expected = engine.depends_batch(pairs, view, variant=FVLVariant.DEFAULT)
    fresh = QueryEngine(engine.scheme)
    fresh.add_run(DEFAULT_RUN, engine._shards[DEFAULT_RUN].derivation)
    # A query never compacts a live store — the read path must not mutate a
    # store that may still be ingesting.
    store = fresh.run_labeler().store
    assert not store.is_compacted
    assert fresh.depends_batch(pairs, view, variant=FVLVariant.DEFAULT) == expected
    assert not store.is_compacted
    # Sealing the run changes how rows are stored, not the answers.
    store.compact()
    assert fresh.depends_batch(pairs, view, variant=FVLVariant.DEFAULT) == expected
    # Neither does serving the same rows from a file mapping.
    run_file = tmp_path / "vector.fvl"
    fresh.checkpoint(run_file)
    fresh.attach(run_file, run_id="disk")
    assert (
        fresh.depends_batch(pairs, view, run="disk", variant=FVLVariant.DEFAULT)
        == expected
    )
    # Unknown uids raise the precise per-item error.
    with pytest.raises(LabelingError):
        fresh.depends_batch([(10**7, 1)], view)
