"""Unit tests for the persistent run store and the engine's attach/checkpoint."""

from __future__ import annotations

import hashlib
import os
import stat
import struct

import numpy as np
import pytest

from repro.core import FVLScheme
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
from repro.store.runfile import BLOB, SCHEMA
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
def labelled(scheme, spec):
    derivation = random_run(spec, 300, seed=21)
    labeler = scheme.label_run(derivation)
    return derivation, labeler


# -- writer validation -------------------------------------------------------


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


def test_a_created_checkpoint_fsyncs_its_directory_once(scheme, spec, tmp_path, monkeypatch):
    """The new file's directory entry is durable when the first checkpoint
    returns; an append creates no entry, so it fsyncs no directory."""
    directory = os.stat(tmp_path)
    synced_dirs = []
    real_fsync = os.fsync

    def fsync(fd):
        meta = os.fstat(fd)
        if stat.S_ISDIR(meta.st_mode):
            synced_dirs.append((meta.st_dev, meta.st_ino))
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    events = random_run(spec, 120, seed=7).events
    labeler = RunLabeler(scheme.index)
    for event in events[: len(events) // 2]:
        labeler(event)
    run_file = tmp_path / "run.fvl"
    assert checkpoint_run(run_file, labeler.store, labeler.tree.nodes).created
    assert synced_dirs == [(directory.st_dev, directory.st_ino)]
    for event in events[len(events) // 2 :]:
        labeler(event)
    appended = checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    assert appended.wrote_segment and not appended.created
    assert len(synced_dirs) == 1


def test_a_compacted_file_stores_each_column_at_its_width(scheme, spec, tmp_path):
    """Bytes per row of every integer schema column: a label row is 10 bytes."""
    events = random_run(spec, 300, seed=21).events
    labeler = RunLabeler(scheme.index)
    run_file = tmp_path / "run.fvl"
    for chunk in (events[: len(events) // 2], events[len(events) // 2 :]):
        for event in chunk:
            labeler(event)
        checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    assert compact(run_file).compacted
    with MappedRunStore(run_file) as mapped:
        assert set(mapped.extents_per_column().values()) == {1}
        widths = {
            name: extent.nbytes // extent.n_rows
            for name, extent in mapped.sections()
            if extent.dtype_code != BLOB
        }
    assert widths == {
        "path.parent": 4,
        "path.packed": 8,
        "path.c": 4,
        "label.producer_path": 4,
        "label.producer_port": 1,
        "label.consumer_path": 4,
        "label.consumer_port": 1,
        "node.parent": 4,
        "node.path_id": 4,
        "node.meta": 8,
        "node.uid_id": 4,
    }
    assert {column.name for column in SCHEMA if column.dtype != BLOB} == widths.keys()
    assert sum(width for name, width in widths.items() if name.startswith("label.")) == 10


def _ported_store(n_items: int, producer_port: int = 1, consumer_port: int = 1):
    """A store of ``n_items`` rows whose last row carries the given ports."""
    table = PathTable()
    a = table.extend_production(0, 1, 1)
    store = LabelStore(table)
    for uid in range(n_items - 1):
        store.append(uid, a, 1, a, 1)
    store.append(n_items - 1, a, producer_port, a, consumer_port)
    return store


@pytest.mark.parametrize(
    "ports, column",
    [((128, 1), "label.producer_port"), ((1, 128), "label.consumer_port")],
    ids=["producer", "consumer"],
)
def test_a_port_past_127_is_refused_before_any_byte_is_written(ports, column, tmp_path):
    """The port columns are one signed byte; a wider port is a typed error
    while the checkpoint is planned: no file is created, none is extended."""
    run_file = tmp_path / "ports.fvl"
    with pytest.raises(SerializationError, match=rf"{column} value 128 .* int8"):
        checkpoint_run(run_file, _ported_store(10, *ports), None)
    assert not run_file.exists()

    store = _ported_store(10, 127, 127)  # the widest port that fits
    checkpoint_run(run_file, store, None)
    before = run_file.read_bytes()
    store.append(10, 1, ports[0], 1, ports[1])
    with pytest.raises(SerializationError, match=rf"{column} value 128"):
        checkpoint_run(run_file, store, None)
    assert run_file.read_bytes() == before
    assert run_file_info(run_file).n_items == 10
    with MappedRunStore(run_file) as mapped:
        assert mapped.row(9) == (1, 127, 1, 127)


def test_pre_v3_files_are_refused_untouched(labelled, tmp_path):
    """Only version 4 is readable; older layouts (whose writers are gone)
    are refused by every entry point, typed, and never rewritten."""
    _, labeler = labelled
    run_file = tmp_path / "run.fvl"
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    raw = run_file.read_bytes()
    assert raw[PAGE_SIZE : PAGE_SIZE + 4] == b"SEG2"

    def forged(name, offset, patch):
        path = tmp_path / name
        path.write_bytes(raw[:offset] + patch + raw[offset + len(patch) :])
        return path

    walkers = (MappedRunStore, verify_run, compact)
    header_only = (
        run_file_info,
        lambda path: checkpoint_run(path, labeler.store, labeler.tree.nodes),
    )
    cases = [
        (forged("v1.fvl", 8, struct.pack("<I", 1)), "version", walkers + header_only),
        (forged("v2.fvl", 8, struct.pack("<I", 2)), "version", walkers + header_only),
        # What the removed checksum-less writer produced, under a current
        # header: a segment without the CRC array.  Refused wherever the chain is
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
    """Golden bytes: the format is frozen at version 4.

    Both hashes were re-pinned when the ports became one-byte columns
    (version 4), after the mapped columns of both files were shown equal to
    the live store's, dtypes included.  Any change to section order,
    padding, CRC placement, header packing or the compaction merge shows
    here.  Run files carry no timestamps, so the bytes are a function of the
    inputs.
    """
    events = random_run(spec, 600, seed=5).events
    labeler = RunLabeler(scheme.index)
    dense_file = tmp_path / "dense.fvl"
    step = -(-len(events) // 4)
    for lo in range(0, len(events), step):
        for event in events[lo : lo + step]:
            labeler(event)
        checkpoint_run(dense_file, labeler.store, labeler.tree.nodes, fingerprint=0x5EED)

    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def assert_serves_the_live_columns(path):
        with MappedRunStore(path) as mapped:
            for live, served in (
                (labeler.store.table, mapped.table),
                (labeler.store, mapped.store),
                (labeler.tree.nodes, mapped.nodes),
            ):
                expected, got = live.columns(), served.columns()
                assert got.keys() == expected.keys()
                for name, column in expected.items():
                    assert got[name].dtype == column.dtype, name
                    assert np.array_equal(got[name], column), name

    assert run_file_info(dense_file).n_segments == 4
    assert_serves_the_live_columns(dense_file)
    assert sha256(dense_file) == (
        "37fa88dfa895e4071d6a7a5c3d7e4a40263d41057688b5a873c6f6e4a071386b"
    )
    assert compact(dense_file).compacted
    assert_serves_the_live_columns(dense_file)
    assert sha256(dense_file) == (
        "999c2c16a9f30eae6efa9a201946ac1d265bec94c2ef8aa053e6232e4c656df4"
    )


def test_page_aligned_final_section_is_not_clobbered(tmp_path):
    """A last section ending exactly on a page boundary keeps its final byte.

    4096 rows make each one-byte port column exactly one page, and the
    consumer ports are the last section; the pad write used to overwrite the
    final byte of the last section (regression).
    """
    table = PathTable()
    a = table.extend_production(0, 1, 1)
    store = LabelStore(table)
    marker = 127  # a nonzero final byte: a clobber would zero it
    for uid in range(PAGE_SIZE):
        store.append(uid, a, 1, a, marker if uid == PAGE_SIZE - 1 else 1)
    run_file = tmp_path / "aligned.fvl"
    checkpoint_run(run_file, store, None)
    assert run_file.read_bytes()[-1] == marker
    with MappedRunStore(run_file) as mapped:
        assert tuple(mapped.row(PAGE_SIZE - 1)) == (a, 1, a, marker)


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
    expected = engine.depends_batch(pairs, view)
    run_file = tmp_path / "shard.fvl"
    engine.checkpoint(run_file)
    mapped = engine.attach(run_file, run_id="disk")
    assert mapped.n_items == len(engine.run_labeler().store)
    got = engine.depends_batch(pairs, view, run="disk")
    assert np.array_equal(got, expected)
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
    assert np.array_equal(served.depends_batch(pairs, view), expected)


def test_grouping_is_identical_across_store_states(engine_setup, tmp_path):
    engine, _, view, pairs = engine_setup
    expected = engine.depends_batch(pairs, view)
    fresh = QueryEngine(engine.scheme)
    fresh.add_run(DEFAULT_RUN, engine._shards[DEFAULT_RUN].derivation)
    assert np.array_equal(fresh.depends_batch(pairs, view), expected)
    # Serving the same rows from a file mapping changes no answer.
    run_file = tmp_path / "vector.fvl"
    fresh.checkpoint(run_file)
    fresh.attach(run_file, run_id="disk")
    assert np.array_equal(
        fresh.depends_batch(pairs, view, run="disk"), expected
    )
    # Unknown uids raise the precise per-item error.
    with pytest.raises(LabelingError):
        fresh.depends_batch([(10**7, 1)], view)
