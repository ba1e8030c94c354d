"""Corruption detection: per-section CRCs, verify modes, quarantine surfaces.

The contract under test is the loud-failure guarantee: a bit flip in any
payload section of a run file raises a typed
:class:`~repro.errors.CorruptionError` at attach (``verify="attach"``) or
before the first column of any kind is served (``verify="lazy"``) — never a
silently wrong answer — while readers already mapped keep serving their last
good generation.
"""

from __future__ import annotations

import os
import struct
from dataclasses import replace

import numpy as np
import pytest

from repro.core import FVLScheme
from repro.core.run_labeler import RunLabeler
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.errors import CorruptionError, SerializationError
from repro.model.projection import ViewProjection
from repro.store import (
    MappedRunStore,
    checkpoint_run,
    compact,
    run_file_info,
    verify_run,
)
from repro.store.runfile import FORMAT_VERSION, HEADER_SIZE, SCHEMA, Header
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
    derivation = random_run(spec, 300, seed=77)
    labeler = scheme.label_run(derivation)
    return derivation, labeler


def _payload_extents(path):
    """Every non-empty ``(section_name, offset, nbytes, crc)`` in the file.

    A lazily opened mapping lists its manifest without touching (or
    verifying) a payload byte, so this also works on a file about to be — or
    already — corrupted.
    """
    with MappedRunStore(path) as mapped:
        return [
            (name, extent.offset, extent.nbytes, extent.crc)
            for name, extent in mapped.sections()
            if extent.nbytes
        ]


def _flip_byte(path, offset: int) -> int:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([original ^ 0xFF]))
    return original


def _restore_byte(path, offset: int, original: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(bytes([original]))


def _bump_generation(path) -> None:
    """Fake a compaction swap so reopen probes actually attempt the remap."""
    with open(path, "r+b") as handle:
        header = Header.unpack(handle.read(HEADER_SIZE))
        handle.seek(0)
        handle.write(replace(header, generation=header.generation + 1).pack())


# -- the format carries checksums ----------------------------------------------


def test_v3_checkpoints_are_fully_checksummed(labelled, tmp_path):
    _, labeler = labelled
    run_file = tmp_path / "run.fvl"
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    report = verify_run(run_file)
    assert report.extents_checked == len(_payload_extents(run_file)) > 0
    assert report.bytes_verified > 0
    shallow = verify_run(run_file, deep=False)
    assert shallow.extents_checked == 0 and shallow.bytes_verified == 0


# -- bit flips are detected, loudly --------------------------------------------


def _two_segment_file(scheme, derivation, tmp_path):
    """A file with nodes, two segments: together they carry every schema column."""
    events = derivation.events
    labeler = RunLabeler(scheme.index)
    run_file = tmp_path / "run.fvl"
    for chunk in (events[: len(events) // 2], events[len(events) // 2 :]):
        for event in chunk:
            labeler(event)
        checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    return run_file, sorted(labeler.store.uids())


def test_bit_flip_in_every_payload_section_fails_attach(scheme, spec, tmp_path, publish_generation):
    derivation = random_run(spec, 300, seed=77)
    view = random_view(spec, 6, seed=76, mode="grey", name="flip-view")
    run_file, kept = _two_segment_file(scheme, derivation, tmp_path)
    visible = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(visible, 40, seed=75)
    covered = set()
    # A reader attached before the damage: its reopen probe sees a newer
    # generation (a new inode) on disk and must refuse to remap onto
    # corrupt bytes.
    reader = QueryEngine(scheme)
    reader.attach(run_file, verify="attach")
    reader.depends_batch(pairs, view)  # the clean file serves both calls
    reader.is_visible_batch(kept[:20], view)
    publish_generation(run_file)
    pristine = run_file.read_bytes()
    for name, offset, nbytes, _crc in _payload_extents(run_file):
        covered.add(name)
        flip_at = offset + nbytes // 2
        original = _flip_byte(run_file, flip_at)
        with pytest.raises(CorruptionError, match="fails its checksum"):
            MappedRunStore(run_file, verify="attach")
        with pytest.raises(CorruptionError):
            verify_run(run_file)
        # Default (lazy) attach: whichever column a batch reads first, it
        # never reads it from an unverified file — and a retry is not
        # served either.
        lazy = QueryEngine(scheme)
        lazy.attach(run_file)
        for _ in range(2):
            with pytest.raises(CorruptionError):
                lazy.depends_batch(pairs, view)
            with pytest.raises(CorruptionError):
                lazy.is_visible_batch(kept[:20], view)
        lazy.detach(DEFAULT_RUN)
        with pytest.raises(CorruptionError):
            reader.reopen(DEFAULT_RUN)
        # A corrupt source is never rewritten under fresh checksums.
        damaged = run_file.read_bytes()
        with pytest.raises(CorruptionError):
            compact(run_file)
        assert run_file.read_bytes() == damaged
        assert not list(tmp_path.glob("*.tmp"))
        _restore_byte(run_file, flip_at, original)
    assert run_file.read_bytes() == pristine
    verify_run(run_file)  # restored bytes scrub clean again
    reader.detach(DEFAULT_RUN)
    assert covered == {column.name for column in SCHEMA}


def test_lazy_verification_raises_on_first_gather(labelled, tmp_path):
    _, labeler = labelled
    run_file = tmp_path / "run.fvl"
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    name, offset, nbytes, _crc = max(_payload_extents(run_file), key=lambda e: e[2])
    _flip_byte(run_file, offset + nbytes // 2)
    mapped = MappedRunStore(run_file)  # lazy: attach itself stays cheap
    try:
        rows = np.arange(min(4, mapped.n_items), dtype=np.int64)
        with pytest.raises(CorruptionError):
            mapped.store.gather_rows(rows)
        # The scrub does not "succeed" on retry: corruption keeps raising.
        with pytest.raises(CorruptionError):
            mapped.store.gather_rows(rows)
    finally:
        mapped.close()


def test_verify_mode_is_validated(labelled, tmp_path):
    _, labeler = labelled
    run_file = tmp_path / "run.fvl"
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    for mode in ("sometimes", "off"):
        with pytest.raises(ValueError, match="verify"):
            MappedRunStore(run_file, verify=mode)


# -- a header that is not one consecutive uid range is refused ---------------


#: Byte offset of the header's u32 flags word: after the 8-byte magic, the
#: version and the page size.
_FLAGS_OFFSET = 16


#: Byte offset of the header's u32 version word, after the 8-byte magic.
_VERSION_OFFSET = 8


def _refused_by_every_reader(scheme, derivation, run_file, message) -> None:
    """Every entry point raises ``SerializationError`` and none writes a byte."""
    data = run_file.read_bytes()
    tmp_path = run_file.parent
    labeler = RunLabeler(scheme.index)
    for event in derivation.events:
        labeler(event)
    readers = {
        "MappedRunStore": lambda: MappedRunStore(run_file),
        "run_file_info": lambda: run_file_info(run_file),
        "verify_run": lambda: verify_run(run_file),
        "checkpoint_run": lambda: checkpoint_run(run_file, labeler.store, labeler.tree.nodes),
        "compact": lambda: compact(run_file),
    }
    for name, read in readers.items():
        with pytest.raises(SerializationError, match=message):
            read()
        assert run_file.read_bytes() == data, name
    assert not list(tmp_path.glob("*.tmp"))


def test_a_header_without_the_consecutive_uid_flag_is_refused(scheme, spec, tmp_path):
    """Every reader refuses it through ``Header.unpack``, and none writes to it."""
    derivation = random_run(spec, 300, seed=77)
    run_file, _ = _two_segment_file(scheme, derivation, tmp_path)
    data = bytearray(run_file.read_bytes())
    assert data[_FLAGS_OFFSET] & 1
    data[_FLAGS_OFFSET] &= ~1
    run_file.write_bytes(bytes(data))
    _refused_by_every_reader(scheme, derivation, run_file, "not one consecutive uid range")


def test_a_version_3_header_is_refused(scheme, spec, tmp_path):
    """Version 3 stored the ports as int32: a header that says so is refused
    by every reader, even over an otherwise valid file, and none writes to it."""
    derivation = random_run(spec, 300, seed=77)
    run_file, _ = _two_segment_file(scheme, derivation, tmp_path)
    data = bytearray(run_file.read_bytes())
    assert struct.unpack_from("<I", data, _VERSION_OFFSET) == (FORMAT_VERSION,) == (4,)
    struct.pack_into("<I", data, _VERSION_OFFSET, 3)
    run_file.write_bytes(bytes(data))
    _refused_by_every_reader(scheme, derivation, run_file, "version 3 ")


# -- the engine keeps serving the last good generation -------------------------


def test_engine_serves_last_good_generation_after_on_disk_corruption(
    scheme, spec, tmp_path
):
    derivation = random_run(spec, 250, seed=79)
    view = random_view(spec, 6, seed=80, mode="grey", name="corrupt-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 150, seed=81)
    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view)
    run_file = tmp_path / "serving.fvl"
    reference.checkpoint(run_file)

    engine = QueryEngine(scheme)
    engine.attach(run_file, verify="attach")
    engine.add_view(view)
    assert np.array_equal(engine.depends_batch(pairs, view), expected)

    # A corrupt *rewrite* is swapped over the path (a compaction whose
    # output a bad disk mangled): a new inode, so the engine's live mapping
    # of the old generation is untouched.
    name, offset, nbytes, _crc = max(_payload_extents(run_file), key=lambda e: e[2])
    rewrite = tmp_path / "serving.fvl.rewrite"
    rewrite.write_bytes(run_file.read_bytes())
    _bump_generation(rewrite)
    _flip_byte(rewrite, offset + nbytes // 2)
    os.replace(rewrite, run_file)

    # A remap attempt fails loudly with the typed error...
    with pytest.raises(CorruptionError):
        engine.reopen(DEFAULT_RUN)
    # ...and the mapped last-good generation keeps answering bit-identically.
    assert np.array_equal(engine.depends_batch(pairs, view), expected)


def test_reopen_stays_loud_on_corruption(scheme, spec, tmp_path, publish_generation):
    derivation = random_run(spec, 150, seed=82)
    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    run_file = tmp_path / "maybe.fvl"
    reference.checkpoint(run_file)
    engine = QueryEngine(scheme)
    engine.attach(run_file, verify="attach")

    # Publish a newer generation (a new inode, like a compaction swap) so
    # reopen actually attempts the remap, then corrupt a payload byte: the
    # remap must raise, not return False.
    publish_generation(run_file)
    name, offset, nbytes, _crc = max(_payload_extents(run_file), key=lambda e: e[2])
    _flip_byte(run_file, offset + nbytes // 2)
    with pytest.raises(CorruptionError):
        engine.reopen(DEFAULT_RUN)
