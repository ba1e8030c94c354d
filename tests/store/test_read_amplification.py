"""Tests for measured read amplification (MappedRunStore)."""

from __future__ import annotations

import os

import pytest

from repro.core import FVLScheme
from repro.core.run_labeler import RunLabeler
from repro.errors import SerializationError
from repro.store import (
    PAGE_SIZE,
    FileLease,
    MappedRunStore,
    checkpoint_run,
    compact,
    run_file_info,
    verify_run,
)
from repro.workloads import build_bioaid_specification, random_run


@pytest.fixture(scope="module")
def spec():
    return build_bioaid_specification()


@pytest.fixture(scope="module")
def scheme(spec):
    return FVLScheme(spec)


def _segmented_file(scheme, spec, path, *, slices=8, size=300, seed=61):
    derivation = random_run(spec, size, seed=seed)
    labeler = RunLabeler(scheme.index)
    events = derivation.events
    step = max(1, len(events) // slices)
    for lo in range(0, len(events), step):
        for event in events[lo : lo + step]:
            labeler(event)
        checkpoint_run(path, labeler.store, labeler.tree.nodes)
    return labeler


def test_segment_chain_amplification_is_measured_and_reclaimed(scheme, spec, tmp_path):
    path = tmp_path / "chain.fvl"
    _segmented_file(scheme, spec, path, slices=8)
    assert run_file_info(path).n_segments >= 6
    with MappedRunStore(path) as mapped:
        amplification = mapped.read_amplification()
    assert amplification > 1.0

    # Compaction reclaims what the measurement promised (within the
    # blob-join slack the estimate deliberately ignores).
    result = compact(path)
    assert result.compacted
    assert result.bytes_after == pytest.approx(
        result.bytes_before / amplification, rel=0.05
    )

    assert run_file_info(path).n_segments == 1
    with MappedRunStore(path) as mapped:
        assert mapped.read_amplification() == 1.0


def test_single_segment_file_has_unit_amplification(scheme, spec, tmp_path):
    path = tmp_path / "single.fvl"
    derivation = random_run(spec, 150, seed=62)
    labeler = RunLabeler(scheme.index)
    for event in derivation.events:
        labeler(event)
    checkpoint_run(path, labeler.store, labeler.tree.nodes)
    assert run_file_info(path).n_segments == 1
    with MappedRunStore(path) as mapped:
        assert mapped.read_amplification() == 1.0


def test_amplification_scan_rejects_torn_chains(scheme, spec, tmp_path):
    """The mapper and the shallow scrub accept exactly the same files.

    At every page-boundary truncation the mapping and the shallow scrub
    both succeed or both raise, so a mapping can never measure the
    amplification of a torn chain (payload extents and the chain end are
    bounds-checked by the one chain decoder both use).
    """
    path = tmp_path / "torn.fvl"
    _segmented_file(scheme, spec, path, slices=4)
    intact = path.read_bytes()
    assert run_file_info(path).n_segments >= 4

    def outcome(entry_point):
        try:
            entry_point(path)
        except SerializationError:
            return "refused"
        return "accepted"

    refused = 0
    for cut in range(PAGE_SIZE, len(intact) + 1, PAGE_SIZE):
        path.write_bytes(intact[:cut])
        outcomes = {
            outcome(lambda p: MappedRunStore(p).close()),
            outcome(lambda p: verify_run(p, deep=False)),
        }
        assert len(outcomes) == 1, f"entry points disagree at cut {cut}: {outcomes}"
        # The plain header peek still succeeds: the header page is intact.
        assert run_file_info(path).n_segments >= 4
        refused += outcomes == {"refused"}
    # Only the untruncated file is whole; every shorter one is a torn chain.
    assert refused == len(intact) // PAGE_SIZE - 1


# -- compact()'s lease argument ------------------------------------------------


def test_compact_rejects_an_unheld_or_foreign_lease(scheme, spec, tmp_path):
    path = tmp_path / "guarded.fvl"
    _segmented_file(scheme, spec, path, slices=3)
    unheld = FileLease(path)
    with pytest.raises(SerializationError, match="not held"):
        compact(path, lease=unheld)
    other = FileLease(tmp_path / "other.fvl").acquire()
    try:
        with pytest.raises(SerializationError, match="guards"):
            compact(path, lease=other)
    finally:
        other.release()
    # A held lease on the right file is accepted and kept (not released).
    lease = FileLease(path).acquire()
    try:
        assert compact(path, lease=lease).compacted
        assert lease.held
    finally:
        lease.release()
    assert os.path.exists(path)
