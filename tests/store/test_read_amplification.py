"""Tests for measured read amplification (run_file_info / MappedRunStore)."""

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


def test_default_info_carries_no_estimate(scheme, spec, tmp_path):
    path = tmp_path / "plain.fvl"
    _segmented_file(scheme, spec, path, slices=3)
    info = run_file_info(path)
    assert info.compacted_bytes_estimate is None
    assert info.read_amplification is None


def test_segment_chain_amplification_is_measured_and_reclaimed(scheme, spec, tmp_path):
    path = tmp_path / "chain.fvl"
    _segmented_file(scheme, spec, path, slices=8)
    info = run_file_info(path, estimate_amplification=True)
    assert info.n_segments >= 6
    assert info.compacted_bytes_estimate is not None
    assert info.read_amplification > 1.0

    # The mapped store measures the same chain from its parsed extents.
    with MappedRunStore(path) as mapped:
        assert mapped.read_amplification() == pytest.approx(
            info.read_amplification, rel=0.05
        )

    # Compaction reclaims what the estimate promised (within the blob-join
    # slack the estimate deliberately ignores).
    result = compact(path)
    assert result.compacted
    assert result.bytes_after == pytest.approx(info.compacted_bytes_estimate, rel=0.05)

    after = run_file_info(path, estimate_amplification=True)
    assert after.n_segments == 1
    assert after.read_amplification == 1.0
    with MappedRunStore(path) as mapped:
        assert mapped.read_amplification() == 1.0


def test_single_segment_file_has_unit_amplification(scheme, spec, tmp_path):
    path = tmp_path / "single.fvl"
    derivation = random_run(spec, 150, seed=62)
    labeler = RunLabeler(scheme.index)
    for event in derivation.events:
        labeler(event)
    checkpoint_run(path, labeler.store, labeler.tree.nodes)
    info = run_file_info(path, estimate_amplification=True)
    assert info.n_segments == 1
    assert info.read_amplification == 1.0


def test_amplification_scan_rejects_torn_chains(scheme, spec, tmp_path):
    """The header scan and the mapper accept exactly the same files.

    One chain decoder serves both, so at every page-boundary truncation the
    chain scan, the mapping and the shallow scrub all succeed or all raise —
    the scan can never estimate a file the mapper would refuse (payload
    extents and the chain end are bounds-checked by both).
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
            outcome(lambda p: run_file_info(p, estimate_amplification=True)),
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
