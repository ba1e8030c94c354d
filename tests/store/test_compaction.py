"""Unit tests for run-file compaction (merge, verify, atomic swap, GC)."""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.store.compaction as compaction_module
from repro.core import FVLScheme
from repro.core.run_labeler import RunLabeler
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.errors import SerializationError
from repro.model.projection import ViewProjection
from repro.store import (
    MappedRunStore,
    checkpoint_run,
    compact,
    run_file_info,
)
from repro.bench import sample_query_pairs
from repro.workloads import build_bioaid_specification, random_run, random_view

pytestmark = pytest.mark.usefixtures("detach_engines")


@pytest.fixture(scope="module")
def spec():
    return build_bioaid_specification()


@pytest.fixture(scope="module")
def scheme(spec):
    return FVLScheme(spec)


def _segmented_run(scheme, derivation, path, n_segments):
    """Checkpoint a derivation in ``n_segments`` incremental slices."""
    events = derivation.events
    labeler = RunLabeler(scheme.index)
    step = max(1, len(events) // n_segments)
    written = 0
    for lo in range(0, len(events), step):
        for event in events[lo : lo + step]:
            labeler(event)
        result = checkpoint_run(path, labeler.store, labeler.tree.nodes)
        written += result.wrote_segment
    return labeler, written


def test_compact_merges_to_one_extent_per_column(scheme, spec, tmp_path):
    derivation = random_run(spec, 400, seed=11)
    path = tmp_path / "chain.fvl"
    labeler, _ = _segmented_run(scheme, derivation, path, 5)
    before = run_file_info(path)
    assert before.n_segments >= 4

    result = compact(path)
    assert result.compacted
    assert result.segments_before == before.n_segments
    assert result.generation == 1
    assert result.bytes_after < result.bytes_before
    assert result.space_amplification > 1.0

    with MappedRunStore(path) as mapped:
        assert mapped.n_segments == 1
        assert mapped.generation == 1
        assert max(mapped.extents_per_column().values()) == 1
        assert mapped.n_items == len(labeler.store)
        assert mapped.nodes is not None
        assert mapped.nodes.max_fanout() == labeler.tree.max_fanout()
        # Intern lists survive the blob merge.
        assert mapped.nodes.module_names == labeler.tree.nodes.module_names
        assert mapped.nodes.uid_slice(0) == labeler.tree.nodes.uid_slice(0)


def test_compacted_shard_answers_bit_identically(scheme, spec, tmp_path):
    """Acceptance: depends_batch / is_visible identical across the rewrite."""
    derivation = random_run(spec, 400, seed=12)
    view = random_view(spec, 6, seed=5, mode="grey", name="compact-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 400, seed=2)
    all_uids = list(range(1, derivation.run.n_data_items + 1))

    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view)
    expected_visible = reference.is_visible_batch(all_uids, view)

    path = tmp_path / "serve.fvl"
    _segmented_run(scheme, derivation, path, 5)
    segmented = QueryEngine(scheme)
    segmented.attach(path, run_id=DEFAULT_RUN)
    assert np.array_equal(segmented.depends_batch(pairs, view), expected)
    assert np.array_equal(segmented.is_visible_batch(all_uids, view), expected_visible)

    assert compact(path).compacted
    compacted = QueryEngine(scheme)
    compacted.attach(path, run_id=DEFAULT_RUN)
    assert np.array_equal(compacted.depends_batch(pairs, view), expected)
    assert np.array_equal(compacted.is_visible_batch(all_uids, view), expected_visible)


def test_compact_noop_on_single_segment_and_empty(scheme, spec, tmp_path):
    derivation = random_run(spec, 100, seed=13)
    labeler = scheme.label_run(derivation)
    path = tmp_path / "single.fvl"
    checkpoint_run(path, labeler.store, labeler.tree.nodes)
    size = os.path.getsize(path)
    result = compact(path)
    assert not result.compacted
    assert result.generation == 0
    assert os.path.getsize(path) == size


def test_checkpoint_resumes_on_compacted_generation(scheme, spec, tmp_path):
    derivation = random_run(spec, 300, seed=14)
    events = derivation.events
    cut = len(events) // 2
    labeler = RunLabeler(scheme.index)
    for event in events[:cut]:
        labeler(event)
    path = tmp_path / "grow.fvl"
    checkpoint_run(path, labeler.store, labeler.tree.nodes)
    for event in events[cut : cut + cut // 2]:
        labeler(event)
    checkpoint_run(path, labeler.store, labeler.tree.nodes)
    assert compact(path).compacted

    # The compacted file keeps accepting deltas under the same generation.
    for event in events[cut + cut // 2 :]:
        labeler(event)
    delta = checkpoint_run(path, labeler.store, labeler.tree.nodes)
    assert delta.wrote_segment
    info = run_file_info(path)
    assert info.n_segments == 2 and info.generation == 1
    assert info.n_items == derivation.run.n_data_items

    # ...and compacting again bumps the generation once more.
    assert compact(path).generation == 2
    with MappedRunStore(path) as mapped:
        assert mapped.n_items == derivation.run.n_data_items


def test_stale_compaction_temps_are_gcd(scheme, spec, tmp_path):
    derivation = random_run(spec, 150, seed=15)
    path = tmp_path / "gc.fvl"
    _segmented_run(scheme, derivation, path, 3)
    stale = tmp_path / "gc.fvl.compact-g1.tmp"
    stale.write_bytes(b"half-written rewrite from a crashed process")
    # The original file is untouched by the leftover...
    with MappedRunStore(path) as mapped:
        assert mapped.n_segments >= 2
    # ...and the next compaction removes it before rewriting.
    result = compact(path)
    assert result.compacted
    assert str(stale) in result.removed
    assert not stale.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_failed_verification_leaves_source_untouched(scheme, spec, tmp_path, monkeypatch):
    derivation = random_run(spec, 150, seed=16)
    path = tmp_path / "verify.fvl"
    _segmented_run(scheme, derivation, path, 3)
    original_bytes = path.read_bytes()

    real_merge = compaction_module._merged_sections

    def corrupting_merge(source):
        sections = real_merge(source)
        sid, dtype, row_start, n_rows, payload = sections[0]
        # Flip one byte of the first merged column: the bit-identical
        # verification must catch it before the swap.
        corrupted = bytes([payload[0] ^ 0xFF]) + payload[1:]
        return [(sid, dtype, row_start, n_rows, corrupted)] + sections[1:]

    monkeypatch.setattr(compaction_module, "_merged_sections", corrupting_merge)
    with pytest.raises(SerializationError, match="verification failed"):
        compact(path)
    assert path.read_bytes() == original_bytes
    assert not list(tmp_path.glob("*.tmp"))
