"""Crash-consistency tests: torn checkpoints and torn compactions.

The writer's ordering contract is *data first, header last, fsync barrier in
between*: after a crash at any point, the header on disk either still
describes the previous watermark (whose segments are fully durable) or the
crash is detectable — attaching must never silently serve partial rows.
These tests forge the on-disk states such crashes leave behind (old header
over new data, truncated tails, half-written compaction temps) and assert
attach serves the previous watermark or fails loudly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FVLScheme
from repro.core.run_labeler import RunLabeler
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.errors import SerializationError
from repro.faults import FaultPlan, InjectedFault
from repro.model.projection import ViewProjection
from repro.store import MappedRunStore, checkpoint_run, compact, run_file_info
from repro.store.runfile import HEADER_SIZE, PAGE_SIZE
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
def torn_setup(scheme, spec, tmp_path):
    """A run checkpointed twice, with the file bytes captured at both states."""
    derivation = random_run(spec, 300, seed=31)
    events = derivation.events
    cut = int(len(events) * 0.7)
    labeler = RunLabeler(scheme.index)
    for event in events[:cut]:
        labeler(event)
    path = tmp_path / "torn.fvl"
    checkpoint_run(path, labeler.store, labeler.tree.nodes)
    after_first = path.read_bytes()
    watermark = run_file_info(path).n_items
    for event in events[cut:]:
        labeler(event)
    checkpoint_run(path, labeler.store, labeler.tree.nodes)
    after_second = path.read_bytes()
    assert len(after_second) > len(after_first)
    return derivation, path, after_first, after_second, watermark


def test_crash_between_segment_append_and_header_write_serves_old_watermark(
    torn_setup, scheme, spec
):
    """Segment 2 data hit the disk, the header did not: previous watermark wins."""
    derivation, path, after_first, after_second, watermark = torn_setup
    torn = after_first[:HEADER_SIZE] + after_second[HEADER_SIZE:]
    path.write_bytes(torn)
    with MappedRunStore(path) as mapped:
        assert mapped.n_segments == 1
        assert mapped.n_items == watermark < derivation.run.n_data_items

    # The old watermark is not merely readable — it answers queries.
    view = random_view(spec, 6, seed=3, mode="grey", name="torn-view")
    items = sorted(
        uid
        for uid in ViewProjection(derivation.run, view).visible_items
        if uid <= watermark
    )
    pairs = sample_query_pairs(items, 150, seed=4)
    served = QueryEngine(scheme)
    served.attach(path, run_id=DEFAULT_RUN)
    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    assert np.array_equal(
        served.depends_batch(pairs, view),
        reference.depends_batch(pairs, view),
    )


def test_crash_mid_segment_write_serves_old_watermark(torn_setup):
    """A torn half-appended segment under the old header is simply ignored."""
    _, path, after_first, after_second, watermark = torn_setup
    for cut_bytes in (len(after_first) + 100, len(after_second) - 64):
        torn = after_first[:HEADER_SIZE] + after_second[HEADER_SIZE : cut_bytes]
        path.write_bytes(torn)
        with MappedRunStore(path) as mapped:
            assert mapped.n_items == watermark


def test_advanced_header_over_truncated_data_fails_loudly(torn_setup):
    """If the fsync ordering were violated (header durable, data lost), attach refuses."""
    _, path, after_first, after_second, _ = torn_setup
    for cut_bytes in (len(after_first) + 100, len(after_second) - 64):
        path.write_bytes(after_second[:cut_bytes])
        with pytest.raises(SerializationError):
            MappedRunStore(path)


def test_truncated_header_page_fails_loudly(torn_setup):
    _, path, _, after_second, _ = torn_setup
    path.write_bytes(after_second[: HEADER_SIZE - 4])
    with pytest.raises(SerializationError):
        MappedRunStore(path)


# -- torn checkpoints through the real writer -------------------------------


def _serves_every_item(path, labeler) -> None:
    """The file attaches with every checksum scrubbed and holds the live run."""
    with MappedRunStore(path, verify="attach") as mapped:
        assert mapped.n_items == len(labeler.store)
        assert list(mapped.store.uids()) == list(labeler.store.uids())
        for name, column in labeler.store.columns().items():
            assert np.array_equal(mapped.store.columns()[name], column)


@pytest.mark.parametrize(
    "point, after",
    [("persist.write", 0), ("persist.fsync", 0), ("persist.fsync", 1)],
    ids=["write", "data-fsync", "header-fsync"],
)
def test_a_torn_first_checkpoint_leaves_no_file(point, after, scheme, spec, tmp_path):
    """A created file whose commit failed is removed, never left headerless;
    the retry creates it whole."""
    labeler = scheme.label_run(random_run(spec, 200, seed=41))
    path = tmp_path / "fresh.fvl"
    plan = FaultPlan().on(point, after=after, count=1)
    with plan.armed(), pytest.raises(InjectedFault):
        checkpoint_run(path, labeler.store, labeler.tree.nodes)
    assert plan.fired(point) == 1
    assert not path.exists()
    assert checkpoint_run(path, labeler.store, labeler.tree.nodes).created
    _serves_every_item(path, labeler)


@pytest.mark.parametrize(
    "point, after",
    [("persist.write", 0), ("persist.fsync", 0), ("persist.fsync", 1)],
    ids=["persist.write", "persist.fsync", "header-fsync"],
)
def test_a_torn_append_keeps_the_old_watermark(point, after, scheme, spec, tmp_path):
    """A fault before the header is durable leaves the previous header in
    place; the retry appends the whole delta."""
    events = random_run(spec, 300, seed=31).events
    cut = int(len(events) * 0.7)
    labeler = RunLabeler(scheme.index)
    for event in events[:cut]:
        labeler(event)
    path = tmp_path / "torn.fvl"
    checkpoint_run(path, labeler.store, labeler.tree.nodes)
    watermark = run_file_info(path).n_items
    for event in events[cut:]:
        labeler(event)
    plan = FaultPlan().on(point, after=after, count=1)
    with plan.armed(), pytest.raises(InjectedFault):
        checkpoint_run(path, labeler.store, labeler.tree.nodes)
    assert plan.fired(point) == 1
    info = run_file_info(path)
    assert info.n_items == watermark < len(labeler.store)
    assert info.n_segments == 1
    retry = checkpoint_run(path, labeler.store, labeler.tree.nodes)
    assert retry.delta_items == len(labeler.store) - watermark
    assert run_file_info(path).n_segments == 2
    _serves_every_item(path, labeler)


def test_freshly_compacted_file_truncation_fails_loudly(scheme, spec, tmp_path):
    """A compacted (single-segment) file is held to the same standard."""
    derivation = random_run(spec, 250, seed=32)
    events = derivation.events
    labeler = RunLabeler(scheme.index)
    path = tmp_path / "compacted.fvl"
    step = max(1, len(events) // 4)
    for lo in range(0, len(events), step):
        for event in events[lo : lo + step]:
            labeler(event)
        checkpoint_run(path, labeler.store, labeler.tree.nodes)
    assert compact(path).compacted
    whole = path.read_bytes()

    # Intact: serves the full watermark.
    with MappedRunStore(path) as mapped:
        assert mapped.n_items == derivation.run.n_data_items
    # Truncated mid-column (and mid-section-table): loud failures, never
    # partial answers.
    for cut_bytes in (len(whole) - 128, 2 * PAGE_SIZE + 16, PAGE_SIZE + 8):
        path.write_bytes(whole[:cut_bytes])
        with pytest.raises(SerializationError):
            MappedRunStore(path)


def test_crashed_compaction_temp_never_shadows_the_source(scheme, spec, tmp_path):
    """A crash *during* compaction leaves the original path fully intact."""
    derivation = random_run(spec, 200, seed=33)
    labeler = RunLabeler(scheme.index)
    path = tmp_path / "swap.fvl"
    events = derivation.events
    half = len(events) // 2
    for event in events[:half]:
        labeler(event)
    checkpoint_run(path, labeler.store, labeler.tree.nodes)
    for event in events[half:]:
        labeler(event)
    checkpoint_run(path, labeler.store, labeler.tree.nodes)
    original = path.read_bytes()

    # Simulate the crash window: the rewrite temp exists (half-written),
    # os.replace never ran.  Attach ignores it entirely.
    stale = tmp_path / "swap.fvl.compact-g1.tmp"
    stale.write_bytes(original[: len(original) // 2])
    with MappedRunStore(path) as mapped:
        assert mapped.n_items == derivation.run.n_data_items
        assert mapped.generation == 0
    # Recovery path: the next compact() GCs the temp and completes the swap.
    result = compact(path)
    assert result.compacted and str(stale) in result.removed
    assert run_file_info(path).generation == 1
    with MappedRunStore(path) as mapped:
        assert mapped.n_items == derivation.run.n_data_items
