"""Differential tests: columnar visibility vs the object-label path (Section 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    FVLScheme,
    FVLVariant,
    RunLabeler,
    is_visible,
    path_visibility,
    visible_batch,
    visible_mask,
)
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.model.projection import ViewProjection
from repro.model.views import default_view
from repro.store import KIND_PRODUCTION, KIND_RECURSION, checkpoint_run
from repro.workloads import build_bioaid_specification, random_run, random_view
from tests.conftest import derive_running

pytestmark = pytest.mark.usefixtures("detach_engines")


@pytest.fixture(scope="module")
def bioaid():
    spec = build_bioaid_specification()
    return spec, FVLScheme(spec)


def _object_visibility(scheme, labeler, view_label, uids):
    return [is_visible(labeler.label(uid), view_label) for uid in uids]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_columnar_visibility_matches_object_path_bioaid(bioaid, seed):
    spec, scheme = bioaid
    derivation = random_run(spec, 250, seed=seed)
    labeler = scheme.label_run(derivation)
    view = random_view(spec, 5, seed=seed, mode="grey", name=f"vis-{seed}")
    view_label = scheme.label_view(view)
    uids = list(range(1, derivation.run.n_data_items + 1))
    expected = _object_visibility(scheme, labeler, view_label, uids)

    # Live store: scalar flags, no label objects; the vectorised whole-run
    # mask agrees too.
    store = labeler.store
    assert visible_batch(store, view_label, uids).tolist() == expected
    assert visible_mask(store, view_label).tolist() == expected

    # And both agree with the run-projection oracle.
    oracle = ViewProjection(derivation.run, view)
    assert [uid in oracle.visible_items for uid in uids] == expected


def test_visibility_with_recursion_edges(running_scheme, running_spec, view_u2):
    """The running example exercises recursion-edge labels in the trie."""
    derivation = derive_running(running_spec, seed=5)
    labeler = running_scheme.label_run(derivation)
    uids = sorted(labeler.labels)
    for view in (view_u2, default_view(running_spec)):
        view_label = running_scheme.label_view(view)
        expected = _object_visibility(running_scheme, labeler, view_label, uids)
        assert visible_batch(labeler.store, view_label, uids).tolist() == expected
        flags = path_visibility(labeler.store.table, view_label)
        assert flags.dtype == np.bool_ and flags[0]  # root path is always visible


def test_engine_visibility_over_live_and_mapped_shards(bioaid, tmp_path):
    spec, scheme = bioaid
    derivation = random_run(spec, 250, seed=7)
    view = random_view(spec, 5, seed=9, mode="grey", name="vis-engine")
    engine = QueryEngine(scheme)
    engine.add_run(DEFAULT_RUN, derivation)
    uids = list(range(1, derivation.run.n_data_items + 1))
    view_label = scheme.label_view(view)
    expected = _object_visibility(scheme, engine.run_labeler(), view_label, uids)

    assert engine.is_visible_batch(uids, view).tolist() == expected
    assert engine.is_visible(uids[0], view) == expected[0]
    # Variants only differ in matrix materialisation; visibility is the
    # retained-production test, identical across all of them.
    for variant in (FVLVariant.SPACE_EFFICIENT, FVLVariant.QUERY_EFFICIENT):
        other = scheme.label_view(view, variant)
        assert _object_visibility(scheme, engine.run_labeler(), other, uids) == expected

    run_file = tmp_path / "vis.fvl"
    engine.checkpoint(run_file)
    engine.attach(run_file, run_id="disk")
    assert engine.is_visible_batch(uids, view, run="disk").tolist() == expected


def test_visibility_of_multi_segment_mapped_runs(bioaid, tmp_path):
    spec, scheme = bioaid
    derivation = random_run(spec, 250, seed=8)
    events = derivation.events
    labeler = scheme.run_labeler()
    run_file = tmp_path / "segments.fvl"
    step = max(1, len(events) // 4)
    for lo in range(0, len(events), step):
        for event in events[lo : lo + step]:
            labeler(event)
        checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    view = random_view(spec, 5, seed=2, mode="grey", name="vis-mapped")
    view_label = scheme.label_view(view)
    uids = list(range(1, derivation.run.n_data_items + 1))
    expected = _object_visibility(scheme, labeler, view_label, uids)

    engine = QueryEngine(scheme)
    mapped = engine.attach(run_file)
    assert mapped.n_segments >= 3
    assert engine.is_visible_batch(uids, view).tolist() == expected
    assert visible_mask(mapped.store, view_label).tolist() == expected


def test_visible_batch_handles_boundary_and_late_paths(bioaid):
    spec, scheme = bioaid
    derivation = random_run(spec, 120, seed=9)
    labeler = scheme.label_run(derivation)
    view_label = scheme.label_view(default_view(spec))
    # Every label path is retained under the default view — including the
    # NO_PATH sides of boundary labels (initial inputs / final outputs).
    uids = list(range(1, derivation.run.n_data_items + 1))
    assert all(visible_batch(labeler.store, view_label, uids))

    # Flags folded over half a run, read after the rest was labelled: every
    # path interned since is walked up to the snapshot one edge at a time,
    # and under this grey view some walks end hidden at a production edge
    # and some at a recursion edge below a visible parent.
    derivation = random_run(spec, 300, seed=10)
    view_label = scheme.label_view(random_view(spec, 5, seed=13, mode="grey", name="late"))
    labeler = RunLabeler(scheme.index)
    events = derivation.events
    for event in events[: len(events) // 2]:
        labeler(event)
    stale = path_visibility(labeler.store.table, view_label)
    for event in events[len(events) // 2 :]:
        labeler(event)
    table = labeler.store.table
    fresh = path_visibility(table, view_label)
    hidden_at = {
        table.edge_fields(path)[0]
        for path in range(stale.size, fresh.size)
        if fresh[table.parent(path)] and not fresh[path]
    }
    assert hidden_at == {KIND_PRODUCTION, KIND_RECURSION}
    uids = np.arange(1, derivation.run.n_data_items + 1)
    expected = visible_batch(labeler.store, view_label, uids, flags=fresh)
    assert not expected.all() and expected.any()
    assert np.array_equal(visible_batch(labeler.store, view_label, uids, flags=stale), expected)
    assert expected.tolist() == _object_visibility(scheme, labeler, view_label, uids.tolist())