"""Property tests: store-backed labels are bit-identical to object labels.

For random runs of the BioAID-like and running-example specifications, the
columnar :class:`LabelStore` must be observationally identical to the seed's
per-item value objects (kept in :mod:`tests.reference`): the same
materialised labels, the same per-label codec encodings, the same
``depends``/``depends_batch`` answers, and a lossless checkpoint -> map round
trip through the run file.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FVLScheme, FVLVariant
from repro.core.run_labeler import RunLabeler
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.io import LabelCodec
from repro.model.projection import ViewProjection
from repro.store import MappedRunStore, checkpoint_run, compact
from repro.workloads import build_bioaid_specification, random_run, random_view

from repro.bench import sample_query_pairs
from tests.reference import label_run_objects


@pytest.fixture(scope="module")
def spec():
    return build_bioaid_specification()


@pytest.fixture(scope="module")
def scheme(spec):
    return FVLScheme(spec)


@pytest.fixture(scope="module")
def codec(scheme):
    return LabelCodec(scheme.index)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), size=st.sampled_from([60, 150, 400]))
def test_store_labels_bit_identical_to_object_labels(spec, scheme, codec, seed, size):
    derivation = random_run(spec, size, seed=seed)
    columnar = scheme.label_run(derivation)
    objects = label_run_objects(scheme, derivation)
    assert len(columnar) == len(objects) == derivation.run.n_data_items
    for uid in derivation.run.data_items:
        store_label = columnar.label(uid)
        object_label = objects.label(uid)
        assert store_label == object_label
        assert codec.encode(store_label) == codec.encode(object_label)
        assert codec.data_label_bits(store_label) == codec.data_label_bits(object_label)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_store_backed_depends_matches_object_depends(spec, scheme, seed):
    derivation = random_run(spec, 250, seed=seed)
    columnar = scheme.label_run(derivation)
    objects = label_run_objects(scheme, derivation)
    view = random_view(spec, 6, seed=seed, mode="grey", name=f"prop-{seed}")
    view_label = scheme.label_view(view, FVLVariant.DEFAULT)
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 120, seed=seed)

    engine = QueryEngine(scheme)
    engine.add_run(DEFAULT_RUN, derivation)
    batched = engine.depends_batch(pairs, view)
    for (d1, d2), answer in zip(pairs, batched):
        expected = scheme.depends(objects.label(d1), objects.label(d2), view_label)
        assert answer == expected
        # Materialised store labels feed the one-pair predicate identically.
        assert scheme.depends(columnar.label(d1), columnar.label(d2), view_label) == expected


def _assert_mapped_equals_live(path, store, nodes) -> None:
    with MappedRunStore(path, verify="attach") as mapped:
        assert mapped.store.base_uid == store.base_uid
        assert list(mapped.store.iter_rows()) == list(store.iter_rows())
        assert list(mapped.table.iter_edges()) == list(store.table.iter_edges())
        if nodes is None:
            assert mapped.nodes is None
            return
        assert list(mapped.nodes.rows()) == list(nodes.rows())
        assert mapped.nodes.uid_slice(0) == nodes.uid_slice(0)
        assert mapped.nodes.module_names == nodes.module_names


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    size=st.sampled_from([50, 200, 500]),
    cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
    with_nodes=st.booleans(),
)
def test_checkpoint_map_round_trip_lossless(spec, scheme, seed, size, cuts, with_nodes):
    """The run file is the one serializer: whatever the slicing, the mapped
    columns equal the live run's after every checkpoint, after compaction,
    and after a checkpoint resumed on the compacted file."""
    events = random_run(spec, size, seed=seed).events
    bounds = sorted({int(len(events) * cut) for cut in cuts}) + [len(events)]
    labeler = RunLabeler(scheme.index)
    nodes = labeler.tree.nodes if with_nodes else None
    store = labeler.store
    with tempfile.TemporaryDirectory(prefix="round-trip-") as tmp:
        path = os.path.join(tmp, "run.fvl")
        done = 0
        for index, bound in enumerate(bounds):
            if index and index == len(bounds) - 1:
                # Before the last slice: merge the chain, then resume on it.
                compact(path)
                _assert_mapped_equals_live(path, store, nodes)
            for event in events[done:bound]:
                labeler(event)
            done = bound
            checkpoint_run(path, store, nodes)
            _assert_mapped_equals_live(path, store, nodes)
        assert len(store) > 0
