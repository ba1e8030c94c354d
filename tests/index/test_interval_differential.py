"""Verdict rows against the reference decoder, and files of builds that wrote intervals.

The contract of a verdict row is *the bit the decoder's matrix holds at every
port pair*: on every grammar — recursive chains included — the engine agrees
pair for pair with the one-pair predicate, including which queries *raise*
and with what error, and every key ``decide_many`` settles without a product
is one whose reference matrix is all-true, or absent or all-false
(``kernel_vs_reference``, the checker ``tests/engine/test_decode_kernel.py``
shares).

Run files written before the kernel classified products carry three interval
sections (``node.pre`` / ``node.post`` / ``node.level``).  They still attach
and answer bit-identically, a flipped byte in one of those extents surfaces
as a typed :class:`~repro.errors.CorruptionError`, never as a wrong answer,
and compaction rewrites them to the current 14-column layout.
"""

from __future__ import annotations

import os
import random
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import sample_query_pairs
from repro.core import FVLScheme, FVLVariant
from repro.core.run_labeler import RunLabeler
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.errors import CorruptionError
from repro.index import compute_tree_intervals
from repro.model.projection import ViewProjection
from repro.model.views import default_view
from repro.store import MappedRunStore, checkpoint_run, compact, verify_run
from repro.store.runfile import I64, SCHEMA, write_segment
from repro.workloads import (
    build_bioaid_specification,
    build_nested_chain_specification,
    build_synthetic_specification,
    random_run,
    random_view,
)

# A small *recursive* member of the synthetic family: every derivation
# carries recursion edges, so chain products are among the classified factors.
SYN_SPEC = build_synthetic_specification(
    workflow_size=6, module_degree=2, nesting_depth=2, recursion_length=2, seed=3
)
SYN_SCHEME = FVLScheme(SYN_SPEC)

# A deep non-recursive chain grammar: nearly every product is forced.
CHAIN_SPEC = build_nested_chain_specification(
    nesting_depth=6, chain_length=8, module_degree=3
)
CHAIN_SCHEME = FVLScheme(CHAIN_SPEC)

INTERVAL_SECTIONS = {26: "node.pre", 27: "node.post", 28: "node.level"}


def _append_interval_sections(run_file) -> None:
    """Turn ``run_file`` into what earlier builds wrote: sections 26-28 ride along.

    One more segment holding a full snapshot of the three interval columns
    over the node rows persisted so far (``row_start == 0``), as every
    checkpoint that appended node rows used to write.
    """
    with MappedRunStore(run_file) as mapped:
        header = mapped.header
        parent = np.asarray(mapped.nodes.columns()["parent"], dtype=np.int64)
    sections = [
        (sid, I64, 0, header.n_nodes, rows.astype("<i8").tobytes())
        for sid, rows in zip(INTERVAL_SECTIONS, compute_tree_intervals(parent))
    ]
    with open(run_file, "r+b") as handle:
        end_offset = write_segment(handle, header.end_offset, sections)
        handle.seek(0)
        handle.write(
            replace(header, n_segments=header.n_segments + 1, end_offset=end_offset).pack()
        )


def _attached(scheme, derivation, tmp, *, intervals=False):
    """``(run file, labeler, engine)``: the run checkpointed and attached.

    Hypothesis reuses one ``tmp_path`` across examples and ``checkpoint_run``
    *appends* to an existing file, so every call gets a fresh subdirectory.
    """
    run_file = str(tempfile.mkdtemp(dir=tmp)) + "/run.fvl"
    labeler = RunLabeler(scheme.index)
    for event in derivation.events:
        labeler(event)
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    if intervals:
        _append_interval_sections(run_file)
    engine = QueryEngine(scheme)
    engine.attach(run_file, DEFAULT_RUN)
    return run_file, labeler, engine


def _reference_answers(scheme, labeler, view, pairs):
    view_label = scheme.label_view(view)
    return [scheme.depends(labeler.label(d1), labeler.label(d2), view_label) for d1, d2 in pairs]


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=1_000),
    n_expand=st.integers(min_value=1, max_value=4),
    mode=st.sampled_from(["grey", "white", "black"]),
    variant=st.sampled_from(list(FVLVariant)),
    intervals=st.booleans(),
)
def test_recursive_grammar_interval_bit_identical(
    tmp_path, kernel_vs_reference, seed, n_expand, mode, variant, intervals
):
    derivation = random_run(SYN_SPEC, target_items=150, seed=seed)
    view = random_view(SYN_SPEC, n_expand, seed=seed, mode=mode)
    _, labeler, engine = _attached(SYN_SCHEME, derivation, tmp_path, intervals=intervals)
    kernel_vs_reference(engine, SYN_SCHEME, labeler, view, variant, random.Random(seed), n_pairs=40)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=1_000), variant=st.sampled_from(list(FVLVariant)))
def test_chain_grammar_interval_bit_identical(tmp_path, kernel_vs_reference, seed, variant):
    derivation = random_run(CHAIN_SPEC, target_items=200, seed=seed)
    view = default_view(CHAIN_SPEC)
    _, labeler, engine = _attached(CHAIN_SCHEME, derivation, tmp_path)
    decided, declined = kernel_vs_reference(
        engine, CHAIN_SCHEME, labeler, view, variant, random.Random(seed), n_pairs=200
    )
    assert decided > 0 and declined == 0  # the default view drops nothing


def test_recursive_chains_fall_back_to_matrix_decode(tmp_path):
    """On a recursive grammar the classes alone must not answer everything."""
    derivation = random_run(SYN_SPEC, target_items=400, seed=11)
    view = random_view(SYN_SPEC, 2, seed=11, mode="white")
    _, labeler, engine = _attached(SYN_SCHEME, derivation, tmp_path)
    visible = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(visible, 500, seed=12)
    assert engine.depends_batch(pairs, view) == _reference_answers(SYN_SCHEME, labeler, view, pairs)
    stats = engine.stats
    assert stats.matrix_pairs > 0, "mixed products never reached a matrix"
    assert stats.structural_pairs > 0, "no key of a recursive run was forced"


def test_chain_grammar_is_mostly_structural(tmp_path):
    derivation = random_run(CHAIN_SPEC, target_items=300, seed=5)
    view = default_view(CHAIN_SPEC)
    _, labeler, engine = _attached(CHAIN_SCHEME, derivation, tmp_path)
    visible = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(visible, 600, seed=6)
    expected = _reference_answers(CHAIN_SCHEME, labeler, view, pairs)
    assert engine.depends_batch(pairs, view) == expected
    stats = engine.stats
    assert stats.structural_pairs > 5 * stats.matrix_pairs


# -- files that carry interval sections: loud failure, never a wrong answer ------


def _section_extent(run_file, wanted):
    with MappedRunStore(run_file) as mapped:  # lazy: the manifest reads no payload
        for name, extent in mapped.sections():
            if name == wanted and extent.nbytes:
                return extent.offset, extent.nbytes
    raise AssertionError(f"no extent for section {wanted!r}")


def _flip_byte(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([original ^ 0xFF]))


@pytest.mark.parametrize("section", sorted(INTERVAL_SECTIONS.values()))
def test_flipped_index_byte_raises_never_misanswers(tmp_path, section):
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 300, seed=21)
    view = random_view(spec, 6, seed=22, mode="grey", name="flip-view")
    run_file, labeler, engine = _attached(scheme, derivation, tmp_path, intervals=True)
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 200, seed=23)
    # Intact, the older file answers like any other ...
    assert engine.depends_batch(pairs, view) == _reference_answers(scheme, labeler, view, pairs)
    engine.detach(DEFAULT_RUN)
    offset, nbytes = _section_extent(run_file, section)
    _flip_byte(run_file, offset + nbytes // 2)
    # ... damaged, eager verification refuses the attach outright ...
    with pytest.raises(CorruptionError, match=section):
        QueryEngine(scheme).attach(run_file, DEFAULT_RUN, verify="attach")
    # ... and a lazy attach raises on the first batch: the extent serves
    # nothing, but a file that fails its scrub serves nothing either.
    engine = QueryEngine(scheme)
    engine.attach(run_file, DEFAULT_RUN)
    with pytest.raises(CorruptionError, match=section):
        engine.depends_batch(pairs, view)


def test_flipped_index_byte_fails_deep_verify(tmp_path):
    derivation = random_run(CHAIN_SPEC, target_items=150, seed=31)
    run_file, _, _ = _attached(CHAIN_SCHEME, derivation, tmp_path, intervals=True)
    verify_run(run_file)
    offset, nbytes = _section_extent(run_file, "node.pre")
    _flip_byte(run_file, offset + nbytes // 2)
    with pytest.raises(CorruptionError):
        verify_run(run_file)


def test_compaction_leaves_the_interval_sections_behind(tmp_path):
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 300, seed=41)
    view = random_view(spec, 6, seed=42, mode="grey", name="upgrade-view")
    run_file, labeler, engine = _attached(scheme, derivation, tmp_path, intervals=True)
    with MappedRunStore(run_file) as mapped:
        names = [name for name, _ in mapped.sections()]
        assert set(INTERVAL_SECTIONS.values()) <= set(names)
        # (What the benchmark's ``index.build_ms`` rung still asks a file for.)
        intervals = mapped.structural_index()
        parent = np.asarray(mapped.nodes.columns()["parent"], dtype=np.int64)
        for got, want in zip(intervals, compute_tree_intervals(parent)):
            assert np.array_equal(np.asarray(got), want)
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 300, seed=43)
    before = engine.depends_batch(pairs, view)
    assert before == _reference_answers(scheme, labeler, view, pairs)
    bytes_before = os.path.getsize(run_file)

    assert compact(run_file).compacted
    assert len(SCHEMA) == 14
    with MappedRunStore(run_file) as mapped:
        # A dense file carries every schema column but ``label.uids``, once.
        assert [name for name, _ in mapped.sections()] == [
            column.name for column in SCHEMA if column.name != "label.uids"
        ]
        assert mapped.structural_index() is None
        assert mapped.read_amplification() == 1.0
    assert os.path.getsize(run_file) < bytes_before
    assert engine.reopen(DEFAULT_RUN)
    assert engine.depends_batch(pairs, view) == before
    fresh = QueryEngine(scheme)
    fresh.attach(run_file, DEFAULT_RUN)
    assert fresh.depends_batch(pairs, view) == before


# -- the memoized visibility fold matches the per-item predicate ---------------


def test_visible_mask_matches_is_visible_batch(tmp_path):
    derivation = random_run(CHAIN_SPEC, target_items=200, seed=51)
    view = default_view(CHAIN_SPEC)
    _, _, engine = _attached(CHAIN_SCHEME, derivation, tmp_path)
    uids = list(range(1, derivation.run.n_data_items + 1))
    mask = engine.visible_mask(view)
    assert mask.tolist() == engine.is_visible_batch(uids, view)
    # Memoized: a second call reuses the per-path retained fold and agrees.
    assert engine.visible_mask(view).tolist() == mask.tolist()
