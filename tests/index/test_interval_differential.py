"""Differential + corruption tests for the interval-index serving path.

The acceptance contract of the structural index is *bit-identical answers*:
an engine with ``use_structural_index=True`` must agree pair-for-pair with
the matrix decoder on every grammar — recursive chains fall back rather than
answer — including which queries *raise* and with what error.  And a flipped
byte in a persisted interval column must surface as a typed
:class:`~repro.errors.CorruptionError`, never as a wrong answer.
"""

from __future__ import annotations

import random
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import sample_query_pairs
from repro.core import FVLScheme, FVLVariant
from repro.core.run_labeler import RunLabeler
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.errors import CorruptionError
from repro.model.projection import ViewProjection
from repro.model.views import default_view
from repro.store import MappedRunStore, checkpoint_run, compact
from repro.workloads import (
    build_bioaid_specification,
    build_nested_chain_specification,
    build_synthetic_specification,
    random_run,
    random_view,
)

# A small *recursive* member of the synthetic family: every derivation
# carries recursion edges, so the classifier must route groups to the
# decoder rather than guess.
SYN_SPEC = build_synthetic_specification(
    workflow_size=6, module_degree=2, nesting_depth=2, recursion_length=2, seed=3
)
SYN_SCHEME = FVLScheme(SYN_SPEC)

# A deep non-recursive chain grammar: the structural best case.
CHAIN_SPEC = build_nested_chain_specification(
    nesting_depth=6, chain_length=8, module_degree=3
)
CHAIN_SCHEME = FVLScheme(CHAIN_SPEC)


def _per_pair_outcomes(engine, pairs, view, variant):
    """Answer (or raised error identity) for every pair, one at a time."""
    outcomes = []
    for pair in pairs:
        try:
            outcomes.append(engine.depends_batch([pair], view, variant=variant)[0])
        except Exception as exc:  # compare errors too, not just answers
            outcomes.append((type(exc).__name__, str(exc)))
    return outcomes


def _attach_pair(scheme, derivation, tmp, use_index_file=True):
    """Two engines over the same checkpointed file: interval vs matrix.

    Hypothesis reuses one ``tmp_path`` across examples and ``checkpoint_run``
    *appends* to an existing file, so every call gets a fresh subdirectory.
    """
    run_file = str(tempfile.mkdtemp(dir=tmp)) + "/run.fvl"
    labeler = RunLabeler(scheme.index)
    for event in derivation.events:
        labeler(event)
    checkpoint_run(
        run_file, labeler.store, labeler.tree.nodes, structural_index=use_index_file
    )
    interval = QueryEngine(scheme, use_structural_index=True)
    interval.attach(run_file, DEFAULT_RUN)
    matrix = QueryEngine(scheme, use_structural_index=False)
    matrix.attach(run_file, DEFAULT_RUN)
    return run_file, interval, matrix


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
)
def test_recursive_grammar_interval_bit_identical(tmp_path, seed, n_expand, mode, variant):
    derivation = random_run(SYN_SPEC, target_items=150, seed=seed)
    view = random_view(SYN_SPEC, n_expand, seed=seed, mode=mode)
    _, interval, matrix = _attach_pair(SYN_SCHEME, derivation, tmp_path)
    visible = sorted(ViewProjection(derivation.run, view).visible_items)
    rng = random.Random(seed)
    pairs = [(rng.choice(visible), rng.choice(visible)) for _ in range(40)]
    assert _per_pair_outcomes(interval, pairs, view, variant) == _per_pair_outcomes(
        matrix, pairs, view, variant
    )


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=1_000), variant=st.sampled_from(list(FVLVariant)))
def test_chain_grammar_interval_bit_identical(tmp_path, seed, variant):
    derivation = random_run(CHAIN_SPEC, target_items=200, seed=seed)
    view = default_view(CHAIN_SPEC)
    _, interval, matrix = _attach_pair(CHAIN_SCHEME, derivation, tmp_path)
    visible = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(visible, 200, seed=seed)
    got = interval.depends_batch(pairs, view, variant=variant)
    assert got == matrix.depends_batch(pairs, view, variant=variant)


def test_recursive_chains_fall_back_to_matrix_decode(tmp_path):
    """On a recursive grammar the structural path must not answer alone."""
    derivation = random_run(SYN_SPEC, target_items=400, seed=11)
    view = random_view(SYN_SPEC, 2, seed=11, mode="white")
    _, interval, _ = _attach_pair(SYN_SCHEME, derivation, tmp_path)
    visible = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(visible, 500, seed=12)
    interval.depends_batch(pairs, view)
    stats = interval.stats
    assert stats.matrix_pairs > 0, "recursive residue never reached the decoder"


def test_chain_grammar_is_mostly_structural(tmp_path):
    derivation = random_run(CHAIN_SPEC, target_items=300, seed=5)
    view = default_view(CHAIN_SPEC)
    _, interval, matrix = _attach_pair(CHAIN_SCHEME, derivation, tmp_path)
    visible = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(visible, 600, seed=6)
    assert interval.depends_batch(pairs, view) == matrix.depends_batch(pairs, view)
    stats = interval.stats
    assert stats.structural_pairs > stats.matrix_pairs
    assert matrix.stats.structural_pairs == 0


# -- corruption: loud failure, never a wrong answer ----------------------------


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


@pytest.mark.parametrize("section", ["node.pre", "node.post", "node.level"])
def test_flipped_index_byte_raises_never_misanswers(tmp_path, section):
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 300, seed=21)
    view = random_view(spec, 6, seed=22, mode="grey", name="flip-view")
    run_file, _, _ = _attach_pair(scheme, derivation, tmp_path)
    offset, nbytes = _section_extent(run_file, section)
    _flip_byte(run_file, offset + nbytes // 2)
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 200, seed=23)
    # Eager verification refuses the attach outright...
    with pytest.raises(CorruptionError):
        QueryEngine(scheme, use_structural_index=True).attach(
            run_file, DEFAULT_RUN, verify="attach"
        )
    # ...and a lazy attach raises on the first batch that builds the index —
    # the corrupt column must never steer a query.
    engine = QueryEngine(scheme, use_structural_index=True)
    engine.attach(run_file, DEFAULT_RUN)
    with pytest.raises(CorruptionError):
        engine.depends_batch(pairs, view)


def test_flipped_index_byte_fails_deep_verify(tmp_path):
    from repro.store import verify_run

    derivation = random_run(CHAIN_SPEC, target_items=150, seed=31)
    run_file, _, _ = _attach_pair(CHAIN_SCHEME, derivation, tmp_path)
    verify_run(run_file)
    offset, nbytes = _section_extent(run_file, "node.pre")
    _flip_byte(run_file, offset + nbytes // 2)
    with pytest.raises(CorruptionError):
        verify_run(run_file)


# -- compaction upgrades pre-index files ---------------------------------------


def test_compaction_upgrades_pre_index_file(tmp_path):
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 300, seed=41)
    view = random_view(spec, 6, seed=42, mode="grey", name="upgrade-view")
    events = derivation.events
    cut = len(events) // 2
    run_file = str(tmp_path / "preindex.fvl")
    labeler = RunLabeler(scheme.index)
    for event in events[:cut]:
        labeler(event)
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes, structural_index=False)
    for event in events[cut:]:
        labeler(event)
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes, structural_index=False)
    with MappedRunStore(run_file) as mapped:
        assert mapped.structural_index() is None
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 300, seed=43)
    before_engine = QueryEngine(scheme)
    before_engine.attach(run_file, DEFAULT_RUN)
    before = before_engine.depends_batch(pairs, view)
    before_engine.detach(DEFAULT_RUN)

    assert compact(run_file).compacted
    with MappedRunStore(run_file) as mapped:
        intervals = mapped.structural_index()
        assert intervals is not None
        from repro.index import compute_tree_intervals

        parent = np.asarray(mapped.nodes.columns()["parent"], dtype=np.int64)
        for got, want in zip(intervals, compute_tree_intervals(parent)):
            assert np.array_equal(np.asarray(got), want)
    upgraded = QueryEngine(scheme, use_structural_index=True)
    upgraded.attach(run_file, DEFAULT_RUN)
    assert upgraded.depends_batch(pairs, view) == before
    assert upgraded.stats.structural_pairs > 0


# -- the memoized visibility fold matches the per-item predicate ---------------


def test_visible_mask_matches_is_visible_batch(tmp_path):
    derivation = random_run(CHAIN_SPEC, target_items=200, seed=51)
    view = default_view(CHAIN_SPEC)
    _, engine, _ = _attach_pair(CHAIN_SCHEME, derivation, tmp_path)
    uids = list(range(1, derivation.run.n_data_items + 1))
    mask = engine.visible_mask(view)
    assert mask.tolist() == engine.is_visible_batch(uids, view)
    # Memoized: a second call reuses the per-path retained fold and agrees.
    assert engine.visible_mask(view).tolist() == mask.tolist()
