"""Property-based differential tests: FVL (all variants) vs the ground-truth oracle.

These are the strongest correctness tests in the suite: random derivations of
the running example and of a small synthetic specification are labelled
online, random safe views are labelled statically, and the decoding predicate
is compared against port-level reachability for randomly chosen data-item
pairs.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import RunReachabilityOracle
from repro.baselines import DRLScheme
from repro.core import FVLScheme, FVLVariant
from repro.engine import QueryEngine
from repro.model.projection import ViewProjection
from repro.workloads import (
    build_running_example,
    build_synthetic_specification,
    random_run,
    random_view,
    running_example_views,
)

SPEC = build_running_example()
SCHEME = FVLScheme(SPEC)
VIEWS = running_example_views(SPEC)
VIEW_LABELS = {
    (view.name, variant): SCHEME.label_view(view, variant)
    for view in VIEWS
    for variant in (FVLVariant.DEFAULT, FVLVariant.QUERY_EFFICIENT)
}

SYN_SPEC = build_synthetic_specification(
    workflow_size=6, module_degree=2, nesting_depth=2, recursion_length=2, seed=3
)
SYN_SCHEME = FVLScheme(SYN_SPEC)


def _random_complete_derivation(spec, seed):
    return random_run(spec, target_items=60 + (seed % 5) * 40, seed=seed)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_running_example_decoder_matches_oracle(seed, data):
    derivation = _random_complete_derivation(SPEC, seed)
    labeler = SCHEME.label_run(derivation)
    run = derivation.run
    view = data.draw(st.sampled_from(VIEWS))
    variant = data.draw(
        st.sampled_from([FVLVariant.DEFAULT, FVLVariant.QUERY_EFFICIENT])
    )
    view_label = VIEW_LABELS[(view.name, variant)]
    oracle = RunReachabilityOracle(run, view, SPEC)
    visible = sorted(oracle.projection.visible_items)
    rng = random.Random(seed)
    for _ in range(60):
        d1, d2 = rng.choice(visible), rng.choice(visible)
        assert SCHEME.depends(
            labeler.label(d1), labeler.label(d2), view_label
        ) == oracle.depends(d1, d2)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=1_000),
    n_expand=st.integers(min_value=1, max_value=4),
    mode=st.sampled_from(["grey", "white", "black"]),
)
def test_synthetic_decoder_matches_oracle(seed, n_expand, mode):
    derivation = random_run(SYN_SPEC, target_items=150, seed=seed)
    labeler = SYN_SCHEME.label_run(derivation)
    view = random_view(SYN_SPEC, n_expand, seed=seed, mode=mode)
    view_label = SYN_SCHEME.label_view(view, FVLVariant.QUERY_EFFICIENT)
    oracle = RunReachabilityOracle(derivation.run, view, SYN_SPEC)
    visible = sorted(oracle.projection.visible_items)
    rng = random.Random(seed)
    for _ in range(50):
        d1, d2 = rng.choice(visible), rng.choice(visible)
        assert SYN_SCHEME.depends(
            labeler.label(d1), labeler.label(d2), view_label
        ) == oracle.depends(d1, d2)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_labels_are_prefix_structured(seed):
    """Producer and consumer port labels of one item share their path prefix."""
    derivation = _random_complete_derivation(SPEC, seed)
    labeler = SCHEME.label_run(derivation)
    for uid in derivation.run.data_items:
        label = labeler.label(uid)
        if not label.is_intermediate:
            continue
        prefix = label.shared_prefix_length()
        # The two ports are created by the same production application, so
        # the paths differ in at most the last two edge labels.
        assert len(label.producer.path) - prefix <= 2
        assert len(label.consumer.path) - prefix <= 2


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_data_label_length_is_logarithmic(seed):
    """Data labels stay within a generous O(log n) envelope (Theorem 10)."""
    from repro.io import LabelCodec
    import math

    codec = LabelCodec(SCHEME.index)
    derivation = _random_complete_derivation(SPEC, seed)
    labeler = SCHEME.label_run(derivation)
    n = derivation.run.n_data_items
    bound = 40 * (math.log2(n) + 1)
    for uid in derivation.run.data_items:
        assert codec.data_label_bits(labeler.label(uid)) <= bound


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_engine_batch_matches_single_pair_predicate(seed, data):
    """QueryEngine.depends_batch agrees pair-for-pair with FVLScheme.depends.

    The batched path takes shortcuts the one-pair predicate does not —
    interned decode state, path-grouped matrix assembly — so the one engine
    is differentially checked against the single-pair oracle on every
    variant's label, on random runs, views and query batches.
    """
    derivation = _random_complete_derivation(SPEC, seed)
    labeler = SCHEME.label_run(derivation)
    engine = QueryEngine(SCHEME)
    engine.add_run("run", derivation)
    view = data.draw(st.sampled_from(VIEWS))
    variant = data.draw(st.sampled_from(list(FVLVariant)))
    view_label = SCHEME.label_view(view, variant)
    visible = sorted(ViewProjection(derivation.run, view).visible_items)
    rng = random.Random(seed)
    pairs = [(rng.choice(visible), rng.choice(visible)) for _ in range(50)]
    batch = engine.depends_batch(pairs, view, run="run")
    for (d1, d2), answer in zip(pairs, batch):
        assert answer == SCHEME.depends(
            labeler.label(d1), labeler.label(d2), view_label
        )


SYN_DRL = DRLScheme(SYN_SPEC)


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=1_000),
    n_expand=st.integers(min_value=1, max_value=3),
)
def test_engine_batch_matches_drl_on_coarse_views(seed, n_expand):
    """On DRL's native setting (black-box views) the engine matches DRL too."""
    derivation = random_run(SYN_SPEC, target_items=120, seed=seed)
    view = random_view(SYN_SPEC, n_expand, seed=seed, mode="black")
    engine = QueryEngine(SYN_SCHEME)
    engine.add_run("run", derivation)
    drl_labeler = SYN_DRL.label_run(derivation, view)
    visible = sorted(ViewProjection(derivation.run, view).visible_items)
    rng = random.Random(seed)
    pairs = [(rng.choice(visible), rng.choice(visible)) for _ in range(40)]
    batch = engine.depends_batch(pairs, view, run="run")
    for (d1, d2), answer in zip(pairs, batch):
        assert answer == SYN_DRL.depends(
            drl_labeler.label(d1), drl_labeler.label(d2), view
        )


@pytest.mark.parametrize("variant", list(FVLVariant))
def test_variants_agree_with_each_other(variant):
    derivation = _random_complete_derivation(SPEC, 123)
    labeler = SCHEME.label_run(derivation)
    view = VIEWS[1]
    reference = SCHEME.label_view(view, FVLVariant.DEFAULT)
    other = SCHEME.label_view(view, variant)
    oracle = RunReachabilityOracle(derivation.run, view, SPEC)
    visible = sorted(oracle.projection.visible_items)
    rng = random.Random(0)
    for _ in range(200):
        d1, d2 = rng.choice(visible), rng.choice(visible)
        l1, l2 = labeler.label(d1), labeler.label(d2)
        assert SCHEME.depends(l1, l2, other) == SCHEME.depends(l1, l2, reference)
