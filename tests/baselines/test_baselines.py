"""Tests for the DRL baseline."""

import random

import pytest

from repro.analysis import RunReachabilityOracle, is_safe, is_safe_view, is_strictly_linear_recursive
from repro.baselines import DRL_ORDER_HEADER_BITS, DRLScheme
from repro.core import FVLScheme, FVLVariant
from repro.errors import VisibilityError
from repro.io import LabelCodec, specification_from_dict, specification_to_dict
from repro.workloads import (
    build_bioaid_specification,
    build_synthetic_specification,
    random_run,
    random_view,
    view_suite,
)


@pytest.fixture(scope="module")
def setup():
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    drl = DRLScheme(spec)
    derivation = random_run(spec, 400, seed=9)
    return spec, scheme, drl, derivation


def test_drl_labels_only_visible_items(setup):
    spec, scheme, drl, derivation = setup
    view = random_view(spec, 4, seed=4, mode="black", name="v4")
    labeler = drl.label_run(derivation, view)
    oracle = RunReachabilityOracle(derivation.run, view, spec)
    visible = {d for d in derivation.run.data_items if oracle.is_visible(d)}
    assert set(labeler.labels) == visible
    hidden = sorted(set(derivation.run.data_items) - visible)
    if hidden:
        with pytest.raises(VisibilityError):
            labeler.label(hidden[0])


def test_drl_answers_match_oracle(setup):
    spec, scheme, drl, derivation = setup
    view = random_view(spec, 8, seed=5, mode="black", name="v8")
    labeler = drl.label_run(derivation, view)
    oracle = RunReachabilityOracle(derivation.run, view, spec)
    visible = sorted(oracle.projection.visible_items)
    rng = random.Random(1)
    for _ in range(400):
        d1, d2 = rng.choice(visible), rng.choice(visible)
        assert drl.depends(labeler.label(d1), labeler.label(d2), view) == oracle.depends(d1, d2)


def test_drl_labels_are_per_view(setup):
    spec, scheme, drl, derivation = setup
    view_a = random_view(spec, 4, seed=6, mode="black", name="va")
    view_b = random_view(spec, 8, seed=7, mode="black", name="vb")
    labeler_a = drl.label_run(derivation, view_a)
    with pytest.raises(VisibilityError):
        drl.depends(
            labeler_a.label(next(iter(labeler_a.labels))),
            labeler_a.label(next(iter(labeler_a.labels))),
            view_b,
        )


def test_drl_label_overhead_constant(setup):
    spec, scheme, drl, derivation = setup
    codec = LabelCodec(scheme.index)
    fvl_labeler = scheme.label_run(derivation)
    view = random_view(
        spec, len(spec.grammar.composite_modules), seed=8, mode="black", name="all"
    )
    drl_labeler = drl.label_run(derivation, view)
    assert DRL_ORDER_HEADER_BITS > 0
    for uid, drl_label in list(drl_labeler.labels.items())[:100]:
        fvl_bits = codec.data_label_bits(fvl_labeler.label(uid))
        drl_bits = codec.data_label_bits(drl_label.core) + DRL_ORDER_HEADER_BITS
        assert drl_bits == fvl_bits + DRL_ORDER_HEADER_BITS


@pytest.mark.parametrize("name", ["bioaid", "synthetic"])
def test_fvl_and_drl_match_the_oracle_on_grey_and_black_views(name):
    """FVL on grey and black views, and DRL on the black one, against the oracle."""
    if name == "bioaid":
        spec = build_bioaid_specification()
    else:
        spec = build_synthetic_specification(workflow_size=12, nesting_depth=3)
    assert is_strictly_linear_recursive(spec.grammar)
    assert is_safe(spec.grammar, spec.dependencies)
    roundtrip = specification_from_dict(specification_to_dict(spec))
    assert sorted(roundtrip.grammar.module_names) == sorted(spec.grammar.module_names)
    scheme, drl = FVLScheme(spec), DRLScheme(spec)
    derivation = random_run(spec, 800, seed=1)
    labeler = scheme.label_run(derivation)
    views = view_suite(spec, seed=3, mode="grey", sizes={"small": 2, "medium": 5})
    black = views["black"] = random_view(spec, 5, seed=9, mode="black", name="blackv")
    rng = random.Random(0)
    for view in views.values():
        assert is_safe_view(spec, view)
        view_label = scheme.label_view(view, FVLVariant.QUERY_EFFICIENT)
        oracle = RunReachabilityOracle(derivation.run, view, spec)
        drl_labeler = drl.label_run(derivation, view) if view is black else None
        visible = sorted(oracle.projection.visible_items)
        for _ in range(800):
            d1, d2 = rng.choice(visible), rng.choice(visible)
            expected = oracle.depends(d1, d2)
            assert scheme.depends(labeler.label(d1), labeler.label(d2), view_label) == expected
            if drl_labeler is not None:
                drl_got = drl.depends(drl_labeler.label(d1), drl_labeler.label(d2), view)
                assert drl_got == expected
