"""Tests for view labels (Section 4.3), the decoder (Section 4.4) and visibility (Section 5)."""

import pytest

from repro.core import FVLVariant, depends, inputs_matrix, outputs_matrix
from repro.core.labels import ProductionEdgeLabel, RecursionEdgeLabel
from repro.errors import UnsafeWorkflowError, VisibilityError
from repro.matrices import BoolMatrix
from repro.model import DependencyAssignment, Derivation, WorkflowSpecification, WorkflowView, default_view
from repro.analysis import RunReachabilityOracle
from repro.workloads import build_unsafe_example
from tests.conftest import derive_running


def test_view_label_functions_shapes(running_scheme, running_spec):
    label = running_scheme.label_default_view()
    # I(1, 3): from S's 2 inputs to A's 1 input.
    assert label.inputs(1, 3).shape == (2, 1)
    # O(1, 4): from S's 2 outputs to C's 2 outputs (reversed).
    assert label.outputs(1, 4).shape == (2, 2)
    # Z(1, 3, 4): from A's 1 output to C's 2 inputs.
    assert label.z(1, 3, 4).shape == (1, 2)
    # Z with i >= j is the empty (all-false) matrix.
    assert label.z(1, 4, 3).is_all_false()
    assert label.z(1, 4, 4).is_all_false()


def test_view_label_concrete_values(running_scheme):
    label = running_scheme.label_default_view()
    # In W1, A's output feeds C's second input: Z(1,3,4) = [ (1,2) ].
    assert label.z(1, 3, 4).to_pairs() == frozenset({(1, 2)})
    # I(1, 3): A's single input is fed from a, which is fed from S's input 1.
    assert label.inputs(1, 3).to_pairs() == frozenset({(1, 1)})
    # lambda*(S) is the fine-grained matrix checked in the safety tests.
    assert label.lam_star_start().to_pairs() == frozenset({(2, 1), (1, 2), (2, 2)})


def test_view_label_variants_agree(running_scheme, running_views):
    for view in running_views:
        labels = [
            running_scheme.label_view(view, variant)
            for variant in (
                FVLVariant.DEFAULT,
                FVLVariant.SPACE_EFFICIENT,
                FVLVariant.QUERY_EFFICIENT,
            )
        ]
        for k in labels[0].retained_productions:
            production = running_scheme.index.production(k)
            for i in range(1, len(production.rhs) + 1):
                assert labels[0].inputs(k, i) == labels[1].inputs(k, i) == labels[2].inputs(k, i)
                assert labels[0].outputs(k, i) == labels[1].outputs(k, i) == labels[2].outputs(k, i)


def test_view_label_sizes_ordering(running_scheme, running_views):
    for view in running_views:
        space = running_scheme.label_view(view, FVLVariant.SPACE_EFFICIENT).size_bits()
        default = running_scheme.label_view(view, FVLVariant.DEFAULT).size_bits()
        query = running_scheme.label_view(view, FVLVariant.QUERY_EFFICIENT).size_bits()
        assert space <= default <= query


def test_unsafe_view_is_rejected(running_scheme, running_spec):
    # Give C grey-box dependencies that are inconsistent across A's productions:
    # impossible here (A is 1x1), so instead use the unsafe Figure-6 example.
    grammar, deps = build_unsafe_example()
    spec = WorkflowSpecification(grammar, deps)
    from repro.core import FVLScheme

    scheme = FVLScheme(spec)
    with pytest.raises(UnsafeWorkflowError):
        scheme.label_view(default_view(spec))


def test_retained_productions_of_u2(running_scheme, view_u2):
    label = running_scheme.label_view(view_u2)
    assert label.retained_productions == frozenset({1, 2, 3, 4})
    ab_cycle = running_scheme.index.cycle_position("A")[0]
    d_cycle = running_scheme.index.cycle_position("D")[0]
    assert label.is_retained_cycle(ab_cycle)      # the A<->B cycle survives
    assert not label.is_retained_cycle(d_cycle)   # the D self-loop is hidden
    with pytest.raises(VisibilityError):
        label.inputs(5, 1)


def test_inputs_chain_identity_and_composition(running_scheme):
    label = running_scheme.label_default_view()
    index = running_scheme.index
    s, t = index.cycle_position("A")
    identity = label.inputs_chain(s, t, 0)
    assert identity == BoolMatrix.identity(1)
    two_steps = label.inputs_chain(s, t, 2)
    one = inputs_matrix(RecursionEdgeLabel(s, t, 2), label)
    assert one == label.inputs_chain(s, t, 1)
    assert two_steps == label.inputs_chain(s, t, 1) @ label.inputs_chain(s, t + 1, 1)
    assert outputs_matrix(ProductionEdgeLabel(1, 3), label) == label.outputs(1, 3)


def test_decoder_example8_flip(running_scheme, running_spec, view_u2):
    """The same pair of data labels answers differently under the two views."""
    derivation = Derivation(running_spec)
    labeler = running_scheme.label_run(derivation)
    derivation.expand("S:1", 1)
    derivation.expand("C:1", 5)
    run = derivation.run
    d_in2 = run.item_at("C:1", "in", 2)
    d_out1 = run.item_at("C:1", "out", 1)
    default_label = running_scheme.label_default_view()
    u2_label = running_scheme.label_view(view_u2)
    l1, l2 = labeler.label(d_in2), labeler.label(d_out1)
    assert running_scheme.depends(l1, l2, default_label) is False
    assert running_scheme.depends(l1, l2, u2_label) is True


def test_decoder_boundary_cases(running_scheme, running_spec):
    derivation = derive_running(running_spec, seed=4)
    labeler = running_scheme.label_run(derivation)
    view_label = running_scheme.label_default_view()
    initial = derivation.initial_event.input_items[0]
    final = derivation.initial_event.output_items[1]
    # Case I: nothing depends on a final output, initial inputs depend on nothing.
    assert not running_scheme.depends(labeler.label(final), labeler.label(initial), view_label)
    # Case II: initial -> final is lambda*(S).
    expected = running_scheme.label_default_view().lam_star_start().get(1, 2)
    assert running_scheme.depends(labeler.label(initial), labeler.label(final), view_label) == expected


def test_decoder_matches_oracle_on_directed_derivation(running_scheme, running_spec, running_views):
    derivation = derive_running(running_spec, seed=11)
    labeler = running_scheme.label_run(derivation)
    run = derivation.run
    for view in running_views:
        view_label = running_scheme.label_view(view, FVLVariant.QUERY_EFFICIENT)
        oracle = RunReachabilityOracle(run, view, running_spec)
        visible = sorted(oracle.projection.visible_items)
        for d1 in visible[:40]:
            for d2 in visible[:40]:
                expected = oracle.depends(d1, d2)
                got = running_scheme.depends(labeler.label(d1), labeler.label(d2), view_label)
                assert got == expected, (view.name, d1, d2)


@pytest.mark.parametrize("seed", range(6))
def test_every_variant_and_visibility_match_the_oracle_on_every_item(
    running_scheme, running_spec, running_views, seed
):
    """Exhaustive on small runs: every view, all three variants, every visible pair and item."""
    derivation = derive_running(running_spec, seed=seed, max_steps=40)
    labeler = running_scheme.label_run(derivation)
    run = derivation.run
    for view in running_views:
        labels = {variant: running_scheme.label_view(view, variant) for variant in FVLVariant}
        oracle = RunReachabilityOracle(run, view, running_spec)
        visible = sorted(oracle.projection.visible_items)
        for d1 in visible:
            for d2 in visible:
                expected = oracle.depends(d1, d2)
                for variant, view_label in labels.items():
                    got = running_scheme.depends(labeler.label(d1), labeler.label(d2), view_label)
                    assert got == expected, (view.name, variant, d1, d2)
        for d in run.data_items:
            by_label = running_scheme.is_visible(labeler.label(d), labels[FVLVariant.DEFAULT])
            assert by_label == oracle.is_visible(d), (view.name, d)


def test_visibility_check_matches_projection(running_scheme, running_spec, view_u2):
    derivation = derive_running(running_spec, seed=6)
    labeler = running_scheme.label_run(derivation)
    run = derivation.run
    oracle = RunReachabilityOracle(run, view_u2, running_spec)
    u2_label = running_scheme.label_view(view_u2)
    for d in run.data_items:
        assert running_scheme.is_visible(labeler.label(d), u2_label) == oracle.is_visible(d)


def test_decoder_partial_run(running_scheme, running_spec):
    """Queries work on partial executions (the dynamic setting of Definition 10)."""
    derivation = Derivation(running_spec)
    labeler = running_scheme.label_run(derivation)
    derivation.expand("S:1", 1)
    derivation.expand("A:1", 2)
    view = default_view(running_spec)
    view_label = running_scheme.label_default_view()
    oracle = RunReachabilityOracle(derivation.run, view, running_spec)
    items = sorted(derivation.run.data_items)
    for d1 in items:
        for d2 in items:
            assert running_scheme.depends(
                labeler.label(d1), labeler.label(d2), view_label
            ) == oracle.depends(d1, d2)
