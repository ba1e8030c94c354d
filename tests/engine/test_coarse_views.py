"""Coarse views: the engine against the paper's matrix-free encoding (Section 6.4).

The engine serves no matrix-free label: on a coarse view the decode kernel
settles the uniform matrices as verdict rows.  The encoding itself stays in :mod:`repro.core.matrix_free`, and
this suite holds the two to each other and to the label-free oracle: every
``depends_batch`` answer, live and attached, equals per-pair
``FVLScheme.depends`` over ``label_view_matrix_free`` and
``RunReachabilityOracle.depends``.
"""

from __future__ import annotations

import pytest

from repro import FVLScheme, QueryEngine
from repro.analysis import RunReachabilityOracle
from repro.bench import sample_query_pairs
from repro.model import DependencyAssignment, WorkflowView
from repro.model.dependency import black_box_pairs
from repro.workloads import build_bioaid_specification, random_run, random_view

SPEC = build_bioaid_specification()


def _grey_with_uniform_matrices() -> WorkflowView:
    """A grey-box view whose hidden composites are perceived as complete.

    The atomic modules keep their true fine-grained dependencies (which is
    what makes the view grey, not black); every composite the view hides
    depends on all its inputs, so its matrices are uniform.
    """
    base = random_view(SPEC, 6, seed=0, mode="grey")
    grammar = SPEC.grammar
    dependencies = {
        name: black_box_pairs(grammar.module(name))
        if grammar.is_composite(name)
        else SPEC.dependencies.pairs(name)
        for name in base.view_atomic_modules(grammar)
    }
    view = WorkflowView(
        base.visible_composites, DependencyAssignment(dependencies), name="grey-uniform"
    )
    view.validate_against(SPEC)
    return view


VIEWS = [
    random_view(SPEC, 8, seed=seed, mode="black", name=f"black-{seed}")
    for seed in (200, 201, 202)
] + [_grey_with_uniform_matrices()]


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One engine over a 1,500-item run, live and attached from its checkpoint.

    The attached run is detached when the module's tests are done, which
    closes its mapping.
    """
    scheme = FVLScheme(SPEC)
    derivation = random_run(SPEC, 1500, seed=11)
    engine = QueryEngine(scheme)
    labeler = engine.add_run("live", derivation)
    run_file = tmp_path_factory.mktemp("coarse") / "coarse.fvl"
    engine.checkpoint(run_file, "live")
    engine.attach(run_file, "attached")
    yield scheme, derivation, engine, labeler
    engine.detach("attached")


@pytest.mark.parametrize("view", VIEWS, ids=lambda view: view.name)
def test_engine_matches_the_matrix_free_encoding_and_the_oracle(served, view):
    scheme, derivation, engine, labeler = served
    oracle = RunReachabilityOracle(derivation.run, view, SPEC)
    pairs = sample_query_pairs(sorted(oracle.projection.visible_items), 400, seed=7)
    encoding = scheme.label_view_matrix_free(view)
    expected = [
        scheme.depends(labeler.label(d1), labeler.label(d2), encoding) for d1, d2 in pairs
    ]
    assert expected == [oracle.depends(d1, d2) for d1, d2 in pairs]
    assert any(expected) and not all(expected)
    for run in ("live", "attached"):
        assert engine.depends_batch(pairs, view, run=run).tolist() == expected
