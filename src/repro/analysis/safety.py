"""Safety of fine-grained workflow specifications (Section 3.1).

A specification is *safe* (Definition 13) when any two all-atomic simple
workflows derivable from the same composite module agree on the dependencies
between its inputs and outputs.  Safety characterises the feasibility of
dynamic labeling (Theorem 1) and is decidable in polynomial time (Theorem 2)
by computing the *full dependency assignment* ``lambda*`` (Lemma 1): a unique
extension of ``lambda`` to composite modules under which every production is
consistent.

The worklist algorithm implemented here follows the paper's proof of
Theorem 2: repeatedly pick a *verifiable* production (one whose right-hand
side modules all have ``lambda*`` defined), compute the induced dependency
matrix of its left-hand side, and either define ``lambda*`` for it or check
consistency with the previously computed value.
"""

from __future__ import annotations

import heapq
from typing import Mapping

import numpy as np

from repro.errors import ImproperGrammarError, UnsafeWorkflowError
from repro.matrices import BoolMatrix
from repro.analysis.reachability import dependency_matrix, port_layout
from repro.model.dependency import DependencyAssignment
from repro.model.grammar import WorkflowGrammar
from repro.model.production import Production
from repro.model.specification import WorkflowSpecification
from repro.model.views import WorkflowView

__all__ = [
    "full_dependency_closures",
    "full_dependency_matrices",
    "full_dependency_assignment",
    "is_safe",
    "check_safe",
    "is_safe_view",
    "check_safe_view",
    "view_full_assignment",
]


def full_dependency_matrices(
    grammar: WorkflowGrammar, dependencies: DependencyAssignment
) -> dict[str, BoolMatrix]:
    """``lambda*`` as matrices (:func:`full_dependency_closures` without the closures)."""
    return full_dependency_closures(grammar, dependencies)[0]


def full_dependency_closures(
    grammar: WorkflowGrammar, dependencies: DependencyAssignment
) -> tuple[dict[str, BoolMatrix], dict[Production, np.ndarray]]:
    """``lambda*`` and, per production, the body closure it was read from.

    A production is closed once, when it becomes verifiable; every module of
    its body has its final ``lambda*`` by then, so the closure
    (:meth:`~repro.analysis.reachability.PortLayout.closure`) is also the one
    the view label's ``I``/``O``/``Z`` are slices of.

    Parameters
    ----------
    grammar:
        A (proper) workflow grammar.
    dependencies:
        Dependency assignment covering all atomic modules of the grammar.

    Returns
    -------
    tuple
        A dependency matrix (``n_inputs x n_outputs``) for *every* module of
        the grammar, and the closure of every production's body.

    Raises
    ------
    UnsafeWorkflowError
        If two productions of the same composite module induce different
        dependencies (the specification is unsafe).
    ImproperGrammarError
        If some composite module never becomes verifiable (which can only
        happen for improper grammars).
    """
    matrices: dict[str, BoolMatrix] = {}
    for name in grammar.atomic_modules:
        module = grammar.module(name)
        matrices[name] = dependency_matrix(module, dependencies.pairs(name))

    closures: dict[Production, np.ndarray] = {}
    # A production is verifiable once every distinct module of its body has a
    # matrix: count the missing ones, and wake the production as each arrives.
    missing_count: dict[int, int] = {}
    waiting: dict[str, list[int]] = {}
    for k, production in enumerate(grammar.productions, start=1):
        absent = {name for name in production.rhs.module_names() if name not in matrices}
        missing_count[k] = len(absent)
        for name in absent:
            waiting.setdefault(name, []).append(k)
    # Verifiable productions are taken in sweeps of increasing number, as a
    # round-robin over the pending ones would: those woken at a number past
    # the current one join this sweep, the rest the next.
    this_sweep = [k for k, count in missing_count.items() if count == 0]
    next_sweep: list[int] = []
    pending = len(missing_count)
    while pending:
        if not this_sweep:
            if not next_sweep:
                missing = sorted(
                    m for m in grammar.composite_modules if m not in matrices
                )
                raise ImproperGrammarError(
                    "the safety algorithm cannot make progress; composite modules "
                    f"{missing} never become verifiable (grammar is not proper)"
                )
            this_sweep, next_sweep = next_sweep, this_sweep
        k = heapq.heappop(this_sweep)
        pending -= 1
        production = grammar.production(k)
        layout = port_layout(production)
        closure = closures[production] = layout.closure(matrices)
        induced = layout.induced(closure)
        lhs_name = production.lhs.name
        existing = matrices.get(lhs_name)
        if existing is None:
            matrices[lhs_name] = induced
            for woken in waiting.pop(lhs_name, ()):
                missing_count[woken] -= 1
                if missing_count[woken] == 0:
                    heapq.heappush(this_sweep if woken > k else next_sweep, woken)
        elif existing != induced:
            raise UnsafeWorkflowError(
                f"specification is unsafe: production {k} "
                f"({lhs_name} -> {list(production.rhs.module_names())}) induces "
                f"input/output dependencies {sorted(induced.to_pairs())} but another "
                f"derivation of {lhs_name!r} induces "
                f"{sorted(existing.to_pairs())}"
            )
    missing = sorted(m for m in grammar.composite_modules if m not in matrices)
    if missing:
        raise ImproperGrammarError(
            f"composite modules {missing} have no production (grammar is not proper)"
        )
    return matrices, closures


def full_dependency_assignment(
    grammar: WorkflowGrammar, dependencies: DependencyAssignment
) -> DependencyAssignment:
    """The full dependency assignment ``lambda*`` as a :class:`DependencyAssignment`."""
    matrices = full_dependency_matrices(grammar, dependencies)
    return DependencyAssignment(
        {name: matrix.to_pairs() for name, matrix in matrices.items()}
    )


def is_safe(grammar: WorkflowGrammar, dependencies: DependencyAssignment) -> bool:
    """Whether the specification ``(grammar, dependencies)`` is safe."""
    try:
        full_dependency_matrices(grammar, dependencies)
    except UnsafeWorkflowError:
        return False
    return True


def check_safe(grammar: WorkflowGrammar, dependencies: DependencyAssignment) -> None:
    """Raise :class:`UnsafeWorkflowError` unless the specification is safe."""
    full_dependency_matrices(grammar, dependencies)


def view_full_assignment(
    specification: WorkflowSpecification, view: WorkflowView
) -> dict[str, BoolMatrix]:
    """The full dependency assignment ``lambda*`` of a view ``(Delta', lambda')``.

    The view's restricted grammar is used, so matrices are returned exactly
    for the modules derivable in the view.
    """
    restricted = view.restricted_grammar(specification.grammar)
    return full_dependency_matrices(restricted, view.dependencies)


def is_safe_view(specification: WorkflowSpecification, view: WorkflowView) -> bool:
    """Whether the view is safe over the specification (Definition 13)."""
    try:
        view_full_assignment(specification, view)
    except UnsafeWorkflowError:
        return False
    return True


def check_safe_view(specification: WorkflowSpecification, view: WorkflowView) -> None:
    """Raise :class:`UnsafeWorkflowError` unless the view is safe."""
    view_full_assignment(specification, view)


def matrices_from_assignment(
    grammar: WorkflowGrammar, assignment: DependencyAssignment
) -> dict[str, BoolMatrix]:
    """Dependency matrices for every module the assignment defines."""
    matrices: dict[str, BoolMatrix] = {}
    for name in assignment.modules():
        module = grammar.module(name)
        matrices[name] = dependency_matrix(module, assignment.pairs(name))
    return matrices


def assignment_from_matrices(matrices: Mapping[str, BoolMatrix]) -> DependencyAssignment:
    """Convert a matrix mapping back into a :class:`DependencyAssignment`."""
    return DependencyAssignment(
        {name: matrix.to_pairs() for name, matrix in matrices.items()}
    )
