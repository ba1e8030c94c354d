"""Workflow views with grey-box dependencies (Definition 9).

A view ``U = (Delta', lambda')`` over a specification ``G^lambda`` restricts
the expandable composite modules to ``Delta'`` and supplies a *perceived*
dependency assignment ``lambda'`` for every module that is atomic in the view
(the original atomic modules plus the composite modules outside ``Delta'``
that remain derivable).

* The **default view** is ``(Delta, lambda)``: everything expands, true
  dependencies.
* A view has **white-box** dependencies when ``lambda'`` induces the same
  input/output dependencies as the original ``lambda``; otherwise it has
  **grey-box** dependencies (false dependencies may be added or removed, as
  security views do).
* A **black-box** view gives every view-atomic module complete dependencies.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ViewError
from repro.model.dependency import DependencyAssignment, black_box_pairs
from repro.model.grammar import WorkflowGrammar
from repro.model.specification import WorkflowSpecification

__all__ = ["WorkflowView", "default_view", "black_box_view"]


class WorkflowView:
    """A view ``(Delta', lambda')`` over a workflow specification.

    Parameters
    ----------
    visible_composites:
        The composite modules ``Delta'`` that remain expandable in the view.
    dependencies:
        The perceived dependency assignment ``lambda'`` for view-atomic
        modules.  It must cover every module that is atomic in the view and
        derivable in the restricted grammar (checked by
        :meth:`validate_against`).
    name:
        Optional identifier used in reports and serialization.
    """

    def __init__(
        self,
        visible_composites: Iterable[str],
        dependencies: DependencyAssignment,
        *,
        name: str = "view",
    ) -> None:
        self._delta = frozenset(visible_composites)
        self._dependencies = dependencies
        self._name = name
        #: Slot owned by :func:`repro.serve.matrix_cache.view_fingerprint`.
        self.fingerprint = None

    # -- accessors -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def visible_composites(self) -> frozenset[str]:
        """The set ``Delta'`` of composite modules the view may expand."""
        return self._delta

    @property
    def dependencies(self) -> DependencyAssignment:
        """The perceived dependency assignment ``lambda'``."""
        return self._dependencies

    def expands(self, module_name: str) -> bool:
        """Whether the view expands (shows the internals of) ``module_name``."""
        return module_name in self._delta

    # -- derived objects -------------------------------------------------------

    def restricted_grammar(self, grammar: WorkflowGrammar) -> WorkflowGrammar:
        """The view grammar ``G_Delta'`` (productions of ``Delta'`` only)."""
        unknown = self._delta - grammar.composite_modules
        if unknown:
            raise ViewError(
                f"view {self._name!r} exposes unknown composite modules {sorted(unknown)}"
            )
        return grammar.restricted_to(self._delta)

    def view_atomic_modules(self, grammar: WorkflowGrammar) -> set[str]:
        """Modules that are atomic in this view and derivable in ``G_Delta'``."""
        restricted = self.restricted_grammar(grammar)
        return set(restricted.module_names) - set(restricted.composite_modules)

    def validate_against(self, specification: WorkflowSpecification) -> None:
        """Check that the view is well-formed and proper over ``specification``.

        Raises :class:`ViewError` if ``Delta'`` references unknown modules,
        if the restricted grammar is not proper, or if ``lambda'`` does not
        cover every derivable view-atomic module.
        """
        grammar = specification.grammar
        restricted = self.restricted_grammar(grammar)
        try:
            restricted.check_proper()
        except Exception as exc:  # ImproperGrammarError
            raise ViewError(
                f"view {self._name!r} induces an improper grammar: {exc}"
            ) from exc
        atomic_in_view = [
            grammar.module(name) for name in sorted(self.view_atomic_modules(grammar))
        ]
        try:
            self._dependencies.validate_for(atomic_in_view, require_all=True)
        except Exception as exc:
            raise ViewError(
                f"view {self._name!r} has an invalid dependency assignment: {exc}"
            ) from exc

    def is_proper(self, specification: WorkflowSpecification) -> bool:
        """Whether the view is proper over ``specification``."""
        try:
            self.validate_against(specification)
        except ViewError:
            return False
        return True

    def has_white_box_dependencies(
        self, specification: WorkflowSpecification
    ) -> bool:
        """Whether ``lambda'`` agrees with the dependencies induced by ``lambda``.

        Implemented by comparing the perceived dependencies of every
        view-atomic module against the *full dependency assignment* of the
        default view (Remark 1); composite modules outside ``Delta'`` are
        compared against their induced dependency matrix.
        """
        # Imported lazily to avoid a package cycle (analysis depends on model).
        from repro.analysis.safety import full_dependency_assignment

        grammar = specification.grammar
        full = full_dependency_assignment(grammar, specification.dependencies)
        for name in self.view_atomic_modules(grammar):
            perceived = self._dependencies.pairs(name)
            if perceived != full.pairs(name):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorkflowView({self._name!r}, |Delta'|={len(self._delta)})"


def default_view(specification: WorkflowSpecification, *, name: str = "default") -> WorkflowView:
    """The default view ``(Delta, lambda)`` of a specification."""
    return WorkflowView(
        specification.grammar.composite_modules,
        specification.dependencies,
        name=name,
    )


def black_box_view(
    specification: WorkflowSpecification,
    visible_composites: Iterable[str],
    *,
    name: str = "black-box",
) -> WorkflowView:
    """A view that gives every view-atomic module black-box dependencies."""
    grammar = specification.grammar
    view = WorkflowView(visible_composites, DependencyAssignment(), name=name)
    deps: dict[str, frozenset[tuple[int, int]]] = {}
    for module_name in view.view_atomic_modules(grammar):
        deps[module_name] = black_box_pairs(grammar.module(module_name))
    return WorkflowView(visible_composites, DependencyAssignment(deps), name=name)
