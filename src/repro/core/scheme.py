"""The FVL facade: a view-adaptive dynamic labeling scheme (Definition 11).

:class:`FVLScheme` bundles the three components of the scheme for one
specification:

* ``phi_r`` — the dynamic run labeler (:meth:`FVLScheme.label_run`), which
  labels data items as they are produced, independently of any view, into
  the columnar parse tree and label store of a
  :class:`~repro.core.run_labeler.RunLabeler`;
* ``phi_v`` — the static view labeler (:meth:`FVLScheme.label_view`), which
  labels a safe view once, when it is created;
* ``pi`` — the decoding predicate (:meth:`FVLScheme.depends`), which answers
  a reachability query from two data labels and one view label in constant
  time.

The scheme requires a strictly linear-recursive grammar (Theorem 8); the
basic (single-view) dynamic labeling scheme of Theorem 1/Theorem 8 is
recovered by labeling the default view and pairing it with every data label
(:meth:`FVLScheme.basic_scheme_depends`).
"""

from __future__ import annotations

from repro.core.decoder import depends as _depends
from repro.core.labels import DataLabel
from repro.core.matrix_free import (
    MatrixFreeViewLabel,
    build_matrix_free_label,
    depends_matrix_free,
)
from repro.core.preprocessing import GrammarIndex
from repro.core.run_labeler import RunLabeler
from repro.core.view_label import FVLVariant, ViewLabel, ViewLabeler
from repro.core.visibility import is_visible as _is_visible
from repro.errors import DecodingError
from repro.model.derivation import Derivation
from repro.model.grammar import WorkflowGrammar
from repro.model.specification import WorkflowSpecification
from repro.model.views import WorkflowView, default_view
from repro.store import PathTable

__all__ = ["FVLScheme", "FVLVariant"]


class FVLScheme:
    """Fine-grained View-adaptive Labeling for one workflow specification."""

    def __init__(self, source: WorkflowSpecification | WorkflowGrammar) -> None:
        if isinstance(source, WorkflowSpecification):
            self._specification: WorkflowSpecification | None = source
            grammar = source.grammar
        elif isinstance(source, WorkflowGrammar):
            self._specification = None
            grammar = source
        else:  # pragma: no cover - defensive
            raise TypeError("FVLScheme expects a specification or a grammar")
        self._index = GrammarIndex(grammar)
        self._view_labeler = ViewLabeler(self._index)

    # -- accessors ---------------------------------------------------------------

    @property
    def index(self) -> GrammarIndex:
        return self._index

    @property
    def grammar(self) -> WorkflowGrammar:
        return self._index.grammar

    @property
    def specification(self) -> WorkflowSpecification | None:
        return self._specification

    # -- phi_r: dynamic labeling of runs -------------------------------------------

    def run_labeler(self, *, path_table: PathTable | None = None) -> RunLabeler:
        """A fresh run labeler (to be attached to a derivation manually)."""
        return RunLabeler(self._index, path_table=path_table)

    def label_run(
        self, derivation: Derivation, *, path_table: PathTable | None = None
    ) -> RunLabeler:
        """Label a derivation: past events are replayed, future ones streamed.

        Passing a shared ``path_table`` interns this run's paths in an
        existing arena so path ids are comparable across runs (the query
        engine does this for its shards).
        """
        return RunLabeler(self._index, path_table=path_table).attach(derivation)

    # -- phi_v: static labeling of views --------------------------------------------

    def label_view(
        self, view: WorkflowView, variant: FVLVariant = FVLVariant.DEFAULT
    ) -> ViewLabel:
        """Label a safe view (raises UnsafeWorkflowError for unsafe views)."""
        return self._view_labeler.label(view, variant)

    def label_view_matrix_free(self, view: WorkflowView) -> MatrixFreeViewLabel:
        """Label a coarse-grained (black-box) view with the matrix-free encoding."""
        return build_matrix_free_label(self._index, view)

    def label_default_view(
        self, variant: FVLVariant = FVLVariant.DEFAULT
    ) -> ViewLabel:
        """Label the default view ``(Delta, lambda)`` of the specification."""
        if self._specification is None:
            raise DecodingError(
                "the scheme was built from a bare grammar; construct it from a "
                "WorkflowSpecification to label the default view"
            )
        return self.label_view(default_view(self._specification), variant)

    # -- pi: the decoding predicate -----------------------------------------------------

    def depends(
        self,
        label1: DataLabel,
        label2: DataLabel,
        view_label: ViewLabel | MatrixFreeViewLabel,
    ) -> bool:
        """Whether the item labelled ``label2`` depends on the one labelled ``label1``."""
        if isinstance(view_label, MatrixFreeViewLabel):
            return depends_matrix_free(label1, label2, view_label)
        return _depends(label1, label2, view_label)

    def is_visible(
        self, data_label: DataLabel, view_label: ViewLabel | MatrixFreeViewLabel
    ) -> bool:
        """Whether the labelled data item is visible in the view (Section 5)."""
        return _is_visible(data_label, view_label)

    # -- the basic (non-view-adaptive) scheme of Section 3 --------------------------------

    def basic_scheme_depends(
        self, label1: DataLabel, label2: DataLabel, default_view_label: ViewLabel
    ) -> bool:
        """The basic dynamic labeling predicate of Theorems 1 and 8.

        The conversion described in the proofs of Theorem 1/8: pair every data
        label with the label of the default view and evaluate the ternary
        predicate.
        """
        return self.depends(label1, label2, default_view_label)
