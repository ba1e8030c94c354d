"""DRL: the state-of-the-art per-view dynamic labeling baseline (Section 6).

DRL is the dynamic labeling scheme of Bao, Davidson and Milo, "Labeling
recursive workflow executions on-the-fly" (SIGMOD 2011), reference [5] of the
paper.  It targets the *coarse-grained* provenance model: black-box
dependencies and single-source/single-sink production bodies.  Its defining
properties for the comparison in Section 6 are:

* it is **not view-adaptive** — a run must be labelled once *per view* (the
  label encodes the structure of the projected run), so the index grows
  linearly with the number of views (Figures 21–22) and adding a view forces
  relabeling of existing runs;
* per view, its labels are compact (logarithmic) skeleton-based labels and
  queries are evaluated without matrix operations, so single-view labeling
  and query costs are comparable to FVL's (Figures 17, 18, 23).

The original system is closed-source Java; this re-implementation follows
the same skeleton-path approach on top of this package's parse-tree
machinery (see DESIGN.md for the substitution rationale).  Each
:class:`DRLRunLabeler` observes the derivation events, ignores every
expansion that its view hides, and stores a label for each *visible* data
item consisting of the compressed-parse-tree path plus a constant-size order
header (the component DRL needs because the dependency information is not
factored out into a separate view label).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.core.labels import DataLabel
from repro.core.matrix_free import MatrixFreeViewLabel, build_matrix_free_label, depends_matrix_free
from repro.core.parse_tree import CompressedParseTree
from repro.core.preprocessing import GrammarIndex
from repro.core.view_label import FVLVariant, ViewLabel, ViewLabeler
from repro.core.decoder import depends as matrix_depends
from repro.core.labels import PortLabel
from repro.errors import LabelingError, ValidationError, VisibilityError
from repro.model.derivation import Derivation, ExpansionEvent, InitialEvent
from repro.model.specification import WorkflowSpecification
from repro.model.views import WorkflowView

__all__ = ["DRLLabel", "DRLRunLabeler", "DRLScheme", "DRL_ORDER_HEADER_BITS"]

#: Constant per-label overhead of DRL's order/skeleton header, in bits.  The
#: SIGMOD'11 labels carry the skeleton node id and an interval/order component
#: inside every data label (instead of factoring the dependency information
#: into a separate view label as FVL does); we account for it as a fixed
#: number of bits per label, which is what makes DRL labels slightly longer
#: than FVL labels in Figure 17.
DRL_ORDER_HEADER_BITS = 8


@dataclass(frozen=True)
class DRLLabel:
    """A DRL data label: the skeleton path of the projected run plus order fields."""

    core: DataLabel
    view_name: str

    @property
    def producer(self) -> PortLabel | None:
        return self.core.producer

    @property
    def consumer(self) -> PortLabel | None:
        return self.core.consumer


class DRLRunLabeler:
    """Labels the projection of one run onto one view (DRL is per-view)."""

    def __init__(self, index: GrammarIndex, view: WorkflowView, retained: frozenset[int]) -> None:
        self._index = index
        self._view = view
        self._retained = retained
        self._tree = CompressedParseTree(index)
        self._labels: dict[int, DRLLabel] = {}
        #: Reusable position -> path id scratch buffer (see RunLabeler).
        self._position_path_ids: list[int] = []
        self._started = False

    @property
    def view(self) -> WorkflowView:
        return self._view

    @property
    def labels(self) -> Mapping[int, DRLLabel]:
        """A read-only view of all labels (no copy; one entry per visible item)."""
        return MappingProxyType(self._labels)

    def label(self, item_uid: int) -> DRLLabel:
        try:
            return self._labels[item_uid]
        except KeyError:
            raise VisibilityError(
                f"data item {item_uid} is not visible in view {self._view.name!r} "
                "(DRL labels only the projected run)"
            ) from None

    def __contains__(self, item_uid: int) -> bool:
        return item_uid in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def attach(self, derivation: Derivation) -> "DRLRunLabeler":
        derivation.subscribe(self, replay=True)
        return self

    def __call__(self, event: object) -> None:
        if isinstance(event, InitialEvent):
            self._on_initial(event)
        elif isinstance(event, ExpansionEvent):
            self._on_expansion(event)
        else:  # pragma: no cover - defensive
            raise LabelingError(f"unknown derivation event {event!r}")

    # -- internals ------------------------------------------------------------------

    def _on_initial(self, event: InitialEvent) -> None:
        if self._started:
            raise LabelingError("the DRL labeler already observed an initial event")
        self._started = True
        path = self._tree.path_table.path(self._tree.start_event(event.instance.uid))
        for port, item_uid in enumerate(event.input_items, start=1):
            self._assign(item_uid, DataLabel(None, PortLabel(path, port)))
        for port, item_uid in enumerate(event.output_items, start=1):
            self._assign(item_uid, DataLabel(PortLabel(path, port), None))

    def _on_expansion(self, event: ExpansionEvent) -> None:
        # DRL labels the *projected* run: expansions hidden by the view are
        # simply not part of it.
        if event.production_index not in self._retained:
            return
        if not self._tree.has_node(event.parent.uid):
            # The parent itself lives inside a hidden region.
            return
        position_path_ids = self._position_path_ids
        needed = len(event.children) + 1 - len(position_path_ids)
        if needed > 0:
            position_path_ids.extend([-1] * needed)
        # Resolve the new items by production position through the arena
        # (DRL's per-item label objects are the baseline cost being measured).
        self._tree.expand_event(
            event.parent.uid, event.production_index, event.children, position_path_ids
        )
        path = self._tree.path_table.path
        for item in event.new_items:
            label = DataLabel(
                PortLabel(path(position_path_ids[item.producer_position]), item.producer_port),
                PortLabel(path(position_path_ids[item.consumer_position]), item.consumer_port),
            )
            self._assign(item.uid, label)

    def _assign(self, item_uid: int, core: DataLabel) -> None:
        if item_uid in self._labels:
            raise LabelingError(f"data item {item_uid} already labelled by DRL")
        self._labels[item_uid] = DRLLabel(core=core, view_name=self._view.name)


class DRLScheme:
    """The DRL baseline for a specification: per-view labeling plus queries."""

    def __init__(self, specification: WorkflowSpecification) -> None:
        self._specification = specification
        self._index = GrammarIndex(specification.grammar)
        self._view_labeler = ViewLabeler(self._index)
        self._decoders: dict[str, MatrixFreeViewLabel | ViewLabel] = {}
        self._retained: dict[str, frozenset[int]] = {}

    @property
    def index(self) -> GrammarIndex:
        return self._index

    def _decoder_for(self, view: WorkflowView) -> MatrixFreeViewLabel | ViewLabel:
        decoder = self._decoders.get(view.name)
        if decoder is None:
            try:
                decoder = build_matrix_free_label(self._index, view)
            except ValidationError:
                # The view is not coarse-grained; fall back to the matrix
                # decoder so the baseline still answers correctly (the paper
                # only runs DRL on black-box views).
                decoder = self._view_labeler.label(view, FVLVariant.QUERY_EFFICIENT)
            self._decoders[view.name] = decoder
            self._retained[view.name] = decoder.retained_productions
        return decoder

    def label_run(self, derivation: Derivation, view: WorkflowView) -> DRLRunLabeler:
        """Label one run for one view (must be repeated for every view)."""
        decoder = self._decoder_for(view)
        labeler = DRLRunLabeler(self._index, view, decoder.retained_productions)
        return labeler.attach(derivation)

    def depends(self, label1: DRLLabel, label2: DRLLabel, view: WorkflowView) -> bool:
        """Whether the item labelled ``label2`` depends on the one labelled ``label1``.

        Both labels must have been produced for ``view`` (DRL labels are
        view-specific).
        """
        if label1.view_name != view.name or label2.view_name != view.name:
            raise VisibilityError(
                "DRL labels are per-view; these labels were built for a different view"
            )
        decoder = self._decoder_for(view)
        if isinstance(decoder, MatrixFreeViewLabel):
            return depends_matrix_free(label1.core, label2.core, decoder)
        return matrix_depends(label1.core, label2.core, decoder)
