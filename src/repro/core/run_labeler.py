"""Dynamic labeling of workflow runs (Section 4.2.3).

The :class:`RunLabeler` consumes the event stream of a
:class:`~repro.model.derivation.Derivation` and assigns a data label to every
data item the moment it is produced.  Labels are built from the compressed
parse tree, which the labeler grows top-down alongside the derivation; they
are never modified afterwards (Definition 10), and they do not depend on any
view — the same labels serve every safe view of the specification
(view-adaptivity, Definition 11).

The run state is columnar: the parse tree grows as integer rows in a
:class:`~repro.store.NodeTable` (no node objects), paths are interned in a
:class:`~repro.store.PathTable`, and the hot ingest loop records four
integers per item (producer/consumer path id and port) in a
:class:`~repro.store.LabelStore`.  :class:`~repro.core.labels.DataLabel`
value objects and :class:`~repro.core.parse_tree.ParseNode` flyweights are
materialised lazily, only for the items/nodes a caller actually reads.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.labels import DataLabel
from repro.core.parse_tree import CompressedParseTree
from repro.core.preprocessing import GrammarIndex
from repro.errors import LabelingError
from repro.model.derivation import Derivation, ExpansionEvent, InitialEvent
from repro.store import NO_PATH, LabelStore, PathTable

__all__ = ["RunLabeler"]


class RunLabeler:
    """Assigns view-independent data labels to one run, online.

    The labeler is a derivation listener: feed it the
    :class:`~repro.model.derivation.InitialEvent` and every
    :class:`~repro.model.derivation.ExpansionEvent` in order (or simply call
    :meth:`attach` on a derivation, which replays past events and subscribes
    for future ones).
    """

    def __init__(self, index: GrammarIndex, *, path_table: PathTable | None = None) -> None:
        self._index = index
        self._tree = CompressedParseTree(index, path_table)
        self._store = LabelStore(self._tree.path_table)
        #: Reusable position -> path id scratch buffer; every expansion
        #: overwrites exactly the positions its items can reference.
        self._position_path_ids: list[int] = []
        self._started = False

    # -- accessors -----------------------------------------------------------

    @property
    def index(self) -> GrammarIndex:
        return self._index

    @property
    def tree(self) -> CompressedParseTree:
        return self._tree

    @property
    def store(self) -> LabelStore:
        """The columnar label store backing this labeler."""
        return self._store

    @property
    def labels(self) -> Mapping[int, DataLabel]:
        """A read-only ``uid -> DataLabel`` view of all labels assigned so far.

        The view is O(1) to obtain (no copy); it materialises the value
        objects lazily per access.
        """
        return self._store.labels_view()

    def label(self, item_uid: int) -> DataLabel:
        """The label of one data item."""
        return self._store.label(item_uid)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, item_uid: int) -> bool:
        return item_uid in self._store

    # -- event consumption ------------------------------------------------------

    def attach(self, derivation: Derivation) -> "RunLabeler":
        """Replay past events of a derivation and subscribe for future ones."""
        derivation.subscribe(self, replay=True)
        return self

    def __call__(self, event: object) -> None:
        """Consume one derivation event (listener protocol)."""
        if isinstance(event, ExpansionEvent):
            self._on_expansion(event)
        elif isinstance(event, InitialEvent):
            self._on_initial(event)
        else:  # pragma: no cover - defensive
            raise LabelingError(f"unknown derivation event {event!r}")

    # -- internals ------------------------------------------------------------------

    def _on_initial(self, event: InitialEvent) -> None:
        if self._started:
            raise LabelingError("the run labeler already observed an initial event")
        self._started = True
        path_id = self._tree.start_event(event.instance.uid)
        append = self._store.append
        for port, item_uid in enumerate(event.input_items, start=1):
            append(item_uid, NO_PATH, 0, path_id, port)
        for port, item_uid in enumerate(event.output_items, start=1):
            append(item_uid, path_id, port, NO_PATH, 0)

    def _on_expansion(self, event: ExpansionEvent) -> None:
        if not self._started:
            raise LabelingError(
                "expansion event received before the initial event; attach the "
                "labeler with replay=True"
            )
        position_path_ids = self._position_path_ids
        needed = len(event.children) + 1 - len(position_path_ids)
        if needed > 0:
            position_path_ids.extend([-1] * needed)
        self._tree.expand_event(
            event.parent.uid, event.production_index, event.children, position_path_ids
        )
        self._store.extend_items(event.new_items, position_path_ids)
