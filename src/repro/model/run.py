"""Workflow runs: module instances, data items and expansion records.

A :class:`WorkflowRun` is the object produced (incrementally) by a
:class:`~repro.model.derivation.Derivation`.  It records

* every **module instance** created during the derivation (both atomic
  modules, which appear in the final run, and composite modules, which are
  expanded away but remain part of the provenance hierarchy — the dashed
  boxes in the paper's Figure 3);
* every **data item** (data edge) together with its *attachment history*:
  the chain of (instance, port) pairs the item is attached to, from the
  outermost module where it was first created down to the innermost module
  after all expansions.  The history is what allows views to be projected
  onto the run after the fact;
* the sequence of expansion steps (the derivation).

Data items and instances are never mutated by user code; the derivation owns
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DerivationError

__all__ = ["ModuleInstance", "DataItem", "ExpansionRecord", "WorkflowRun"]


@dataclass
class ModuleInstance:
    """One module instance of a run (e.g. ``A:3`` in the paper's Figure 3).

    Attributes
    ----------
    uid:
        Unique instance id, ``"<module name>:<counter>"``.
    module_name:
        The module this is an instance of.
    parent:
        Uid of the instance whose expansion created this one (``None`` for
        the start instance).
    production_index:
        1-based number of the production whose application created this
        instance (``None`` for the start instance).
    position:
        1-based position of this instance within that production's
        right-hand side, in the fixed topological order (``None`` for the
        start instance).
    occurrence_id:
        The RHS occurrence id this instance corresponds to.
    step_created:
        Index of the derivation step that created the instance (0 for the
        start instance).
    """

    uid: str
    module_name: str
    parent: str | None = None
    production_index: int | None = None
    position: int | None = None
    occurrence_id: str | None = None
    step_created: int = 0
    expanded_with: int | None = None  # production index, once expanded

    @property
    def is_expanded(self) -> bool:
        return self.expanded_with is not None


@dataclass
class DataItem:
    """One data item (data edge) of a run.

    ``producers`` / ``consumers`` record the attachment history: the list of
    ``(instance uid, port)`` pairs the producing output port (resp. the
    consuming input port) has been identified with, outermost first.  Initial
    inputs of the run have no producers; final outputs have no consumers.
    """

    uid: int
    step_created: int
    created_by: str | None
    producers: list[tuple[str, int]] = field(default_factory=list)
    consumers: list[tuple[str, int]] = field(default_factory=list)

    @property
    def is_initial_input(self) -> bool:
        return not self.producers

    @property
    def is_final_output(self) -> bool:
        return not self.consumers


@dataclass(frozen=True)
class ExpansionRecord:
    """A single derivation step: ``parent`` was expanded with a production."""

    step: int
    parent_uid: str
    production_index: int
    child_uids: tuple[str, ...]
    new_item_uids: tuple[int, ...]


class WorkflowRun:
    """The (possibly partial) run built by a derivation."""

    def __init__(self, start_instance: ModuleInstance) -> None:
        self._instances: dict[str, ModuleInstance] = {start_instance.uid: start_instance}
        self._items: dict[int, DataItem] = {}
        self._records: list[ExpansionRecord] = []
        self._root_uid = start_instance.uid
        # Current (innermost) attachment of data items to instance ports.
        self._attachment: dict[tuple[str, str, int], int] = {}

    # -- accessors -----------------------------------------------------------

    @property
    def root(self) -> ModuleInstance:
        return self._instances[self._root_uid]

    @property
    def instances(self) -> dict[str, ModuleInstance]:
        return dict(self._instances)

    @property
    def data_items(self) -> dict[int, DataItem]:
        return dict(self._items)

    @property
    def records(self) -> tuple[ExpansionRecord, ...]:
        return tuple(self._records)

    @property
    def n_data_items(self) -> int:
        return len(self._items)

    @property
    def n_steps(self) -> int:
        return len(self._records)

    def instance(self, uid: str) -> ModuleInstance:
        try:
            return self._instances[uid]
        except KeyError:
            raise DerivationError(f"unknown module instance {uid!r}") from None

    def item(self, uid: int) -> DataItem:
        try:
            return self._items[uid]
        except KeyError:
            raise DerivationError(f"unknown data item {uid!r}") from None

    def item_at(self, instance_uid: str, direction: str, port: int) -> int:
        """Uid of the data item currently attached to a given instance port."""
        try:
            return self._attachment[(instance_uid, direction, port)]
        except KeyError:
            raise DerivationError(
                f"no data item attached to {direction}:{port} of {instance_uid!r}"
            ) from None

    def ancestors(self, instance_uid: str) -> list[str]:
        """Instance uids from the parent of ``instance_uid`` up to the root."""
        chain: list[str] = []
        current = self.instance(instance_uid).parent
        while current is not None:
            chain.append(current)
            current = self.instance(current).parent
        return chain

    def pending_instances(self) -> list[str]:
        """Composite instances that have not been expanded yet, oldest first.

        "Composite" is not known to the run itself (it has no grammar), so
        this returns all unexpanded instances; the derivation filters out
        atomic ones.
        """
        return [uid for uid, inst in self._instances.items() if not inst.is_expanded]

    # -- mutation (package-private; used by Derivation) ------------------------

    def _add_instance(self, instance: ModuleInstance) -> None:
        if instance.uid in self._instances:
            raise DerivationError(f"duplicate instance uid {instance.uid!r}")
        self._instances[instance.uid] = instance

    def _add_item(self, item: DataItem) -> None:
        if item.uid in self._items:
            raise DerivationError(f"duplicate data item uid {item.uid!r}")
        self._items[item.uid] = item

    def _attach(self, instance_uid: str, direction: str, port: int, item_uid: int) -> None:
        key = (instance_uid, direction, port)
        if key in self._attachment:
            raise DerivationError(
                f"port {direction}:{port} of {instance_uid!r} already carries an item"
            )
        self._attachment[key] = item_uid

    def _add_record(self, record: ExpansionRecord) -> None:
        self._records.append(record)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkflowRun({len(self._instances)} instances, "
            f"{len(self._items)} data items, {len(self._records)} steps)"
        )
