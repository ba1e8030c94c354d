"""Online, derivation-based construction of workflow runs (Definition 10).

The :class:`Derivation` engine starts from the grammar's start module and
applies workflow productions one at a time.  Each application emits an
:class:`ExpansionEvent` describing the new module instances and the new data
items; dynamic labeling schemes subscribe to the event stream and must label
every new data item *immediately*, without knowledge of future productions —
exactly the setting of the paper's derivation-based dynamic labeling problem.

The engine is view-agnostic: it always derives the full run.  Views are
projected onto the run afterwards (see :mod:`repro.model.projection` and
:mod:`repro.analysis.reachability`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import DerivationError
from repro.model.grammar import WorkflowGrammar
from repro.model.production import Production
from repro.model.run import DataItem, ExpansionRecord, ModuleInstance, WorkflowRun
from repro.model.specification import WorkflowSpecification

__all__ = ["NewItem", "InitialEvent", "ExpansionEvent", "Derivation"]


@dataclass(frozen=True)
class NewItem:
    """A data item created by one production application.

    ``producer_position`` / ``consumer_position`` are the 1-based positions
    (in the production's fixed topological order) of the child instances the
    item connects; ports are 1-based module port indices.
    """

    uid: int
    producer_instance: str
    producer_position: int
    producer_port: int
    consumer_instance: str
    consumer_position: int
    consumer_port: int


@dataclass(frozen=True)
class InitialEvent:
    """The event describing the start module and its boundary data items."""

    instance: ModuleInstance
    input_items: tuple[int, ...]
    output_items: tuple[int, ...]


@dataclass(frozen=True)
class ExpansionEvent:
    """The event emitted for each production application."""

    step: int
    parent: ModuleInstance
    production_index: int
    children: tuple[ModuleInstance, ...]
    new_items: tuple[NewItem, ...]


Listener = Callable[[object], None]


class Derivation:
    """Derives a workflow run online by applying productions.

    Parameters
    ----------
    source:
        A :class:`WorkflowGrammar` or a :class:`WorkflowSpecification`
        (only the grammar matters for deriving the structure of a run).
    """

    def __init__(self, source: WorkflowGrammar | WorkflowSpecification) -> None:
        if isinstance(source, WorkflowSpecification):
            grammar = source.grammar
        elif isinstance(source, WorkflowGrammar):
            grammar = source
        else:  # pragma: no cover - defensive
            raise DerivationError(
                "Derivation expects a WorkflowGrammar or WorkflowSpecification"
            )
        self._grammar = grammar
        self._instance_counters: dict[str, int] = {}
        self._next_item_uid = 1
        self._listeners: list[Listener] = []
        self._events: list[object] = []
        #: The unexpanded composite instances, in creation order (a dict for
        #: its ordered O(1) removal; the values are unused).
        self._pending: dict[str, None] = {}

        start_module = grammar.start_module
        start_instance = ModuleInstance(
            uid=self._new_instance_uid(grammar.start),
            module_name=grammar.start,
            step_created=0,
        )
        self._run = WorkflowRun(start_instance)
        if grammar.is_composite(grammar.start):
            self._pending[start_instance.uid] = None
        input_items = []
        for port in range(1, start_module.n_inputs + 1):
            item = self._new_item(step=0, created_by=None)
            item.consumers.append((start_instance.uid, port))
            self._run._add_item(item)
            self._run._attach(start_instance.uid, "in", port, item.uid)
            input_items.append(item.uid)
        output_items = []
        for port in range(1, start_module.n_outputs + 1):
            item = self._new_item(step=0, created_by=None)
            item.producers.append((start_instance.uid, port))
            self._run._add_item(item)
            self._run._attach(start_instance.uid, "out", port, item.uid)
            output_items.append(item.uid)
        initial = InitialEvent(
            instance=start_instance,
            input_items=tuple(input_items),
            output_items=tuple(output_items),
        )
        self._events.append(initial)

    # -- accessors -----------------------------------------------------------

    @property
    def grammar(self) -> WorkflowGrammar:
        return self._grammar

    @property
    def run(self) -> WorkflowRun:
        return self._run

    @property
    def events(self) -> tuple[object, ...]:
        """All events emitted so far (initial event first)."""
        return tuple(self._events)

    @property
    def initial_event(self) -> InitialEvent:
        return self._events[0]  # type: ignore[return-value]

    def pending_instances(self) -> list[str]:
        """Composite instances that can still be expanded, oldest first."""
        return list(self._pending)

    @property
    def is_complete(self) -> bool:
        """Whether the run contains only atomic modules (no pending expansion)."""
        return not self._pending

    def subscribe(self, listener: Listener, *, replay: bool = True) -> None:
        """Register a listener; optionally replay all past events to it."""
        if replay:
            for event in self._events:
                listener(event)
        self._listeners.append(listener)

    # -- derivation ------------------------------------------------------------

    def expand(self, instance_uid: str, production: int | Production) -> ExpansionEvent:
        """Apply a production to a pending composite instance.

        Parameters
        ----------
        instance_uid:
            The instance to expand; it must be an unexpanded instance of a
            composite module.
        production:
            Either a production object of the grammar or its 1-based index.

        Returns
        -------
        ExpansionEvent
            The event describing the new instances and data items (also
            pushed to all subscribed listeners).
        """
        instance = self._run.instance(instance_uid)
        if instance.is_expanded:
            raise DerivationError(f"instance {instance_uid!r} is already expanded")
        if not self._grammar.is_composite(instance.module_name):
            raise DerivationError(
                f"instance {instance_uid!r} is atomic and cannot be expanded"
            )
        if isinstance(production, Production):
            k = self._grammar.production_index(production)
        else:
            k = int(production)
            production = self._grammar.production(k)
        if production.lhs.name != instance.module_name:
            raise DerivationError(
                f"production {k} rewrites {production.lhs.name!r}, not "
                f"{instance.module_name!r}"
            )

        step = self._run.n_steps + 1
        rhs = production.rhs

        # Create child instances in the fixed topological order.
        children: list[ModuleInstance] = []
        by_occurrence: dict[str, ModuleInstance] = {}
        for position, occ_id in enumerate(rhs.topological_order, start=1):
            module = rhs.module_of(occ_id)
            child = ModuleInstance(
                uid=self._new_instance_uid(module.name),
                module_name=module.name,
                parent=instance.uid,
                production_index=k,
                position=position,
                occurrence_id=occ_id,
                step_created=step,
            )
            self._run._add_instance(child)
            if self._grammar.is_composite(module.name):
                self._pending[child.uid] = None
            children.append(child)
            by_occurrence[occ_id] = child

        # Re-attach the boundary data items of the expanded instance to the
        # initial-input / final-output ports of the right-hand side.
        for lhs_port in range(1, production.lhs.n_inputs + 1):
            item_uid = self._run.item_at(instance.uid, "in", lhs_port)
            occ_id, inner_port = production.rhs_initial_input(lhs_port)
            child = by_occurrence[occ_id]
            item = self._run.item(item_uid)
            item.consumers.append((child.uid, inner_port))
            self._run._attach(child.uid, "in", inner_port, item_uid)
        for lhs_port in range(1, production.lhs.n_outputs + 1):
            item_uid = self._run.item_at(instance.uid, "out", lhs_port)
            occ_id, inner_port = production.rhs_final_output(lhs_port)
            child = by_occurrence[occ_id]
            item = self._run.item(item_uid)
            item.producers.append((child.uid, inner_port))
            self._run._attach(child.uid, "out", inner_port, item_uid)

        # Create the new data items carried by the internal edges of the RHS.
        new_items: list[NewItem] = []
        for edge in rhs.edges:
            src = by_occurrence[edge.src_occurrence]
            dst = by_occurrence[edge.dst_occurrence]
            item = self._new_item(step=step, created_by=instance.uid)
            item.producers.append((src.uid, edge.src_port))
            item.consumers.append((dst.uid, edge.dst_port))
            self._run._add_item(item)
            self._run._attach(src.uid, "out", edge.src_port, item.uid)
            self._run._attach(dst.uid, "in", edge.dst_port, item.uid)
            new_items.append(
                NewItem(
                    uid=item.uid,
                    producer_instance=src.uid,
                    producer_position=rhs.position_of(edge.src_occurrence),
                    producer_port=edge.src_port,
                    consumer_instance=dst.uid,
                    consumer_position=rhs.position_of(edge.dst_occurrence),
                    consumer_port=edge.dst_port,
                )
            )

        instance.expanded_with = k
        del self._pending[instance.uid]
        record = ExpansionRecord(
            step=step,
            parent_uid=instance.uid,
            production_index=k,
            child_uids=tuple(child.uid for child in children),
            new_item_uids=tuple(item.uid for item in new_items),
        )
        self._run._add_record(record)
        event = ExpansionEvent(
            step=step,
            parent=instance,
            production_index=k,
            children=tuple(children),
            new_items=tuple(new_items),
        )
        self._events.append(event)
        for listener in self._listeners:
            listener(event)
        return event

    def expand_all(
        self,
        choose_production: Callable[[ModuleInstance, list[int]], int] | None = None,
        *,
        max_steps: int | None = None,
    ) -> None:
        """Repeatedly expand pending instances until the run is complete.

        ``choose_production`` receives the pending instance and the list of
        applicable production indices and returns the index to apply; the
        default picks the first applicable production (which, for recursive
        grammars, may not terminate — pass a strategy or ``max_steps``).
        """
        steps = 0
        while not self.is_complete:
            if max_steps is not None and steps >= max_steps:
                break
            uid = self.pending_instances()[0]
            instance = self._run.instance(uid)
            candidates = [
                k for k, _ in self._grammar.productions_for(instance.module_name)
            ]
            if not candidates:
                raise DerivationError(
                    f"no production available for composite module "
                    f"{instance.module_name!r}"
                )
            if choose_production is None:
                k = candidates[0]
            else:
                k = choose_production(instance, candidates)
            self.expand(uid, k)
            steps += 1

    def replay_onto(self, listeners: Iterable[Listener]) -> None:
        """Send all past events to each listener (without subscribing them)."""
        for listener in listeners:
            for event in self._events:
                listener(event)

    # -- internals ---------------------------------------------------------------

    def _new_instance_uid(self, module_name: str) -> str:
        count = self._instance_counters.get(module_name, 0) + 1
        self._instance_counters[module_name] = count
        return f"{module_name}:{count}"

    def _new_item(self, *, step: int, created_by: str | None) -> DataItem:
        item = DataItem(uid=self._next_item_uid, step_created=step, created_by=created_by)
        self._next_item_uid += 1
        return item
