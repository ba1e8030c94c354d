"""Simple workflows (Definition 2).

A :class:`SimpleWorkflow` is a multiset of module *occurrences* connected by
*data edges* from an output port of one occurrence to an input port of
another.  The paper's two simplifying restrictions are enforced:

* **pairwise non-adjacent data edges** — no two data edges are incident to
  the same port (each port carries at most one data edge);
* **acyclicity** — data edges do not form cycles among the occurrences.

Input ports with no incoming data edge are the workflow's *initial input
ports*, output ports with no outgoing data edge its *final output ports*.
Their order matters: a production ``M ->f W`` maps the ports of ``M`` onto
them positionally (top-to-bottom in the paper's figures).  By default the
order is derived from the occurrence declaration order and port index, but an
explicit order may be given when constructing the workflow.

A fixed topological order over the occurrences is computed at construction
time (Kahn's algorithm with declaration order as the tie-break).  This order
is the one used by the labeling scheme's preprocessing step to number the
production-graph edges (Section 4.1), so it must be deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.errors import ValidationError, WorkflowStructureError
from repro.model.module import Module

__all__ = ["DataEdge", "PortRef", "SimpleWorkflow"]


@dataclass(frozen=True)
class PortRef:
    """A reference to one port of one occurrence inside a simple workflow.

    ``direction`` is ``"in"`` for input ports and ``"out"`` for output
    ports; ``port`` is 1-based.
    """

    occurrence: str
    direction: str
    port: int

    def __post_init__(self) -> None:
        if self.direction not in ("in", "out"):
            raise ValidationError(
                f"port direction must be 'in' or 'out', got {self.direction!r}"
            )
        if self.port < 1:
            raise ValidationError("port indices are 1-based")


@dataclass(frozen=True)
class DataEdge:
    """A data edge from an output port to an input port (carries one item)."""

    src_occurrence: str
    src_port: int
    dst_occurrence: str
    dst_port: int

    @property
    def source(self) -> PortRef:
        return PortRef(self.src_occurrence, "out", self.src_port)

    @property
    def target(self) -> PortRef:
        return PortRef(self.dst_occurrence, "in", self.dst_port)


class SimpleWorkflow:
    """A simple workflow ``W = (V, E)`` over module occurrences.

    Parameters
    ----------
    occurrences:
        Mapping from occurrence id to :class:`Module`.  Ids are local to the
        workflow (e.g. ``"a"``, ``"A"``, ``"A#2"``); the same module may
        occur several times under different ids (multiset semantics).
        Declaration order is significant (it breaks topological-order ties
        and determines the default initial-input / final-output order).
    edges:
        The data edges.
    initial_input_order / final_output_order:
        Optional explicit orderings of the dangling ports, given as
        sequences of ``(occurrence_id, port)`` pairs.  When omitted the
        dangling ports are ordered by occurrence declaration order and then
        port index.
    """

    def __init__(
        self,
        occurrences: Mapping[str, Module] | Sequence[tuple[str, Module]],
        edges: Iterable[DataEdge] = (),
        *,
        initial_input_order: Sequence[tuple[str, int]] | None = None,
        final_output_order: Sequence[tuple[str, int]] | None = None,
    ) -> None:
        if isinstance(occurrences, Mapping):
            items = list(occurrences.items())
        else:
            items = list(occurrences)
        if not items:
            raise ValidationError("a simple workflow needs at least one occurrence")
        self._occurrences: dict[str, Module] = {}
        for occ_id, module in items:
            if occ_id in self._occurrences:
                raise ValidationError(f"duplicate occurrence id {occ_id!r}")
            if not isinstance(module, Module):
                raise ValidationError(
                    f"occurrence {occ_id!r} must map to a Module, got {module!r}"
                )
            self._occurrences[occ_id] = module
        self._edges: tuple[DataEdge, ...] = tuple(edges)
        self._validate_edges()
        self._topo_order: tuple[str, ...] = self._topological_order()
        self._position: dict[str, int] = {
            occ: position for position, occ in enumerate(self._topo_order, start=1)
        }
        self._module_names: tuple[str, ...] = tuple(
            self._occurrences[occ].name for occ in self._topo_order
        )
        self._initial_inputs: tuple[tuple[str, int], ...] = self._dangling_ports(
            "in", initial_input_order
        )
        self._final_outputs: tuple[tuple[str, int], ...] = self._dangling_ports(
            "out", final_output_order
        )

    # -- accessors ---------------------------------------------------------

    @property
    def occurrences(self) -> dict[str, Module]:
        """Occurrence id -> module mapping (copy-safe view)."""
        return dict(self._occurrences)

    @property
    def edges(self) -> tuple[DataEdge, ...]:
        return self._edges

    @property
    def topological_order(self) -> tuple[str, ...]:
        """The fixed topological order of occurrence ids."""
        return self._topo_order

    @property
    def initial_inputs(self) -> tuple[tuple[str, int], ...]:
        """Ordered ``(occurrence, port)`` pairs of initial input ports."""
        return self._initial_inputs

    @property
    def final_outputs(self) -> tuple[tuple[str, int], ...]:
        """Ordered ``(occurrence, port)`` pairs of final output ports."""
        return self._final_outputs

    @property
    def n_initial_inputs(self) -> int:
        return len(self._initial_inputs)

    @property
    def n_final_outputs(self) -> int:
        return len(self._final_outputs)

    def module_of(self, occurrence: str) -> Module:
        """The module of one occurrence."""
        try:
            return self._occurrences[occurrence]
        except KeyError:
            raise ValidationError(f"unknown occurrence {occurrence!r}") from None

    def position_of(self, occurrence: str) -> int:
        """1-based position of ``occurrence`` in the fixed topological order."""
        try:
            return self._position[occurrence]
        except KeyError:
            raise ValidationError(f"unknown occurrence {occurrence!r}") from None

    def occurrence_at(self, position: int) -> str:
        """Occurrence id at 1-based topological ``position``."""
        if not 1 <= position <= len(self._topo_order):
            raise ValidationError(
                f"position {position} out of range 1..{len(self._topo_order)}"
            )
        return self._topo_order[position - 1]

    def module_names(self) -> tuple[str, ...]:
        """Module names of all occurrences, in topological order."""
        return self._module_names

    def internal_edges(self) -> tuple[DataEdge, ...]:
        """All data edges (alias; every edge of a simple workflow is internal)."""
        return self._edges

    def __len__(self) -> int:
        return len(self._occurrences)

    def __contains__(self, occurrence: str) -> bool:
        return occurrence in self._occurrences

    # -- validation --------------------------------------------------------

    def _validate_edges(self) -> None:
        used_ports: set[tuple[str, str, int]] = set()
        for edge in self._edges:
            for ref in (edge.source, edge.target):
                if ref.occurrence not in self._occurrences:
                    raise ValidationError(
                        f"data edge references unknown occurrence {ref.occurrence!r}"
                    )
                module = self._occurrences[ref.occurrence]
                limit = module.n_outputs if ref.direction == "out" else module.n_inputs
                if not 1 <= ref.port <= limit:
                    raise ValidationError(
                        f"data edge references port {ref.port} of occurrence "
                        f"{ref.occurrence!r} ({module.name}) but the module has "
                        f"only {limit} {ref.direction}put ports"
                    )
                key = (ref.occurrence, ref.direction, ref.port)
                if key in used_ports:
                    raise WorkflowStructureError(
                        "data edges must be pairwise non-adjacent: port "
                        f"{ref.direction}:{ref.port} of {ref.occurrence!r} is used "
                        "by more than one data edge"
                    )
                used_ports.add(key)

    def _topological_order(self) -> tuple[str, ...]:
        order_index = {occ: i for i, occ in enumerate(self._occurrences)}
        indegree = {occ: 0 for occ in self._occurrences}
        successors: dict[str, list[str]] = {occ: [] for occ in self._occurrences}
        seen_pairs: set[tuple[str, str]] = set()
        for edge in self._edges:
            pair = (edge.src_occurrence, edge.dst_occurrence)
            successors[edge.src_occurrence].append(edge.dst_occurrence)
            if pair not in seen_pairs:
                seen_pairs.add(pair)
            indegree[edge.dst_occurrence] += 1
        ready = sorted(
            (occ for occ, deg in indegree.items() if deg == 0),
            key=order_index.__getitem__,
        )
        queue = deque(ready)
        order: list[str] = []
        while queue:
            # Keep the frontier sorted by declaration order so the result is
            # deterministic regardless of edge declaration order.
            occ = queue.popleft()
            order.append(occ)
            newly_ready = []
            for succ in successors[occ]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    newly_ready.append(succ)
            for succ in sorted(set(newly_ready), key=order_index.__getitem__):
                queue.append(succ)
            # re-sort remaining queue for determinism
            queue = deque(sorted(set(queue), key=order_index.__getitem__))
        if len(order) != len(self._occurrences):
            raise WorkflowStructureError(
                "simple workflows must be acyclic (Definition 2), but the data "
                "edges form a cycle among the module occurrences"
            )
        return tuple(order)

    def _dangling_ports(
        self,
        direction: str,
        explicit: Sequence[tuple[str, int]] | None,
    ) -> tuple[tuple[str, int], ...]:
        attached: set[tuple[str, int]] = set()
        for edge in self._edges:
            if direction == "in":
                attached.add((edge.dst_occurrence, edge.dst_port))
            else:
                attached.add((edge.src_occurrence, edge.src_port))
        dangling: list[tuple[str, int]] = []
        for occ_id, module in self._occurrences.items():
            n_ports = module.n_inputs if direction == "in" else module.n_outputs
            for port in range(1, n_ports + 1):
                if (occ_id, port) not in attached:
                    dangling.append((occ_id, port))
        if explicit is None:
            return tuple(dangling)
        explicit_list = [tuple(item) for item in explicit]
        if sorted(explicit_list) != sorted(dangling):
            kind = "initial input" if direction == "in" else "final output"
            raise ValidationError(
                f"explicit {kind} order {explicit_list!r} does not match the "
                f"actual dangling ports {dangling!r}"
            )
        return tuple(explicit_list)  # type: ignore[arg-type]

    # -- misc --------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimpleWorkflow({len(self._occurrences)} occurrences, "
            f"{len(self._edges)} edges)"
        )
