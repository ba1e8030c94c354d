"""Port-level reachability: the semantics of fine-grained provenance.

* :class:`WorkflowPortGraph` is the paper's *definition*: the port graph of
  one simple workflow and reachability in it by graph search.  It is kept
  plain; :mod:`repro.analysis.consistency` is written on it and the
  differential tests use it as the oracle.  The labelling path never calls it.

* :class:`PortLayout` and :meth:`PortLayout.closure` are what safety and view
  labelling compute with.  The layout is a function of the production alone
  (a block of port indices per occurrence in topological order, index arrays
  for the data edges and for the left-hand side's ports); it is built once
  and kept on the :class:`~repro.model.production.Production`, which
  restricted grammars share, so every view and variant reuses it and it dies
  with the specification.  The closure is one ``N x N`` boolean array per
  (production, ``lambda*``), filled by one sweep from the last occurrence to
  the first; the induced matrix of Lemma 1 and the view-label functions
  ``I``, ``O`` and ``Z`` (Section 4.3) are slices of it.  The block
  arithmetic of those slices lives here and nowhere else:
  :class:`ClosureSlices` copies one function out of a closure, and
  :meth:`PortLayout.function_bits` sizes all of them without building any.

* :class:`RunReachabilityOracle` materialises the data-item dependency graph
  of a run *projected onto a view* and answers "does d2 depend on d1?" by
  graph search.  It serves as the ground-truth oracle that every labeling
  scheme is differential-tested against, and doubles as the naive
  (index-free) baseline of the experimental section.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

import numpy as np

from repro.errors import AnalysisError, VisibilityError
from repro.matrices import BoolMatrix
from repro.model.dependency import DependencyAssignment
from repro.model.module import Module
from repro.model.production import Production
from repro.model.projection import ViewProjection
from repro.model.run import WorkflowRun
from repro.model.specification import WorkflowSpecification
from repro.model.views import WorkflowView
from repro.model.workflow import SimpleWorkflow

__all__ = [
    "dependency_matrix",
    "WorkflowPortGraph",
    "LabelFunctions",
    "PortLayout",
    "ClosureSlices",
    "port_layout",
    "induced_dependency_matrix",
    "RunReachabilityOracle",
]

PortNode = tuple[str, str, int]  # (direction, occurrence, port)
#: ``I`` and ``O`` keyed ``(k, i)``, ``Z`` keyed ``(k, i, j)`` with ``i < j``.
LabelFunctions = tuple[
    dict[tuple[int, int], BoolMatrix],
    dict[tuple[int, int], BoolMatrix],
    dict[tuple[int, int, int], BoolMatrix],
]


def dependency_matrix(module: Module, pairs) -> BoolMatrix:
    """The ``n_inputs x n_outputs`` boolean matrix of a dependency edge set."""
    return BoolMatrix.from_pairs(pairs, module.n_inputs, module.n_outputs)


def _matrix_of(matrices: Mapping[str, BoolMatrix], occ_id: str, module: Module) -> BoolMatrix:
    matrix = matrices.get(module.name)
    if matrix is None:
        raise AnalysisError(
            f"no dependency matrix for module {module.name!r} (occurrence {occ_id!r})"
        )
    if matrix.shape != (module.n_inputs, module.n_outputs):
        raise AnalysisError(
            f"dependency matrix for {module.name!r} has shape "
            f"{matrix.shape}, expected {(module.n_inputs, module.n_outputs)}"
        )
    return matrix


class WorkflowPortGraph:
    """Reachability between ports of one simple workflow.

    Parameters
    ----------
    workflow:
        The simple workflow.
    matrices:
        A dependency matrix for every module name occurring in the workflow
        (``n_inputs x n_outputs`` each).  For composite occurrences these are
        typically the *full dependency assignment* matrices.
    """

    def __init__(
        self, workflow: SimpleWorkflow, matrices: Mapping[str, BoolMatrix]
    ) -> None:
        self._workflow = workflow
        self._matrices = dict(matrices)
        self._successors: dict[PortNode, list[PortNode]] = {}
        for occ_id, module in workflow.occurrences.items():
            matrix = _matrix_of(self._matrices, occ_id, module)
            for i in range(1, module.n_inputs + 1):
                node = ("in", occ_id, i)
                targets = [
                    ("out", occ_id, o)
                    for o in range(1, module.n_outputs + 1)
                    if matrix.get(i, o)
                ]
                self._successors[node] = targets
            for o in range(1, module.n_outputs + 1):
                self._successors.setdefault(("out", occ_id, o), [])
        for edge in workflow.edges:
            self._successors[("out", edge.src_occurrence, edge.src_port)].append(
                ("in", edge.dst_occurrence, edge.dst_port)
            )
        self._reach_cache: dict[PortNode, frozenset[PortNode]] = {}

    def reachable_from(self, source: PortNode) -> frozenset[PortNode]:
        """All port nodes reachable from ``source`` (including itself)."""
        cached = self._reach_cache.get(source)
        if cached is not None:
            return cached
        if source not in self._successors:
            raise AnalysisError(f"unknown port node {source!r}")
        seen = {source}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for succ in self._successors.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    queue.append(succ)
        result = frozenset(seen)
        self._reach_cache[source] = result
        return result

    def reaches(self, source: PortNode, target: PortNode) -> bool:
        return target in self.reachable_from(source)

    def matrix_between(
        self, sources: list[PortNode], targets: list[PortNode]
    ) -> BoolMatrix:
        """Reachability matrix from a list of sources to a list of targets."""
        result = BoolMatrix.zeros(max(len(sources), 1), max(len(targets), 1))
        data = result.data
        for row, source in enumerate(sources):
            reachable = self.reachable_from(source)
            for col, target in enumerate(targets):
                if target in reachable:
                    data[row, col] = True
        return result


class PortLayout:
    """Where every port of one production body sits in its closure array.

    Position ``p`` (0-based, fixed topological order) owns
    ``blocks[p] = (start, mid, end)``: input ports ``start .. mid - 1``, output
    ports ``mid .. end - 1``.  ``edges[p]`` is a pair of index arrays: the
    output ports of ``p`` that carry a data edge and the input ports they
    feed.  ``lhs_in`` / ``lhs_out`` index ``rhs_initial_input(x)`` /
    ``rhs_final_output(y)`` for the left-hand side's ports in order.
    """

    __slots__ = ("occurrences", "blocks", "n_ports", "edges", "lhs_in", "lhs_out")

    def __init__(self, production: Production) -> None:
        rhs = production.rhs
        order = rhs.topological_order
        blocks: dict[str, tuple[int, int, int]] = {}
        end = 0
        for occ_id in order:
            module = rhs.module_of(occ_id)
            blocks[occ_id] = (end, end + module.n_inputs, end + module.n_inputs + module.n_outputs)
            end = blocks[occ_id][2]
        #: ``(occurrence id, module, position)`` in declaration order.
        self.occurrences = tuple(
            (occ_id, module, rhs.position_of(occ_id) - 1)
            for occ_id, module in rhs.occurrences.items()
        )
        self.blocks = tuple(blocks[occ_id] for occ_id in order)
        self.n_ports = end
        wires: dict[str, tuple[list[int], list[int]]] = {occ_id: ([], []) for occ_id in order}
        for edge in rhs.edges:
            sources, targets = wires[edge.src_occurrence]
            sources.append(blocks[edge.src_occurrence][1] + edge.src_port - 1)
            targets.append(blocks[edge.dst_occurrence][0] + edge.dst_port - 1)
        self.edges = tuple(
            (np.asarray(sources, dtype=np.intp), np.asarray(targets, dtype=np.intp))
            for sources, targets in wires.values()
        )
        lhs = production.lhs
        self.lhs_in = np.asarray(
            [blocks[o][0] + p - 1 for o, p in map(production.rhs_initial_input, lhs.input_ports)],
            dtype=np.intp,
        )
        self.lhs_out = np.asarray(
            [blocks[o][1] + p - 1 for o, p in map(production.rhs_final_output, lhs.output_ports)],
            dtype=np.intp,
        )

    def closure(self, matrices: Mapping[str, BoolMatrix]) -> np.ndarray:
        """Reflexive port reachability of the body under ``matrices``.

        ``closure[a, b]``: port ``b`` is reachable from port ``a`` (every port
        reaches itself, as in :meth:`WorkflowPortGraph.reachable_from`).  One
        sweep from the last position to the first: an output port reaches what
        the input port it feeds reaches, an input port what its module's matrix
        says of its output ports — both final already, since data edges only
        run forward in the topological order.
        """
        by_position: list = [None] * len(self.blocks)
        for occ_id, module, position in self.occurrences:
            by_position[position] = _matrix_of(matrices, occ_id, module).data
        closure = np.eye(self.n_ports, dtype=bool)
        for position in range(len(self.blocks) - 1, -1, -1):
            start, mid, end = self.blocks[position]
            sources, targets = self.edges[position]
            if sources.size:
                closure[sources] |= closure[targets]
            # bool @ bool is OR-of-ANDs in numpy: no counts, so no overflow.
            closure[start:mid] |= by_position[position] @ closure[mid:end]
        return closure

    def induced(self, closure: np.ndarray) -> BoolMatrix:
        """Left-hand-side inputs -> outputs: the induced matrix of Lemma 1."""
        return BoolMatrix(closure[self.lhs_in][:, self.lhs_out])

    def function_bits(self) -> int:
        """Bits of every ``I``, ``O`` and ``Z`` (``i < j``) of this body, from the blocks alone.

        ``I(i)`` is ``|lhs_in| x n_in(i)``, ``O(i)`` is ``|lhs_out| x n_out(i)``
        and ``Z(i, j)`` is ``n_out(i) x n_in(j)``.
        """
        bits = outputs_before = 0
        for start, mid, end in self.blocks:
            bits += (len(self.lhs_in) + outputs_before) * (mid - start)
            bits += len(self.lhs_out) * (end - mid)
            outputs_before += end - mid
        return bits


class ClosureSlices:
    """``I``, ``O`` and ``Z`` of one production, each copied out of its body closure.

    Holds the closure and its two left-hand-side slices (``closure[lhs_in]``
    and ``closure[:, lhs_out].T``, one fancy index each).  Every call returns
    a fresh compact copy, so no caller ever holds a view into the closure
    (``.copy()``, not ``np.ascontiguousarray``: a one-row slice is contiguous
    already and would come back uncopied); keeping what was read is the
    caller's business.  Positions ``i < j`` are 1-based, in the layout's
    topological order.  ``O(i)`` has rows indexed by left-hand-side outputs
    and columns by the outputs of module ``i``: true when the former is
    reachable *from* the latter.
    """

    __slots__ = ("layout", "closure", "_from_lhs", "_to_lhs")

    def __init__(self, layout: PortLayout, closure: np.ndarray) -> None:
        self.layout = layout
        self.closure = closure
        self._from_lhs = closure[layout.lhs_in]
        self._to_lhs = closure[:, layout.lhs_out].T

    def inputs(self, i: int) -> BoolMatrix:
        start, mid, _ = self.layout.blocks[i - 1]
        return BoolMatrix(self._from_lhs[:, start:mid].copy())

    def outputs(self, i: int) -> BoolMatrix:
        _, mid, end = self.layout.blocks[i - 1]
        return BoolMatrix(self._to_lhs[:, mid:end].copy())

    def z(self, i: int, j: int) -> BoolMatrix:
        _, mid, end = self.layout.blocks[i - 1]
        start, stop, _ = self.layout.blocks[j - 1]
        return BoolMatrix(self.closure[mid:end, start:stop].copy())

    def functions(self, k: int) -> LabelFunctions:
        """Every ``I``, ``O`` and ``Z`` of the body, keyed as production ``k``'s."""
        positions = range(1, len(self.layout.blocks) + 1)
        return (
            {(k, i): self.inputs(i) for i in positions},
            {(k, i): self.outputs(i) for i in positions},
            {(k, i, j): self.z(i, j) for i in positions for j in positions[i:]},
        )


def port_layout(production: Production) -> PortLayout:
    """The production's layout, built on first use and kept on the production."""
    layout = production.port_layout
    if layout is None:
        layout = production.port_layout = PortLayout(production)
    return layout


def induced_dependency_matrix(
    production: Production, matrices: Mapping[str, BoolMatrix]
) -> BoolMatrix:
    """The input/output dependency matrix induced on a production's LHS.

    Entry ``(x, y)`` is true iff output port ``y`` of the left-hand side is
    reachable from its input port ``x`` through the right-hand side workflow,
    using the given per-module dependency matrices — the quantity the safety
    algorithm compares across productions (Lemma 1).
    """
    layout = port_layout(production)
    return layout.induced(layout.closure(matrices))


class RunReachabilityOracle:
    """Ground-truth reachability between data items of a projected run.

    Parameters
    ----------
    run:
        The (possibly partial) workflow run.
    view:
        The view ``U`` the query is asked through.
    specification:
        The specification the run was derived from.  It is needed to extend
        the view's dependency assignment to composite modules (the full
        dependency assignment), so that *unexpanded* composite instances of
        partial runs contribute their induced dependencies.
    """

    def __init__(
        self,
        run: WorkflowRun,
        view: WorkflowView,
        specification: WorkflowSpecification,
    ) -> None:
        # Imported lazily to avoid an import cycle with repro.analysis.safety.
        from repro.analysis.safety import full_dependency_assignment

        self._run = run
        self._view = view
        self._projection = ViewProjection(run, view)
        restricted = view.restricted_grammar(specification.grammar)
        self._full: DependencyAssignment = full_dependency_assignment(
            restricted, view.dependencies
        )
        self._successors: dict[int, list[int]] = {}
        self._build_item_graph()
        self._reach_cache: dict[int, frozenset[int]] = {}

    # -- construction -----------------------------------------------------------

    def _build_item_graph(self) -> None:
        run = self._run
        for leaf_uid in self._projection.leaf_instances:
            instance = run.instance(leaf_uid)
            if not self._full.defines(instance.module_name):
                # Not derivable in the view's grammar; such instances cannot be
                # visible leaves, but guard anyway.
                continue
            for in_port, out_port in self._full.pairs(instance.module_name):
                src_item = run.item_at(leaf_uid, "in", in_port)
                dst_item = run.item_at(leaf_uid, "out", out_port)
                self._successors.setdefault(src_item, []).append(dst_item)

    # -- queries ------------------------------------------------------------------

    @property
    def projection(self) -> ViewProjection:
        return self._projection

    def is_visible(self, item_uid: int) -> bool:
        return self._projection.is_visible_item(item_uid)

    def reachable_items(self, item_uid: int) -> frozenset[int]:
        cached = self._reach_cache.get(item_uid)
        if cached is not None:
            return cached
        seen = {item_uid}
        queue = deque([item_uid])
        while queue:
            node = queue.popleft()
            for succ in self._successors.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    queue.append(succ)
        result = frozenset(seen)
        self._reach_cache[item_uid] = result
        return result

    def depends(self, d1: int, d2: int) -> bool:
        """Whether data item ``d2`` depends on data item ``d1`` w.r.t. the view.

        Matches the paper's convention: for an intermediate item, the query
        is whether the consumer port of ``d2`` is reachable from the producer
        port of ``d1``; a data item "depends on itself" exactly when it is an
        intermediate item (the data edge connects its own producer to its own
        consumer).  Raises :class:`VisibilityError` if either item is not
        visible in the view.
        """
        for uid in (d1, d2):
            if not self.is_visible(uid):
                raise VisibilityError(
                    f"data item {uid} is not visible in view {self._view.name!r}"
                )
        item1 = self._run.item(d1)
        item2 = self._run.item(d2)
        if item1.is_final_output or item2.is_initial_input:
            return False
        if d1 == d2:
            return not item1.is_initial_input and not item1.is_final_output
        return d2 in self.reachable_items(d1)
