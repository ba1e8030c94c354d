"""Static labeling of safe views (Section 4.3).

A view label ``phi_v(U) = {lambda*(S), I, O, Z}`` encodes all the
fine-grained dependency information that is specific to one view:

* ``lambda*`` — the full dependency assignment of the view (Lemma 1),
  extending the perceived dependencies ``lambda'`` to composite modules;
* ``I(k, i)`` — the reachability matrix from the inputs of production ``k``'s
  left-hand side to the inputs of its ``i``-th right-hand-side module;
* ``O(k, i)`` — the (reversed) reachability matrix from the outputs of the
  left-hand side to the outputs of the ``i``-th module;
* ``Z(k, i, j)`` — the reachability matrix from the outputs of the ``i``-th
  module to the inputs of the ``j``-th module.

All of them are read from one array per retained production: the closure of
the production's body under ``lambda*``
(:meth:`repro.analysis.reachability.PortLayout.closure`), which the safety
pass computes anyway to obtain ``lambda*`` and hands over.  A view label keeps
that closure, read-only, and hands ``I``/``O``/``Z`` out of it
(:class:`repro.analysis.reachability.ClosureSlices`): each is copied into a
compact matrix the first time it is asked for and kept, and
:meth:`ViewLabel.size_bits` counts them from the body's port layout without
building one.  Labelling a view therefore costs one closure per retained
production and no matrix per ``I``/``O``/``Z``.  The closures are kept for
the label's life, so a label whose every function has been read holds the
closures plus the copies: more than the ``size_bits()`` it reports, which is
the paper's label size.  The paper's definition — a
port graph and a search per port, kept in
:mod:`repro.analysis.reachability` — is not used here; it is the oracle the
differential tests compare these slices against.

Three materialisation strategies are provided, matching the paper's
experimental variants (Sections 4.3 and 4.4.3):

* **DEFAULT** — keep every retained production's closure, from which all
  ``I``/``O``/``Z`` matrices are read; recursion chain products are evaluated
  at query time by fast boolean exponentiation.
* **SPACE_EFFICIENT** — materialise only ``lambda*``; every access to ``I``,
  ``O`` or ``Z`` recomputes the closure of the production's body and copies
  out the one matrix asked for.
* **QUERY_EFFICIENT** — additionally materialise, for every recursion and
  rotation, the cycle product, its power table (Lemma 5) and the prefix
  products, making chain evaluation a pure table lookup.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Mapping

import numpy as np

from repro.analysis.reachability import ClosureSlices, LabelFunctions, port_layout
from repro.analysis.safety import full_dependency_closures
from repro.core.preprocessing import GrammarIndex
from repro.errors import DecodingError, VisibilityError
from repro.matrices import BoolMatrix, MatrixPowerTable, chain_product
from repro.model.views import WorkflowView

__all__ = ["FVLVariant", "ViewLabel", "ViewLabeler"]


class FVLVariant(Enum):
    """The three view-labeling strategies evaluated in the paper."""

    DEFAULT = "default"
    SPACE_EFFICIENT = "space-efficient"
    QUERY_EFFICIENT = "query-efficient"


class ViewLabel:
    """The static label ``phi_v(U)`` of one safe view.

    Instances are produced by :class:`ViewLabeler`; the decoding predicate
    (:mod:`repro.core.decoder`) consumes them through the accessors below.
    """

    def __init__(
        self,
        index: GrammarIndex,
        view: WorkflowView,
        variant: FVLVariant,
        lam_star: Mapping[str, BoolMatrix],
        closures: Mapping[int, np.ndarray],
    ) -> None:
        """``closures``: the body closure of every retained production, by number."""
        self._index = index
        self._view = view
        self._variant = variant
        self._lam_star = dict(lam_star)
        self._retained = retained_productions = frozenset(closures)
        # The space-efficient variant keeps no closure (it recomputes one per
        # access) and memoizes nothing; the others keep every closure and each
        # I/O/Z once it has been read, so a hit is one lookup.
        self._slices: dict[int, ClosureSlices] = {}
        self._inputs: dict[tuple[int, int], BoolMatrix] = {}
        self._outputs: dict[tuple[int, int], BoolMatrix] = {}
        self._z: dict[tuple[int, int, int], BoolMatrix] = {}
        self._retained_cycles: frozenset[int] = frozenset(
            s
            for s in range(1, index.n_cycles + 1)
            if all(edge.production in retained_productions for edge in index.cycle(s))
        )
        # Query-efficient extras: per (function, cycle, rotation) power tables
        # and prefix products.
        self._power_tables: dict[tuple[str, int, int], MatrixPowerTable] = {}
        self._prefix_products: dict[tuple[str, int, int], list[BoolMatrix]] = {}

        if variant is not FVLVariant.SPACE_EFFICIENT:
            for k, closure in closures.items():
                closure.flags.writeable = False
                self._slices[k] = ClosureSlices(port_layout(index.production(k)), closure)
        #: Bytes of the kept closures and their slices, and of the copies read so far.
        self._closure_nbytes = sum(slices.nbytes for slices in self._slices.values())
        self._copies_nbytes = 0
        self._copies_lock = threading.Lock()
        if variant is FVLVariant.QUERY_EFFICIENT:
            self._materialise_power_tables()

    # -- basic accessors ----------------------------------------------------------

    @property
    def view(self) -> WorkflowView:
        return self._view

    @property
    def variant(self) -> FVLVariant:
        return self._variant

    @property
    def index(self) -> GrammarIndex:
        return self._index

    @property
    def retained_productions(self) -> frozenset[int]:
        return self._retained

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the label keeps: closures, their slices and ``I``/``O``/``Z`` copies.

        (``lambda*`` and the query-efficient variant's chain tables, fixed by
        the grammar, are not counted.)
        """
        return self._closure_nbytes + self._copies_nbytes

    def lam_star(self, module_name: str) -> BoolMatrix:
        """The full-dependency matrix of a module under this view."""
        try:
            return self._lam_star[module_name]
        except KeyError:
            raise VisibilityError(
                f"module {module_name!r} is not derivable in view {self._view.name!r}"
            ) from None

    def lam_star_start(self) -> BoolMatrix:
        """``lambda*(S)``: inputs-to-outputs reachability of the start module."""
        return self.lam_star(self._index.grammar.start)

    # -- definedness (used for visibility checks) --------------------------------------

    def is_retained_cycle(self, s: int) -> bool:
        return s in self._retained_cycles

    def is_defined_recursion(self, s: int, t: int, i: int) -> bool:
        """Whether the chain products for ``(s, t, i)`` are defined in this view.

        The unfolding to the ``i``-th chain member uses the productions of the
        cycle edges at rotations ``t .. t+i-2``; all of them must be retained.
        """
        if not 1 <= s <= self._index.n_cycles:
            return False
        length = self._index.cycle_length(s)
        needed = min(max(i - 1, 0), length)
        for offset in range(needed):
            edge = self._index.cycle_edge(s, t + offset)
            if edge.production not in self._retained:
                return False
        return True

    # -- the I / O / Z functions ----------------------------------------------------------

    def inputs(self, k: int, i: int) -> BoolMatrix:
        """``I(k, i)``: inputs of production ``k``'s LHS -> inputs of its ``i``-th module."""
        matrix = self._inputs.get((k, i))
        if matrix is None:
            self._require_edge(k, i)
            matrix = self._keep(self._inputs, (k, i), self._slices_of(k).inputs(i))
        return matrix

    def outputs(self, k: int, i: int) -> BoolMatrix:
        """``O(k, i)``: outputs of the LHS <- outputs of the ``i``-th module (reversed)."""
        matrix = self._outputs.get((k, i))
        if matrix is None:
            self._require_edge(k, i)
            matrix = self._keep(self._outputs, (k, i), self._slices_of(k).outputs(i))
        return matrix

    def z(self, k: int, i: int, j: int) -> BoolMatrix:
        """``Z(k, i, j)``: outputs of the ``i``-th module -> inputs of the ``j``-th module."""
        matrix = self._z.get((k, i, j))
        if matrix is not None:
            return matrix
        self._require_edge(k, i)
        self._require_edge(k, j)
        module_i = self._index.edge_target_module(k, i)
        module_j = self._index.edge_target_module(k, j)
        if i >= j:
            return BoolMatrix.zeros(module_i.n_outputs, module_j.n_inputs)
        return self._keep(self._z, (k, i, j), self._slices_of(k).z(i, j))

    def closure_slices(self, k: int) -> ClosureSlices:
        """The closure of retained production ``k``'s body, with its slices.

        The kept closure, or (space-efficient) a fresh one per call: callers
        that read many functions of one production memoize the result.
        """
        if k not in self._retained:
            raise VisibilityError(
                f"production {k} is not retained by view {self._view.name!r}"
            )
        return self._slices_of(k)

    def production_matrices(self, k: int) -> LabelFunctions:
        """All ``I``/``O``/``Z`` matrices of one retained production.

        For the space-efficient variant this recomputes the closure of the
        production body — the variant's defining trade-off.  Callers that
        read many functions of one production call this once instead of
        once per matrix access.
        """
        if k not in self._retained:
            raise VisibilityError(
                f"production {k} is not retained by view {self._view.name!r}"
            )
        if self._variant is FVLVariant.SPACE_EFFICIENT:
            return self._close_body(k).functions(k)
        positions = range(1, len(self._index.production(k).rhs) + 1)
        return (
            {(k, i): self.inputs(k, i) for i in positions},
            {(k, i): self.outputs(k, i) for i in positions},
            {(k, i, j): self.z(k, i, j) for i in positions for j in positions[i:]},
        )

    # -- recursion chain products (Algorithm 1) ---------------------------------------------

    def inputs_chain(self, s: int, t: int, count: int) -> BoolMatrix:
        """Product of ``count`` consecutive ``I`` matrices along cycle ``s`` from rotation ``t``.

        This is the quantity computed by Algorithm 1 for a recursion edge
        label ``(s, t, count + 1)``: the reachability matrix from the inputs
        of the first chain member to the inputs of member ``count + 1``.
        """
        return self.chain("I", s, t, count)

    def outputs_chain(self, s: int, t: int, count: int) -> BoolMatrix:
        """Product of ``count`` consecutive ``O`` matrices along cycle ``s`` from rotation ``t``."""
        return self.chain("O", s, t, count)

    def chain(self, function: str, s: int, t: int, count: int) -> BoolMatrix:
        """Product of ``count`` consecutive ``function`` (``"I"``/``"O"``) matrices along cycle ``s``.

        Any integer rotation ``t`` is taken modulo the cycle's length, and an
        error names the rotation it stands for.
        """
        if count < 0:
            raise DecodingError("chain length cannot be negative")
        if 1 <= s <= self._index.n_cycles:
            t = self._index.normalize_rotation(s, t)
        if not self.is_defined_recursion(s, t, count + 1):
            raise VisibilityError(
                f"recursion (cycle {s}, rotation {t}) is not fully retained by "
                f"view {self._view.name!r}"
            )
        start_module = self._index.chain_member_module(s, t, 1)
        identity_size = (
            start_module.n_inputs if function == "I" else start_module.n_outputs
        )
        if count == 0:
            return BoolMatrix.identity(identity_size)
        length = self._index.cycle_length(s)
        if (
            self._variant is FVLVariant.QUERY_EFFICIENT
            and (function, s, t) in self._power_tables
        ):
            full_turns, remainder = divmod(count, length)
            prefix = self._prefix_products[(function, s, t)][remainder]
            if full_turns == 0:
                return prefix
            power = self._power_tables[(function, s, t)].power(full_turns)
            return power @ prefix
        if count <= length:
            return chain_product(
                [self._cycle_edge_factor(function, s, t + a) for a in range(count)],
                identity_size=identity_size,
            )
        full_turns, remainder = divmod(count, length)
        prefix = chain_product(
            [self._cycle_edge_factor(function, s, t + a) for a in range(remainder)],
            identity_size=identity_size,
        )
        full = chain_product(
            [self._cycle_edge_factor(function, s, t + a) for a in range(length)],
            identity_size=identity_size,
        )
        power = full.power(full_turns)
        return power @ prefix

    def _cycle_edge_factor(self, function: str, s: int, rotation: int) -> BoolMatrix:
        edge = self._index.cycle_edge(s, rotation)
        if function == "I":
            return self.inputs(edge.production, edge.position)
        return self.outputs(edge.production, edge.position)

    # -- sizes ---------------------------------------------------------------------------------

    def size_bits(self) -> int:
        """Number of bits needed to materialise this view label."""
        bits = self.lam_star_start().bits()
        if self._variant is FVLVariant.SPACE_EFFICIENT:
            # Only the full dependency assignment is stored.
            return sum(m.bits() for m in self._lam_star.values())
        bits += sum(slices.layout.function_bits() for slices in self._slices.values())
        if self._variant is FVLVariant.QUERY_EFFICIENT:
            bits += sum(t.bits() for t in self._power_tables.values())
            bits += sum(
                m.bits()
                for products in self._prefix_products.values()
                for m in products
            )
        return bits

    # -- internals --------------------------------------------------------------------------------

    def _require_edge(self, k: int, i: int) -> None:
        if k not in self._retained:
            raise VisibilityError(
                f"production {k} is not retained by view {self._view.name!r}"
            )
        if not self._index.production_graph.has_edge(k, i):
            raise DecodingError(f"no production-graph edge ({k}, {i})")

    def _keep(self, table: dict, key, matrix: BoolMatrix) -> BoolMatrix:
        """Memoize a copy read out of a kept closure (the space-efficient variant keeps none)."""
        if self._variant is FVLVariant.SPACE_EFFICIENT:
            return matrix
        with self._copies_lock:
            if key not in table:
                table[key] = matrix
                self._copies_nbytes += matrix.data.nbytes
            return table[key]

    def _slices_of(self, k: int) -> ClosureSlices:
        """The kept slices of production ``k``, or (space-efficient) fresh ones."""
        slices = self._slices.get(k)
        return slices if slices is not None else self._close_body(k)

    def _close_body(self, k: int) -> ClosureSlices:
        """Slices of a fresh closure of production ``k``'s body (space-efficient)."""
        layout = port_layout(self._index.production(k))
        return ClosureSlices(layout, layout.closure(self._lam_star))

    def _materialise_power_tables(self) -> None:
        for s in sorted(self._retained_cycles):
            length = self._index.cycle_length(s)
            for t in range(1, length + 1):
                for function in ("I", "O"):
                    matrices = [
                        self._cycle_edge_factor(function, s, t + a) for a in range(length)
                    ]
                    start_module = self._index.chain_member_module(s, t, 1)
                    identity_size = (
                        start_module.n_inputs
                        if function == "I"
                        else start_module.n_outputs
                    )
                    full = chain_product(matrices, identity_size=identity_size)
                    self._power_tables[(function, s, t)] = MatrixPowerTable(full)
                    prefixes = [BoolMatrix.identity(identity_size)]
                    running = BoolMatrix.identity(identity_size)
                    for matrix in matrices[:-1]:
                        running = running @ matrix
                        prefixes.append(running)
                    self._prefix_products[(function, s, t)] = prefixes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ViewLabel(view={self._view.name!r}, variant={self._variant.value}, "
            f"productions={sorted(self._retained)})"
        )


class ViewLabeler:
    """Builds :class:`ViewLabel` objects for safe views (static labeling)."""

    def __init__(self, index: GrammarIndex) -> None:
        self._index = index

    def label(
        self, view: WorkflowView, variant: FVLVariant = FVLVariant.DEFAULT
    ) -> ViewLabel:
        """Label one view.

        The view's full dependency assignment is computed first; an
        :class:`~repro.errors.UnsafeWorkflowError` is raised if the view is
        unsafe (unsafe views admit no dynamic labeling at all, Theorem 1).
        """
        grammar = self._index.grammar
        restricted = view.restricted_grammar(grammar)
        lam_star, closures = full_dependency_closures(restricted, view.dependencies)
        retained = {
            k: closures[production]
            for k, production in enumerate(grammar.productions, start=1)
            if production.lhs.name in restricted.composite_modules
        }
        return ViewLabel(self._index, view, variant, lam_star, retained)
