"""Preprocessing of a strictly linear-recursive grammar (Section 4.1).

Before any run or view can be labelled, the specification is preprocessed
once:

* every production-graph edge gets a unique id ``(k, i)`` — the ``k``-th
  production and the ``i``-th right-hand-side module in the fixed
  topological order;
* the (vertex-disjoint) cycles of the production graph are enumerated; the
  ``s``-th cycle ``C(s)`` is a fixed circular list of edge ids, starting from
  a fixed first edge.

The resulting :class:`GrammarIndex` is shared by the run labeler, the view
labeler and the decoding predicate.  It is a *global index* in the paper's
terminology and takes space proportional to the specification only.
"""

from __future__ import annotations

from repro.analysis.production_graph import PGEdge, ProductionGraph
from repro.errors import AnalysisError
from repro.model.grammar import WorkflowGrammar
from repro.model.module import Module
from repro.model.production import Production

__all__ = ["GrammarIndex"]


class GrammarIndex:
    """Preprocessed view of a strictly linear-recursive workflow grammar.

    Raises :class:`~repro.errors.NotStrictlyLinearError` at construction if
    the grammar's production-graph cycles are not vertex-disjoint
    (Definition 16), since the compact labeling scheme is only defined for
    that class (Theorem 8).
    """

    def __init__(self, grammar: WorkflowGrammar) -> None:
        grammar.check_proper()
        self._grammar = grammar
        self._graph = ProductionGraph(grammar)
        self._cycles = self._graph.cycles()  # raises NotStrictlyLinearError
        # module -> (cycle id s, rotation t) where cycle edge t leaves the module
        self._cycle_position: dict[str, tuple[int, int]] = {}
        for s, cycle in enumerate(self._cycles, start=1):
            for t, edge in enumerate(cycle, start=1):
                self._cycle_position[edge.source] = (s, t)
        # production k -> ((position, module_name, cycle_position | None), ...)
        self._production_children: dict[int, tuple] = {}
        #: The constant c, read by every view's decode bank and every side-file load.
        self._max_ports = max(max(m.n_inputs, m.n_outputs) for m in grammar.modules.values())
        #: Slot owned by :func:`repro.engine.engine.grammar_fingerprint`.
        self.fingerprint = None

    # -- basic accessors ---------------------------------------------------------

    @property
    def grammar(self) -> WorkflowGrammar:
        return self._grammar

    @property
    def production_graph(self) -> ProductionGraph:
        return self._graph

    @property
    def cycles(self) -> tuple[tuple[PGEdge, ...], ...]:
        """The cycles ``C(1), C(2), ...`` as tuples of production-graph edges."""
        return self._cycles

    @property
    def n_cycles(self) -> int:
        return len(self._cycles)

    def production(self, k: int) -> Production:
        return self._grammar.production(k)

    def module(self, name: str) -> Module:
        return self._grammar.module(name)

    @property
    def start_module(self) -> Module:
        return self._grammar.start_module

    # -- production-graph edges ----------------------------------------------------

    def edge(self, k: int, i: int) -> PGEdge:
        """The production-graph edge with id ``(k, i)``."""
        return self._graph.edge(k, i)

    def edge_target_module(self, k: int, i: int) -> Module:
        """The module at position ``i`` of production ``k``'s right-hand side."""
        return self._grammar.module(self._graph.edge(k, i).target)

    def edge_source_module(self, k: int) -> Module:
        """The left-hand-side module of production ``k``."""
        return self._grammar.production(k).lhs

    def production_children(self, k: int) -> tuple:
        """The static child template of production ``k`` (cached).

        One entry ``(position, module_name, cycle_position_or_None)`` per
        right-hand-side module in the fixed topological order — everything
        the parse-tree builder needs about a child that does not depend on
        the run, so the hot ingest path reads no per-child grammar state.
        """
        cached = self._production_children.get(k)
        if cached is None:
            rhs = self._grammar.production(k).rhs
            cached = tuple(
                (
                    position,
                    rhs.module_of(occurrence).name,
                    self._cycle_position.get(rhs.module_of(occurrence).name),
                )
                for position, occurrence in enumerate(rhs.topological_order, start=1)
            )
            self._production_children[k] = cached
        return cached

    # -- cycles ------------------------------------------------------------------------

    def is_recursive_module(self, module_name: str) -> bool:
        """Whether the module lies on a cycle of the production graph."""
        return module_name in self._cycle_position

    @property
    def cycle_positions(self) -> dict[str, tuple[int, int]]:
        """``module name -> (s, t)`` for every recursive module (treat as read-only).

        Exposed so hot loops can probe recursion membership and cycle
        position with a single dict lookup instead of two method calls.
        """
        return self._cycle_position

    def cycle_position(self, module_name: str) -> tuple[int, int]:
        """``(s, t)`` such that cycle ``s``'s edge ``t`` leaves ``module_name``."""
        try:
            return self._cycle_position[module_name]
        except KeyError:
            raise AnalysisError(
                f"module {module_name!r} is not recursive"
            ) from None

    def same_cycle(self, module_a: str, module_b: str) -> bool:
        """Whether two modules lie on the same cycle."""
        pos_a = self._cycle_position.get(module_a)
        pos_b = self._cycle_position.get(module_b)
        return pos_a is not None and pos_b is not None and pos_a[0] == pos_b[0]

    def cycle(self, s: int) -> tuple[PGEdge, ...]:
        """The ``s``-th cycle (1-based)."""
        if not 1 <= s <= len(self._cycles):
            raise AnalysisError(f"no cycle {s} (grammar has {len(self._cycles)})")
        return self._cycles[s - 1]

    def cycle_length(self, s: int) -> int:
        return len(self.cycle(s))

    def normalize_rotation(self, s: int, t: int) -> int:
        """Map an arbitrary rotation index onto ``1 .. cycle_length(s)``."""
        length = self.cycle_length(s)
        return ((t - 1) % length) + 1

    def cycle_edge(self, s: int, t: int) -> PGEdge:
        """The cycle edge at (cyclic) index ``t`` of cycle ``s``."""
        cycle = self.cycle(s)
        return cycle[self.normalize_rotation(s, t) - 1]

    def chain_member_module(self, s: int, t: int, position: int) -> Module:
        """The module of the ``position``-th member of a recursion unfolding.

        The unfolding of cycle ``s`` starting at rotation ``t`` visits the
        modules ``source(edge_t), source(edge_{t+1}), ...``; member
        ``position`` (1-based) is ``source(edge_{t + position - 1})``.
        """
        if position < 1:
            raise AnalysisError("chain positions are 1-based")
        edge = self.cycle_edge(s, t + position - 1)
        return self._grammar.module(edge.source)

    # -- constants used by codecs and complexity accounting ------------------------------

    def n_productions(self) -> int:
        return len(self._grammar.productions)

    def max_rhs_size(self) -> int:
        """Maximum number of modules in a production right-hand side."""
        return max((len(p.rhs) for p in self._grammar.productions), default=0)

    def max_ports(self) -> int:
        """Maximum number of input or output ports over all modules (the constant c)."""
        return self._max_ports

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GrammarIndex({self._grammar!r}, cycles={len(self._cycles)}, "
            f"edges={self._graph.n_edges})"
        )
