"""The seed's production graph P(G): one ``PGEdge`` per edge, Tarjan over every module.

:class:`ProductionGraph` here builds a frozen :class:`PGEdge` for every
right-hand-side occurrence and an out-edge map at construction, and runs
Tarjan over all modules, atomic ones included.  The library's
:class:`repro.analysis.ProductionGraph` keeps one tuple of target names per
production and walks composite modules only; the differential tests hold it
to this reference (cycles, reachability, recursion classes, edge ids and
errors).  Nothing in ``src/`` uses it.
"""

from __future__ import annotations

from repro.analysis.production_graph import PGEdge
from repro.errors import AnalysisError, NotStrictlyLinearError
from repro.model.grammar import WorkflowGrammar

__all__ = ["ProductionGraph"]


class ProductionGraph:
    """The production graph of a workflow grammar."""

    def __init__(self, grammar: WorkflowGrammar) -> None:
        self._grammar = grammar
        edges: list[PGEdge] = []
        for k, production in enumerate(grammar.productions, start=1):
            rhs = production.rhs
            for position, occ_id in enumerate(rhs.topological_order, start=1):
                edges.append(
                    PGEdge(
                        production=k,
                        position=position,
                        source=production.lhs.name,
                        target=rhs.module_of(occ_id).name,
                    )
                )
        self._edges: tuple[PGEdge, ...] = tuple(edges)
        self._by_key: dict[tuple[int, int], PGEdge] = {e.key: e for e in edges}
        self._out: dict[str, list[PGEdge]] = {}
        for edge in edges:
            self._out.setdefault(edge.source, []).append(edge)
        self._components = self._strongly_connected_components()
        #: Module-level reachability, built on the first :meth:`reaches`: the
        #: labelling scheme never asks, only the recursion analyses do.
        self._closure: dict[str, frozenset[str]] | None = None
        self._cycles: tuple[tuple[PGEdge, ...], ...] | None = None
        self._cycles_error: NotStrictlyLinearError | None = None

    # -- basic accessors ---------------------------------------------------------

    @property
    def grammar(self) -> WorkflowGrammar:
        return self._grammar

    @property
    def edges(self) -> tuple[PGEdge, ...]:
        return self._edges

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def edge(self, production: int, position: int) -> PGEdge:
        try:
            return self._by_key[(production, position)]
        except KeyError:
            raise AnalysisError(
                f"no production-graph edge ({production}, {position})"
            ) from None

    def has_edge(self, production: int, position: int) -> bool:
        return (production, position) in self._by_key

    # -- reachability --------------------------------------------------------------

    def _transitive_closure(self) -> dict[str, frozenset[str]]:
        """Module-level reachability, one union per strongly connected component.

        Tarjan emits a component only after every component it can reach, so
        the sets of all successors outside the component are already final;
        the members of a component reach the same set and share it.
        """
        closure: dict[str, frozenset[str]] = {}
        for component in self._components:
            reached = set(component)  # a vertex reaches itself (footnote 4)
            for member in component:
                for edge in self._out.get(member, ()):
                    if edge.target not in reached:
                        reached |= closure[edge.target]
            # Most modules are atomic and reach only themselves: share the
            # component's own set rather than keep a second copy per module.
            shared = component if len(reached) == len(component) else frozenset(reached)
            for member in component:
                closure[member] = shared
        return closure

    def reaches(self, source: str, target: str) -> bool:
        """Module-level reachability in P(G); every module reaches itself."""
        if self._closure is None:
            self._closure = self._transitive_closure()
        return target in self._closure.get(source, frozenset())

    # -- recursion structure -----------------------------------------------------------

    def recursive_modules(self) -> frozenset[str]:
        """Modules that lie on a cycle of P(G)."""
        recursive = set()
        for edge in self._edges:
            if self.reaches(edge.target, edge.source):
                recursive.add(edge.source)
                recursive.add(edge.target)
        # The above adds both endpoints of any edge whose target reaches its
        # source; restrict to modules that really lie on a cycle: m is on a
        # cycle iff some successor of m reaches m.
        return frozenset(
            m
            for m in recursive
            if any(self.reaches(e.target, m) for e in self._out.get(m, ()))
        )

    def is_recursive(self) -> bool:
        return bool(self.recursive_modules())

    def is_linear_recursive(self) -> bool:
        """Lemma 3: every production has at most one RHS occurrence reaching its LHS."""
        for production_k, production in enumerate(self._grammar.productions, start=1):
            lhs = production.lhs.name
            reaching = 0
            for occ_id in production.rhs.topological_order:
                module_name = production.rhs.module_of(occ_id).name
                if self.reaches(module_name, lhs):
                    reaching += 1
            if reaching > 1:
                return False
        return True

    def _strongly_connected_components(self) -> list[frozenset[str]]:
        """Iterative Tarjan."""
        index_counter = 0
        stack: list[str] = []
        lowlink: dict[str, int] = {}
        index: dict[str, int] = {}
        on_stack: dict[str, bool] = {}
        components: list[frozenset[str]] = []

        def successors(node: str) -> list[str]:
            return [e.target for e in self._out.get(node, ())]

        for root in self._grammar.module_names:
            if root in index:
                continue
            work = [(root, iter(successors(root)))]
            index[root] = lowlink[root] = index_counter
            index_counter += 1
            stack.append(root)
            on_stack[root] = True
            while work:
                node, succ_iter = work[-1]
                advanced = False
                for succ in succ_iter:
                    if succ not in index:
                        index[succ] = lowlink[succ] = index_counter
                        index_counter += 1
                        stack.append(succ)
                        on_stack[succ] = True
                        work.append((succ, iter(successors(succ))))
                        advanced = True
                        break
                    if on_stack.get(succ):
                        lowlink[node] = min(lowlink[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component = set()
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.add(member)
                        if member == node:
                            break
                    components.append(frozenset(component))
        return components

    def _compute_cycles(self) -> tuple[tuple[PGEdge, ...], ...]:
        """Enumerate the vertex-disjoint cycles of a strictly linear-recursive grammar.

        Raises :class:`NotStrictlyLinearError` when some strongly connected
        component is not a single simple cycle (i.e. two cycles share a
        vertex, Definition 16 is violated).
        """
        cycles: list[tuple[PGEdge, ...]] = []
        module_order = {name: i for i, name in enumerate(self._grammar.module_names)}
        for component in self._components:
            members = sorted(component, key=module_order.__getitem__)
            internal_edges = [
                e
                for m in members
                for e in self._out.get(m, ())
                if e.target in component
            ]
            if len(members) == 1 and not internal_edges:
                continue  # trivial SCC, no recursion
            # A strictly linear recursion requires the SCC to be exactly one
            # simple cycle: as many internal edges as vertices and exactly one
            # outgoing internal edge per vertex.
            out_count: dict[str, int] = {m: 0 for m in members}
            for edge in internal_edges:
                out_count[edge.source] += 1
            if len(internal_edges) != len(members) or any(
                c != 1 for c in out_count.values()
            ):
                raise NotStrictlyLinearError(
                    "two cycles of the production graph share the modules "
                    f"{members}; the grammar is not strictly linear-recursive"
                )
            start = members[0]
            ordered: list[PGEdge] = []
            current = start
            internal_by_source = {e.source: e for e in internal_edges}
            while True:
                edge = internal_by_source[current]
                ordered.append(edge)
                current = edge.target
                if current == start:
                    break
            cycles.append(tuple(ordered))
        return tuple(cycles)

    def cycles(self) -> tuple[tuple[PGEdge, ...], ...]:
        """The cycles of P(G), one per recursion, in deterministic order.

        Only defined for strictly linear-recursive grammars; raises
        :class:`NotStrictlyLinearError` otherwise.  Cycle ``s`` (1-based) is
        ``cycles()[s - 1]``; its first edge is the fixed first edge used by
        the labeling scheme.
        """
        if self._cycles is None and self._cycles_error is None:
            try:
                self._cycles = self._compute_cycles()
            except NotStrictlyLinearError as exc:
                self._cycles_error = exc
        if self._cycles_error is not None:
            raise self._cycles_error
        assert self._cycles is not None
        return self._cycles

    def is_strictly_linear_recursive(self) -> bool:
        try:
            self.cycles()
        except NotStrictlyLinearError:
            return False
        return True
