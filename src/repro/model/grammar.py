"""Context-free workflow grammars (Definition 4) and properness (Definition 5).

A workflow grammar ``G = (Sigma, Delta, S, P)`` consists of a finite set of
modules, a subset of composite modules, a start module and a finite set of
workflow productions.  Its language is the set of simple workflows over
atomic modules derivable from the start module.

Productions are numbered ``1 .. |P|`` in declaration order; this numbering is
shared by the analysis layer (production graph edge ids ``(k, i)``) and the
labeling scheme, so it is part of the grammar's public contract.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Sequence

from repro.errors import GrammarError, ImproperGrammarError
from repro.model.module import Module
from repro.model.production import Production

__all__ = ["WorkflowGrammar"]


class WorkflowGrammar:
    """A context-free workflow grammar.

    Parameters
    ----------
    modules:
        All modules of the grammar (``Sigma``), by name or as an iterable of
        :class:`Module`.
    composite:
        Names of the composite modules (``Delta``).  Everything else is
        atomic.
    start:
        Name of the start module ``S``; must be composite.
    productions:
        Ordered productions.  Every production's left-hand side must be a
        composite module; every module occurring in a right-hand side must
        belong to ``modules``.
    """

    def __init__(
        self,
        modules: Mapping[str, Module] | Iterable[Module],
        composite: Iterable[str],
        start: str,
        productions: Sequence[Production],
    ) -> None:
        if isinstance(modules, Mapping):
            module_map = dict(modules)
        else:
            module_map = {m.name: m for m in modules}
        for name, module in module_map.items():
            if name != module.name:
                raise GrammarError(
                    f"module registered under {name!r} has name {module.name!r}"
                )
        self._modules: dict[str, Module] = module_map
        self._composite: frozenset[str] = frozenset(composite)
        unknown = self._composite - set(module_map)
        if unknown:
            raise GrammarError(f"composite set references unknown modules {sorted(unknown)}")
        if start not in module_map:
            raise GrammarError(f"start module {start!r} is not a known module")
        if start not in self._composite:
            raise GrammarError(f"start module {start!r} must be composite")
        self._start = start
        self._productions: tuple[Production, ...] = tuple(productions)
        self._validate_productions()
        self._by_lhs: dict[str, list[tuple[int, Production]]] = {}
        # Productions hash by identity: the first 1-based number of each.
        self._number: dict[Production, int] = {}
        for k, production in enumerate(self._productions, start=1):
            self._by_lhs.setdefault(production.lhs.name, []).append((k, production))
            self._number.setdefault(production, k)

    # -- accessors ---------------------------------------------------------

    @property
    def modules(self) -> dict[str, Module]:
        return dict(self._modules)

    @property
    def module_names(self) -> tuple[str, ...]:
        return tuple(self._modules)

    @property
    def composite_modules(self) -> frozenset[str]:
        return self._composite

    @property
    def atomic_modules(self) -> frozenset[str]:
        return frozenset(self._modules) - self._composite

    @property
    def start(self) -> str:
        return self._start

    @property
    def start_module(self) -> Module:
        return self._modules[self._start]

    @property
    def productions(self) -> tuple[Production, ...]:
        return self._productions

    def module(self, name: str) -> Module:
        try:
            return self._modules[name]
        except KeyError:
            raise GrammarError(f"unknown module {name!r}") from None

    def is_composite(self, name: str) -> bool:
        return name in self._composite

    def is_atomic(self, name: str) -> bool:
        return name in self._modules and name not in self._composite

    def production(self, index: int) -> Production:
        """The production with 1-based number ``index``."""
        if not 1 <= index <= len(self._productions):
            raise GrammarError(
                f"production index {index} out of range 1..{len(self._productions)}"
            )
        return self._productions[index - 1]

    def production_index(self, production: Production) -> int:
        """1-based number of ``production`` within this grammar."""
        try:
            return self._number[production]
        except KeyError:
            raise GrammarError("production does not belong to this grammar") from None

    def productions_for(self, module_name: str) -> list[tuple[int, Production]]:
        """All ``(index, production)`` pairs whose left-hand side is ``module_name``."""
        return list(self._by_lhs.get(module_name, ()))

    def size(self) -> int:
        """Total size of the grammar (sum of production sizes)."""
        return sum(p.size() for p in self._productions)

    # -- validation --------------------------------------------------------

    def _validate_productions(self) -> None:
        for k, production in enumerate(self._productions, start=1):
            lhs = production.lhs
            registered = self._modules.get(lhs.name)
            if registered is None or registered != lhs:
                raise GrammarError(
                    f"production {k}: left-hand side {lhs.name!r} is not a "
                    "registered module of the grammar"
                )
            if lhs.name not in self._composite:
                raise GrammarError(
                    f"production {k}: left-hand side {lhs.name!r} is atomic; only "
                    "composite modules may have productions"
                )
            for occ_id, module in production.rhs.occurrences.items():
                registered = self._modules.get(module.name)
                if registered is None or registered != module:
                    raise GrammarError(
                        f"production {k}: occurrence {occ_id!r} uses module "
                        f"{module.name!r} which is not registered in the grammar"
                    )

    # -- properness (Definition 5) ------------------------------------------

    def derivable_modules(self) -> set[str]:
        """Modules derivable from the start module (reachable in P(G))."""
        composites = self._derivable_composites()
        return composites.union(
            *(production.rhs.module_names()
              for name in composites for _, production in self._by_lhs.get(name, ()))
        )

    def _derivable_composites(self) -> set[str]:
        """The composite modules :meth:`derivable_modules` finds.

        Only composite modules have productions, so the walk enqueues no
        atomic one: on a grammar of long bodies over atomic modules it does
        work in proportion to the composite part.
        """
        composite = self._composite
        reached = {self._start}
        queue = [self._start]
        while queue:
            for _, production in self._by_lhs.get(queue.pop(), ()):
                for name in production.rhs.module_names():
                    if name in composite and name not in reached:
                        reached.add(name)
                        queue.append(name)
        return reached

    def productive_modules(self) -> set[str]:
        """Modules that can derive a simple workflow of atomic modules only."""
        return self._productive_composites() | self.atomic_modules

    def _productive_composites(self) -> set[str]:
        """The composite modules :meth:`productive_modules` finds.

        A counter worklist: each production counts the distinct composite
        modules of its body not yet known productive (atomic ones are from
        the start), and is woken once per such module as it becomes
        productive; at zero its left-hand side is productive.
        """
        composite = self._composite
        productive: set[str] = set()
        unproductive_count: list[int] = []
        waiting: dict[str, list[int]] = {}
        ready: list[int] = []
        for position, production in enumerate(self._productions):
            absent = {name for name in production.rhs.module_names() if name in composite}
            unproductive_count.append(len(absent))
            for name in absent:
                waiting.setdefault(name, []).append(position)
            if not absent:
                ready.append(position)
        while ready:
            name = self._productions[ready.pop()].lhs.name
            if name in productive:
                continue
            productive.add(name)
            for position in waiting.pop(name, ()):
                unproductive_count[position] -= 1
                if unproductive_count[position] == 0:
                    ready.append(position)
        return productive

    def unit_cycles(self) -> list[list[str]]:
        """Cycles among unit productions ``M -> M'`` (violating Definition 5(3)).

        A unit production is one whose right-hand side consists of a single
        composite module; a cycle of such productions allows ``M =>+ M``.
        """
        unit_edges: dict[str, set[str]] = {}
        for production in self._productions:
            names = production.rhs.module_names()
            if len(names) == 1 and names[0] in self._composite:
                unit_edges.setdefault(production.lhs.name, set()).add(names[0])
        cycles: list[list[str]] = []
        visited: set[str] = set()
        for origin in unit_edges:
            if origin in visited:
                continue
            stack = [(origin, [origin])]
            while stack:
                node, path = stack.pop()
                for succ in unit_edges.get(node, ()):
                    if succ == origin:
                        cycles.append(path + [origin])
                    elif succ not in path:
                        stack.append((succ, path + [succ]))
            visited.add(origin)
        return cycles

    def is_proper(self) -> bool:
        """Whether the grammar is proper (Definition 5)."""
        if not self._composite <= self._derivable_composites():
            return False
        if not self._composite <= self._productive_composites():
            return False
        return not self.unit_cycles()

    def check_proper(self) -> None:
        """Raise :class:`ImproperGrammarError` unless the grammar is proper."""
        missing = sorted(self._composite - self._derivable_composites())
        if missing:
            raise ImproperGrammarError(
                f"underivable composite modules: {missing}"
            )
        missing = sorted(self._composite - self._productive_composites())
        if missing:
            raise ImproperGrammarError(
                f"unproductive composite modules: {missing}"
            )
        cycles = self.unit_cycles()
        if cycles:
            raise ImproperGrammarError(f"unit-production cycles: {cycles}")

    def restricted_to(self, composite_subset: Iterable[str]) -> "WorkflowGrammar":
        """The grammar ``G_Delta'`` obtained by keeping productions of a subset.

        Modules outside ``composite_subset`` become atomic (they keep their
        ports but lose their productions).  Modules that become unreachable
        from the start module are pruned so the result can be proper.
        """
        subset = frozenset(composite_subset)
        unknown = subset - self._composite
        if unknown:
            raise GrammarError(
                f"restriction references non-composite modules {sorted(unknown)}"
            )
        kept_productions = [
            p for p in self._productions if p.lhs.name in subset
        ]
        # Prune modules not reachable from the start using kept productions.
        reachable = {self._start}
        queue = deque([self._start])
        while queue:
            current = queue.popleft()
            for _, production in self._by_lhs.get(current, ()) if current in subset else ():
                for name in production.rhs.module_names():
                    if name not in reachable:
                        reachable.add(name)
                        queue.append(name)
        modules = {name: m for name, m in self._modules.items() if name in reachable}
        productions = [p for p in kept_productions if p.lhs.name in reachable]
        composite = subset & reachable
        if self._start not in composite:
            # A view that hides the start module cannot expand anything; the
            # grammar degenerates to just the start module with no production.
            modules = {self._start: self._modules[self._start]}
            return WorkflowGrammar(modules, {self._start}, self._start, [])
        return WorkflowGrammar(modules, composite, self._start, productions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkflowGrammar(|Sigma|={len(self._modules)}, "
            f"|Delta|={len(self._composite)}, start={self._start!r}, "
            f"|P|={len(self._productions)})"
        )
