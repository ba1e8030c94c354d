"""The synthetic workflow family of Section 6.5 (Figure 26).

The family is parameterised by four knobs:

* ``workflow_size`` — the number of modules in each (recursive) simple
  workflow (default 40);
* ``module_degree`` — the number of input/output ports of every module
  (default 4);
* ``nesting_depth`` — the depth of nested composite modules (default 4);
* ``recursion_length`` — the number of composite modules in each recursion
  (default 2).

The production graph mirrors Figure 26: at every nesting level ``d`` there is
a cycle ``C(d,1) -> C(d,2) -> ... -> C(d,R) -> C(d,1)`` of length
``R = recursion_length``; the first module of each level additionally derives
the first module of the next level (``C(d,1) -> C(d+1,1)``).  Every composite
module has one recursive production (a chain of filler atoms containing its
cycle successor and, for ``C(d,1)``, the nested ``C(d+1,1)``) and one
base-case production (a single atom) so that derivations terminate.  All
cycles are vertex-disjoint, hence the grammar is strictly linear-recursive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.model import (
    DependencyAssignment,
    Module,
    Production,
    WorkflowGrammar,
    WorkflowSpecification,
)
from repro.workloads.builder import chain_production, idempotent_dependency_pairs

__all__ = [
    "SyntheticConfig",
    "build_nested_chain_specification",
    "build_synthetic_specification",
]


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic workflow family (defaults from Section 6.5)."""

    workflow_size: int = 40
    module_degree: int = 4
    nesting_depth: int = 4
    recursion_length: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.workflow_size < 3:
            raise ValueError("workflow_size must be at least 3")
        if self.module_degree < 1:
            raise ValueError("module_degree must be at least 1")
        if self.nesting_depth < 1:
            raise ValueError("nesting_depth must be at least 1")
        if self.recursion_length < 1:
            raise ValueError("recursion_length must be at least 1")


def build_synthetic_specification(
    config: SyntheticConfig | None = None, **overrides
) -> WorkflowSpecification:
    """Build one member of the synthetic family.

    Either pass a :class:`SyntheticConfig` or keyword overrides for its
    fields, e.g. ``build_synthetic_specification(nesting_depth=8)``.
    """
    if config is None:
        config = SyntheticConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config object or keyword overrides, not both")
    rng = random.Random(config.seed)
    m = config.module_degree

    modules: dict[str, Module] = {}
    composites: set[str] = set()

    def composite(name: str) -> Module:
        module = Module(name, m, m)
        modules[name] = module
        composites.add(name)
        return module

    def atom(name: str) -> Module:
        module = Module(name, m, m)
        modules[name] = module
        return module

    # Composite modules C(d, r).
    for depth in range(1, config.nesting_depth + 1):
        for pos in range(1, config.recursion_length + 1):
            composite(f"C{depth}_{pos}")

    productions: list[Production] = []
    atom_counter = 0

    def fresh_atom() -> Module:
        nonlocal atom_counter
        atom_counter += 1
        return atom(f"x{atom_counter}")

    for depth in range(1, config.nesting_depth + 1):
        for pos in range(1, config.recursion_length + 1):
            name = f"C{depth}_{pos}"
            lhs = modules[name]
            successor = f"C{depth}_{pos % config.recursion_length + 1}"
            nested = (
                f"C{depth + 1}_1"
                if pos == 1 and depth < config.nesting_depth
                else None
            )
            # Recursive production: a chain of `workflow_size` modules that
            # contains the cycle successor (and possibly the nested module)
            # surrounded by filler atoms.
            body: list[tuple[str, Module]] = []
            specials = [successor] + ([nested] if nested else [])
            n_fillers = max(config.workflow_size - len(specials), 2)
            # Spread the special modules roughly evenly through the chain.
            special_slots = {
                (index + 1) * (n_fillers + len(specials)) // (len(specials) + 1)
                for index in range(len(specials))
            }
            special_iter = iter(specials)
            position = 0
            while len(body) < n_fillers + len(specials):
                position += 1
                if position in special_slots:
                    special_name = next(special_iter)
                    body.append((special_name, modules[special_name]))
                else:
                    filler = fresh_atom()
                    body.append((filler.name, filler))
            productions.append(chain_production(lhs, body))
            # Base-case production: a single dedicated atom.
            base = fresh_atom()
            productions.append(chain_production(lhs, [(base.name, base)]))

    grammar = WorkflowGrammar(modules, composites, "C1_1", productions)
    shared_pairs = idempotent_dependency_pairs(m, rng)
    dependencies = DependencyAssignment(
        {name: shared_pairs for name in grammar.atomic_modules}
    )
    return WorkflowSpecification(grammar, dependencies)


def build_nested_chain_specification(
    nesting_depth: int = 40, chain_length: int = 30, module_degree: int = 6
) -> WorkflowSpecification:
    """A deep *non-recursive* member of the chain-production family.

    One composite module ``D(d)`` per nesting level, each with a single
    production: a pipeline of ``chain_length`` degree-``module_degree``
    modules with the next level's ``D(d+1)`` embedded at the midpoint (the
    deepest level is all atoms), so every derivation of the grammar is the
    same ``nesting_depth``-deep parse tree and no recursion edge ever
    appears in a label.  Atomic dependencies are *saturated* (every input
    transitively feeds every output): the induced ``Inputs``/``Outputs``
    chain matrices are uniformly all-true, which makes the specification
    the best case for verdict rows — the product over a production chain is
    forced by the classes of its factors and only the identity wiring
    between *adjacent* pipeline stages needs a decoded matrix (a
    BioAID-shaped pipeline without BioAID's recursion; the benchmark's
    ``wire_small_structural`` workload).
    """
    if nesting_depth < 1:
        raise ValueError("nesting_depth must be at least 1")
    if chain_length < 2:
        raise ValueError("chain_length must be at least 2")
    if module_degree < 1:
        raise ValueError("module_degree must be at least 1")
    m = module_degree
    modules: dict[str, Module] = {}
    composites: set[str] = set()
    for depth in range(1, nesting_depth + 1):
        name = f"D{depth}"
        modules[name] = Module(name, m, m)
        composites.add(name)
    productions: list[Production] = []
    atom_counter = 0
    for depth in range(1, nesting_depth + 1):
        lhs = modules[f"D{depth}"]
        nested_slot = chain_length // 2 if depth < nesting_depth else None
        body: list[tuple[str, Module]] = []
        for position in range(1, chain_length + 1):
            if position == nested_slot:
                nested = f"D{depth + 1}"
                body.append((nested, modules[nested]))
            else:
                atom_counter += 1
                atom = Module(f"x{atom_counter}", m, m)
                modules[atom.name] = atom
                body.append((atom.name, atom))
        productions.append(chain_production(lhs, body))
    grammar = WorkflowGrammar(modules, composites, "D1", productions)
    saturated = frozenset(
        (i, j) for i in range(1, m + 1) for j in range(1, m + 1)
    )
    dependencies = DependencyAssignment(
        {name: saturated for name in grammar.atomic_modules}
    )
    return WorkflowSpecification(grammar, dependencies)
