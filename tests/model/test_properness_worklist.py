"""``productive_modules`` as a counter worklist, against the fixpoint it replaced.

The reference below is the round-robin fixpoint (sweep every production until
nothing changes): quadratic when productions are listed against derivation
order.  The worklist must find the same modules and ``check_proper`` the same
error on every grammar the model tests build, and examine each production at
most ``1 + |rhs|`` times whatever the order.
"""

from __future__ import annotations

import pytest

from repro.analysis.safety import full_dependency_closures
from repro.errors import ImproperGrammarError
from repro.model import (
    DataEdge,
    DependencyAssignment,
    Module,
    Production,
    SimpleWorkflow,
    WorkflowGrammar,
)
from repro.model.dependency import black_box_pairs
from repro.workloads import (
    build_bioaid_specification,
    build_nested_chain_specification,
    build_nonstrict_example,
    build_running_example,
    build_synthetic_specification,
    build_unsafe_example,
)


def _reference_productive(grammar) -> set[str]:
    productive = set(grammar.atomic_modules)
    changed = True
    while changed:
        changed = False
        for production in grammar.productions:
            if production.lhs.name in productive:
                continue
            if all(name in productive for name in production.rhs.module_names()):
                productive.add(production.lhs.name)
                changed = True
    return productive


def _reference_check_proper(grammar) -> str | None:
    composite = set(grammar.composite_modules)
    missing = sorted(composite - grammar.derivable_modules())
    if missing:
        return f"underivable composite modules: {missing}"
    missing = sorted(composite - _reference_productive(grammar))
    if missing:
        return f"unproductive composite modules: {missing}"
    cycles = grammar.unit_cycles()
    if cycles:
        return f"unit-production cycles: {cycles}"
    return None


def _unit(lhs: Module, *body: Module) -> Production:
    """``lhs -> body``, the body's 1-in/1-out modules wired in series."""
    occurrences = [(f"{m.name}{p}", m) for p, m in enumerate(body)]
    edges = [DataEdge(src, 1, dst, 1) for (src, _), (dst, _) in zip(occurrences, occurrences[1:])]
    return Production(lhs, SimpleWorkflow(occurrences, edges))


def _improper_grammars() -> dict[str, WorkflowGrammar]:
    s, a, x, y = (Module(name, 1, 1) for name in ("S", "a", "X", "Y"))
    orphan = Module("O", 1, 1)
    return {
        "underivable": WorkflowGrammar(
            {"S": s, "a": a, "O": orphan}, {"S", "O"}, "S", [_unit(s, a), _unit(orphan, a)]
        ),
        "unproductive-self-loop": WorkflowGrammar(
            {"S": s, "X": x}, {"S", "X"}, "S", [_unit(s, x), _unit(x, x)]
        ),
        "unit-cycle": WorkflowGrammar(
            {"S": s, "X": x, "a": a},
            {"S", "X"},
            "S",
            [_unit(s, x), _unit(x, s), _unit(x, a), _unit(s, a)],
        ),
        # X and Y only derive each other: S stays productive through 'a',
        # neither X nor Y ever does.
        "unproductive-cycle": WorkflowGrammar(
            {"S": s, "X": x, "Y": y, "a": a},
            {"S", "X", "Y"},
            "S",
            [_unit(s, x, a), _unit(s, a), _unit(x, y, a), _unit(y, x, a)],
        ),
    }


def _reversed_chain(depth: int) -> WorkflowGrammar:
    """``S -> X1 a``, ``X1 -> X2 a``, ... ``X_depth -> a``, listed top-down.

    A sweep in listed order proves one more module productive per pass, so the
    fixpoint examines the first production ``depth + 1`` times.
    """
    a = Module("a", 1, 1)
    chain = [Module("S", 1, 1)] + [Module(f"X{d}", 1, 1) for d in range(1, depth + 1)]
    productions = [_unit(upper, lower, a) for upper, lower in zip(chain, chain[1:])]
    productions.append(_unit(chain[-1], a))
    modules = {m.name: m for m in chain + [a]}
    return WorkflowGrammar(modules, {m.name for m in chain}, "S", productions)


def _grammars() -> dict[str, WorkflowGrammar]:
    running = build_running_example().grammar
    grammars = {
        "running": running,
        "running-restricted": running.restricted_to({"S", "A", "B"}),
        "nonstrict": build_nonstrict_example().grammar,
        "unsafe": build_unsafe_example()[0],
        "bioaid": build_bioaid_specification().grammar,
        "synthetic": build_synthetic_specification(
            workflow_size=8, module_degree=3, nesting_depth=3, recursion_length=2
        ).grammar,
        "chain": build_nested_chain_specification(6, 30, 3).grammar,
        "reversed-chain": _reversed_chain(40),
    }
    grammars.update(_improper_grammars())
    return grammars


GRAMMARS = _grammars()


@pytest.mark.parametrize("name", sorted(GRAMMARS))
def test_productive_modules_and_check_proper_match_the_fixpoint(name):
    grammar = GRAMMARS[name]
    assert grammar.productive_modules() == _reference_productive(grammar)
    expected = _reference_check_proper(grammar)
    if expected is None:
        grammar.check_proper()
        assert grammar.is_proper()
    else:
        with pytest.raises(ImproperGrammarError) as raised:
            grammar.check_proper()
        assert str(raised.value) == expected
        assert not grammar.is_proper()


def test_unproductive_cycle_is_named():
    grammar = GRAMMARS["unproductive-cycle"]
    assert grammar.productive_modules() == {"S", "a"}
    with pytest.raises(ImproperGrammarError, match=r"unproductive composite modules: \['X', 'Y'\]"):
        grammar.check_proper()


@pytest.mark.parametrize("name", ["reversed-chain", "chain", "bioaid", "unproductive-cycle"])
def test_each_production_is_examined_at_most_one_plus_rhs_times(name, monkeypatch):
    grammar = GRAMMARS[name]
    examined: dict[int, int] = {}
    for attribute in ("lhs", "rhs"):
        original = getattr(Production, attribute)

        def counted(self, _read=original.fget):
            examined[id(self)] = examined.get(id(self), 0) + 1
            return _read(self)

        monkeypatch.setattr(Production, attribute, property(counted))
    grammar.productive_modules()
    for production in grammar.productions:
        assert examined.get(id(production), 0) <= 1 + len(production.rhs), production


@pytest.mark.parametrize(
    ("name", "missing"),
    [("unproductive-cycle", ["X", "Y"]), ("unproductive-self-loop", ["S", "X"])],
)
def test_safety_pass_names_the_modules_that_never_become_verifiable(name, missing):
    grammar = GRAMMARS[name]
    dependencies = DependencyAssignment(
        {atomic: black_box_pairs(grammar.module(atomic)) for atomic in grammar.atomic_modules}
    )
    with pytest.raises(ImproperGrammarError) as raised:
        full_dependency_closures(grammar, dependencies)
    assert str(raised.value) == (
        "the safety algorithm cannot make progress; composite modules "
        f"{missing} never become verifiable (grammar is not proper)"
    )
