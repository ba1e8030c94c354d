"""Docs that execute: every ``repro`` name the prose cites must resolve.

Collects, from the README, the verify skill and the CI workflow, every
``python -m repro.…`` command and every backticked dotted ``repro.…`` name
and resolves it by import and ``getattr`` (:func:`pkgutil.resolve_name`: the
longest importable prefix, then attributes) — so deleting or renaming a module
fails here until the prose that cites it is re-trued.
"""

from __future__ import annotations

import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml")

_COMMAND = re.compile(r"python3? -m\s+(repro(?:\.\w+)+)")
_NAME = re.compile(r"`(repro(?:\.\w+)+)(?:\([^`]*\))?`")


def _cited(pattern: re.Pattern) -> list[tuple[str, str]]:
    cited = []
    for doc in DOCS:
        names = sorted(set(pattern.findall((ROOT / doc).read_text(encoding="utf-8"))))
        cited.extend((doc, name) for name in names)
    return cited


def test_the_patterns_still_find_the_prose():
    """Not vacuous: the README and the skill cite both kinds (the workflow may cite neither)."""
    for pattern in (_COMMAND, _NAME):
        assert {doc for doc, _ in _cited(pattern)} >= set(DOCS[:2])


@pytest.mark.parametrize("doc, module", _cited(_COMMAND))
def test_python_dash_m_commands_name_runnable_modules(doc, module):
    try:
        spec = importlib.util.find_spec(module)
    except ModuleNotFoundError:  # a parent package is missing
        spec = None
    assert spec is not None, f"{doc} runs `python -m {module}`, which does not exist"
    if spec.submodule_search_locations is not None:  # a package runs its __main__
        assert importlib.util.find_spec(f"{module}.__main__") is not None, (
            f"{doc} runs `python -m {module}`, a package without a __main__"
        )


@pytest.mark.parametrize("doc, name", _cited(_NAME))
def test_backticked_names_resolve(doc, name):
    try:
        pkgutil.resolve_name(name)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"{doc} cites `{name}`, which does not resolve: {exc}")
