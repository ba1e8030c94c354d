"""The reference layer imports nothing from the serving stack, which serves views.

``repro.core`` is the paper's labels and decoding predicate; the engine, the
scheduler, the socket tier, the lifecycle service and telemetry are built on
top of it.  Every module under ``src/repro/core/`` is parsed (not imported),
and no import statement in it may name one of those packages, so engine
state cannot drift back into the reference layer.

The other way round, the serving code — engine, scheduler, socket tier and
telemetry — serves one label per view: the paper's three labelling
variants stay in ``repro.core`` and its figures, and no serving module
imports ``FVLVariant``.

And the library stands without its test suite: no module under ``src/``
imports ``tests``, so a reference implementation that lives there is
reached from tests only.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.core

CORE = Path(repro.core.__file__).resolve().parent
SRC = CORE.parent.parent
SERVING = [CORE.parent / package for package in ("engine", "serve", "net", "obs")]
#: The packages above the reference layer, each with its dot: a name is one of
#: them, or a module in one, iff the name plus a dot starts with it.
FORBIDDEN = ("repro.engine.", "repro.serve.", "repro.net.", "repro.service.", "repro.obs.")


def _imported(tree: ast.AST, package: str = "repro.core") -> list[str]:
    """Every module an import statement of ``tree`` names, relative ones
    resolved against ``package``, the package the parsed module is in."""
    parts = package.split(".")
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            anchor = ".".join(parts[: len(parts) + 1 - node.level]) if node.level else ""
            base = ".".join(part for part in (anchor, node.module) if part)
            names += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return names


@pytest.mark.parametrize("module", sorted(CORE.glob("*.py")), ids=lambda path: path.name)
def test_a_core_module_imports_no_serving_layer(module):
    imported = _imported(ast.parse(module.read_text(), filename=str(module)))
    assert [name for name in imported if f"{name}.".startswith(FORBIDDEN)] == []


@pytest.mark.parametrize(
    "module",
    sorted(path for package in SERVING for path in package.glob("*.py")),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_a_serving_module_imports_no_variant(module):
    imported = _imported(ast.parse(module.read_text(), filename=str(module)))
    assert [name for name in imported if name.rsplit(".", 1)[-1] == "FVLVariant"] == []


@pytest.mark.parametrize(
    "module", sorted(SRC.rglob("*.py")), ids=lambda path: str(path.relative_to(SRC))
)
def test_a_library_module_imports_no_test_code(module):
    package = ".".join(module.relative_to(SRC).parent.parts)
    imported = _imported(ast.parse(module.read_text(), filename=str(module)), package)
    assert [name for name in imported if f"{name}.".startswith("tests.")] == []


def test_the_check_resolves_what_it_reads():
    assert {"decoder.py", "view_label.py"} <= {path.name for path in CORE.glob("*.py")}
    assert all((package / "__init__.py").is_file() for package in SERVING)
    assert _imported(ast.parse("from ..core import FVLVariant"))[-1] == "repro.core.FVLVariant"
    assert _imported(ast.parse("from .. import engine")) == ["repro", "repro.engine"]
    assert len(list(SRC.rglob("*.py"))) > len(list(CORE.glob("*.py")))
    assert _imported(ast.parse("import tests.conftest")) == ["tests.conftest"]
    assert _imported(ast.parse("from tests import conftest")) == ["tests", "tests.conftest"]
    assert _imported(ast.parse("from ... import tests"), "repro.serve.sub")[-1] == "repro.tests"
    assert _imported(ast.parse("from .decoder import depends")) == [
        "repro.core.decoder",
        "repro.core.decoder.depends",
    ]
