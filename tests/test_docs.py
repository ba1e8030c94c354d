"""Docs that execute: every ``repro`` name the prose cites must resolve.

Collects, from the README, the verify skill and the CI workflow, every
``python -m repro.…`` command, every backticked dotted ``repro.…`` name and
every backticked ``Class.attr`` of a class that ``repro``, ``repro.serve`` or
``repro.net`` exports, and resolves it by import and ``getattr``
(:func:`pkgutil.resolve_name`: the longest importable prefix, then
attributes; a dataclass field counts as an attribute) — so deleting or
renaming a module or a method fails here until the prose that cites it is
re-trued.  README's metrics table is held to the metrics registry of a whole
stack (engine, server, net server, lifecycle manager, watchdog) both ways.
Every cited ``scripts/….py`` path must exist, and every smoke phase the prose
names (a backticked name before "phase", or an argument of a
``scripts/smoke.py`` command) must be a phase of that script, and every
``.hotmx`` format version the prose states must be the code's.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml")

#: Exported class name -> class, over the packages the prose cites methods of.
_PACKAGES = [importlib.import_module(name) for name in ("repro", "repro.serve", "repro.net")]
CLASSES = {
    name: getattr(package, name)
    for package in _PACKAGES
    for name in package.__all__
    if inspect.isclass(getattr(package, name))
}

_COMMAND = re.compile(r"python3? -m\s+(repro(?:\.\w+)+)")
_NAME = re.compile(r"`(repro(?:\.\w+)+)(?:\([^`]*\))?`")
_MEMBER = re.compile(
    r"`((?:%s)\.\w+)(?:\([^`]*\))?`" % "|".join(sorted(CLASSES, key=len, reverse=True))
)


def _cited(pattern: re.Pattern) -> list[tuple[str, str]]:
    cited = []
    for doc in DOCS:
        names = sorted(set(pattern.findall((ROOT / doc).read_text(encoding="utf-8"))))
        cited.extend((doc, name) for name in names)
    return cited


def test_the_patterns_still_find_the_prose():
    """Not vacuous: the README and the skill cite every kind (the workflow may cite none)."""
    for pattern in (_COMMAND, _NAME, _MEMBER):
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


@pytest.mark.parametrize("doc, member", _cited(_MEMBER))
def test_backticked_methods_resolve(doc, member):
    name, attr = member.split(".")
    cls = CLASSES[name]
    fields = {field.name for field in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    assert hasattr(cls, attr) or attr in fields, f"{doc} cites `{member}`, which does not resolve"


_SCRIPT = re.compile(r"\b(scripts/\w+\.py)\b")
#: Backticked names followed by "phase(s)", and the arguments of a `smoke.py` command.
_PHASE_PROSE = re.compile(r"((?:`[a-z][a-z-]*`(?:,? and |, | or )?)+) phases?\b")
_PHASE_COMMAND = re.compile(r"scripts/smoke\.py((?: [a-z][a-z-]*)+)")


def _smoke_phases() -> dict:
    spec = importlib.util.spec_from_file_location("smoke", ROOT / "scripts" / "smoke.py")
    smoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(smoke)
    return smoke.PHASES


def _cited_phases() -> list[tuple[str, str]]:
    cited = set()
    for doc in DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        for names in _PHASE_PROSE.findall(text):
            cited.update((doc, name) for name in re.findall(r"`([a-z][a-z-]*)`", names))
        for args in _PHASE_COMMAND.findall(text):
            cited.update((doc, name) for name in args.split())
    return sorted(cited)


def test_the_docs_cite_scripts_and_smoke_phases():
    """Not vacuous: every doc names a script, and the README and the skill name phases."""
    assert {doc for doc, _ in _cited(_SCRIPT)} == set(DOCS)
    assert {doc for doc, _ in _cited_phases()} >= set(DOCS[:2])


@pytest.mark.parametrize("doc, path", _cited(_SCRIPT))
def test_cited_script_paths_exist(doc, path):
    assert (ROOT / path).is_file(), f"{doc} cites `{path}`, which does not exist"


def test_cited_smoke_phases_exist():
    phases = _smoke_phases()
    missing = [(doc, name) for doc, name in _cited_phases() if name not in phases]
    assert not missing, f"the docs cite smoke phases scripts/smoke.py does not have: {missing}"


def _metrics_table() -> list[str]:
    """The family names (or ``*`` patterns) README's metrics table lists, in order."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == "| Family (labels) | What it counts |")
    names = []
    for line in lines[start + 2 :]:
        if not line.strip().startswith("|"):
            break
        first_cell = line.strip().split("|")[1]
        names += re.findall(r"`([a-z_*]+)(?:\{[^}`]*\})?`", first_cell)
    return names


def test_readme_metrics_table_is_the_registry(tmp_path):
    """Every family the table names is registered, and every registered one is named."""
    from repro import CheckpointPolicy, QueryEngine, RunLifecycleManager
    from repro.net import ProvenanceNetServer
    from repro.serve import ProvenanceServer
    from repro.workloads import build_running_example

    engine = QueryEngine(build_running_example())
    server = ProvenanceServer(engine)
    ProvenanceNetServer(server, unix_path=tmp_path / "net.sock")  # registers; never binds
    RunLifecycleManager(engine, policy=CheckpointPolicy())
    server.attach_watchdog(start=False)
    registered = set(engine.metrics.families())

    documented = _metrics_table()
    assert len(documented) > 30
    for pattern in documented:
        assert fnmatch.filter(registered, pattern), f"README's metrics table names `{pattern}`, never registered"
    for family in sorted(registered):
        assert any(fnmatch.fnmatchcase(family, p) for p in documented), (
            f"`{family}` is registered but missing from README's metrics table"
        )


def test_the_side_file_format_version_the_prose_states_is_the_code_s():
    """Every "format vN" a paragraph about ``.hotmx`` states is ``CACHE_VERSION``.

    In README, the verify skill and the module's own docstring (all of which
    is about the side file); each of them states one.
    """
    from repro.serve import matrix_cache

    texts = {doc: (ROOT / doc).read_text(encoding="utf-8") for doc in DOCS[:2]}
    stated = {
        doc: [
            int(version)
            for paragraph in re.split(r"\n\s*\n", text)
            if ".hotmx" in paragraph
            for version in re.findall(r"format v(\d+)", paragraph)
        ]
        for doc, text in texts.items()
    }
    stated["repro.serve.matrix_cache"] = [
        int(version) for version in re.findall(r"format v(\d+)", matrix_cache.__doc__)
    ]
    for doc, versions in stated.items():
        assert versions and set(versions) == {matrix_cache.CACHE_VERSION}, (doc, versions)
