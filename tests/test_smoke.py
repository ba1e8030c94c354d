"""The smoke driver's scaffold is tier-1: its in-process phases run here.

``scripts/smoke.py`` runs every end-to-end phase in CI.  This suite runs the
phases that need no child process (``persist``, ``lifecycle`` and the torn,
bit-flip and quarantine chaos phases) as one subprocess, so a break in the
shared scaffold — the reference world, ``check``, the phase registry — fails
tier-1, not only CI.  It also holds the smoke script's checks to surviving
``python -O``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
IN_PROCESS = ["persist", "lifecycle", "chaos-torn", "chaos-bitflip", "chaos-quarantine"]


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT / "scripts",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_the_in_process_phases_pass_with_one_ok_line_each():
    proc = _python("smoke.py", *IN_PROCESS)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert [line.split(" OK ")[0] for line in proc.stdout.splitlines()] == IN_PROCESS


def test_a_failing_check_exits_non_zero_under_python_dash_o():
    proc = _python("-O", "-c", "import smoke; smoke.check(1 + 1 == 3, 'planted')")
    assert proc.returncode == 1
    assert "smoke FAILED: planted" in proc.stderr


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_no_check_in_scripts_is_a_bare_assert(script):
    tree = ast.parse(script.read_text(encoding="utf-8"))
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not asserts, f"{script.name} asserts on lines {asserts}, which python -O strips"
