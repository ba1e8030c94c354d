"""Every workload end to end on a tenth-size run: all metrics present, nothing fails."""

import json
import os
import subprocess
import sys

import pytest

from perf import inputs, report

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run(workload: str, trace: int, seconds: str) -> dict:
    out = subprocess.run(
        [
            sys.executable, os.path.join(ROOT, "perf", "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", seconds, "--trace", str(trace),
            "--min-rounds", "1", "--scale", "0.1",
        ],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    return json.loads(out.stdout.splitlines()[-1])


TRACED = "wire_small_structural"


@pytest.mark.parametrize("workload", [name for name in inputs.WORKLOADS if name != TRACED])
def test_untraced_smoke(workload):
    line = _run(workload, 0, "1")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {n: m["unit"] for n, m in line["metrics"].items()} == report.END_TO_END
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_smoke():
    line = _run(TRACED, 1, "1")
    assert line["correct"] is True and line["failed"] == 0
    assert {n: m["unit"] for n, m in line["metrics"].items()} == report.PER_LAYER
    assert line["metrics"]["index.structural_share"]["value"] > 0.5
    out = os.path.join(ROOT, "perf", "out")
    assert os.path.exists(os.path.join(out, f"{TRACED}.trace.json"))
    # the samples file regenerates the end-to-end table of the traced rounds too
    with open(os.path.join(out, f"{TRACED}.samples.json")) as handle:
        result = report.evaluate(json.load(handle), [], min_rounds=1)
    assert set(result["end_to_end"]) == set(report.END_TO_END)
    assert all(m["value"] > 0 for m in result["end_to_end"].values())
