"""BENCHMARK.json and the runner must name the same workloads and metrics."""

import json
import os

from perf import inputs, report

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_runner():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["paths"] == ["perf"]
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == report.PER_LAYER
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
