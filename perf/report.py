"""Turn a run's raw samples into metrics and tables.

``run.py`` calls :func:`evaluate` and :func:`show` on the samples it just took; run as a script,
this module regenerates the same tables from ``perf/out/*.samples.json``:

    python3 perf/report.py perf/out/wire_large_recursive.samples.json
"""

from __future__ import annotations

import json
import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perf.stats import (
    ladder_deltas,
    normalise_duration,
    normalise_rate,
    relative_difference,
    self_times,
    speed_factor,
    summary,
    top_percentile,
)

MIN_ROUNDS = 30
#: Host drift alone moves the in-run kernel +-0.15 against the idle one on the sandbox.
INFLATION_LIMIT = 0.25
NOISE_FLOOR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "noise_floor.json")

#: name -> unit, as BENCHMARK.json declares them (perf/tests checks the two agree).
END_TO_END = {
    "pairs_per_s": "pairs/s",
    "frame_p50_ms": "ms",
    "ingest_items_per_s": "items/s",
    "fresh_p50_ms": "ms",
    "view_add_ms": "ms",
    "setup_s": "s",
    "bytes_per_item": "bytes",
    "rss_peak_mb": "MiB",
}

#: The end-to-end metrics that are medians of normalised per-round samples.
TIMED = (
    "pairs_per_s", "frame_p50_ms", "ingest_items_per_s", "fresh_p50_ms", "view_add_ms", "setup_s",
)

QUERY_LADDER = ("engine.batch_us_per_pair", "serve.submit_us_per_pair", "net.wire_us_per_pair")
SPAN_NAMES = (
    "round", "serve_block", "frame", "ingest_pass", "label_slice", "checkpoint",
    "follow.attach", "follow.batch", "compact", "cold_start", "scheme", "add_views",
    "attach", "listen_connect", "warmup", "view_add", "label_view", "first_frame",
)
PER_LAYER = {
    "core.depends_pair_us": "us/pair",
    "engine.batch_us_per_pair": "us/pair",
    "serve.submit_us_per_pair": "us/pair",
    "net.wire_us_per_pair": "us/pair",
    "net.codec_us_per_pair": "us/pair",
    "net.bytes_per_pair": "bytes",
    "net.frame_tail_ms": "ms",
    "net.frame_tail_pct": "%",
    "net.sheds": "count",
    "net.retries": "count",
    "serve.pairs_per_engine_call": "pairs",
    "index.structural_share": "ratio",
    "engine.view_cache_hit_rate": "ratio",
    "index.build_ms": "ms",
    "engine.first_batch_ms": "ms",
    "serve.hotmx_save_ms": "ms",
    "serve.hotmx_load_ms": "ms",
    "serve.hotmx_entries": "count",
    "core.scheme_build_ms": "ms",
    "core.label_view_ms": "ms",
    "store.attach_ms": "ms",
    "store.verify_ms": "ms",
    "core.label_us_per_item": "us/item",
    "store.checkpoint_us_per_item": "us/item",
    "store.checkpoint_p50_ms": "ms",
    "service.poll_us_per_item": "us/item",
    "store.compact_ms": "ms",
    "store.read_amp": "ratio",
    "store.segments": "count",
    "store.gather_us_per_row": "us/row",
    "store.gather_seg_us_per_row": "us/row",
    "core.data_label_bits": "bits",
    "core.view_label_bytes": "bytes",
    "obs.trace_overhead_pct": "%",
    "obs.scrape_ms": "ms",
    "host.calib_ms": "ms",
    "host.calib_inflation": "ratio",
    "harness.rounds": "count",
    "harness.inputs_s": "s",
    "harness.span_overhead_pct": "%",
    **{f"span.{name}_ms": "ms" for name in SPAN_NAMES},
}


def _factors(record: dict, run: dict) -> tuple:
    """Speed factors of a round's three phases: serve, ingest, cold start.

    The ingest pass waits for the disk for ``ingest_io_share`` of its time on
    the reference host, so its factor weighs the disk kernel by that share.
    """
    c = record["calib_ms"]
    serve, ingest, cold = (speed_factor(c[i], c[i + 1], run["calib_ref_ms"]) for i in range(3))
    disk = speed_factor(*record["disk_ms"], run["disk_ref_ms"])
    share = run["ingest_io_share"]
    return serve, (1.0 - share) * ingest + share * disk, cold


def end_to_end_samples(run: dict, rounds=None) -> dict:
    """``name -> (normalised samples, raw samples)`` of the timing metrics."""
    out = {name: ([], []) for name in TIMED}

    def add(name, raw_values, k, rate=False):
        scale = normalise_rate if rate else normalise_duration
        out[name][0].extend(scale(value, k) for value in raw_values)
        out[name][1].extend(raw_values)

    for record in run["rounds"] if rounds is None else rounds:
        serve_k, ingest_k, cold_k = _factors(record, run)
        add("pairs_per_s", [run["block_pairs"] / record["serve_s"]], serve_k, rate=True)
        add("frame_p50_ms", [s * 1e3 for s in record["frame_s"]], serve_k)
        add("ingest_items_per_s", [run["n_items"] / record["ingest_s"]], ingest_k, rate=True)
        # One sample per round, the mean over its checkpoints: the file grows
        # slice by slice, so pooled reads would be one mode per slice.
        add("fresh_p50_ms", [sum(record["fresh_s"]) / len(record["fresh_s"]) * 1e3], ingest_k)
        add("view_add_ms", [s * 1e3 for s in record["view_add_s"]], cold_k)
        add("setup_s", [record["setup_s"]], cold_k)
    return out


def end_to_end(run: dict) -> dict:
    """``name -> {value, raw, q1, q3, n}``; timings at reference host speed."""
    metrics = {}
    for name, (normalised, raw) in end_to_end_samples(run).items():
        stats = summary(normalised)
        metrics[name] = {
            "value": stats["median"], "raw": summary(raw)["median"],
            "q1": stats["q1"], "q3": stats["q3"], "n": stats["n"],
        }
    per_item = run["rounds"][-1]["file_bytes"] / run["n_items"]
    metrics["bytes_per_item"] = {"value": per_item, "raw": per_item, "n": 1}
    resident = summary([record["resident_mb"] for record in run["rounds"]])
    metrics["rss_peak_mb"] = {
        "value": resident["median"], "raw": resident["median"],
        "q1": resident["q1"], "q3": resident["q3"], "n": resident["n"],
    }
    return metrics


def _counter_sum(run: dict, name: str) -> int:
    return sum(record["counters"][name] for record in run["rounds"])


def exact_counts(run: dict) -> dict:
    """Counts that repeat bit for bit under one seed (checked by ``--aa``)."""
    structural = _counter_sum(run, "structural_pairs")
    matrix = _counter_sum(run, "matrix_pairs")
    hits = _counter_sum(run, "view_hits")
    misses = _counter_sum(run, "view_misses")
    last = run["rounds"][-1]
    return {
        "bytes_per_item": last["file_bytes"] / run["n_items"],
        "index.structural_share": structural / max(1, structural + matrix),
        "engine.view_cache_hit_rate": hits / max(1, hits + misses),
        "store.read_amp": last["read_amp"],
        "store.segments": last["segments"],
        "net.bytes_per_pair": run["wire_bytes_per_pair"],
    }


def host(run: dict) -> dict:
    in_run = summary([ms for record in run["rounds"] for ms in record["calib_ms"][1:]])
    idle = summary(run["idle_calib_ms"])["median"]
    return {
        "host.calib_ms": in_run["median"],
        "host.calib_inflation": in_run["median"] / idle - 1.0,
        "host.calib_idle_ms": idle,
    }


def per_layer(run: dict, spans: list) -> dict:
    """Every per-layer metric of a traced run, ``name -> value``."""
    layers = run["layers"]
    values = {name: summary(samples)["median"] for name, samples in layers["samples"].items()}
    values.update(layers["exact"])
    values.update(exact_counts(run))
    values.pop("bytes_per_item")
    values["serve.hotmx_load_ms"] = values.pop("serve.attach_warm_ms") - values.pop(
        "serve.attach_cold_ms"
    )
    values["obs.trace_overhead_pct"] = (
        values.pop("obs.block_traced_ms") / values.pop("obs.block_untraced_ms") - 1.0
    ) * 100.0

    frames, label, poll, compact = [], [], [], []
    for record in run["rounds"]:
        serve_k, ingest_k, _ = _factors(record, run)
        frames.extend(s * 1e3 / serve_k for s in record["frame_s"])
        label.append(record["label_s"] / run["n_items"] * 1e6 / ingest_k)
        poll.append(record["poll_s"] / run["n_items"] * 1e6 / ingest_k)
        compact.append(record["compact_s"] * 1e3 / ingest_k)
    tail = top_percentile(frames) or (50.0, summary(frames)["median"])
    values["net.frame_tail_pct"], values["net.frame_tail_ms"] = tail
    values["core.label_us_per_item"] = summary(label)["median"]
    values["service.poll_us_per_item"] = summary(poll)["median"]
    values["store.compact_ms"] = summary(compact)["median"]

    blocks = len(run["rounds"])
    issued = blocks * run["block_frames"]
    values["net.sheds"] = _counter_sum(run, "sheds")
    values["net.retries"] = _counter_sum(run, "net_frames") - issued
    values["serve.pairs_per_engine_call"] = (
        blocks * run["block_pairs"] / max(1, _counter_sum(run, "engine_calls"))
    )

    host_values = host(run)
    values["host.calib_ms"] = host_values["host.calib_ms"]
    values["host.calib_inflation"] = host_values["host.calib_inflation"]
    values["harness.rounds"] = blocks
    values["harness.inputs_s"] = run["inputs_s"]
    rates = {
        traced: summary(
            end_to_end_samples(run, [r for r in run["rounds"] if r["traced"] is traced])[
                "pairs_per_s"
            ][0]
        )["median"]
        for traced in (False, True)
        if any(r["traced"] is traced for r in run["rounds"])
    }
    values["harness.span_overhead_pct"] = (
        (rates[False] / rates[True] - 1.0) * 100.0 if len(rates) == 2 else 0.0
    )
    traced_rounds = max(1, sum(1 for record in run["rounds"] if record["traced"]))
    own = self_times(spans)
    for name in SPAN_NAMES:
        values[f"span.{name}_ms"] = own.get(name, 0.0) * 1e3 / traced_rounds
    return {name: values[name] for name in PER_LAYER}


# -- tables ------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    magnitude = abs(value)
    if magnitude >= 1000:
        return f"{value:,.0f}"
    if magnitude >= 10:
        return f"{value:.2f}"
    return f"{value:.4f}"


def _table(title: str, columns: tuple, rows: list) -> None:
    print(f"\n{title}")
    cells = [columns] + [tuple(_fmt(c) if not isinstance(c, str) else c for c in row) for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(columns))]
    for row in cells:
        print("  " + "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def _recorded_exact(run: dict) -> dict:
    """Exact values ``--aa`` recorded for this workload, if the seed matches."""
    if run["scale"] != 1.0 or not os.path.exists(NOISE_FLOOR):
        return {}
    with open(NOISE_FLOOR) as handle:
        floor = json.load(handle)
    if floor.get("seed") != run["seed"]:
        return {}
    return floor.get("exact", {}).get(run["workload"], {})


def evaluate(run: dict, spans: list, min_rounds: int = MIN_ROUNDS) -> dict:
    """Everything a run reports: metrics, exact counts, problems, the final JSON line."""
    n_rounds = len(run["rounds"])
    host_values = host(run)
    problems = []
    if run["failed"]:
        problems.append(f"FAILED: {run['first_failure']}")
    valid = bool(run["trace"]) or n_rounds >= min_rounds  # a traced run reports no medians of rounds
    if not valid:
        problems.append(f"INVALID: {n_rounds} rounds completed, {min_rounds} required")
    if host_values["host.calib_inflation"] > INFLATION_LIMIT:
        problems.append(
            "SUSPECT: the reference kernel ran "
            f"{host_values['host.calib_inflation']:.0%} slower during the run than idle"
        )
    exact = exact_counts(run)
    for name, recorded in _recorded_exact(run).items():
        if name in exact and exact[name] != recorded:
            problems.append(f"EXACT: {name} = {exact[name]!r}, recorded {recorded!r}")
    metrics = end_to_end(run)
    layers = per_layer(run, spans) if run["trace"] else None
    chosen = layers if run["trace"] else {n: m["value"] for n, m in metrics.items()}
    units = PER_LAYER if run["trace"] else END_TO_END
    line = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in chosen.items()
        },
    }
    return {
        "line": line, "end_to_end": metrics, "exact": exact, "layers": layers,
        "host": host_values, "problems": problems, "valid": valid,
    }


def show(run: dict, result: dict) -> None:
    """Print a run's tables (everything above the final JSON line)."""
    host_values = result["host"]
    print(
        f"workload {run['workload']}  seed {run['seed']}  trace {run['trace']}  "
        f"rounds {len(run['rounds'])}  inputs {run['inputs_s']:.2f} s  "
        f"kernel {host_values['host.calib_ms']:.2f} ms in run, "
        f"{host_values['host.calib_idle_ms']:.2f} ms idle "
        f"(inflation {host_values['host.calib_inflation']:+.3f})"
    )
    print(
        f"operations {run['attempted']} attempted, {run['failed']} failed, "
        f"{run['checked_pairs']} pairs checked against the oracle"
    )
    _table(
        "end to end (timings at reference host speed; raw = as measured, never compared)",
        ("metric", "unit", "value", "raw", "q1", "q3", "n"),
        [
            (name, END_TO_END[name], m["value"], m["raw"], m.get("q1", m["value"]),
             m.get("q3", m["value"]), m["n"])
            for name, m in result["end_to_end"].items()
        ],
    )
    _table("exact counts", ("name", "value"), sorted(result["exact"].items()))
    layers = result["layers"]
    if layers is not None:
        _table(
            "query ladder (us/pair; delta over the rung below, deltas sum to the top rung)",
            ("rung", "value", "delta"),
            ladder_deltas([(name, layers[name]) for name in QUERY_LADDER]),
        )
        total = sum(layers[f"span.{name}_ms"] for name in SPAN_NAMES) or 1.0
        _table(
            "span self time per traced round",
            ("span", "ms", "share"),
            [
                (name, layers[f"span.{name}_ms"], f"{layers[f'span.{name}_ms'] / total:.1%}")
                for name in SPAN_NAMES
            ],
        )
        _table(
            "per layer",
            ("metric", "unit", "value"),
            [(name, unit, layers[name]) for name, unit in PER_LAYER.items()
             if not name.startswith("span.")],
        )
    for problem in result["problems"]:
        print(problem)
        print(problem, file=sys.stderr)


def history_record(run: dict, result: dict, commit: str) -> dict:
    """One line of the opt-in ``--history`` file."""
    return {
        "commit": commit,
        "workload": run["workload"],
        "seed": run["seed"],
        "seconds": run["seconds"],
        "trace": run["trace"],
        "rounds": len(run["rounds"]),
        "valid": result["valid"],
        "failed": run["failed"],
        "end_to_end": result["end_to_end"],
        "exact": result["exact"],
    }


def print_aa(bench: dict, passes: list) -> "tuple[int, dict]":
    """The A/A table; ``(bounds breached, {workload: {metric: relative difference}})``.

    ``passes`` are two ``{workload: evaluate() result}`` dicts of the same code
    on the same seed.  A difference is positive when the second pass is worse.
    """
    rows = []
    floor: dict = {}
    breaches = 0
    for workload in passes[0]:
        first, second = (p[workload] for p in passes)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = first["end_to_end"][name]["value"]
            b = second["end_to_end"][name]["value"]
            diff = relative_difference(a, b, metric["better"])
            floor.setdefault(workload, {})[name] = diff
            verdict = "ok" if abs(diff) <= metric["bound"] else "BREACH"
            breaches += verdict == "BREACH"
            rows.append((workload, name, a, b, f"{diff:+.2%}", f"{metric['bound']:.0%}", verdict))
        if first["exact"] != second["exact"]:
            breaches += 1
            rows.append((workload, "exact counts", 0, 0, "differ", "0%", "BREACH"))
    _table(
        "A/A: two passes of the same code, same seed",
        ("workload", "metric", "first", "second", "difference", "bound", ""),
        rows,
    )
    return breaches, floor


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:]) or sorted(
        os.path.join(os.path.dirname(NOISE_FLOOR), "out", name)
        for name in os.listdir(os.path.join(os.path.dirname(NOISE_FLOOR), "out"))
        if name.endswith(".samples.json")
    )
    for path in paths:
        with open(path) as handle:
            run = json.load(handle)
        spans = []
        trace_path = path.replace(".samples.json", ".trace.json")
        if run["trace"] and os.path.exists(trace_path):
            with open(trace_path) as handle:
                spans = json.load(handle)["spans"]
        show(run, evaluate(run, spans))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
