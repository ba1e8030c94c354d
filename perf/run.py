"""Run one workload of the benchmark, or its A/A check.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py --aa [--seconds S]

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; everything above it is the
human-readable table.  ``perf/README.md`` says what each number means.
"""

from __future__ import annotations

import os
import sys

import argparse
import gc
import json
import shutil
import subprocess
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perf import report  # noqa: E402
from perf.calib import CALIB_REF_MS, IO_REF_MS, kernel_ms  # noqa: E402

PERF = os.path.join(ROOT, "perf")
OUT = os.path.join(PERF, "out")
IDLE_KERNELS = 10
#: Longest unix socket path the kernel accepts, with room for a file name.
_SOCKET_ROOM = 90


def _workdir() -> str:
    """A per-run scratch directory inside the checkout, short enough for a socket."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    relative = os.path.relpath(workdir)
    shortest = relative if len(relative) < len(workdir) else workdir
    if len(shortest) > _SOCKET_ROOM:
        os.rmdir(workdir)
        raise SystemExit(f"checkout path too long for a unix socket: {workdir}")
    return shortest


def measure(args) -> "tuple[dict, list]":
    """One run: inputs, idle calibration, rounds (and ladders), teardown; samples and spans."""
    from perf import inputs as inputs_module
    from perf import ladder, rounds

    workload = inputs_module.WORKLOADS[args.workload]
    idle = [kernel_ms() for _ in range(IDLE_KERNELS)]  # before any program object exists
    started = time.perf_counter()
    inputs = inputs_module.generate(workload, args.seed, args.scale)
    inputs_s = time.perf_counter() - started

    workdir = _workdir()
    spans = rounds.Spans()
    tally = rounds.Tally()
    layers = None
    try:
        gc.collect()
        baseline_mb = rounds.resident_mb()  # interpreter and inputs, before any program object
        stack = rounds.serving_stack(inputs, workdir, tally)
        try:
            round_seconds = args.seconds * (ladder.ROUNDS_SHARE if args.trace else 1.0)
            records = rounds.run_rounds(
                inputs, stack, workdir, round_seconds, baseline_mb, spans, tally,
                trace_alternate=bool(args.trace),
            )
            if args.trace:
                layers = ladder.measure(
                    inputs, stack, workdir, args.seconds - round_seconds, tally
                )
        finally:
            stack.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    idle += [kernel_ms() for _ in range(IDLE_KERNELS)]  # after teardown

    run = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "calib_ref_ms": CALIB_REF_MS,
        "disk_ref_ms": IO_REF_MS,
        "ingest_io_share": inputs.workload.ingest_io_share,
        "idle_calib_ms": idle,
        "inputs_s": inputs_s,
        "n_items": inputs.n_items,
        "block_pairs": inputs.block_pairs,
        "block_frames": len(inputs.block),
        "wire_bytes_per_pair": ladder.wire_bytes_per_pair(inputs),
        "rounds": records,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "checked_pairs": tally.checked_pairs,
        "first_failure": tally.first_failure,
        "layers": layers,
    }
    return run, spans.rows


def run_once(args) -> int:
    run, spans = measure(args)
    with open(os.path.join(OUT, f"{run['workload']}.samples.json"), "w") as handle:
        json.dump(run, handle)
    if args.trace:
        with open(os.path.join(OUT, f"{run['workload']}.trace.json"), "w") as handle:
            json.dump({"columns": ["id", "parent", "name", "start", "end"], "spans": spans}, handle)
    result = report.evaluate(run, spans, min_rounds=args.min_rounds)
    report.show(run, result)
    if args.history:
        with open(args.history, "a") as handle:
            handle.write(json.dumps(report.history_record(run, result, _commit())) + "\n")
    print(json.dumps(result["line"]))
    return 0 if result["line"]["correct"] else 1


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_aa(args) -> int:
    """Two untraced passes of every workload on one seed; breach of a bound fails."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    passes = []
    for _ in range(2):
        results = {}
        for workload in bench["workloads"]:
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", workload["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            out = subprocess.run(command, capture_output=True, text=True, timeout=600)
            if out.returncode != 0:
                sys.stderr.write(out.stdout + out.stderr)
                return out.returncode
            with open(os.path.join(OUT, f"{workload['name']}.samples.json")) as handle:
                results[workload["name"]] = report.evaluate(json.load(handle), [])
        passes.append(results)
    breaches, floor = report.print_aa(bench, passes)
    recorded = {
        "seed": args.seed,
        "seconds": args.seconds,
        "relative_difference": floor,
        "exact": {name: result["exact"] for name, result in passes[0].items()},
    }
    with open(report.NOISE_FLOOR, "w") as handle:
        json.dump(recorded, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 1 if breaches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true", help="A/A check of all workloads")
    parser.add_argument("--min-rounds", type=int, default=report.MIN_ROUNDS)
    parser.add_argument("--scale", type=float, default=1.0, help="run size factor (smoke tests)")
    parser.add_argument("--history", metavar="FILE", help="append one JSON record per run")
    args = parser.parse_args(argv)
    if args.aa:
        return run_aa(args)
    if args.workload is None:
        parser.error("--workload or --aa is required")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perf/run.py drives the program under {ROOT}/src, which is missing", file=sys.stderr)
        return 2
    from perf.inputs import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    return run_once(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes order the program's sets; pin them so the exact counts
        # (bytes, shares, segments) repeat bit for bit.  exec replaces this
        # process, it does not start a second one.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    raise SystemExit(main())
