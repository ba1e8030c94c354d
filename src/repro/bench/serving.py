"""Serving experiment: coalesced-batch throughput and persistent warm starts.

Not part of the paper's Section 6 — this extension experiment quantifies the
concurrent serving layer (``src/repro/serve``) on the BioAID-like workload:

* **throughput** — aggregate queries/second when ``n_clients`` concurrent
  client threads each issue single ``depends`` requests against one mapped
  run file, two ways:

  - *per-query loop*: every request is evaluated individually with the
    paper's single-pair decoding predicate (materialise the two
    :class:`DataLabel` rows, call ``scheme.depends``) — what a server
    without coalescing does per request, and exactly the per-query cliff
    Figure 26 measures;
  - *coalesced*: the same concurrently-arriving singletons submitted to a
    :class:`~repro.serve.ProvenanceServer`, whose micro-batching scheduler
    groups them into vectorised ``depends_batch`` calls.  Clients keep a
    small pipeline of in-flight futures (``window``), the realistic shape
    of a request stream under concurrency.

* **warm starts** — latency for a *fresh* process to answer its first batch
  over an attached run file, with and without the persistent hot-matrix
  cache (``serve/matrix_cache.py``): the cache skips the cold decode of the
  hottest ``(path, path)`` pair matrices.

* **tracing overhead** — wire throughput with clients stamping trace ids on
  every frame (server tracer at the default sample rate) versus the same
  clients sending byte-identical untraced frames; the observability layer's
  acceptance bar is overhead under 3%.

* **tail sampling** — the tail sampler's capture rate over the slowest 1%
  of requests (kept by the adaptive per-key threshold after the fact)
  against its wall-time overhead versus bare timing; acceptance bar is
  capture >= 99% at overhead < 3%.

``python -m repro.bench.serving --json BENCH_serving.json`` writes the
tables as JSON (the CI bench-smoke step uploads this artifact to extend the
performance trajectory).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time

from repro.bench.measure import ResultTable
from repro.bench.workloads import PreparedWorkload, prepare_bioaid, sample_query_pairs
from repro.core import FVLVariant
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.model.projection import ViewProjection
from repro.serve import BatchPolicy, ProvenanceServer, matrix_cache_path
from repro.workloads import random_view

__all__ = [
    "serving_throughput",
    "tail_sampling_capture",
    "tracing_overhead",
    "warm_start_latency",
    "write_serving_json",
]

DEFAULT_N_CLIENTS = 16
DEFAULT_N_QUERIES = 4000
DEFAULT_WINDOW = 256

_VARIANTS = (FVLVariant.SPACE_EFFICIENT, FVLVariant.DEFAULT, FVLVariant.QUERY_EFFICIENT)


def _run_clients(n_clients: int, client) -> float:
    """Start ``n_clients`` threads running ``client(index)``; return wall seconds."""
    threads = [
        threading.Thread(target=client, args=(index,)) for index in range(n_clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def _serving_setup(workload, run_size, n_queries, seed):
    workload = workload or prepare_bioaid()
    derivation = workload.run(run_size, 0)
    view = random_view(
        workload.specification, 8, seed=seed, mode="grey", name="serving-view"
    )
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, n_queries, seed=seed)
    return workload, derivation, view, pairs


def serving_throughput(
    workload: PreparedWorkload | None = None,
    run_size: int = 2000,
    n_queries: int = DEFAULT_N_QUERIES,
    n_clients: int = DEFAULT_N_CLIENTS,
    window: int = DEFAULT_WINDOW,
    seed: int = 17,
) -> ResultTable:
    """Aggregate q/s of concurrent singleton clients: per-query loop vs coalesced."""
    workload, derivation, view, pairs = _serving_setup(
        workload, run_size, n_queries, seed
    )
    scheme = workload.scheme
    table = ResultTable(
        f"Serving - coalesced vs per-query throughput ({n_clients} client threads)",
        [
            "variant",
            "per_query_qps",
            "coalesced_qps",
            "speedup",
            "engine_calls",
            "largest_batch",
            "mean_batch",
        ],
        notes=(
            f"BioAID-like run of ~{run_size} items served from a mapped file; "
            f"{n_clients} threads issue single depends() requests "
            f"(pipeline window {window}); per-query loop evaluates each "
            "request with the single-pair predicate on materialised labels, "
            "coalesced submits the same singletons to a ProvenanceServer; "
            "steady state (one untimed warmup round per arm)"
        ),
    )
    with tempfile.TemporaryDirectory(prefix="repro-serving-") as tmp:
        run_file = os.path.join(tmp, "serving.fvl")
        builder = QueryEngine(scheme)
        builder.add_run(DEFAULT_RUN, derivation)
        builder.checkpoint(run_file)

        for variant in _VARIANTS:
            # -- per-query loop: single-pair predicate per request ------------
            loop_engine = QueryEngine(scheme)
            store = loop_engine.attach(run_file)
            view_label = scheme.label_view(view, variant)
            # The single-pair arm times a slice: its per-query cost is flat
            # (no cross-call caches) and the space-efficient variant would
            # otherwise dominate the experiment's runtime.
            loop_pairs = pairs[: max(n_clients, len(pairs) // 4)]
            share = max(1, len(loop_pairs) // n_clients)

            def loop_client(index: int) -> None:
                for d1, d2 in loop_pairs[index * share : (index + 1) * share]:
                    scheme.depends(store.label(d1), store.label(d2), view_label)

            loop_seconds = _run_clients(n_clients, loop_client)
            loop_queries = share * n_clients
            per_query_qps = loop_queries / loop_seconds

            # -- coalesced: the same singletons through the server ------------
            serve_engine = QueryEngine(scheme)
            server = ProvenanceServer(
                serve_engine,
                policy=BatchPolicy(max_batch=32768, max_linger_us=200, max_queue=1 << 17),
                workers=2,
            )
            server.attach(run_file, warm=False)
            serve_share = max(1, len(pairs) // n_clients)

            def serve_client(index: int) -> None:
                mine = pairs[index * serve_share : (index + 1) * serve_share]
                for lo in range(0, len(mine), window):
                    futures = [
                        server.submit(d1, d2, view, variant=variant)
                        for d1, d2 in mine[lo : lo + window]
                    ]
                    for future in futures:
                        future.result()

            with server:
                _run_clients(n_clients, serve_client)  # warmup: fill decode caches
                calls_before = server.stats.engine_calls
                serve_seconds = _run_clients(n_clients, serve_client)
            stats = server.stats
            serve_queries = serve_share * n_clients
            coalesced_qps = serve_queries / serve_seconds
            timed_calls = stats.engine_calls - calls_before
            table.add_row(
                variant.value,
                round(per_query_qps, 1),
                round(coalesced_qps, 1),
                round(coalesced_qps / per_query_qps, 2),
                timed_calls,
                stats.largest_batch,
                round(serve_queries / timed_calls, 1) if timed_calls else 0.0,
            )
    return table


def warm_start_latency(
    workload: PreparedWorkload | None = None,
    run_size: int = 2000,
    n_queries: int = DEFAULT_N_QUERIES,
    seed: int = 18,
) -> ResultTable:
    """First-batch latency of a fresh process, cold vs matrix-cache warmed."""
    workload, derivation, view, pairs = _serving_setup(
        workload, run_size, n_queries, seed
    )
    scheme = workload.scheme
    table = ResultTable(
        "Serving - warm-start latency (persistent hot-matrix cache)",
        [
            "variant",
            "entries",
            "cache_KB",
            "cold_first_batch_ms",
            "warm_first_batch_ms",
            "speedup",
            "warm_attach_ms",
        ],
        notes=(
            f"fresh engine attaching a ~{run_size}-item run file and answering "
            f"its first {len(pairs)}-pair depends_batch; warm loads the "
            "persistent (arena, path, path) matrix cache a previous process "
            "saved beside the file (warm_attach_ms includes that load)"
        ),
    )
    with tempfile.TemporaryDirectory(prefix="repro-warmstart-") as tmp:
        run_file = os.path.join(tmp, "warm.fvl")
        builder = QueryEngine(scheme)
        builder.add_run(DEFAULT_RUN, derivation)
        builder.checkpoint(run_file)

        for variant in _VARIANTS:
            # A "previous process" serves the batch warm and persists its cache.
            leader = QueryEngine(scheme)
            leader.attach(run_file)
            leader.depends_batch(pairs, view, variant=variant)
            leader_server = ProvenanceServer(leader)
            entries = leader_server.save_matrix_cache()
            cache_bytes = os.path.getsize(matrix_cache_path(run_file))

            cold = QueryEngine(scheme)
            cold.add_view(view)
            start = time.perf_counter()
            cold.attach(run_file)
            cold.depends_batch(pairs, view, variant=variant)
            cold_seconds = time.perf_counter() - start

            warm = QueryEngine(scheme)
            warm.add_view(view)
            warm_server = ProvenanceServer(warm)
            start = time.perf_counter()
            _, warmed = warm_server.attach(run_file)
            attach_seconds = time.perf_counter() - start
            start = time.perf_counter()
            warm.depends_batch(pairs, view, variant=variant)
            warm_seconds = attach_seconds + (time.perf_counter() - start)
            assert warmed > 0, "warm start loaded no matrices"

            table.add_row(
                variant.value,
                entries,
                round(cache_bytes / 1024.0, 1),
                round(cold_seconds * 1e3, 2),
                round(warm_seconds * 1e3, 2),
                round(cold_seconds / warm_seconds, 2) if warm_seconds else float("inf"),
                round(attach_seconds * 1e3, 2),
            )
            os.unlink(matrix_cache_path(run_file))
    return table


def tracing_overhead(
    workload: PreparedWorkload | None = None,
    run_size: int = 2000,
    n_queries: int = DEFAULT_N_QUERIES,
    n_clients: int = 4,
    batch: int = 256,
    repeats: int = 3,
    seed: int = 29,
) -> ResultTable:
    """Price of request tracing at the default sample rate on the wire path.

    Two arms over one served run file: the *untraced* arm's clients send
    frames byte-identical to the pre-trace protocol (``trace_ids=False``);
    the *traced* arm's clients stamp a 64-bit trace id on every frame and
    the server's default tracer samples them at
    :data:`~repro.obs.trace.DEFAULT_SAMPLE_RATE`, opening the full
    net -> scheduler -> engine span chain for each sampled frame.  The
    observability layer's acceptance bar is overhead below 3%.
    """
    from repro.net import ProvenanceClient, ProvenanceNetServer
    from repro.obs.trace import DEFAULT_SAMPLE_RATE

    workload, derivation, view, pairs = _serving_setup(
        workload, run_size, n_queries, seed
    )
    scheme = workload.scheme
    table = ResultTable(
        "Serving - tracing overhead at the default sample rate",
        [
            "sample_rate",
            "untraced_qps",
            "traced_qps",
            "overhead_pct",
            "frames",
            "sampled_traces",
        ],
        notes=(
            f"BioAID-like run of ~{run_size} items served over a unix socket; "
            f"{n_clients} client threads stream {batch}-pair depends frames; "
            "untraced arm sends byte-identical legacy frames (trace_ids "
            "off), traced arm stamps a 64-bit trace id per frame and the "
            "server samples at the default rate; best of "
            f"{repeats} rounds per arm after one untimed warmup; the obs "
            "acceptance bar is overhead < 3%"
        ),
    )
    with tempfile.TemporaryDirectory(prefix="repro-tracing-") as tmp:
        run_file = os.path.join(tmp, "tracing.fvl")
        builder = QueryEngine(scheme)
        builder.add_run(DEFAULT_RUN, derivation)
        builder.checkpoint(run_file)

        share = max(batch, len(pairs) // n_clients)
        queries = sum(
            len(pairs[index * share : (index + 1) * share] or pairs[:share])
            for index in range(n_clients)
        )
        seconds = {}
        sampled = 0
        frames = 0
        for traced in (False, True):
            engine = QueryEngine(scheme)
            server = ProvenanceServer(
                engine,
                policy=BatchPolicy(max_batch=32768, max_linger_us=200, max_queue=1 << 17),
                workers=2,
            )
            server.attach(run_file, warm=False)
            engine.add_view(view)
            sock_path = os.path.join(tmp, f"tracing-{int(traced)}.sock")

            def client(index: int) -> None:
                mine = pairs[index * share : (index + 1) * share] or pairs[:share]
                with ProvenanceClient(
                    unix_path=sock_path, retries=64, trace_ids=traced
                ) as cli:
                    for lo in range(0, len(mine), batch):
                        cli.depends_batch(mine[lo : lo + batch], view.name)

            with server:
                with ProvenanceNetServer(server, unix_path=sock_path) as net:
                    _run_clients(n_clients, client)  # warmup: decode caches
                    best = None
                    for _ in range(repeats):
                        elapsed = _run_clients(n_clients, client)
                        best = elapsed if best is None else min(best, elapsed)
                    seconds[traced] = best
                    if traced:
                        frames = net.stats.frames
                        snap = engine.metrics.snapshot()
                        sampled = int(
                            sum(snap.get("trace_sampled_total", {}).values())
                        )

        untraced_qps = queries / seconds[False]
        traced_qps = queries / seconds[True]
        table.add_row(
            round(DEFAULT_SAMPLE_RATE, 6),
            round(untraced_qps, 1),
            round(traced_qps, 1),
            round((seconds[True] - seconds[False]) / seconds[False] * 100.0, 2),
            frames,
            sampled,
        )
    return table


def tail_sampling_capture(
    workload: PreparedWorkload | None = None,
    run_size: int = 2000,
    n_requests: int = 4000,
    n_clients: int = 4,
    batch: int = 16,
    repeats: int = 2,
    seed: int = 31,
) -> ResultTable:
    """Tail sampler quality and cost: slowest-1% capture rate and overhead.

    ``n_clients`` threads stream small ``depends`` batches through one
    :class:`ProvenanceServer`, each request wrapped in the tail sampler's
    ``open``/``finish`` edge calls with ``finish()``'s measured wall time as
    the ground truth.  *Capture* is the fraction of the timed rounds'
    slowest-1% request ids found in the sampler's kept ring (the ring is
    sized to hold every kept record, so the number measures the keep
    *decision*, not eviction policy).  *Overhead* is accounted in-path: the
    ``open`` and ``finish`` calls themselves are timed and their total is
    reported as a percentage of the total request wall time — an A/B of
    separately built servers is noisier than the microseconds being
    measured, while in-path accounting prices the real calls on the real
    path.  The acceptance bar is capture >= 99% at overhead < 3%.
    """
    from repro.obs.tail import TailSampler

    workload, derivation, view, pairs = _serving_setup(
        workload, run_size, max(DEFAULT_N_QUERIES, batch * 64), seed
    )
    scheme = workload.scheme
    table = ResultTable(
        "Serving - tail sampling: slowest-1% capture and overhead",
        [
            "requests",
            "slow_1pct",
            "captured",
            "capture_pct",
            "overhead_pct",
            "kept_total",
            "threshold_us",
        ],
        notes=(
            f"BioAID-like run of ~{run_size} items; {n_clients} client "
            f"threads issue {n_requests} {batch}-pair depends frames per "
            "round through the scheduler, each wrapped in the tail "
            "sampler's open/finish; capture = |slowest-1% ids kept| / "
            f"|slowest 1%| over {repeats} timed rounds after one untimed "
            "warmup round (which also warms the adaptive threshold); "
            "overhead = in-path time spent inside open+finish as a share "
            "of total request wall; acceptance bar: capture >= 99% at "
            "overhead < 3%"
        ),
    )
    with tempfile.TemporaryDirectory(prefix="repro-tail-") as tmp:
        run_file = os.path.join(tmp, "tail.fvl")
        builder = QueryEngine(scheme)
        builder.add_run(DEFAULT_RUN, derivation)
        builder.checkpoint(run_file)
        span = max(1, len(pairs) - batch)
        windows = [
            pairs[(i * batch) % span : (i * batch) % span + batch]
            for i in range(n_requests)
        ]
        engine = QueryEngine(scheme)
        server = ProvenanceServer(
            engine,
            policy=BatchPolicy(max_batch=32768, max_linger_us=50, max_queue=1 << 17),
            workers=2,
        )
        server.attach(run_file, warm=False)
        engine.add_view(view)
        tail = TailSampler(
            engine.metrics,
            ring_max_entries=(repeats + 1) * n_requests + 1,
            ring_max_bytes=1 << 28,
        )
        timed: list[tuple[int, float]] = []  # (trace_id, wall) across timed rounds
        sampler_seconds = [0.0]
        merge_lock = threading.Lock()

        def client(index: int, record: "list | None" = None) -> None:
            cost = 0.0
            local: list[tuple[int, float]] = []
            for i in range(index, n_requests, n_clients):
                window = windows[i]
                t0 = time.perf_counter()
                pending = tail.open(None, "depends", view.name)
                t1 = time.perf_counter()
                futures = server.submit_many("depends", window, view)
                for future in futures:
                    future.result()
                t2 = time.perf_counter()
                wall = tail.finish(pending)
                t3 = time.perf_counter()
                cost += (t1 - t0) + (t3 - t2)
                local.append((pending.trace_id, wall))
            if record is not None:
                with merge_lock:
                    record.extend(local)
                    sampler_seconds[0] += cost

        with server:
            _run_clients(n_clients, client)  # warmup (and threshold learning)
            for _ in range(repeats):
                _run_clients(n_clients, lambda index: client(index, timed))

        timed.sort(key=lambda item: -item[1])
        n_slow = max(1, len(timed) // 100)
        slowest = timed[:n_slow]
        kept_ids = tail.kept_ids()
        captured = sum(1 for tid, _ in slowest if tid in kept_ids)
        total_wall = sum(wall for _, wall in timed)
        overhead_pct = sampler_seconds[0] / total_wall * 100.0 if total_wall else 0.0
        table.add_row(
            len(timed),
            n_slow,
            captured,
            round(captured / n_slow * 100.0, 2),
            round(overhead_pct, 2),
            len(kept_ids),
            round(tail.threshold("depends", view.name) * 1e6, 1),
        )
    return table


def write_serving_json(tables: "list[ResultTable]", path: str) -> None:
    """Write the serving experiment tables (plus metadata) as a JSON artifact."""
    payload = {
        "experiment": "serving",
        "tables": [
            {"title": table.title, "notes": table.notes, "rows": table.as_dicts()}
            for table in tables
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def main(argv: "list[str] | None" = None) -> int:
    import argparse

    from repro.bench.reporting import format_table

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--run-size", type=int, default=2000)
    parser.add_argument("--queries", type=int, default=DEFAULT_N_QUERIES)
    parser.add_argument("--clients", type=int, default=DEFAULT_N_CLIENTS)
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    parser.add_argument("--json", metavar="PATH", help="write the tables as JSON")
    args = parser.parse_args(argv)

    workload = prepare_bioaid()
    throughput = serving_throughput(
        workload,
        run_size=args.run_size,
        n_queries=args.queries,
        n_clients=args.clients,
        window=args.window,
    )
    warm = warm_start_latency(workload, run_size=args.run_size, n_queries=args.queries)
    tracing = tracing_overhead(
        workload, run_size=args.run_size, n_queries=args.queries
    )
    tail = tail_sampling_capture(workload, run_size=args.run_size)
    tables = [throughput, warm, tracing, tail]
    for index, table in enumerate(tables):
        if index:
            print()
        print(format_table(table))
    if args.json:
        write_serving_json(tables, args.json)
        print(f"JSON written: {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
