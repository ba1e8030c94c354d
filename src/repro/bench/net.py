"""Network serving experiment: wire throughput vs client count.

Extension experiment for the network tier (``src/repro/net``): aggregate
queries/second when ``n`` external clients speak the binary frame protocol
to one :class:`~repro.net.ProvenanceNetServer` over a unix socket, swept
across client counts.  Each client sends fixed-size ``depends`` batch
frames (one frame = one coalesced engine call on the server) through its
own pooled connection.

Every row also measures the *in-process* equivalent — the same threads
submitting the same batches straight into the scheduler with
``submit_batch``, the call the wire tier itself makes (one request, one
future, one bool array per frame) — so ``wire_cost`` compares like with
like and shows exactly what the socket hop, framing, and bit-packing cost
on top of the coalescing core (the acceptance bar for the transport is
staying within 3x at 16 clients).

``python -m repro.bench.net --json BENCH_serving.json`` *appends* its table
to the serving artifact (replacing a previous run's same-titled table), so
the serving JSON carries the full serving story: in-process coalescing,
warm starts, and the wire.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

import numpy as np

from repro.bench.measure import ResultTable
from repro.bench.serving import _run_clients, _serving_setup, write_serving_json
from repro.bench.workloads import PreparedWorkload
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.net import ProvenanceClient, ProvenanceNetServer
from repro.serve import BatchPolicy, ProvenanceServer

__all__ = ["net_throughput", "append_serving_table", "NET_TABLE_TITLE"]

DEFAULT_CLIENT_COUNTS = (1, 2, 4, 8, 16)
DEFAULT_N_QUERIES = 4000
DEFAULT_BATCH = 256

NET_TABLE_TITLE = "Serving - network transport throughput (unix socket, qps vs clients)"


def net_throughput(
    workload: PreparedWorkload | None = None,
    run_size: int = 2000,
    n_queries: int = DEFAULT_N_QUERIES,
    client_counts=DEFAULT_CLIENT_COUNTS,
    batch: int = DEFAULT_BATCH,
    seed: int = 19,
) -> ResultTable:
    """Wire qps per client count, next to the in-process submit_batch ceiling."""
    workload, derivation, view, pairs = _serving_setup(
        workload, run_size, n_queries, seed
    )
    scheme = workload.scheme
    table = ResultTable(
        NET_TABLE_TITLE,
        [
            "clients",
            "net_qps",
            "inproc_qps",
            "wire_cost",
            "frames",
            "sheds",
            "mean_batch",
        ],
        notes=(
            f"BioAID-like run of ~{run_size} items served from a mapped file "
            f"over a unix socket; each client thread owns a pooled connection "
            f"and streams {batch}-pair depends frames (one frame = one "
            "coalesced engine call); inproc_qps drives the same batches as "
            "int64 arrays through submit_batch (one future per frame, the "
            "call the wire tier makes) without the socket, wire_cost = "
            "inproc/net (steady state, one untimed warmup round per arm)"
        ),
    )
    with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
        run_file = os.path.join(tmp, "net.fvl")
        builder = QueryEngine(scheme)
        builder.add_run(DEFAULT_RUN, derivation)
        builder.checkpoint(run_file)

        for n_clients in client_counts:
            engine = QueryEngine(scheme)
            server = ProvenanceServer(
                engine,
                policy=BatchPolicy(
                    max_batch=32768, max_linger_us=200, max_queue=1 << 17
                ),
                workers=2,
            )
            server.attach(run_file, warm=False)
            engine.add_view(view)
            share = max(batch, len(pairs) // n_clients)
            sock_path = os.path.join(tmp, f"net-{n_clients}.sock")

            def net_client(index: int) -> None:
                mine = pairs[index * share : (index + 1) * share] or pairs[:share]
                with ProvenanceClient(unix_path=sock_path, retries=64) as client:
                    for lo in range(0, len(mine), batch):
                        client.depends_batch(mine[lo : lo + batch], view.name)

            def inproc_client(index: int) -> None:
                mine = np.asarray(
                    pairs[index * share : (index + 1) * share] or pairs[:share],
                    dtype=np.int64,
                )
                for lo in range(0, len(mine), batch):
                    server.submit_batch(
                        "depends", mine[lo : lo + batch], view
                    ).result()

            with server:
                with ProvenanceNetServer(server, unix_path=sock_path) as net:
                    _run_clients(n_clients, net_client)  # warmup: decode caches
                    frames_before = net.stats.frames
                    net_seconds = _run_clients(n_clients, net_client)
                    net_stats = net.stats
                calls_before = server.stats.engine_calls
                inproc_seconds = _run_clients(n_clients, inproc_client)
                timed_calls = server.stats.engine_calls - calls_before

            queries = sum(
                len(pairs[index * share : (index + 1) * share] or pairs[:share])
                for index in range(n_clients)
            )
            net_qps = queries / net_seconds
            inproc_qps = queries / inproc_seconds
            timed_frames = net_stats.frames - frames_before
            table.add_row(
                n_clients,
                round(net_qps, 1),
                round(inproc_qps, 1),
                round(inproc_qps / net_qps, 2),
                timed_frames,
                net_stats.sheds,
                round(queries / timed_calls, 1) if timed_calls else 0.0,
            )
    return table


def append_serving_table(table: ResultTable, path: str) -> None:
    """Append ``table`` to the serving JSON artifact, replacing its namesake.

    A missing or unreadable artifact starts fresh — the net bench must stay
    runnable standalone, before (or without) the serving bench.
    """
    tables = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        tables = [t for t in payload.get("tables", []) if t.get("title") != table.title]
    except (OSError, ValueError):
        pass

    class _Frozen:
        def __init__(self, data):
            self.title = data["title"]
            self.notes = data.get("notes")
            self._rows = data["rows"]

        def as_dicts(self):
            return self._rows

    write_serving_json([_Frozen(t) for t in tables] + [table], path)


def main(argv: "list[str] | None" = None) -> int:
    import argparse

    from repro.bench.reporting import format_table
    from repro.bench.workloads import prepare_bioaid

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--run-size", type=int, default=2000)
    parser.add_argument("--queries", type=int, default=DEFAULT_N_QUERIES)
    parser.add_argument("--batch", type=int, default=DEFAULT_BATCH)
    parser.add_argument(
        "--clients",
        type=int,
        nargs="+",
        default=list(DEFAULT_CLIENT_COUNTS),
        help="client counts to sweep",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="append the table to this serving JSON artifact",
    )
    args = parser.parse_args(argv)

    workload = prepare_bioaid()
    table = net_throughput(
        workload,
        run_size=args.run_size,
        n_queries=args.queries,
        client_counts=tuple(args.clients),
        batch=args.batch,
    )
    print(format_table(table))
    if args.json:
        append_serving_table(table, args.json)
        print(f"JSON appended: {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
