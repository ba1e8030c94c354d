"""Network serving extension: wire throughput vs client count.

Regenerates the network-tier experiment (see ``repro.bench.net``) and checks
its structural claims: every query crossed the socket inside a batch frame
(frames stay far below queries), the in-process arm — ``submit_batch``, the
call the wire tier itself makes, so ``wire_cost`` compares like with like —
reached the engine as whole frames (one future and at most one engine call
per frame, never a frame split across calls), and nothing was shed at steady
state under an amply-provisioned queue.  The qps numbers and the
in-process/wire ratio (acceptance target: within 3x of the in-process
coalesced throughput at 16 clients) are *recorded* — in the printed table
and in ``BENCH_serving.json`` via the bench-smoke CI step — but deliberately
not asserted: this body also runs under CI's ``--benchmark-disable`` smoke
pass, which must stay timing-independent.
"""

from repro.bench.net import net_throughput

from conftest import report

NET_RUN_SIZE = 1000
NET_QUERIES = 2000
NET_CLIENTS = (1, 4, 16)
NET_BATCH = 128


def test_net_throughput_regenerate(workload, benchmark):
    table = benchmark.pedantic(
        lambda: net_throughput(
            workload,
            run_size=NET_RUN_SIZE,
            n_queries=NET_QUERIES,
            client_counts=NET_CLIENTS,
            batch=NET_BATCH,
        ),
        rounds=1,
        iterations=1,
    )
    report(table)
    for clients, frames, sheds, mean_batch in zip(
        table.column("clients"),
        table.column("frames"),
        table.column("sheds"),
        table.column("mean_batch"),
    ):
        queries = frames * NET_BATCH  # upper bound: frames carry <= NET_BATCH
        assert frames < queries, "queries crossed the wire without batch framing"
        assert sheds == 0, (
            f"{sheds} shed(s) at {clients} clients under an amply-sized queue"
        )
        assert mean_batch >= NET_BATCH / 2, (
            f"~{mean_batch} queries per engine call at {clients} clients; "
            "submit_batch frames are being split or not reaching the "
            "scheduler as whole batches"
        )
