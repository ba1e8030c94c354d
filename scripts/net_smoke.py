"""Two-process network serving smoke check (CI bench-smoke job).

The ISSUE-6 acceptance scenario, end to end, with the server in a real
separate OS process:

* **Server** (subprocess): checkpoints a BioAID-like run, attaches it
  through a `ProvenanceServer`, and serves the binary frame protocol on a
  unix socket via `ProvenanceNetServer` until told to exit.  It also binds
  a second socket over a *wedged* scheduler (tiny bounded queue, workers
  never started) — the overload surface.
* **Client** (this process): speaks to both sockets with `ProvenanceClient`
  from several threads and requires

  - every `depends`/`is_visible` answer bit-identical to a single-process
    `QueryEngine` over the same derivation,
  - the stats/health endpoint to report scheduler *and* transport counters,
  - the wedged socket to answer SHED (explicit, with a retry-after hint) —
    never to hang the connection or the live socket next to it.

Run with:  PYTHONPATH=src python scripts/net_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import textwrap
import threading
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench import sample_query_pairs  # noqa: E402
from repro.core import FVLScheme, FVLVariant  # noqa: E402
from repro.engine import DEFAULT_RUN, QueryEngine  # noqa: E402
from repro.model.projection import ViewProjection  # noqa: E402
from repro.net import ProvenanceClient, ServerOverloadedError  # noqa: E402
from repro.workloads import build_bioaid_specification, random_run, random_view  # noqa: E402

RUN_SIZE = 800
RUN_SEED = 42
VIEW_SEED = 7
N_CLIENTS = 4
N_ROUNDS = 3
TIMEOUT = 120.0

SERVER_SCRIPT = textwrap.dedent(
    """
    import os, sys, time
    sys.path.insert(0, sys.argv[4])
    from repro.core import FVLScheme
    from repro.engine import DEFAULT_RUN, QueryEngine
    from repro.net import ProvenanceNetServer
    from repro.serve import BatchPolicy, ProvenanceServer
    from repro.workloads import build_bioaid_specification, random_run, random_view

    sock_dir, signal_dir, size = sys.argv[1], sys.argv[2], int(sys.argv[3])

    def wait_for(name, timeout=120.0):
        deadline = time.monotonic() + timeout
        path = os.path.join(signal_dir, name)
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise SystemExit(f"server timed out waiting for {name}")
            time.sleep(0.01)

    def signal(name):
        open(os.path.join(signal_dir, name), "w").close()

    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, size, seed=42)
    view = random_view(spec, 6, seed=7, mode="grey", name="net-smoke-view")

    run_file = os.path.join(sock_dir, "net-smoke.fvl")
    builder = QueryEngine(scheme)
    builder.add_run(DEFAULT_RUN, derivation)
    builder.checkpoint(run_file)

    engine = QueryEngine(scheme)
    server = ProvenanceServer(
        engine, policy=BatchPolicy(max_batch=512, max_linger_us=200), workers=2
    )
    server.attach(run_file)
    engine.add_view(view)

    # The overload surface: a bounded queue nothing ever drains.
    wedged = ProvenanceServer(
        QueryEngine(scheme), policy=BatchPolicy(max_batch=8, max_queue=8)
    )

    live_sock = os.path.join(sock_dir, "live.sock")
    wedged_sock = os.path.join(sock_dir, "wedged.sock")
    with server:
        with ProvenanceNetServer(server, unix_path=live_sock):
            with ProvenanceNetServer(wedged, unix_path=wedged_sock):
                signal("server-ready")
                wait_for("client-done")
    """
)


def wait_for(path: str, what: str) -> None:
    deadline = time.monotonic() + TIMEOUT
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise SystemExit(f"client timed out waiting for {what}")
        time.sleep(0.01)


def main() -> int:
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, RUN_SIZE, seed=RUN_SEED)
    view = random_view(spec, 6, seed=VIEW_SEED, mode="grey", name="net-smoke-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 1000, seed=3)

    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view, variant=FVLVariant.DEFAULT)
    expected_visible = reference.is_visible_batch(items, view)

    with tempfile.TemporaryDirectory(prefix="net-smoke-") as tmp:
        signal_dir = os.path.join(tmp, "signals")
        os.makedirs(signal_dir)
        src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
        server_proc = subprocess.Popen(
            [sys.executable, "-c", SERVER_SCRIPT, tmp, signal_dir, str(RUN_SIZE), src_dir]
        )
        try:
            wait_for(os.path.join(signal_dir, "server-ready"), "the server process")
            live_sock = os.path.join(tmp, "live.sock")
            wedged_sock = os.path.join(tmp, "wedged.sock")

            # -- bit-identical answers across processes, threaded clients ------
            mismatches: list = []
            errors: list = []

            def client(index: int) -> None:
                try:
                    with ProvenanceClient(unix_path=live_sock, retries=16) as cli:
                        for _ in range(N_ROUNDS):
                            answers = cli.depends_batch(pairs, view.name)
                            visible = cli.is_visible_batch(items, view.name)
                            if not (
                                np.array_equal(answers, expected)
                                and np.array_equal(visible, expected_visible)
                            ):
                                mismatches.append(index)
                                return
                            # Singleton helpers ride the same wire.
                            if cli.depends(*pairs[index], view.name) != expected[index]:
                                mismatches.append(index)
                                return
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors[0]
            assert not mismatches, "answers diverged from the single-process reference"

            # -- stats endpoint: scheduler + transport counters ----------------
            with ProvenanceClient(unix_path=live_sock) as cli:
                stats = cli.server_stats()
            assert stats["status"] == "ok", stats
            assert stats["runs"] == [DEFAULT_RUN], stats
            total = N_CLIENTS * N_ROUNDS * (len(pairs) + len(items))
            assert stats["server"]["answered"] >= total, stats
            assert stats["server"]["engine_calls"] >= 1, stats
            assert stats["net"]["frames"] >= N_CLIENTS * N_ROUNDS * 2, stats
            assert stats["net"]["connections"] >= N_CLIENTS, stats

            # -- overload: the wedged socket sheds, explicitly -----------------
            filler = ProvenanceClient(unix_path=wedged_sock, timeout=30.0)
            fill_done = threading.Event()

            def fill() -> None:
                try:
                    filler.depends_batch(pairs[:8], view.name)  # never answered
                except Exception:
                    pass
                finally:
                    fill_done.set()

            fill_thread = threading.Thread(target=fill, daemon=True)
            fill_thread.start()
            time.sleep(0.5)  # the fill frame is enqueued; the queue is full
            sheds = 0
            with ProvenanceClient(unix_path=wedged_sock) as cli:
                start = time.monotonic()
                try:
                    cli.depends_batch(pairs[:4], view.name)
                    raise SystemExit("the wedged server answered instead of shedding")
                except ServerOverloadedError as exc:
                    elapsed = time.monotonic() - start
                    assert exc.retry_after_s > 0, exc
                    assert exc.queue_depth == 8, exc
                    assert elapsed < 5.0, f"SHED took {elapsed:.1f}s - that is a hang"
                    sheds += 1
            # ...and the live socket next door is entirely unaffected.
            with ProvenanceClient(unix_path=live_sock) as cli:
                assert np.array_equal(cli.depends_batch(pairs[:50], view.name), expected[:50])
            filler.close()
            fill_done.wait(10.0)

            open(os.path.join(signal_dir, "client-done"), "w").close()
            assert server_proc.wait(timeout=TIMEOUT) == 0, "server exited non-zero"
            print(
                f"net smoke OK: {N_CLIENTS} client processes' worth of threads got "
                f"{stats['server']['answered']} answers over "
                f"{stats['server']['engine_calls']} coalesced engine calls and "
                f"{stats['net']['frames']} frames, bit-identical across the unix "
                f"socket; full queue answered SHED in-band ({sheds} shed, "
                f"retry-after hinted) without touching the live socket"
            )
        finally:
            if server_proc.poll() is None:
                server_proc.kill()
                server_proc.wait()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
