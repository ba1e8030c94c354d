"""Two-process serving smoke check (CI bench-smoke job).

The ISSUE-5 acceptance scenario, end to end, with two real OS processes on
one run file:

* **Leader** (subprocess): takes the cross-process writer lease via
  `RunLifecycleManager`, streams a BioAID-like run in slices under an
  every-event checkpoint policy (building a multi-segment chain), signals,
  waits for the follower to attach, then compacts the chain — publishing a
  new file generation under the follower's feet — and holds the lease until
  the follower is done.
* **Follower** (this process): verifies the writer lease cannot be taken
  while the leader lives, attaches the segmented file through a
  `ProvenanceServer`, serves coalesced `depends`/`is_visible` 1-pair frames
  from several client threads, auto-reopens onto the compacted generation purely
  via header-generation probes (no manager in this process), and requires
  every answer — before, during, and after the remap — bit-identical to a
  single-process `QueryEngine` over the same derivation.

Run with:  PYTHONPATH=src python scripts/serve_smoke.py
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
from repro.serve import BatchPolicy, ProvenanceServer, ReopenPolicy  # noqa: E402
from repro.store import FileLease, run_file_info  # noqa: E402
from repro.workloads import build_bioaid_specification, random_run, random_view  # noqa: E402

RUN_SIZE = 800
RUN_SEED = 42
N_CLIENTS = 4
TIMEOUT = 120.0

LEADER_SCRIPT = textwrap.dedent(
    """
    import os, sys, time
    sys.path.insert(0, sys.argv[4])
    from repro.core import FVLScheme
    from repro.core.run_labeler import RunLabeler
    from repro.engine import QueryEngine
    from repro.service import CheckpointPolicy, RunLifecycleManager
    from repro.workloads import build_bioaid_specification, random_run

    run_file, signal_dir, size = sys.argv[1], sys.argv[2], int(sys.argv[3])

    def wait_for(name, timeout=120.0):
        deadline = time.monotonic() + timeout
        path = os.path.join(signal_dir, name)
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise SystemExit(f"leader timed out waiting for {name}")
            time.sleep(0.01)

    def signal(name):
        open(os.path.join(signal_dir, name), "w").close()

    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, size, seed=42)
    manager = RunLifecycleManager(
        QueryEngine(scheme),
        policy=CheckpointPolicy(every_events=1, every_seconds=None),
    )
    labeler = RunLabeler(scheme.index)
    manager.manage("stream", run_file, labeler=labeler)

    events = derivation.events
    step = max(1, len(events) // 6)
    for lo in range(0, len(events), step):
        for event in events[lo : lo + step]:
            labeler(event)
        manager.poll_once()
    signal("segments-ready")

    wait_for("follower-attached")
    result = manager.compact_run("stream")
    assert result.compacted, result
    signal("compacted")

    wait_for("follower-done")
    manager.unmanage("stream")  # releases the writer lease
    """
)


def wait_for(path: str, what: str) -> None:
    deadline = time.monotonic() + TIMEOUT
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise SystemExit(f"follower timed out waiting for {what}")
        time.sleep(0.01)


def main() -> int:
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, RUN_SIZE, seed=RUN_SEED)
    view = random_view(spec, 6, seed=7, mode="grey", name="serve-smoke-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 1000, seed=3)

    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view, variant=FVLVariant.DEFAULT)
    expected_visible = reference.is_visible_batch(items, view)

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        run_file = os.path.join(tmp, "served.fvl")
        signal_dir = os.path.join(tmp, "signals")
        os.makedirs(signal_dir)
        src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
        leader = subprocess.Popen(
            [sys.executable, "-c", LEADER_SCRIPT, run_file, signal_dir, str(RUN_SIZE), src_dir]
        )
        try:
            wait_for(os.path.join(signal_dir, "segments-ready"), "the leader's chain")

            # The leader is this file's writer: its lease must be untakeable.
            probe = FileLease(run_file)
            assert not probe.try_acquire(), "writer lease was takeable while the leader lives"
            info = run_file_info(run_file)
            assert info.generation == 0 and info.n_segments >= 4, info
            assert info.n_items == derivation.run.n_data_items, info

            engine = QueryEngine(scheme)
            server = ProvenanceServer(
                engine,
                policy=BatchPolicy(max_batch=512, max_linger_us=200),
                reopen=ReopenPolicy(after_queries=100, after_seconds=0.02),
                workers=2,
            )
            server.attach(run_file)
            mismatches: list = []
            errors: list = []
            stop = threading.Event()

            def client(index: int) -> None:
                try:
                    while not stop.is_set():
                        # 1-pair frames, so the linger has singletons to coalesce.
                        futures = [server.submit_batch("depends", [pair], view) for pair in pairs]
                        visible = [server.submit_batch("visible", [uid], view) for uid in items]
                        answers = np.concatenate([f.result(timeout=60) for f in futures])
                        visible_answers = np.concatenate([f.result(timeout=60) for f in visible])
                        if not (
                            np.array_equal(answers, expected)
                            and np.array_equal(visible_answers, expected_visible)
                        ):
                            mismatches.append(index)
                            return
                except Exception as exc:
                    errors.append(exc)

            with server:
                threads = [
                    threading.Thread(target=client, args=(index,))
                    for index in range(N_CLIENTS)
                ]
                for thread in threads:
                    thread.start()
                # One verified round against the segmented generation, then
                # let the leader swap in the compacted file mid-traffic.
                time.sleep(0.2)
                open(os.path.join(signal_dir, "follower-attached"), "w").close()
                wait_for(os.path.join(signal_dir, "compacted"), "the compaction")
                deadline = time.monotonic() + TIMEOUT
                while server.stats.reopens < 1 and not (mismatches or errors):
                    if time.monotonic() > deadline:
                        raise SystemExit("follower never remapped onto generation 1")
                    time.sleep(0.02)
                time.sleep(0.2)  # a few more verified rounds on generation 1
                stop.set()
                for thread in threads:
                    thread.join()
            open(os.path.join(signal_dir, "follower-done"), "w").close()

            assert not errors, errors[0]
            assert not mismatches, "answers diverged from the single-process reference"
            stats = server.stats
            assert engine.mapped_store().generation == 1
            assert stats.reopens == 1 and stats.probes > 0
            assert stats.coalesced > 0 and stats.engine_calls < stats.answered

            assert leader.wait(timeout=TIMEOUT) == 0, "leader exited non-zero"
            # The leader released the lease on unmanage: now it is takeable.
            assert probe.try_acquire(), "writer lease leaked after the leader exited"
            probe.release()
            print(
                f"serve smoke OK: leader held the writer lease through "
                f"{info.n_segments}-segment ingest and "
                f"compaction; follower served {stats.answered} answers over "
                f"{stats.engine_calls} coalesced engine calls "
                f"({stats.probes} probes, {stats.reopens} reopen) "
                f"bit-identical across the generation swap"
            )
        finally:
            if leader.poll() is None:
                leader.kill()
                leader.wait()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
