"""End-to-end chaos smoke: injected faults must fail loudly, never corrupt.

Drives the PR-7 robustness surfaces against a deterministic fault plan
(fixed seed, fixed trigger counts), in five phases:

1. **Torn checkpoints** (in-process): armed ``persist.write``/``persist.fsync``
   faults make a checkpoint fail loudly; the retry after disarming commits a
   file that scrubs clean (``verify_run(deep=True)``) and serves the full
   store.
2. **Bit-flip detection** (in-process): for every section of the file, one
   flipped payload byte raises a typed ``CorruptionError`` at ``attach`` and
   from the first batch of a default (lazily verified) engine attach;
   restoring the byte restores bit-identical answers.  The side file too: a
   flipped byte in the body of ``.hotmx`` fails its checksum, the server
   attaches cold, counts ``corruption_detected_total{layer="hotmx"}`` and
   answers bit-identically; the restored file warms again.
3. **Lifecycle quarantine** (in-process): a run whose flushes keep failing is
   quarantined after K consecutive failures and surfaced in stats while a
   healthy sibling keeps flushing; ``unquarantine`` + a healed path recover.
4. **Leader/follower under fire** (two processes): the leader ingests,
   checkpoints (first attempt torn by an injected fsync fault) and compacts
   (first swap killed by an injected ``compact.swap`` fault) while a
   follower process serves the run over a unix socket with auto-reopen; a
   hardened client's answers stay bit-identical to a local reference mapping
   throughout — across the append, the failed swap, the successful swap and
   the follower's remap.
5. **Client fault containment**: an injected client-side ``net.recv`` fault
   kills one RPC loudly; the poisoned pooled connection is discarded and the
   very next call answers bit-identically.

Run with:  PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import textwrap
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench import sample_query_pairs  # noqa: E402
from repro.core import FVLScheme  # noqa: E402
from repro.core.run_labeler import RunLabeler  # noqa: E402
from repro.engine import DEFAULT_RUN, QueryEngine  # noqa: E402
from repro.errors import CorruptionError  # noqa: E402
from repro.faults import FaultPlan, InjectedFault  # noqa: E402
from repro.model.projection import ViewProjection  # noqa: E402
from repro.net import ProvenanceClient  # noqa: E402
from repro.serve import ProvenanceServer, matrix_cache_path, save_hot_matrices  # noqa: E402
from repro.service import CheckpointPolicy, RunLifecycleManager  # noqa: E402
from repro.store import (  # noqa: E402
    MappedRunStore,
    checkpoint_run,
    compact,
    run_file_info,
    verify_run,
)
from repro.workloads import build_bioaid_specification, random_run, random_view  # noqa: E402

CHAOS_SEED = 20260808  # the fixed fault-plan seed (CI pins determinism on it)
RUN_SIZE = 600
TIMEOUT = 120.0

SERVER_SCRIPT = textwrap.dedent(
    """
    import os, sys, time
    sys.path.insert(0, sys.argv[3])
    from repro.core import FVLScheme
    from repro.engine import QueryEngine
    from repro.net import ProvenanceNetServer
    from repro.serve import ProvenanceServer, ReopenPolicy
    from repro.workloads import build_bioaid_specification, random_view

    work_dir, signal_dir = sys.argv[1], sys.argv[2]

    def wait_for(name, timeout=120.0):
        deadline = time.monotonic() + timeout
        path = os.path.join(signal_dir, name)
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise SystemExit(f"follower timed out waiting for {name}")
            time.sleep(0.01)

    def signal(name):
        open(os.path.join(signal_dir, name), "w").close()

    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    view = random_view(spec, 6, seed=9, mode="grey", name="chaos-view")

    engine = QueryEngine(scheme)
    server = ProvenanceServer(
        engine, reopen=ReopenPolicy(after_queries=1, after_seconds=0.01), workers=2
    )
    wait_for("leader-checkpointed")
    server.attach(os.path.join(work_dir, "chaos.fvl"))
    engine.add_view(view)
    with server:
        with ProvenanceNetServer(server, unix_path=os.path.join(work_dir, "chaos.sock")):
            signal("follower-ready")
            wait_for("client-done")
    """
)


def wait_for(path: str, what: str) -> None:
    deadline = time.monotonic() + TIMEOUT
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise SystemExit(f"chaos smoke timed out waiting for {what}")
        time.sleep(0.01)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"chaos smoke FAILED: {message}")


def phase_torn_checkpoints(scheme, spec, tmp: str) -> None:
    labeler = scheme.label_run(random_run(spec, 300, seed=1))
    path = os.path.join(tmp, "torn.fvl")

    plan = FaultPlan(seed=CHAOS_SEED).on("persist.write", count=1)
    with plan.armed():
        try:
            checkpoint_run(path, labeler.store, labeler.tree.nodes)
            raise SystemExit("chaos smoke FAILED: torn write was not surfaced")
        except InjectedFault:
            pass
    expect(plan.fired("persist.write") == 1, "persist.write fault never fired")

    plan = FaultPlan(seed=CHAOS_SEED).on("persist.fsync", count=1)
    with plan.armed():
        try:
            checkpoint_run(path, labeler.store, labeler.tree.nodes)
            raise SystemExit("chaos smoke FAILED: torn fsync was not surfaced")
        except InjectedFault:
            pass

    # The retry lands on the untouched watermarks and commits cleanly.
    result = checkpoint_run(path, labeler.store, labeler.tree.nodes)
    expect(result.wrote_segment, "post-fault checkpoint wrote nothing")
    report = verify_run(path, deep=True)
    expect(report.extents_checked > 0, "scrub covered no checksummed extent")
    with MappedRunStore(path, verify="attach") as mapped:
        expect(
            mapped.n_items == len(labeler.store),
            "recovered checkpoint lost items",
        )


def phase_bit_flip(scheme, spec, tmp: str) -> None:
    derivation = random_run(spec, 300, seed=2)
    view = random_view(spec, 6, seed=3, mode="grey", name="flip-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 200, seed=4)
    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view)
    path = os.path.join(tmp, "flip.fvl")
    reference.checkpoint(path)

    # Listing the manifest of a lazily opened mapping touches no payload.
    with MappedRunStore(path) as mapped:
        targets = {
            name: extent.offset + extent.nbytes // 2
            for name, extent in mapped.sections()
            if extent.nbytes
        }
    expect(len(targets) == 13, f"expected every section of a dense file, found {sorted(targets)}")
    for name, flip_at in targets.items():
        with open(path, "r+b") as handle:
            handle.seek(flip_at)
            original = handle.read(1)[0]
            handle.seek(flip_at)
            handle.write(bytes([original ^ 0xFF]))
        try:
            MappedRunStore(path, verify="attach")
            raise SystemExit(f"chaos smoke FAILED: attach served a corrupt {name}")
        except CorruptionError:
            pass
        lazy = QueryEngine(scheme)
        lazy.attach(path)  # attach itself is cheap; the scrub is lazy
        try:
            lazy.depends_batch(pairs, view)
            raise SystemExit(f"chaos smoke FAILED: a batch was served over a corrupt {name}")
        except CorruptionError:
            pass
        finally:
            lazy.detach(DEFAULT_RUN)
        with open(path, "r+b") as handle:
            handle.seek(flip_at)
            handle.write(bytes([original]))
    verify_run(path, deep=True)
    fresh = QueryEngine(scheme)
    fresh.attach(path, verify="attach")
    fresh.add_view(view)
    expect(
        np.array_equal(fresh.depends_batch(pairs, view), expected),
        "restored file no longer answers bit-identically",
    )

    # The side file: what a warm predecessor left beside the run file.
    entries = save_hot_matrices(fresh, DEFAULT_RUN)
    cache_file = matrix_cache_path(path)
    flip_at = os.path.getsize(cache_file) // 2
    with open(cache_file, "r+b") as handle:
        handle.seek(flip_at)
        original = handle.read(1)[0]
        handle.seek(flip_at)
        handle.write(bytes([original ^ 0xFF]))
    engine = QueryEngine(scheme)
    engine.add_view(view)
    server = ProvenanceServer(engine)
    _, warmed = server.attach(path)
    expect(warmed == 0, "a .hotmx with a flipped byte warmed the engine")
    expect(
        isinstance(server.last_warm_error, CorruptionError),
        f"flipped .hotmx byte not recorded as corruption: {server.last_warm_error!r}",
    )
    counted = server.metrics.snapshot()["corruption_detected_total"]
    expect(counted.get(("hotmx",)) == 1, f"flipped .hotmx byte not counted: {counted}")
    expect(
        np.array_equal(engine.depends_batch(pairs, view), expected),
        "cold attach over a corrupt .hotmx no longer answers bit-identically",
    )
    engine.detach(DEFAULT_RUN)
    with open(cache_file, "r+b") as handle:
        handle.seek(flip_at)
        handle.write(bytes([original]))
    _, warmed = server.attach(path)
    expect(
        warmed == entries > 0 and server.last_warm_error is None,
        f"restored .hotmx warmed {warmed} of {entries} rows ({server.last_warm_error!r})",
    )
    expect(
        np.array_equal(engine.depends_batch(pairs, view), expected),
        "warm attach over the restored .hotmx no longer answers bit-identically",
    )


def phase_quarantine(scheme, spec, tmp: str) -> None:
    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(
        engine,
        policy=CheckpointPolicy(every_events=1, every_seconds=None),
        retry_backoff_s=0.0,
        quarantine_after=3,
    )
    good = RunLabeler(scheme.index)
    bad = RunLabeler(scheme.index)
    manager.manage("good", os.path.join(tmp, "good.fvl"), labeler=good)
    missing = os.path.join(tmp, "never-made")
    manager.manage("bad", os.path.join(missing, "bad.fvl"), labeler=bad)
    for event in random_run(spec, 120, seed=5).events:
        good(event)
        bad(event)
    for _ in range(3):
        try:
            manager.poll_once()
            raise SystemExit("chaos smoke FAILED: bad run flushed into a void")
        except OSError:
            pass
    stats = manager.stats
    expect(manager.quarantined_runs == ("bad",), "bad run was not quarantined")
    expect(stats.quarantined_runs == 1, "stats do not surface the quarantine")
    expect(stats.run_failures >= 3, "stats do not count the failures")
    expect(isinstance(manager.run_failure("bad"), OSError), "failure not recorded")
    expect(
        run_file_info(os.path.join(tmp, "good.fvl")).n_items == len(good.store),
        "healthy sibling run was wedged by the quarantined one",
    )
    # Quarantined: background sweeps skip it (no raise), until healed + lifted.
    manager.poll_once()
    os.makedirs(missing)
    manager.unquarantine("bad")
    manager.poll_once()
    expect(
        run_file_info(os.path.join(missing, "bad.fvl")).n_items == len(bad.store),
        "unquarantined run did not recover",
    )
    manager.unmanage("good")
    manager.unmanage("bad")


def phase_serving_under_fire(scheme, spec, tmp: str) -> dict:
    view = random_view(spec, 6, seed=9, mode="grey", name="chaos-view")
    derivation = random_run(spec, RUN_SIZE, seed=8)
    events = derivation.events
    half = len(events) // 2
    labeler = RunLabeler(scheme.index)
    path = os.path.join(tmp, "chaos.fvl")
    signal_dir = os.path.join(tmp, "signals")
    os.makedirs(signal_dir)

    # Stage 1: the leader's first checkpoint is torn by an injected fsync
    # fault, then retried clean.
    for event in events[:half]:
        labeler(event)
    plan = FaultPlan(seed=CHAOS_SEED).on("persist.fsync", count=1)
    with plan.armed():
        try:
            checkpoint_run(path, labeler.store, labeler.tree.nodes)
            raise SystemExit("chaos smoke FAILED: leader's torn fsync not surfaced")
        except InjectedFault:
            pass
        checkpoint_run(path, labeler.store, labeler.tree.nodes)  # fault spent

    # The local reference for bit-identical assertions: the same file, mapped
    # and scrubbed in this process.
    reference = QueryEngine(scheme)
    reference.attach(path, verify="attach")
    reference.add_view(view)
    # The query set is fixed to the items flushed in stage 1: the follower's
    # answers for it must stay bit-identical through every later append,
    # torn swap, real compaction and remap.
    flushed_items = sorted(int(uid) for uid in labeler.store.uids())[:400]
    expected_visible = reference.is_visible_batch(flushed_items, view)
    visible = [u for u, ok in zip(flushed_items, expected_visible) if ok]
    pairs = sample_query_pairs(visible, 300, seed=10)
    expected = reference.depends_batch(pairs, view)

    src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
    follower = subprocess.Popen(
        [sys.executable, "-c", SERVER_SCRIPT, tmp, signal_dir, src_dir]
    )
    summary: dict = {}
    try:
        open(os.path.join(signal_dir, "leader-checkpointed"), "w").close()
        wait_for(os.path.join(signal_dir, "follower-ready"), "the follower process")
        sock = os.path.join(tmp, "chaos.sock")

        with ProvenanceClient(unix_path=sock, retries=8) as client:
            expect(
                np.array_equal(client.depends_batch(pairs, view.name), expected),
                "follower answers diverge from the leader's mapping",
            )
            expect(
                np.array_equal(
                    client.is_visible_batch(flushed_items, view.name), expected_visible
                ),
                "follower visibility diverges from the leader's mapping",
            )

            # Phase 5 rides the same wire: one injected client-side recv
            # fault kills one RPC loudly; the pooled connection is discarded
            # and the next call is bit-identical again.
            plan = FaultPlan(seed=CHAOS_SEED).on("net.recv", count=1)
            with plan.armed():
                try:
                    client.depends_batch(pairs, view.name)
                    raise SystemExit(
                        "chaos smoke FAILED: injected client recv fault vanished"
                    )
                except InjectedFault:
                    pass
            expect(
                client._pool_open == 0,
                "poisoned client connection was returned to the pool",
            )
            expect(
                np.array_equal(client.depends_batch(pairs, view.name), expected),
                "client did not recover after the discarded connection",
            )
            summary["client_fault_recovered"] = True

            # Stage 2: append the rest, then compact — with the first swap
            # killed at the injected compact.swap fault point.
            for event in events[half:]:
                labeler(event)
            checkpoint_run(path, labeler.store, labeler.tree.nodes)
            generation_before = run_file_info(path).generation
            plan = FaultPlan(seed=CHAOS_SEED).on("compact.swap", count=1)
            with plan.armed():
                try:
                    compact(path)
                    raise SystemExit("chaos smoke FAILED: killed swap not surfaced")
                except InjectedFault:
                    pass
            info = run_file_info(path)
            expect(
                info.generation == generation_before,
                "a torn compaction swap moved the generation",
            )
            expect(
                info.n_items == len(labeler.store),
                "a torn compaction swap damaged the source file",
            )
            result = compact(path)  # the retry GCs the orphan and swaps
            expect(result.compacted, "post-fault compaction did not compact")
            expect(result.removed, "the torn swap's temporary was not GC'd")
            verify_run(path, deep=True)

            # The follower follows the new generation on the heels of
            # queries; its answers for the original query set must stay
            # bit-identical across the remap.
            deadline = time.monotonic() + TIMEOUT
            reopens = 0
            while time.monotonic() < deadline:
                expect(
                    np.array_equal(client.depends_batch(pairs, view.name), expected),
                    "follower diverged while remapping the compacted file",
                )
                reopens = client.server_stats()["server"]["reopens"]
                if reopens >= 1:
                    break
                time.sleep(0.05)
            expect(reopens >= 1, "follower never remapped the compacted file")
            expect(
                np.array_equal(client.depends_batch(pairs, view.name), expected)
                and np.array_equal(
                    client.is_visible_batch(flushed_items, view.name), expected_visible
                ),
                "follower answers diverge after the reopen",
            )
            stats = client.server_stats()
            expect(
                stats["server"]["worker_restarts"] == 0,
                "follower workers crashed without an injected fault",
            )
            summary["reopens"] = reopens
            summary["answers"] = stats["server"]["answered"]

        open(os.path.join(signal_dir, "client-done"), "w").close()
        expect(follower.wait(timeout=TIMEOUT) == 0, "follower exited non-zero")
    finally:
        if follower.poll() is None:
            follower.kill()
            follower.wait()
    return summary


def main() -> int:
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        phase_torn_checkpoints(scheme, spec, os.path.join(tmp))
        phase_bit_flip(scheme, spec, tmp)
        phase_quarantine(scheme, spec, tmp)
        summary = phase_serving_under_fire(scheme, spec, tmp)
    print(
        "chaos smoke OK: torn checkpoints surfaced and retried clean; a bit flip "
        "in every section raised typed CorruptionError at attach and first "
        "batch, and one in the .hotmx side file became a counted cold attach; "
        "a failing run quarantined without wedging its sibling; the "
        "follower served "
        f"{summary['answers']} answers bit-identically across an injected torn "
        f"swap, a real compaction and {summary['reopens']} reopen(s); an injected "
        "client recv fault was contained to one discarded connection "
        f"(seed {CHAOS_SEED})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
