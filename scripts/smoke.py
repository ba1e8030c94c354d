"""One smoke driver: the serving stack end to end, across real processes.

Each phase checks the paper's contract through a different stack of layers:
an answer decoded from labels equals the answer on the run — here,
bit-identical to a single-process engine over the same derivation, or a
typed error, never a silent wrong bit.  A phase names the resources it needs
as its parameters and :func:`main` builds each once: ``world`` (the
reference run, view, query pairs and expected bits, :class:`World`), ``tmp``
(a fresh directory per phase for run files, sockets and signal flags) and
``artifacts`` (where the ``obs`` phase files what CI uploads).  Child
processes are this file again, ``--role leader|follower``.  Every check goes
through :func:`check`, which exits non-zero, under ``python -O`` too; every
fault plan is seeded with ``CHAOS_SEED``.

Run with:  PYTHONPATH=src python scripts/smoke.py [PHASE ...] [--artifacts DIR]
(``--help`` lists the phases; all of them run, in order, when none is named.)
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import inspect
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, "..", "src")]

from obs_dashboard import series_total  # noqa: E402
from repro import CheckpointPolicy, FVLScheme, QueryEngine, RunLabeler, RunLifecycleManager  # noqa: E402
from repro import MappedRunStore, ViewProjection, checkpoint_run, compact  # noqa: E402
from repro.bench import sample_query_pairs  # noqa: E402
from repro.core.pair_table import VERDICT_FALSE  # noqa: E402
from repro.engine import DEFAULT_RUN  # noqa: E402
from repro.errors import CorruptionError  # noqa: E402
from repro.faults import FaultPlan, InjectedFault  # noqa: E402
from repro.net import ProvenanceClient, ProvenanceNetServer, ServerOverloadedError  # noqa: E402
from repro.obs import events  # noqa: E402
from repro.obs.metrics import parse_exposition  # noqa: E402
from repro.obs.trace import Sampler  # noqa: E402
from repro.obs.watchdog import SLO  # noqa: E402
from repro.serve import BatchPolicy, ProvenanceServer, ReopenPolicy  # noqa: E402
from repro.serve import matrix_cache_path, save_hot_matrices  # noqa: E402
from repro.serve.matrix_cache import _COLUMNS, _FILE_HEADER, _STATE_HEADER  # noqa: E402
from repro.store import FileLease, run_file_info, verify_run  # noqa: E402
from repro.workloads import build_bioaid_specification, random_run, random_view  # noqa: E402

CHAOS_SEED = 20260808  # the fixed fault-plan seed (CI pins determinism on it)
TIMEOUT = 120.0
N_CLIENTS = 4


# -- the scaffold ---------------------------------------------------------------


def check(condition, message: str) -> None:
    """Fail the run with ``message`` (exit status 1) unless ``condition`` holds.

    A function, not ``assert``: ``python -O`` strips asserts, never this.
    """
    if not condition:
        raise SystemExit(f"smoke FAILED: {message}")


def same(got, want, message: str) -> None:
    """Fail with ``message`` unless two answer arrays are bit-identical."""
    check(np.array_equal(got, want), message)


def caught(error: type, call, *args, **kwargs):
    """The ``error`` that ``call(*args, **kwargs)`` raised, or ``None`` (others propagate)."""
    try:
        call(*args, **kwargs)
    except error as exc:
        return exc
    return None


def fails(error: type, message: str, call, *args, **kwargs) -> None:
    """Fail with ``message`` unless ``call(*args, **kwargs)`` raises ``error``."""
    check(caught(error, call, *args, **kwargs) is not None, message)


def poll(condition, what: str, interval: float = 0.01) -> None:
    """Call ``condition()`` until it is true; fail after ``TIMEOUT`` seconds."""
    deadline = time.monotonic() + TIMEOUT
    while not condition():
        check(time.monotonic() < deadline, f"timed out waiting for {what}")
        time.sleep(interval)


def signal(signals: str, name: str) -> None:
    """Raise the flag ``name``: an empty file in the directory ``signals``."""
    open(os.path.join(signals, name), "w").close()


def wait_for(signals: str, name: str) -> None:
    """Block until another process raises the flag ``name``."""
    poll(lambda: os.path.exists(os.path.join(signals, name)), name)


@contextlib.contextmanager
def spawned(role: str, *args: str):
    """Run ``smoke.py --role ROLE ARGS`` for the block; it must exit 0.

    If the block fails first, the child is killed.
    """
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--role", role, *args])
    try:
        yield proc
        check(proc.wait(timeout=TIMEOUT) == 0, f"the {role} process exited non-zero")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


@contextlib.contextmanager
def follower(run_file: str, tmp: str, *flags: str, artifacts: str = "-", **client):
    """A follower process serving ``run_file``, and a client on its socket.

    Leaving the block closes the client and tells the follower to exit.
    """
    with spawned("follower", run_file, tmp, artifacts, *flags):
        wait_for(tmp, "follower-ready")
        with ProvenanceClient(unix_path=os.path.join(tmp, "serve.sock"), **client) as cli:
            yield cli
        signal(tmp, "client-done")


@contextlib.contextmanager
def clients(body):
    """Run ``body(index, stop)`` on ``N_CLIENTS`` threads for the block.

    ``body`` returns a failure message or ``None``; an exception is a
    failure too.  Yields the threads' futures; leaving the block sets
    ``stop``, waits for every thread and fails the run on any failure.
    """
    stop = threading.Event()
    with ThreadPoolExecutor(N_CLIENTS) as pool:
        futures = [pool.submit(body, index, stop) for index in range(N_CLIENTS)]
        try:
            yield futures
        finally:
            stop.set()
    failures = [repr(future.exception()) if future.exception() else future.result() for future in futures]
    check(not any(failures), f"a client thread failed: {failures}")


@contextlib.contextmanager
def event_log(path: str):
    """Route the process's lifecycle and serving events into JSONL at ``path``."""
    if path == "-":
        yield
        return
    log = events.install_event_log(events.EventLog(path))
    try:
        yield
    finally:
        events.uninstall_event_log()
        log.close()


def feed(labeler: RunLabeler, stream) -> None:
    """Label every event of ``stream``, in order."""
    for event in stream:
        labeler(event)


def hotmx_off_columns(cache_file: str) -> list:
    """``(file offset, off column)`` of every section of a ``.hotmx``, read by its layout."""
    with open(cache_file, "rb") as handle:
        raw = handle.read()
    columns, offset = [], _FILE_HEADER.size
    while offset < len(raw):
        name_len, _, n, ports, matrices = _STATE_HEADER.unpack_from(raw, offset)
        offset += _STATE_HEADER.size + name_len
        for name, dtype in _COLUMNS:
            if name == "off":
                columns.append((offset, np.frombuffer(raw, dtype, n, offset)))
            offset += n * np.dtype(dtype).itemsize
        offset += (matrices * ports * ports + 7) // 8
    return columns


def flip(path: str, offset: int) -> None:
    """XOR one byte of a file with 0xFF; flipping it again restores it."""
    with open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([original ^ 0xFF]))


class World:
    """The reference every phase checks against, built once per process.

    A BioAID-like run of 800 items, a grey view of six expanded composites
    and 1,500 sampled pairs of its visible items; lazily, the bits a
    single-process :class:`QueryEngine` over the derivation answers for them.
    """

    def __init__(self) -> None:
        self.spec = build_bioaid_specification()
        self.scheme = FVLScheme(self.spec)
        self.view = random_view(self.spec, 6, seed=7, mode="grey", name="smoke-view")
        self.derivation = random_run(self.spec, 800, seed=42)
        self.items = sorted(ViewProjection(self.derivation.run, self.view).visible_items)
        self.pairs = sample_query_pairs(self.items, 1500, seed=3)

    @cached_property
    def reference(self) -> QueryEngine:
        engine = QueryEngine(self.scheme)
        engine.add_run(DEFAULT_RUN, self.derivation)
        return engine

    @cached_property
    def expected(self) -> np.ndarray:
        return self.reference.depends_batch(self.pairs, self.view)

    @cached_property
    def expected_visible(self) -> np.ndarray:
        return self.reference.is_visible_batch(self.items, self.view)

    def exact(self, depends, visible) -> bool:
        """Whether one round's answers for ``pairs`` and ``items`` are the reference bits."""
        return np.array_equal(depends, self.expected) and np.array_equal(visible, self.expected_visible)


def ingest(world: World, run_file: str, slices: int) -> RunLifecycleManager:
    """Stream the world's events into ``run_file`` under an every-event policy.

    One ``poll_once`` sweep per slice flushes the due delta: a chain of
    ``slices`` segments and no explicit ``checkpoint()`` call.
    """
    manager = RunLifecycleManager(
        QueryEngine(world.scheme), policy=CheckpointPolicy(every_events=1, every_seconds=None)
    )
    labeler = RunLabeler(world.scheme.index)
    manager.manage(DEFAULT_RUN, run_file, labeler=labeler)
    stream = world.derivation.events
    for k in range(slices):
        feed(labeler, stream[len(stream) * k // slices : len(stream) * (k + 1) // slices])
        manager.poll_once()
    return manager


# -- child roles ----------------------------------------------------------------


def role_leader(run_file: str, signals: str, log_path: str) -> None:
    """The writer: ingest in six slices, compact once the follower is attached.

    Holds the writer lease until the follower is done.  ``log_path`` ("-"
    for none) receives the lifecycle events.
    """
    with event_log(log_path):
        manager = ingest(World(), run_file, slices=6)
        signal(signals, "segments-ready")
        wait_for(signals, "follower-attached")
        check(manager.compact_run(DEFAULT_RUN).compacted, "the leader's chain did not compact")
        signal(signals, "compacted")
        wait_for(signals, "follower-done")
        manager.unmanage(DEFAULT_RUN)  # releases the writer lease


def role_follower(run_file: str, signals: str, artifacts: str, *flags: str) -> None:
    """Serve ``run_file`` on ``signals/serve.sock`` until the parent process is done.

    Flag ``reopen`` probes the file for a new generation after every query;
    ``wedged`` also binds ``signals/wedged.sock`` over a scheduler whose
    8-query queue nothing drains.  An ``artifacts`` directory (not "-")
    makes this the obs follower: an event log, every request traced, a
    shed-rate watchdog, the parent's shed storm, and on exit the ring of
    kept requests and the metrics scrape filed there.
    """
    obs = artifacts != "-"
    world = World()
    with event_log(os.path.join(artifacts, "follower_events.jsonl") if obs else "-"):
        engine = QueryEngine(world.scheme)
        sampler = Sampler(engine.metrics, sample_rate=1.0) if obs else None
        reopen = ReopenPolicy(after_queries=1, after_seconds=0.01) if "reopen" in flags else None
        server = ProvenanceServer(engine, reopen=reopen, sampler=sampler)
        server.attach(run_file)
        engine.add_view(world.view)
        with contextlib.ExitStack() as stack:
            stack.enter_context(server)
            sockets = {"serve.sock": server}
            if "wedged" in flags:
                sockets["wedged.sock"] = ProvenanceServer(
                    QueryEngine(world.scheme), policy=BatchPolicy(max_batch=8, max_queue=8)
                )
            for name, scheduler in sockets.items():
                path = os.path.join(signals, name)
                stack.enter_context(ProvenanceNetServer(scheduler, unix_path=path))
            if obs:
                # Shed rate above 1/s over a 2 s window fires; two healthy
                # ticks clear it.
                slo = SLO("shed_rate", "rate", "net_sheds_total",
                          threshold=1.0, window_s=2.0, clear_after=2)
                server.attach_watchdog([slo], interval_s=0.2)
            signal(signals, "follower-ready")
            if obs:
                # The storm: every non-blocking admission sheds while armed.
                wait_for(signals, "storm-start")
                with FaultPlan(seed=9).on("scheduler.admit", count=None).armed():
                    signal(signals, "storm-armed")
                    wait_for(signals, "storm-stop")
                signal(signals, "storm-cleared")
            wait_for(signals, "client-done")
            if obs:
                sampler.dump(os.path.join(artifacts, "kept.jsonl"))
                with open(os.path.join(artifacts, "metrics.txt"), "w") as fh:
                    fh.write(engine.metrics.exposition())


ROLES = {"leader": role_leader, "follower": role_follower}


# -- phases: each one's parameter names are the resources it needs --------------


def persist(world: World, tmp: str) -> str:
    """Checkpoint, append a delta, mmap-attach: answers as from memory."""
    stream = world.derivation.events
    cut = len(stream) * 9 // 10
    run_file = os.path.join(tmp, "run.fvl")
    labeler = RunLabeler(world.scheme.index)
    feed(labeler, stream[:cut])
    first = checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    feed(labeler, stream[cut:])
    delta = checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    check(first.created and delta.wrote_segment, f"checkpoints wrote {first}, {delta}")
    check(delta.delta_items > 0, "continued derivation produced no delta rows")

    served = QueryEngine(world.scheme)
    mapped = served.attach(run_file)
    check(mapped.n_segments == 2, f"{mapped.n_segments} segments, not 2")
    check(mapped.n_items == world.derivation.run.n_data_items, "the file lost items")
    wrong = np.count_nonzero(served.depends_batch(world.pairs, world.view) != world.expected)
    check(wrong == 0, f"{wrong}/{len(world.pairs)} answers differ after mmap reload")
    with MappedRunStore(run_file) as reread:  # node columns survived too
        check(reread.nodes is not None, "the file has no node columns")
        check(reread.nodes.max_fanout() == labeler.tree.max_fanout(), "node columns changed")
    return f"{wrong} of {len(world.pairs)} pairs differ across two checkpoints and an mmap attach"


def lifecycle(world: World, tmp: str) -> str:
    """Policy checkpoints, compaction, hot reopen of a live reader: same bits."""
    run_file = os.path.join(tmp, "managed.fvl")
    ingest(world, run_file, slices=6)
    info = run_file_info(run_file)
    check(info.n_items == world.derivation.run.n_data_items, f"flushes lost items: {info}")
    check(info.n_segments >= 4, f"flushes built no chain: {info}")

    uids = list(range(1, world.derivation.run.n_data_items + 1))
    reader = QueryEngine(world.scheme)
    chained = reader.attach(run_file)
    check(max(chained.extents_per_column().values()) > 1, "the chain is one extent per column")
    visible = reader.is_visible_batch(uids, world.view)
    same(reader.depends_batch(world.pairs, world.view), world.expected,
         "segmented lifecycle shard diverges from reference")

    result = compact(run_file)
    check(result.compacted and result.generation == 1, f"compaction: {result}")
    check(reader.reopen_all(run_file) == [DEFAULT_RUN], "the live reader did not reopen")
    merged = reader.mapped_store()
    check(merged.n_segments == 1 and merged.generation == 1, "reader is not on the merged file")
    check(max(merged.extents_per_column().values()) == 1, "merged file is still fragmented")
    same(reader.depends_batch(world.pairs, world.view), world.expected,
         "depends answers changed across compaction + reopen")
    same(reader.is_visible_batch(uids, world.view), visible,
         "visibility changed across compaction + reopen")
    check(not glob.glob(run_file + ".compact-*"), "superseded temps not GC'd")
    return f"{result.segments_before} policy segments compacted to 1; the reopened reader is exact"


def serve(world: World, tmp: str) -> str:
    """Leader process ingests and compacts; an in-process follower serves."""
    run_file = os.path.join(tmp, "served.fvl")
    with spawned("leader", run_file, tmp, "-"):
        wait_for(tmp, "segments-ready")
        probe = FileLease(run_file)
        check(not probe.try_acquire(), "writer lease was takeable while the leader lives")
        info = run_file_info(run_file)
        check(info.generation == 0 and info.n_segments >= 4, f"the leader built no chain: {info}")
        check(info.n_items == world.derivation.run.n_data_items, f"the chain lost items: {info}")

        engine = QueryEngine(world.scheme)
        policy = BatchPolicy(max_batch=512)
        reopen = ReopenPolicy(after_queries=100, after_seconds=0.02)
        server = ProvenanceServer(engine, policy=policy, reopen=reopen)
        server.attach(run_file)

        def client(index: int, stop: threading.Event) -> str | None:
            while not stop.is_set():
                depends = [server.submit_batch("depends", [p], world.view) for p in world.pairs]
                visible = [server.submit_batch("visible", [u], world.view) for u in world.items]
                depends = np.concatenate([future.result(timeout=60) for future in depends])
                visible = np.concatenate([future.result(timeout=60) for future in visible])
                if not world.exact(depends, visible):
                    return "answers diverged from the single-process reference"
            return None

        with server, clients(client) as running:
            # Verified rounds on the segmented generation, then the leader
            # swaps in the compacted file mid-traffic.
            time.sleep(0.2)
            signal(tmp, "follower-attached")
            wait_for(tmp, "compacted")
            poll(lambda: server.stats.reopens >= 1 or any(f.done() for f in running),
                 "the remap onto generation 1")
            time.sleep(0.2)  # a few more verified rounds on generation 1
        signal(tmp, "follower-done")
        stats = server.stats
        check(engine.mapped_store().generation == 1, "the follower is not on generation 1")
        check(stats.reopens == 1 and stats.probes > 0,
              f"{stats.reopens} reopens over {stats.probes} probes, not 1 over some")
        check(stats.coalesced > 0 and stats.engine_calls < stats.answered,
              f"no coalescing: {stats.engine_calls} engine calls for {stats.answered} answers")
    # The leader released the lease on unmanage: now it is takeable.
    check(probe.try_acquire(), "writer lease leaked after the leader exited")
    probe.release()
    return f"{stats.answered} answers in {stats.engine_calls} engine calls across a leader's compaction"


def net(world: World, tmp: str) -> str:
    """Follower process on a unix socket: bits, stats, SHED on a full queue."""
    run_file = os.path.join(tmp, "net.fvl")
    world.reference.checkpoint(run_file)
    live, wedged = os.path.join(tmp, "serve.sock"), os.path.join(tmp, "wedged.sock")
    view = world.view.name
    rounds = 3

    def client(index: int, stop: threading.Event) -> str | None:
        with ProvenanceClient(unix_path=live, retries=16) as cli:
            for _ in range(rounds):
                answers = cli.depends_batch(world.pairs, view), cli.is_visible_batch(world.items, view)
                if not world.exact(*answers):
                    return "answers diverged from the single-process reference"
                # Singleton helpers ride the same wire.
                if cli.depends(*world.pairs[index], view) != world.expected[index]:
                    return "a coalesced singleton diverged from the reference"
        return None

    with follower(run_file, tmp, "wedged") as cli:
        with clients(client):
            pass
        stats = cli.server_stats()
        check(stats["status"] == "ok", f"stats status: {stats}")
        check(stats["runs"] == [DEFAULT_RUN], f"stats runs: {stats}")
        answered = N_CLIENTS * rounds * (len(world.pairs) + len(world.items))
        check(stats["server"]["answered"] >= answered, f"stats miss answers: {stats}")
        check(stats["server"]["engine_calls"] >= 1, f"stats count no engine call: {stats}")
        check(stats["net"]["frames"] >= N_CLIENTS * rounds * 2, f"stats miss frames: {stats}")
        check(stats["net"]["connections"] >= N_CLIENTS, f"stats miss connections: {stats}")

        # A frame nothing will answer fills the wedged queue; the next frame
        # must come back SHED, in-band, not hang.  The fill frame's call
        # fails once the follower exits at the end of this block.
        filler = ProvenanceClient(unix_path=wedged, timeout=30.0)
        fill = threading.Thread(
            target=caught, args=(Exception, filler.depends_batch, world.pairs[:8], view), daemon=True
        )
        fill.start()
        with ProvenanceClient(unix_path=wedged) as probe:
            poll(lambda: probe.server_stats()["queue_depth"] == 8, "the fill frame to queue")
            start = time.monotonic()
            shed = caught(ServerOverloadedError, probe.depends_batch, world.pairs[:4], view)
            elapsed = time.monotonic() - start
        check(shed is not None, "the wedged server answered instead of shedding")
        check(shed.retry_after_s > 0, f"SHED hinted no retry-after: {shed}")
        check(shed.queue_depth == 8, f"SHED reported depth {shed.queue_depth}, not 8")
        check(elapsed < 5.0, f"SHED took {elapsed:.1f}s - that is a hang")
        # ...and the live socket next door is entirely unaffected.
        same(cli.depends_batch(world.pairs[:50], view), world.expected[:50],
             "the wedged socket disturbed the live one")
    # The follower has exited, which closed the fill frame's connection.
    fill.join(TIMEOUT)
    filler.close()
    check(not fill.is_alive(), "the fill frame outlived the server")
    return f"{stats['server']['answered']} exact answers; a full queue shed in {elapsed * 1e3:.0f} ms"


def nests(span: dict, prefixes: tuple) -> bool:
    """Whether ``span`` roots a chain of spans named with ``prefixes``."""
    if not span["name"].startswith(prefixes[0]):
        return False
    return len(prefixes) == 1 or any(nests(child, prefixes[1:]) for child in span["children"])


def obs(world: World, tmp: str, artifacts: str) -> str:
    """Event logs, exact scrape counts, nested traces, a watchdog storm."""
    os.makedirs(artifacts, exist_ok=True)
    leader_log = os.path.join(artifacts, "events.jsonl")
    follower_log = os.path.join(artifacts, "follower_events.jsonl")
    for log in (leader_log, follower_log):  # an event log appends: start afresh
        if os.path.exists(log):
            os.remove(log)
    run_file = os.path.join(tmp, "obs.fvl")
    # The leader runs alone: no follower attaches or finishes while it works.
    signal(tmp, "follower-attached")
    signal(tmp, "follower-done")
    with spawned("leader", run_file, tmp, leader_log):
        pass
    kinds = [event["event"] for event in events.read_events(leader_log)]
    check(kinds.count("checkpoint") >= 2, f"fewer than two checkpoint events: {kinds}")
    check("compaction" in kinds, f"no compaction event: {kinds}")
    check("lease_acquire" in kinds and "lease_release" in kinds, f"no lease events: {kinds}")
    last_checkpoint = max(i for i, kind in enumerate(kinds) if kind == "checkpoint")
    check(last_checkpoint < kinds.index("compaction"), f"a checkpoint after compaction: {kinds}")

    view, sock = world.view.name, os.path.join(tmp, "serve.sock")
    with follower(run_file, tmp, artifacts=artifacts, breaker_threshold=None) as cli:
        before = cli.depends_batch(world.pairs, view)
        same(before, world.expected, "the traced follower diverged")
        cli.is_visible_batch(world.items, view)
        # The exact counts below read THIS scrape; the storm lands after it.
        scrape = cli.server_metrics()
        check(cli.server_health()["status"] == "ok", "the follower started unhealthy")

        signal(tmp, "storm-start")
        wait_for(tmp, "storm-armed")
        sheds = []

        def degraded() -> bool:
            if caught(ServerOverloadedError, cli.depends_batch, world.pairs[:8], view):
                sheds.append(1)
            return cli.server_health()["status"] == "degraded"

        poll(degraded, "the watchdog to report degraded health", 0.02)
        health = cli.server_health()
        check(len(sheds) >= 3, f"the storm produced only {len(sheds)} sheds")
        check(any(alert["slo"] == "shed_rate" for alert in health["alerts"]),
              f"no shed_rate alert: {health}")
        signal(tmp, "storm-stop")
        wait_for(tmp, "storm-cleared")
        poll(lambda: cli.server_health()["status"] == "ok", "the alert to clear", 0.1)
        same(cli.depends_batch(world.pairs, view), before, "answers changed across the storm")

        dash = subprocess.run(
            [sys.executable, os.path.join(HERE, "obs_dashboard.py"), "--unix", sock,
             "--snapshot", os.path.join(artifacts, "dashboard.txt")],
            timeout=TIMEOUT,
            stdout=subprocess.DEVNULL,
        )
        check(dash.returncode == 0, "dashboard snapshot exited non-zero")

    # The watchdog fired and then cleared, in that order.
    follower_events = events.read_events(follower_log)
    fkinds = [event["event"] for event in follower_events]
    check("alert" in fkinds and "alert_clear" in fkinds, f"no alert / alert_clear: {fkinds}")
    check(fkinds.index("alert") < fkinds.index("alert_clear"), f"alert_clear first: {fkinds}")
    check(follower_events[fkinds.index("alert")]["slo"] == "shed_rate", "the alert is not shed_rate")
    check("fault_injected" in fkinds, f"no fault_injected event: {fkinds}")

    # The scrape parses and counts exactly what was submitted.
    parsed = parse_exposition(scrape)
    for series, labels, want in (
        ("engine_queries_total", {"op": "depends"}, len(world.pairs)),
        ("engine_queries_total", {"op": "visible"}, len(world.items)),
        ("serve_answered_total", {}, len(world.pairs) + len(world.items)),
        ("net_answered_frames_total", {}, 2),
        ("trace_sampled_total", {}, 2),
    ):
        got = series_total(parsed, series, **labels)
        check(got == want, f"the scrape counts {series}{labels or ''} = {got}, not {want}")

    # At least one kept trace nests net -> scheduler -> engine.
    with open(os.path.join(artifacts, "kept.jsonl"), "r", encoding="utf-8") as fh:
        kept = [json.loads(line) for line in fh if line.strip()]
    traces = [record for record in kept if "spans" in record]
    check(traces, "the rate-1.0 sampler kept no traced request")
    chain = ("net.frame", "scheduler.batch", "engine.")
    nested = [t for t in traces if any(nests(root, chain) for root in t["spans"])]
    check(nested, f"no trace nests net->scheduler->engine: {traces[:1]}")
    return f"exact scrape counts; {len(nested)}/{len(traces)} kept traces nest; alert, then clear"


def chaos_torn(world: World, tmp: str) -> str:
    """Torn writes and fsyncs fail loudly; the retry commits clean."""
    labeler = world.scheme.label_run(world.derivation)
    path = os.path.join(tmp, "torn.fvl")
    for point in ("persist.write", "persist.fsync"):
        plan = FaultPlan(seed=CHAOS_SEED).on(point, count=1)
        with plan.armed():
            fails(InjectedFault, f"a torn {point} was not surfaced",
                  checkpoint_run, path, labeler.store, labeler.tree.nodes)
        check(plan.fired(point) == 1, f"the {point} fault never fired")
    # The retry lands on the untouched watermarks and commits cleanly.
    result = checkpoint_run(path, labeler.store, labeler.tree.nodes)
    check(result.wrote_segment, "post-fault checkpoint wrote nothing")
    report = verify_run(path, deep=True)
    check(report.extents_checked > 0, "scrub covered no checksummed extent")
    with MappedRunStore(path, verify="attach") as mapped:
        check(mapped.n_items == len(labeler.store), "recovered checkpoint lost items")
    return f"torn write and fsync surfaced; the retry scrubs clean ({report.extents_checked} extents)"


def chaos_bitflip(world: World, tmp: str) -> str:
    """A flipped byte in any section is a typed error; in .hotmx, a cold attach."""
    path = os.path.join(tmp, "flip.fvl")
    world.reference.checkpoint(path)
    # Listing the manifest of a lazily opened mapping touches no payload.
    with MappedRunStore(path) as mapped:
        targets = {name: ext.offset + ext.nbytes // 2 for name, ext in mapped.sections() if ext.nbytes}
    check(len(targets) == 13, f"expected every section of a dense file, found {sorted(targets)}")
    for name, offset in targets.items():
        flip(path, offset)
        fails(CorruptionError, f"attach served a corrupt {name}",
              MappedRunStore, path, verify="attach")
        lazy = QueryEngine(world.scheme)
        lazy.attach(path)  # attach itself is cheap; the scrub is lazy
        fails(CorruptionError, f"a batch was served over a corrupt {name}",
              lazy.depends_batch, world.pairs, world.view)
        lazy.detach(DEFAULT_RUN)
        flip(path, offset)
    verify_run(path, deep=True)
    fresh = QueryEngine(world.scheme)
    fresh.attach(path, verify="attach")
    fresh.add_view(world.view)
    same(fresh.depends_batch(world.pairs, world.view), world.expected,
         "restored file no longer answers bit-identically")

    # The side file: what a warm predecessor left beside the run file.  One
    # flip mid-file, one in the ``off`` byte of a verdict row.
    entries = save_hot_matrices(fresh, DEFAULT_RUN)
    cache_file = matrix_cache_path(path)
    columns = hotmx_off_columns(cache_file)
    verdicts = [start + int(np.argmax(off == VERDICT_FALSE))
                for start, off in columns if (off == VERDICT_FALSE).any()]
    check(bool(verdicts), "the .hotmx holds no VERDICT_FALSE row to flip")
    offsets = {"middle": os.path.getsize(cache_file) // 2, "VERDICT_FALSE off": verdicts[0]}
    engine = QueryEngine(world.scheme)
    engine.add_view(world.view)
    server = ProvenanceServer(engine)
    for flipped, (where, offset) in enumerate(offsets.items(), start=1):
        flip(cache_file, offset)
        _, warmed = server.attach(path)
        check(warmed == 0, f"a .hotmx with a flipped {where} byte warmed the engine")
        check(isinstance(server.last_warm_error, CorruptionError),
              f"flipped .hotmx {where} byte not recorded as corruption: {server.last_warm_error!r}")
        counted = server.metrics.snapshot()["corruption_detected_total"]
        check(counted.get(("hotmx",)) == flipped, f"flipped .hotmx {where} byte not counted: {counted}")
        same(engine.depends_batch(world.pairs, world.view), world.expected,
             f"cold attach over a .hotmx with a flipped {where} byte no longer answers bit-identically")
        engine.detach(DEFAULT_RUN)
        flip(cache_file, offset)
    held = sum(off.size for _, off in columns)
    _, warmed = server.attach(path)
    check(warmed == entries == held > 0 and server.last_warm_error is None,
          f"restored .hotmx warmed {warmed} of {entries} rows, {held} held ({server.last_warm_error!r})")
    same(engine.depends_batch(world.pairs, world.view), world.expected,
         "warm attach over the restored .hotmx no longer answers bit-identically")
    return f"{len(targets)} flipped sections raised CorruptionError; {len(offsets)} flipped .hotmx bytes attached cold"


def chaos_quarantine(world: World, tmp: str) -> str:
    """A run that cannot flush is quarantined; its sibling flushes on."""
    manager = RunLifecycleManager(
        QueryEngine(world.scheme),
        policy=CheckpointPolicy(every_events=1, every_seconds=None),
        retry_backoff_s=0.0,
        quarantine_after=3,
    )
    good, bad = RunLabeler(world.scheme.index), RunLabeler(world.scheme.index)
    missing = os.path.join(tmp, "never-made")
    manager.manage("good", os.path.join(tmp, "good.fvl"), labeler=good)
    manager.manage("bad", os.path.join(missing, "bad.fvl"), labeler=bad)
    feed(good, world.derivation.events)
    feed(bad, world.derivation.events)
    for _ in range(3):
        fails(OSError, "bad run flushed into a void", manager.poll_once)
    stats = manager.stats
    check(manager.quarantined_runs == ("bad",), "bad run was not quarantined")
    check(stats.quarantined_runs == 1, "stats do not surface the quarantine")
    check(stats.run_failures >= 3, "stats do not count the failures")
    check(isinstance(manager.run_failure("bad"), OSError), "failure not recorded")
    check(run_file_info(os.path.join(tmp, "good.fvl")).n_items == len(good.store),
          "healthy sibling run was wedged by the quarantined one")
    # Quarantined: background sweeps skip it (no raise), until healed + lifted.
    manager.poll_once()
    os.makedirs(missing)
    manager.unquarantine("bad")
    manager.poll_once()
    check(run_file_info(os.path.join(missing, "bad.fvl")).n_items == len(bad.store),
          "unquarantined run did not recover")
    manager.unmanage("good")
    manager.unmanage("bad")
    return f"quarantined after {stats.run_failures} failed flushes; the sibling flushed on; healed"


def chaos_fire(world: World, tmp: str) -> str:
    """A follower process stays exact across injected faults and a remap."""
    stream = world.derivation.events
    half = len(stream) // 2
    labeler = RunLabeler(world.scheme.index)
    path = os.path.join(tmp, "chaos.fvl")

    # The leader's first checkpoint is torn by an injected fsync, then retried.
    feed(labeler, stream[:half])
    with FaultPlan(seed=CHAOS_SEED).on("persist.fsync", count=1).armed():
        fails(InjectedFault, "leader's torn fsync not surfaced",
              checkpoint_run, path, labeler.store, labeler.tree.nodes)
        checkpoint_run(path, labeler.store, labeler.tree.nodes)  # fault spent

    # The reference is that file, mapped and scrubbed here.  The queries are
    # fixed to its items: their answers must survive every later append,
    # torn swap, real compaction and remap.
    reference = QueryEngine(world.scheme)
    reference.attach(path, verify="attach")
    reference.add_view(world.view)
    flushed = sorted(int(uid) for uid in labeler.store.uids())[:400]
    expected_visible = reference.is_visible_batch(flushed, world.view)
    visible = [uid for uid, ok in zip(flushed, expected_visible) if ok]
    pairs = sample_query_pairs(visible, 300, seed=10)
    expected = reference.depends_batch(pairs, world.view)
    view = world.view.name

    with follower(path, tmp, "reopen", retries=8) as client:
        same(client.depends_batch(pairs, view), expected,
             "follower answers diverge from the leader's mapping")
        same(client.is_visible_batch(flushed, view), expected_visible,
             "follower visibility diverges from the leader's mapping")

        # One injected client-side recv fault kills one RPC loudly; the
        # pooled connection is discarded and the next call is clean.
        with FaultPlan(seed=CHAOS_SEED).on("net.recv", count=1).armed():
            fails(InjectedFault, "injected client recv fault vanished",
                  client.depends_batch, pairs, view)
        check(client._pool_open == 0, "poisoned client connection was returned to the pool")
        same(client.depends_batch(pairs, view), expected,
             "client did not recover after the discarded connection")

        # Append the rest, then compact, the first swap killed.
        feed(labeler, stream[half:])
        checkpoint_run(path, labeler.store, labeler.tree.nodes)
        generation = run_file_info(path).generation
        with FaultPlan(seed=CHAOS_SEED).on("compact.swap", count=1).armed():
            fails(InjectedFault, "killed swap not surfaced", compact, path)
        info = run_file_info(path)
        check(info.generation == generation, "a torn compaction swap moved the generation")
        check(info.n_items == len(labeler.store), "a torn compaction swap damaged the source")
        result = compact(path)  # the retry GCs the orphan and swaps
        check(result.compacted, "post-fault compaction did not compact")
        check(result.removed, "the torn swap's temporary was not GC'd")
        verify_run(path, deep=True)

        # The follower remaps on the heels of queries, bit-identically.
        def remapped() -> bool:
            same(client.depends_batch(pairs, view), expected,
                 "follower diverged while remapping the compacted file")
            return client.server_stats()["server"]["reopens"] >= 1

        poll(remapped, "the follower to remap the compacted file", 0.05)
        same(client.depends_batch(pairs, view), expected, "follower diverged after the reopen")
        same(client.is_visible_batch(flushed, view), expected_visible,
             "follower visibility diverged after the reopen")
        stats = client.server_stats()["server"]
        check(stats["last_error"] is None, f"a follower step failed without an injected fault: {stats['last_error']}")
    return f"{stats['answered']} exact answers across injected faults and {stats['reopens']} remap(s)"


# -- the phase runner -----------------------------------------------------------

PHASES = {
    run.__name__.replace("_", "-"): run
    for run in (persist, lifecycle, serve, net, obs, chaos_torn, chaos_bitflip, chaos_quarantine, chaos_fire)
}


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--role"]:
        ROLES[argv[1]](*argv[2:])
        return 0
    parser = argparse.ArgumentParser(
        description=__doc__,
        epilog="phases:\n" + "\n".join(f"  {name:<18}{run.__doc__}" for name, run in PHASES.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("phases", nargs="*", metavar="PHASE", help="phases to run (default: all)")
    parser.add_argument(
        "--artifacts",
        default=os.path.join(HERE, "..", "artifacts", "obs-smoke"),
        help="where the obs phase files event logs, metrics, kept requests and a dashboard",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.phases if name not in PHASES]
    if unknown:
        parser.error(f"unknown phase(s) {', '.join(unknown)}; choose from {', '.join(PHASES)}")
    world = World()
    for name in args.phases or PHASES:
        run = PHASES[name]
        started = time.monotonic()
        with tempfile.TemporaryDirectory(prefix=f"smoke-{name}-") as tmp:
            resources = {"world": world, "tmp": tmp, "artifacts": os.path.abspath(args.artifacts)}
            summary = run(**{need: resources[need] for need in inspect.signature(run).parameters})
        print(f"{name} OK ({time.monotonic() - started:.1f} s): {summary}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
