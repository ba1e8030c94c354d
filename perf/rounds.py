"""The round: ``serve_block -> ingest_pass -> cold_start (+ view_add)``.

A run executes identical rounds until its time is up, so every end-to-end
metric is sampled in every round and host drift hits all of them alike.
The program is driven only through public calls; every answer is kept and
compared with the oracle's bits *after* the timed region.
"""

from __future__ import annotations

import gc
import itertools
import os
import threading
import time
from contextlib import contextmanager

import numpy as np

from repro import (
    CheckpointPolicy,
    FVLScheme,
    QueryEngine,
    RunLabeler,
    RunLifecycleManager,
    compact,
)
from repro.engine import DEFAULT_RUN
from repro.errors import ReproError
from repro.net import ProvenanceClient, ProvenanceNetServer
from repro.serve import ProvenanceServer

from perf.calib import DiskKernel, kernel_ms
from perf.inputs import Frame, Inputs

FOLLOW_RUN = "follow"
INGEST_RUN = "ingest"
#: SHED resends one frame may make before it counts as failed.
CLIENT_RETRIES = 8

_now = time.perf_counter


class Spans:
    """In-memory span recorder for the traced run (``enabled`` False = no-ops).

    Rows are ``(span_id, parent_id, name, start, end)``.  The parent is the
    innermost open span of the calling thread unless one is passed, which
    is how a client thread's frames hang under the block that started it.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.rows: list = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, parent: "int | None" = None):
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        start = _now()
        try:
            yield span_id
        finally:
            end = _now()
            stack.pop()
            self.rows.append((span_id, parent, name, start, end))


class Tally:
    """Attempted / failed operations and pairs checked against the oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checked_pairs = 0
        self.first_failure: "str | None" = None

    def check(self, frame: Frame, answer) -> None:
        self.attempted += 1
        if isinstance(answer, Exception):
            problem = f"{frame.kind} frame on {frame.view}: {answer!r}"
        elif not np.array_equal(np.asarray(answer, dtype=bool), frame.expected):
            wrong = int((np.asarray(answer, dtype=bool) != frame.expected).sum())
            problem = f"{frame.kind} frame on {frame.view}: {wrong} of {frame.n} bits wrong"
        else:
            self.checked_pairs += frame.n
            return
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = problem


def ask(target, frame: Frame, **where):
    """Send one frame to a client or engine; a typed error or timeout is the answer.

    A client encodes the int64 array as is; an engine gets the id lists the
    net tier would have decoded for it.
    """
    ids = frame.ids if isinstance(target, ProvenanceClient) else frame.items
    try:
        if frame.kind == "depends":
            return target.depends_batch(ids, frame.view, **where)
        return target.is_visible_batch(ids, frame.view, **where)
    except (ReproError, OSError) as exc:
        return exc


class Stack:
    """``QueryEngine -> ProvenanceServer(workers=1) -> ProvenanceNetServer -> client``."""

    def __init__(self, engine, server, net, client, run_file: str, socket: str) -> None:
        self.engine = engine
        self.server = server
        self.net = net
        self.client = client
        self.run_file = run_file
        self.socket = socket

    def counters(self) -> dict:
        """Lifetime counts of the three tiers; a block's work is a difference of two."""
        engine = self.engine.stats
        net = self.net.stats
        return {
            "sheds": net.sheds,
            "net_frames": net.frames,
            "engine_calls": self.server.stats.engine_calls,
            "structural_pairs": engine.structural_pairs,
            "matrix_pairs": engine.matrix_pairs,
            "view_hits": engine.views.hits,
            "view_misses": engine.views.misses,
        }

    def close(self) -> None:
        self.client.close()
        self.net.stop()
        self.server.stop()
        self.engine.detach(DEFAULT_RUN)


def cold_start(inputs: Inputs, run_file: str, sock: str, spans: Spans, tally: Tally):
    """Build a fresh stack and answer one frame per view; ``(stack, seconds)``."""
    start = _now()
    with spans.span("cold_start"):
        with spans.span("scheme"):
            scheme = FVLScheme(inputs.specification)
        with spans.span("add_views"):
            engine = QueryEngine(scheme)
            for view in inputs.views:
                engine.add_view(view)
        with spans.span("attach"):
            server = ProvenanceServer(engine, workers=1)
            server.attach(run_file, warm=True)
        with spans.span("listen_connect"):
            server.start()
            net = ProvenanceNetServer(server, unix_path=sock).start()
            client = ProvenanceClient(
                unix_path=sock, pool_size=inputs.workload.connections, retries=CLIENT_RETRIES
            )
        with spans.span("warmup"):
            answers = [ask(client, frame) for frame in inputs.warmup]
    elapsed = _now() - start
    for frame, answer in zip(inputs.warmup, answers):
        tally.check(frame, answer)
    return Stack(engine, server, net, client, run_file, sock), elapsed


def view_adds(stack: Stack, inputs: Inputs, spans: Spans, tally: Tally) -> list:
    """Register each extra view on ``stack`` and answer its first frame; seconds each."""
    durations = []
    for view, frame in zip(inputs.extra_views, inputs.add_frames):
        start = _now()
        with spans.span("view_add"):
            with spans.span("label_view"):
                stack.engine.add_view(view)
                stack.engine.decoded_state(view)
            with spans.span("first_frame"):
                answer = ask(stack.client, frame)
        durations.append(_now() - start)
        tally.check(frame, answer)
    return durations


def serve_block(stack: Stack, inputs: Inputs, spans: Spans, tally: Tally, client=None):
    """One closed-loop block; ``(seconds, [(frame, seconds)])`` with answers checked."""
    block = inputs.block
    connections = inputs.workload.connections
    client = client or stack.client
    answers = [None] * len(block)
    latencies = [0.0] * len(block)

    def connection(offset: int, parent) -> None:
        for index in range(offset, len(block), connections):
            with spans.span("frame", parent):
                sent = _now()
                answers[index] = ask(client, block[index])
                latencies[index] = _now() - sent

    with spans.span("serve_block") as parent:
        start = _now()
        if connections == 1:
            connection(0, parent)
        else:
            threads = [
                threading.Thread(target=connection, args=(offset, parent))
                for offset in range(connections)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        elapsed = _now() - start
    for frame, answer in zip(block, answers):
        tally.check(frame, answer)
    return elapsed, list(zip(block, latencies))


class Ingest:
    """The long-lived write side: one lifecycle manager and one follower engine."""

    def __init__(self, inputs: Inputs, scheme: FVLScheme, directory: str) -> None:
        os.mkdir(directory)  # holds one pass's run file and its lease, emptied after each
        self.inputs = inputs
        self.scheme = scheme
        self.directory = directory
        self.path = os.path.join(directory, "run.fvl")
        self.manager = RunLifecycleManager(
            QueryEngine(scheme),
            # Every sweep flushes whatever the slice added: one checkpoint
            # (fsync on, CRC on, interval columns on) per slice.
            policy=CheckpointPolicy(every_events=1, every_seconds=None),
        )
        self.follower = QueryEngine(scheme)
        self.follower.add_view(inputs.views[0])

    def one_pass(self, spans: Spans, tally: Tally) -> dict:
        """Label and checkpoint the run slice by slice, a follower read after each."""
        inputs = self.inputs
        events = inputs.events
        labeler = RunLabeler(self.scheme.index)
        self.manager.manage(INGEST_RUN, self.path, labeler=labeler)
        label_s = poll_s = 0.0
        fresh = []
        try:
            with spans.span("ingest_pass"):
                for piece in inputs.slices:
                    t0 = _now()
                    with spans.span("label_slice"):
                        for event in events[piece.lo : piece.hi]:
                            labeler(event)
                    t1 = _now()
                    with spans.span("checkpoint"):
                        self.manager.poll_once()
                    t2 = _now()
                    with spans.span("follow.attach"):
                        self.follower.attach(self.path, FOLLOW_RUN)
                    with spans.span("follow.batch"):
                        answer = ask(self.follower, piece.follow, run=FOLLOW_RUN)
                    self.follower.detach(FOLLOW_RUN)
                    t3 = _now()
                    label_s += t1 - t0
                    poll_s += t2 - t1
                    fresh.append(t3 - t2)
                    tally.check(piece.follow, answer)
                segmented_bytes = os.path.getsize(self.path)
                t0 = _now()
                with spans.span("compact"):
                    self.manager.unmanage(INGEST_RUN)
                    result = compact(self.path)
                compact_s = _now() - t0
        finally:
            if INGEST_RUN in self.manager.managed_runs:
                self.manager.unmanage(INGEST_RUN, flush=False)
        file_bytes = os.path.getsize(self.path)
        for name in os.listdir(self.directory):
            os.unlink(os.path.join(self.directory, name))
        return {
            "ingest_s": label_s + poll_s,
            "label_s": label_s,
            "poll_s": poll_s,
            "fresh_s": fresh,
            "compact_s": compact_s,
            "segments": result.segments_before,
            "read_amp": segmented_bytes / file_bytes,
            "file_bytes": file_bytes,
        }


def serving_stack(inputs: Inputs, workdir: str, tally: Tally) -> Stack:
    """The long-lived stack the serve blocks talk to, warm, over a fresh run file."""
    run_file = os.path.join(workdir, "served.fvl")
    writer = QueryEngine(FVLScheme(inputs.specification))
    writer.add_run(DEFAULT_RUN, inputs.derivation)
    writer.checkpoint(run_file)
    quiet = Spans()
    stack, _ = cold_start(inputs, run_file, os.path.join(workdir, "serve.sock"), quiet, tally)
    serve_block(stack, inputs, quiet, tally)  # fill the decode caches
    stack.server.save_matrix_cache()  # what a previous process leaves for a restart
    return stack


def run_rounds(
    inputs: Inputs,
    stack: Stack,
    workdir: str,
    seconds: float,
    baseline_mb: float,
    spans: Spans,
    tally: Tally,
    *,
    trace_alternate: bool = False,
) -> list:
    """Execute rounds for ``seconds``; one record of raw samples per round.

    ``baseline_mb`` is the resident memory before any program object existed.
    With ``trace_alternate`` the recorder is on in odd rounds only, so traced
    and untraced blocks of one run see the same host.
    """
    cold_sock = os.path.join(workdir, "cold.sock")
    ingest = Ingest(inputs, stack.engine.scheme, os.path.join(workdir, "ingest"))
    disk = DiskKernel(os.path.join(workdir, "disk.calib"))

    gc.collect()
    gc.freeze()
    rounds = []
    deadline = _now() + seconds
    calib = kernel_ms()
    try:
        while _now() < deadline:
            traced = trace_alternate and len(rounds) % 2 == 1
            spans.enabled = traced
            fresh = None
            try:
                with spans.span("round"):
                    record = {"traced": traced, "calib_ms": [calib]}
                    before = stack.counters()
                    record["serve_s"], frames = serve_block(stack, inputs, spans, tally)
                    after = stack.counters()
                    record["counters"] = {name: after[name] - before[name] for name in after}
                    record["frame_s"] = [s for frame, s in frames if frame.kind == "depends"]
                    resident = [resident_mb()]
                    record["calib_ms"].append(kernel_ms())
                    record["disk_ms"] = [disk.ms()]
                    record.update(ingest.one_pass(spans, tally))
                    record["disk_ms"].append(disk.ms())
                    resident.append(resident_mb())
                    record["calib_ms"].append(kernel_ms())
                    fresh, record["setup_s"] = cold_start(
                        inputs, stack.run_file, cold_sock, spans, tally
                    )
                    record["view_add_s"] = view_adds(fresh, inputs, spans, tally)
                    resident.append(resident_mb())
            finally:
                spans.enabled = False
                if fresh is not None:
                    fresh.close()
            del fresh
            gc.collect()
            calib = kernel_ms()
            record["calib_ms"].append(calib)
            record["resident_mb"] = max(resident) - baseline_mb
            rounds.append(record)
    finally:
        disk.close()
    return rounds


def resident_mb() -> float:
    """This process's resident set right now, MiB."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
