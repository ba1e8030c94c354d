"""One scripted wire sequence pins every serving metric the stack exports.

Every ``serve_*``, ``net_*``, ``tail_*``, ``trace_*``, ``engine_*`` and
``cost_*`` series of the shared registry after a fixed sequence of raw frames:
depends and visible frames, a shed, an oversized frame, an unknown view, a
traced frame and a refused variant.  The sampler's clock steps a fixed 0.25 s
per reading and the scheduler's clock stands still, so the serving, tail and
trace values — counters, gauges and the latency histogram with its exemplars —
are pinned whole.  The engine's and the cost families' time on the host's
clock, so of those the test pins what does not depend on it: every counter
and byte gauge, each engine histogram's observation count and bucket edges,
and the label sets of the cost counters.  A change to how a frame is queued,
resolved, counted or replied to must leave them all as they are.
"""

from __future__ import annotations

import socket
import struct

import numpy as np
import pytest

from repro.core import FVLScheme
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.faults import FaultPlan
from repro.model.projection import ViewProjection
from repro.net import (
    AnswersReply,
    ErrorReply,
    ProvenanceNetServer,
    ShedReply,
    decode_reply,
    encode_depends_request,
    encode_visible_request,
)
from repro.obs.metrics import LATENCY_BUCKETS
from repro.obs.trace import Sampler
from repro.serve import BatchPolicy, ProvenanceServer
from repro.bench import sample_query_pairs
from repro.workloads import build_bioaid_specification, random_run, random_view

FAMILIES = ("serve_", "net_", "tail_", "trace_", "engine_", "cost_")
#: Families whose values include wall time on the host's clock.
TIMED = ("engine_batch_seconds", "engine_view_label_seconds", "cost_")
TRACE_ID = 0x5EED
#: Every frame's wall under the sampler's step clock, and its latency bucket.
WALL = 0.25
BUCKET = 18


def _latency(count: int, exemplar: str) -> dict:
    counts = [0] * (len(LATENCY_BUCKETS) + 1)
    counts[BUCKET] = count
    return {
        "counts": tuple(counts),
        "sum": WALL * count,
        "count": count,
        "buckets": LATENCY_BUCKETS,
        "exemplars": {BUCKET: (exemplar, WALL)},
    }


#: Five depends frames under the view's name (40 pairs, one pair, the shed,
#: the oversized one and the traced one, which leaves the exemplar), one
#: visible frame, and the unknown view's frame under the label the engine
#: does not know.  The refused variant opens no record.  Every admitted frame
#: is queued and then served by the loop's own step, one frame per pass, so
#: the deepest queue is the 40-pair frame.
PINNED = {
    "net_answered_frames_total": {(): 4},
    "net_connections_total": {(): 1},
    "net_errors_total": {(): 3},
    "net_frames_total": {(): 8},
    "net_intake_high_watermark": {(): 1},
    "net_metrics_requests_total": {},
    "net_sheds_total": {(): 1},
    "net_stats_requests_total": {},
    "serve_answered_total": {(): 114},
    "serve_batches_total": {(): 5},
    "serve_coalesced_total": {(): 113},
    "serve_engine_calls_total": {(): 5},
    "serve_largest_batch": {(): 40},
    "serve_probes_total": {},
    "serve_queue_depth": {(): 0.0},
    "serve_queue_peak": {(): 40},
    "serve_reopens_total": {},
    "serve_submitted_total": {(): 114},
    "tail_considered_total": {(): 7},
    "tail_evicted_total": {},
    "tail_kept_total": {("slow",): 4, ("shed",): 1, ("error",): 2},
    "tail_request_seconds": {
        ("depends", "pinned-view"): _latency(5, "0000000000005eed"),
        ("visible", "pinned-view"): _latency(1, "3c6ef372fe94f82a"),
        ("depends", "(unknown)"): _latency(1, "b54cda58fbbee87e"),
    },
    "trace_sampled_total": {(): 1},
    # Three depends batches (40 pairs, one pair, the traced 39) and the
    # visible one; the unknown view's frame fails before any batch.
    "engine_batch_seconds": {
        ("depends",): {"count": 3, "buckets": LATENCY_BUCKETS},
        ("visible",): {"count": 1, "buckets": LATENCY_BUCKETS},
    },
    "engine_batches_total": {(): 3},
    "engine_decoded_state_bytes": {("per_run",): 3118.0, ("static",): 20144.0},
    "engine_pairs_total": {("matrix",): 19, ("structural",): 44},
    "engine_queries_total": {
        ("default", "pinned-view", "depends"): 80,
        ("default", "pinned-view", "visible"): 30,
    },
    "engine_reopens_total": {},
    "engine_view_cache_total": {("evict",): 0, ("hit",): 3, ("miss",): 1},
    "engine_view_label_seconds": {(): {"count": 1, "buckets": LATENCY_BUCKETS}},
    "engine_view_labels_total": {(): 1},
    # The traced frame's phases, billed to its (run, view).
    "cost_cpu_seconds_total": {
        ("default", "pinned-view", phase)
        for phase in ("decode", "engine", "gather", "net", "queue_wait", "scheduler")
    },
    "cost_seconds_total": {
        ("default", "pinned-view", phase)
        for phase in ("decode", "engine", "gather", "net", "queue_wait", "scheduler")
    },
}


class StepClock:
    def __init__(self, step: float) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


@pytest.fixture(scope="module")
def stack_inputs(tmp_path_factory):
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 200, seed=7)
    view = random_view(spec, 5, seed=8, mode="grey", name="pinned-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 80, seed=9)
    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    path = tmp_path_factory.mktemp("pinned") / "pinned.fvl"
    reference.checkpoint(path)
    depends = reference.depends_batch(pairs, view).tolist()
    visible = reference.is_visible_batch(items[:30], view).tolist()
    return scheme, view, path, items, pairs, depends, visible


def _exchange(raw: socket.socket, frame: bytes):
    def receive(n: int) -> bytes:
        data = b""
        while len(data) < n:
            chunk = raw.recv(n - len(data))
            assert chunk, "the server hung up"
            data += chunk
        return data

    raw.sendall(frame)
    (length,) = struct.unpack("<I", receive(4))
    return decode_reply(receive(length))


def _untimed(name: str, row: dict):
    """``row`` less what the host's clock decides (see the module docstring)."""
    if not name.startswith(TIMED):
        return row
    if name.startswith("cost_"):
        return set(row)
    return {key: {"count": h["count"], "buckets": h["buckets"]} for key, h in row.items()}


def _serving_values(snapshot: dict) -> dict:
    return {
        name: _untimed(name, row)
        for name, row in sorted(snapshot.items())
        if name.startswith(FAMILIES)
    }


def test_a_scripted_wire_sequence_pins_every_serving_metric(stack_inputs, tmp_path):
    scheme, view, path, items, pairs, depends_want, visible = stack_inputs
    engine = QueryEngine(scheme)
    sampler = Sampler(engine.metrics, sample_rate=1.0, clock=StepClock(0.25))
    server = ProvenanceServer(
        engine,
        policy=BatchPolicy(max_batch=64, max_queue=64),
        clock=lambda: 0.0,
        sampler=sampler,
    )
    server.attach(path)
    engine.add_view(view)
    sock_path = tmp_path / "pinned.sock"
    ids = np.asarray(pairs, dtype=np.int64)
    uids = np.asarray(items[:30], dtype=np.int64)
    with server, ProvenanceNetServer(server, unix_path=sock_path):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10.0)
        raw.connect(str(sock_path))

        def depends(request_id, frame_ids, view_name=view.name, **fields):
            frame = encode_depends_request(
                request_id, DEFAULT_RUN, view_name, None, frame_ids, **fields
            )
            return _exchange(raw, frame)

        try:
            reply = depends(1, ids[:40])
            assert isinstance(reply, AnswersReply)
            assert reply.answers.tolist() == depends_want[:40]
            reply = _exchange(raw, encode_visible_request(2, DEFAULT_RUN, view.name, None, uids))
            assert reply.answers.tolist() == visible
            assert depends(3, ids[40:41]).answers.tolist() == depends_want[40:41]
            with FaultPlan().on("scheduler.admit", count=1).armed():
                assert isinstance(depends(4, ids[:8]), ShedReply)
            reply = depends(5, ids[:65])
            assert isinstance(reply, ErrorReply) and "never fit" in reply.message
            reply = depends(6, ids[:4], "no-such-view")
            assert isinstance(reply, ErrorReply) and reply.kind == "ViewError"
            reply = depends(7, ids[41:80], trace_id=TRACE_ID)
            assert reply.answers.tolist() == depends_want[41:80]
            refused = _exchange(
                raw,
                encode_depends_request(8, DEFAULT_RUN, view.name, "space-efficient", ids[:4]),
            )
            assert isinstance(refused, ErrorReply) and refused.kind == "DecodingError"
        finally:
            raw.close()
        values = _serving_values(engine.metrics.snapshot())
    engine.detach(DEFAULT_RUN)
    assert values == PINNED
