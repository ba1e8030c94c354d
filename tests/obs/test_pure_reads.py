"""Reading the registry changes nothing, and the dashboard renders what it reads.

A burst raises the scheduler's queue peak (256 queries queued on a server
that was not started) and the net tier's intake peak (four frames in one
``sendall``).  Every reader the stack has — ``engine.stats``, an exposition,
a watchdog tick, the stats op — may then run in any order: each sees the
burst, and two back-to-back snapshots of the idle stack are equal.  The
second test renders ``scripts/obs_dashboard.py``'s ``--once`` frame against
the same kind of stack.
"""

from __future__ import annotations

import contextlib
import importlib.util
import socket
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.core import FVLScheme
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.model.projection import ViewProjection
from repro.net import AnswersReply, ProvenanceClient, ProvenanceNetServer, decode_reply
from repro.net.protocol import encode_depends_request
from repro.obs.watchdog import Watchdog, default_slos
from repro.serve import ProvenanceServer
from repro.bench import sample_query_pairs
from repro.workloads import build_bioaid_specification, random_run, random_view

BURST = 256
#: Frames the burst writes to the socket in one ``sendall``.
FRAMES = 4
DASHBOARD = Path(__file__).resolve().parents[2] / "scripts" / "obs_dashboard.py"


@pytest.fixture(scope="module")
def workload():
    spec = build_bioaid_specification()
    derivation = random_run(spec, 200, seed=21)
    view = random_view(spec, 5, seed=22, mode="grey", name="read-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = np.asarray(sample_query_pairs(items, BURST, seed=23), dtype=np.int64)
    return FVLScheme(spec), derivation, view, pairs


def _receive(raw: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = raw.recv(n - len(data))
        assert chunk, "the server hung up"
        data += chunk
    return data


@contextlib.contextmanager
def _after_a_burst(workload, sock_path):
    """A served stack after the burst: ``(engine, server)``, sockets still open."""
    scheme, derivation, view, pairs = workload
    engine = QueryEngine(scheme)
    engine.add_run(DEFAULT_RUN, derivation)
    engine.add_view(view)
    server = ProvenanceServer(engine)
    # Not started: every frame stays queued until a step is taken here.
    futures = [
        server.submit_batch("depends", frame, view.name)
        for frame in np.array_split(pairs, FRAMES)
    ]
    while server.drain_once():
        pass
    want = np.concatenate([future.result() for future in futures]).tolist()
    with server, ProvenanceNetServer(server, unix_path=sock_path):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10.0)
        raw.connect(str(sock_path))
        try:
            raw.sendall(b"".join(
                encode_depends_request(i, DEFAULT_RUN, view.name, None, frame)
                for i, frame in enumerate(np.array_split(pairs, FRAMES))
            ))
            answers = {}
            for _ in range(FRAMES):
                (length,) = struct.unpack("<I", _receive(raw, 4))
                reply = decode_reply(_receive(raw, length))
                assert isinstance(reply, AnswersReply)
                answers[reply.request_id] = reply.answers.tolist()
            assert sum((answers[i] for i in range(FRAMES)), []) == want
            yield engine, server
        finally:
            raw.close()


def test_no_read_changes_a_value(workload, tmp_path):
    sock_path = tmp_path / "reads.sock"
    with _after_a_burst(workload, sock_path) as (engine, server):
        assert engine.stats.queries == 2 * BURST
        engine.metrics.exposition()
        Watchdog(engine.metrics, default_slos()).tick()
        assert server.stats.queue_peak == BURST
        with ProvenanceClient(unix_path=sock_path) as client:
            payload = client.server_stats()
        assert payload["server"]["queue_peak"] == BURST
        assert payload["net"]["intake_high_watermark"] == FRAMES
        first = engine.metrics.snapshot()
        assert engine.metrics.snapshot() == first
        assert first["net_intake_high_watermark"][()] == FRAMES


def test_the_dashboard_renders_one_frame_after_a_burst(workload, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("obs_dashboard", DASHBOARD)
    dashboard = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dashboard)
    sock_path = tmp_path / "dashboard.sock"
    with _after_a_burst(workload, sock_path):
        assert dashboard.main(["--unix", str(sock_path), "--once", "--interval", "0"]) == 0
    frame = capsys.readouterr().out
    assert "status: OK" in frame
    queue = next(line for line in frame.splitlines() if line.startswith("queue"))
    assert queue.split() == ["queue", "depth", "0", "peak", str(BURST), "intake", "peak", str(FRAMES)]
    assert "kept traces" in frame and "top cost groups (sampled)" in frame
