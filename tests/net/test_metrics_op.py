"""The metrics wire op and the traced-request frame flag.

Unit half: round-trip the new frame kinds through encode/decode — a metrics
request/reply pair, the optional trace-id field on query frames, and the
guarantee that an untraced frame is byte-identical to the pre-trace format.

Integration half: serve a real workload over a unix socket, scrape the
server with the metrics op, and assert the Prometheus text parses and its
query counters equal what ``EngineStats`` reports — the wire exposition and
the in-process stats are views over the same registry, so they can never
disagree.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FVLScheme
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.model.projection import ViewProjection
from repro.net import ProvenanceClient, ProvenanceNetServer
from repro.net.protocol import (
    OP_DEPENDS,
    TRACE_FLAG,
    MetricsReply,
    MetricsRequest,
    QueryRequest,
    decode_reply,
    decode_request,
    encode_depends_request,
    encode_metrics_reply,
    encode_metrics_request,
    encode_visible_request,
)
from repro.obs.metrics import parse_exposition
from repro.serve import ProvenanceServer
from repro.bench import sample_query_pairs
from repro.workloads import build_bioaid_specification, random_run, random_view

_LEN_PREFIX = 4


def _payload(frame: bytes) -> bytes:
    return frame[_LEN_PREFIX:]


# -- unit: frame round trips ----------------------------------------------------


def test_metrics_request_round_trip():
    request = decode_request(_payload(encode_metrics_request(7)))
    assert isinstance(request, MetricsRequest)
    assert request.request_id == 7


def test_metrics_reply_round_trip():
    text = '# TYPE x_total counter\nx_total{op="depends"} 3\n'
    reply = decode_reply(_payload(encode_metrics_reply(9, text)))
    assert isinstance(reply, MetricsReply)
    assert reply.request_id == 9
    assert reply.text == text
    assert parse_exposition(reply.text)[("x_total", (("op", "depends"),))] == 3


def test_trace_id_rides_the_query_frame():
    ids = np.array([[1, 2], [3, 4]], dtype=np.int64)
    frame = encode_depends_request(5, "r", "v", None, ids, trace_id=0xDEADBEEF)
    payload = _payload(frame)
    assert payload[0] == OP_DEPENDS | TRACE_FLAG
    request = decode_request(payload)
    assert isinstance(request, QueryRequest)
    assert request.trace_id == 0xDEADBEEF
    assert request.op == OP_DEPENDS  # the flag is masked off the op
    assert request.run == "r" and request.view == "v"
    assert request.ids.tolist() == ids.tolist()


def test_trace_id_survives_visible_frames_and_64_bits():
    uids = np.array([10, 11], dtype=np.int64)
    big = (1 << 64) - 3
    request = decode_request(
        _payload(encode_visible_request(1, "r", "v", None, uids, trace_id=big))
    )
    assert request.trace_id == big


def test_untraced_frame_is_byte_identical_to_legacy_format():
    ids = np.array([[1, 2]], dtype=np.int64)
    plain = encode_depends_request(3, "run", "view", None, ids)
    explicit = encode_depends_request(3, "run", "view", None, ids, trace_id=None)
    assert plain == explicit
    payload = _payload(plain)
    assert payload[0] == OP_DEPENDS  # no flag bit
    request = decode_request(payload)
    assert request.trace_id is None


# -- integration: scrape a served workload --------------------------------------


@pytest.fixture(scope="module")
def spec():
    return build_bioaid_specification()


@pytest.fixture(scope="module")
def scheme(spec):
    return FVLScheme(spec)


def test_wire_scrape_matches_engine_stats(scheme, spec, tmp_path):
    derivation = random_run(spec, 200, seed=11)
    view = random_view(spec, 6, seed=12, mode="grey", name="scrape-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 120, seed=13)

    engine = QueryEngine(scheme)
    labeler = engine.add_run(DEFAULT_RUN, derivation)
    assert labeler is not None
    engine.add_view(view)
    sock_path = tmp_path / "metrics.sock"
    with ProvenanceServer(engine) as server:
        with ProvenanceNetServer(server, unix_path=sock_path):
            with ProvenanceClient(unix_path=sock_path) as client:
                client.depends_batch(pairs, view.name)
                client.is_visible_batch(items[:40], view.name)
                text = client.server_metrics()

    parsed = parse_exposition(text)
    stats = engine.stats

    def total(name, **labels):
        want = set(labels.items())
        return sum(
            v for (n, lv), v in parsed.items() if n == name and want <= set(lv)
        )

    # The scrape's query counters equal what was submitted and answered.
    assert total("engine_queries_total", op="depends") == len(pairs)
    assert total("engine_queries_total", op="visible") == 40
    assert total("serve_answered_total") == len(pairs) + 40
    assert total("net_answered_frames_total") == 2
    assert total("net_metrics_requests_total") == 1
    # The exposition and EngineStats are views over one registry: the pair
    # tallies must agree exactly.
    assert total("engine_pairs_total", mode="structural") == stats.structural_pairs
    assert total("engine_pairs_total", mode="matrix") == stats.matrix_pairs
    assert stats.structural_pairs + stats.matrix_pairs > 0
