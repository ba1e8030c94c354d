"""Tests for the binary wire protocol (net/protocol.py)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    OP_DEPENDS,
    OP_VISIBLE,
    AnswersReply,
    ErrorReply,
    FrameAssembler,
    QueryRequest,
    ShedReply,
    StatsReply,
    StatsRequest,
    decode_reply,
    decode_request,
    encode_answers,
    encode_depends_request,
    encode_error,
    encode_metrics_reply,
    encode_metrics_request,
    encode_shed,
    encode_stats_reply,
    encode_stats_request,
    encode_visible_request,
)

_LEN_PREFIX = 4


def _payload(frame: bytes) -> bytes:
    return frame[_LEN_PREFIX:]


# -- request round trips --------------------------------------------------------


def test_depends_request_round_trip():
    pairs = [(1, 2), (3, 4), (5, 6)]
    frame = encode_depends_request(7, "run-a", "audit", "se", pairs)
    request = decode_request(_payload(frame))
    assert isinstance(request, QueryRequest)
    assert request.op == OP_DEPENDS
    assert request.request_id == 7
    assert (request.run, request.view, request.variant) == ("run-a", "audit", "se")
    assert request.ids.shape == (3, 2)
    assert request.ids.tolist() == [[1, 2], [3, 4], [5, 6]]


def test_visible_request_round_trip():
    frame = encode_visible_request(9, "default", "audit", None, [10, 20, 30])
    request = decode_request(_payload(frame))
    assert request.op == OP_VISIBLE
    assert request.variant is None  # empty string on the wire = server default
    assert request.ids.tolist() == [10, 20, 30]


def test_empty_depends_batch_encodes():
    frame = encode_depends_request(1, "default", "v", None, [])
    request = decode_request(_payload(frame))
    assert request.ids.shape == (0, 2)


def test_depends_rejects_non_pair_shapes():
    with pytest.raises(SerializationError, match=r"\(n, 2\)"):
        encode_depends_request(1, "default", "v", None, [1, 2, 3])


def test_visible_rejects_nested_ids():
    with pytest.raises(SerializationError, match="flat"):
        encode_visible_request(1, "default", "v", None, [[1, 2]])


def test_stats_request_round_trip():
    request = decode_request(_payload(encode_stats_request(42)))
    assert isinstance(request, StatsRequest)
    assert request.request_id == 42


def test_unicode_names_survive_the_wire():
    frame = encode_visible_request(1, "Δrun", "видѣти", None, [1])
    request = decode_request(_payload(frame))
    assert (request.run, request.view) == ("Δrun", "видѣти")


# -- reply round trips ----------------------------------------------------------


def test_answers_round_trip_bit_packed():
    answers = [bool(int(b)) for b in "1011001110100"]  # 13: not byte-aligned
    frame = encode_answers(5, np.array(answers))
    # 13 bools fit two packed bytes: header + 2 payload bytes.
    assert len(_payload(frame)) == 9 + 2
    reply = decode_reply(_payload(frame))
    assert isinstance(reply, AnswersReply)
    assert reply.request_id == 5
    assert reply.answers.tolist() == answers


def test_empty_answers_round_trip():
    reply = decode_reply(_payload(encode_answers(3, np.zeros(0, dtype=bool))))
    assert reply.answers.tolist() == []


def test_shed_round_trip():
    reply = decode_reply(_payload(encode_shed(8, 0.25, 4096)))
    assert isinstance(reply, ShedReply)
    assert (reply.request_id, reply.retry_after_s, reply.queue_depth) == (8, 0.25, 4096)


def test_error_round_trip_and_truncation():
    reply = decode_reply(_payload(encode_error(2, "ViewError", "unknown view 'x'")))
    assert isinstance(reply, ErrorReply)
    assert (reply.kind, reply.message) == ("ViewError", "unknown view 'x'")
    huge = decode_reply(_payload(encode_error(2, "E" * 5000, "m" * 100_000)))
    assert len(huge.kind.encode()) <= 1024
    assert len(huge.message.encode()) <= 65536


def test_stats_reply_round_trip():
    payload = {"status": "ok", "net": {"sheds": 0}, "exc": Exception("boom")}
    reply = decode_reply(_payload(encode_stats_reply(1, payload)))
    assert isinstance(reply, StatsReply)
    assert reply.payload["net"] == {"sheds": 0}
    assert reply.payload["exc"] == "boom"  # non-JSON values stringified


# -- malformed frames -----------------------------------------------------------


def test_unknown_request_opcode_rejected():
    frame = bytearray(_payload(encode_stats_request(1)))
    frame[0] = 0x7F
    with pytest.raises(SerializationError, match="opcode"):
        decode_request(bytes(frame))


def test_unknown_reply_opcode_rejected():
    with pytest.raises(SerializationError, match="opcode"):
        decode_reply(b"\x10\x00\x00\x00\x00")


def test_truncated_request_rejected():
    frame = _payload(encode_visible_request(1, "default", "v", None, [1, 2, 3]))
    with pytest.raises(SerializationError, match="truncated"):
        decode_request(frame[:-4])


def test_trailing_bytes_rejected():
    frame = _payload(encode_visible_request(1, "default", "v", None, [1]))
    with pytest.raises(SerializationError, match="trailing"):
        decode_request(frame + b"\x00")


@pytest.mark.parametrize(
    "frame",
    [
        encode_answers(4, np.array([True, False, True])),
        encode_shed(4, 0.25, 16),
        encode_error(4, "ViewError", "unknown view 'x'"),
        encode_stats_reply(4, {"status": "ok"}),
        encode_metrics_reply(4, "up 1\n"),
    ],
    ids=["answers", "shed", "error", "stats", "metrics"],
)
def test_reply_trailing_bytes_rejected(frame):
    """Every reply kind decodes exactly: a byte past its last field is an error."""
    payload = _payload(frame)
    assert decode_reply(payload).request_id == 4
    with pytest.raises(SerializationError, match="trailing"):
        decode_reply(payload + b"\x00")


def test_bad_utf8_rejected():
    frame = bytearray(_payload(encode_visible_request(1, "rr", "vv", None, [1])))
    header_end = 14  # _REQUEST.size: run bytes start here
    frame[header_end : header_end + 2] = b"\xff\xfe"
    with pytest.raises(SerializationError, match="UTF-8"):
        decode_request(bytes(frame))


#: Every request kind, and every reply kind, as the payloads a peer sends.
_REQUESTS = {
    "depends": encode_depends_request(3, "run-a", "audit", None, [(1, 2), (3, 4)]),
    "traced-depends": encode_depends_request(
        4, "run-a", "audit", None, [(5, 6)], trace_id=0xFEEDFACE
    ),
    "visible-with-variant": encode_visible_request(5, "run-a", "audit", "se", [7, 8, 9]),
    "stats": encode_stats_request(6),
    "metrics": encode_metrics_request(7),
}
_REPLIES = {
    "answers": encode_answers(4, np.array([True, False, True] * 5)),
    "shed": encode_shed(4, 0.25, 16),
    "error": encode_error(4, "ViewError", "unknown view 'x'"),
    "stats": encode_stats_reply(4, {"status": "ok", "net": {"sheds": 1}}),
    "metrics": encode_metrics_reply(4, "up 1\n"),
}
#: The header-only requests: their decoder reads the fixed header and no more.
_HEADER_ONLY = ("stats", "metrics")
_BYTES = (0x00, 0x01, 0x7F, 0x80, 0xFF)


def _damaged(payload: bytes):
    """``(case, bytes)`` for every prefix, one-byte extension and overwrite."""
    for end in range(len(payload)):
        yield "prefix", payload[:end]
    for value in range(256):
        yield "extension", payload + bytes([value])
    for offset in range(len(payload)):
        for value in _BYTES:
            damaged = bytearray(payload)
            damaged[offset] = value
            yield "overwrite", bytes(damaged)


@pytest.mark.parametrize(
    "decode, payloads",
    [(decode_request, _REQUESTS), (decode_reply, _REPLIES)],
    ids=["requests", "replies"],
)
def test_every_malformed_frame_raises_the_typed_error(decode, payloads):
    """Prefixes, one-byte extensions and byte overwrites of every frame kind.

    Each either raises :class:`SerializationError` — never another
    exception type — or decodes: an overwrite may land in a value field and
    decode, a prefix never does, and an extension only of the header-only
    requests (their decoder stops after the fixed header).
    """
    for name, frame in payloads.items():
        payload = _payload(frame)
        decode(payload)
        for case, damaged in _damaged(payload):
            try:
                decode(damaged)
            except SerializationError:
                continue
            assert case == "overwrite" or (
                case == "extension" and decode is decode_request and name in _HEADER_ONLY
            ), f"{name}: a {case} of {len(damaged)} bytes decoded"


def test_oversized_payload_refused_at_encode():
    ids = np.zeros(MAX_FRAME_BYTES // 8 + 16, dtype=np.int64)
    with pytest.raises(SerializationError, match="exceeds"):
        encode_visible_request(1, "default", "v", None, ids)


# -- the frame assembler --------------------------------------------------------


def test_assembler_reassembles_byte_by_byte():
    frames = [
        encode_visible_request(1, "default", "v", None, [1, 2]),
        encode_answers(1, [True, False]),
        encode_stats_request(2),
    ]
    stream = b"".join(frames)
    assembler = FrameAssembler()
    out = []
    for i in range(len(stream)):
        out.extend(assembler.feed(stream[i : i + 1]))
    assert out == [_payload(f) for f in frames]
    assert assembler.buffered == 0


def test_assembler_returns_multiple_frames_from_one_chunk():
    frames = [encode_stats_request(i) for i in range(5)]
    assembler = FrameAssembler()
    out = assembler.feed(b"".join(frames))
    assert [decode_request(p).request_id for p in out] == list(range(5))


def test_assembler_rejects_oversized_announcement():
    assembler = FrameAssembler(max_frame_bytes=64)
    with pytest.raises(SerializationError, match="64"):
        assembler.feed(b"\xff\xff\xff\x7f")


def test_assembler_keeps_partial_frames_buffered():
    frame = encode_visible_request(1, "default", "v", None, list(range(10)))
    assembler = FrameAssembler()
    assert assembler.feed(frame[:10]) == []
    assert assembler.buffered == 10
    (payload,) = assembler.feed(frame[10:])
    assert decode_request(payload).ids.tolist() == list(range(10))


def test_assembler_accepts_a_frame_at_exactly_the_protocol_bound():
    """A payload of exactly MAX_FRAME_BYTES is a legal (if huge) frame."""
    import struct

    from repro.net.protocol import MAX_FRAME_BYTES

    assembler = FrameAssembler()
    prefix = struct.pack("<I", MAX_FRAME_BYTES)
    assert assembler.feed(prefix) == []  # announcement alone: no rejection
    payload = bytes(MAX_FRAME_BYTES)
    assert assembler.feed(payload[: 1 << 20]) == []  # partial: still buffering
    (frame,) = assembler.feed(payload[1 << 20 :])
    assert len(frame) == MAX_FRAME_BYTES
    assert assembler.buffered == 0


def test_assembler_rejects_one_byte_over_the_protocol_bound():
    import struct

    from repro.net.protocol import MAX_FRAME_BYTES

    assembler = FrameAssembler()
    with pytest.raises(SerializationError, match="protocol bound"):
        # The announcement alone is enough: no payload byte is ever buffered.
        assembler.feed(struct.pack("<I", MAX_FRAME_BYTES + 1))
