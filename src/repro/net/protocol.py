"""The provenance wire protocol: length-prefixed frames of packed int batches.

The serving layer's throughput lives on the engine's vectorised batch calls,
so the wire must not dissolve batches back into per-query messages (or
per-query JSON parsing).  One frame carries one *batch* keyed by
``(run, view, variant)``:

```
frame     := <u32 payload-length> <payload>
request   := <u8 op> <u32 request-id> <u16 run-len> <u16 view-len>
             <u16 variant-len> <u32 n>
             [<u64 trace-id>]                        # iff op & 0x20
             <run utf-8> <view utf-8> <variant utf-8>
             <n packed little-endian int64 ids>      # 2n for depends pairs
answers   := <u8 0x81> <u32 request-id> <u32 n> <ceil(n/8) packed bool bits>
shed      := <u8 0x82> <u32 request-id> <f64 retry-after-s> <u32 queue-depth>
error     := <u8 0x83> <u32 request-id> <u16 kind-len> <u32 msg-len>
             <kind utf-8> <message utf-8>
stats     := <u8 0x84> <u32 request-id> <u32 json-len> <json utf-8>
metrics   := <u8 0x85> <u32 request-id> <u32 text-len> <text utf-8>
```

``depends`` payload ids are ``(d1, d2)`` pairs flattened row-major;
``visible`` payloads are plain uid arrays.  An empty ``variant`` string
means "the server's default variant".  Answers come back as bit-packed
booleans (``numpy.packbits`` order), so a 4096-query response body is 512
bytes.  The only JSON on the wire is the stats/health endpoint — cold path,
human-shaped data.  Its payload doubles as the health surface: top-level
``status`` is ``"ok"`` or (when the server's watchdog has SLOs firing)
``"degraded"``, ``alerts`` lists the firing SLOs, and ``top_costs`` ranks
the costliest (run, view, variant) groups of the ``cost_seconds_total``
counters in the same registry snapshot (sampled wall and CPU seconds, the
dominant phase; :func:`repro.obs.trace.top_costs`) — no new opcode, so old
clients keep decoding the reply and simply ignore the extra keys.

Tracing rides the op byte: a query op with the :data:`TRACE_FLAG` bit
(``0x20``) set carries a 64-bit trace id right after the fixed header.  The
flag keeps old frames bit-identical (a client that never traces emits
exactly the PR-6 wire format) and the id is consumed *before* the strings
and the id array, so the trailing-bytes check still holds exactly.  The
``metrics`` op (``0x04``) returns the server registry's Prometheus text
exposition — the scrape endpoint, speaking the same framed transport.

Frames are decoded with zero-copy ``numpy.frombuffer`` views over the
received payload; the request/response structs are fixed-layout
little-endian, so non-Python clients can speak the protocol with a few
``struct``-equivalent lines.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import SerializationError

__all__ = [
    "MAX_FRAME_BYTES",
    "OP_DEPENDS",
    "OP_VISIBLE",
    "OP_STATS",
    "OP_METRICS",
    "TRACE_FLAG",
    "RESP_ANSWERS",
    "RESP_SHED",
    "RESP_ERROR",
    "RESP_STATS",
    "RESP_METRICS",
    "QueryRequest",
    "StatsRequest",
    "MetricsRequest",
    "AnswersReply",
    "ShedReply",
    "ErrorReply",
    "StatsReply",
    "MetricsReply",
    "FrameAssembler",
    "encode_depends_request",
    "encode_visible_request",
    "encode_stats_request",
    "encode_metrics_request",
    "encode_answers",
    "encode_shed",
    "encode_error",
    "encode_stats_reply",
    "encode_metrics_reply",
    "decode_request",
    "decode_reply",
]

#: Upper bound on one frame's payload; a peer announcing more is a protocol
#: violation (or garbage on the port), not a big batch — the connection is
#: failed instead of buffering unbounded memory.
MAX_FRAME_BYTES = 1 << 26  # 64 MiB ≈ 4M depends pairs per frame

OP_DEPENDS = 0x01
OP_VISIBLE = 0x02
OP_STATS = 0x03
OP_METRICS = 0x04

#: Set on a query op byte when a 64-bit trace id follows the fixed header.
TRACE_FLAG = 0x20

RESP_ANSWERS = 0x81
RESP_SHED = 0x82
RESP_ERROR = 0x83
RESP_STATS = 0x84
RESP_METRICS = 0x85

_LEN = struct.Struct("<I")
_REQUEST = struct.Struct("<BIHHHI")  # op, request_id, run_len, view_len, variant_len, n
_TRACE_ID = struct.Struct("<Q")  # trace id, present iff op & TRACE_FLAG
_ANSWERS = struct.Struct("<BII")  # op, request_id, n
_SHED = struct.Struct("<BIdI")  # op, request_id, retry_after_s, queue_depth
_ERROR = struct.Struct("<BIHI")  # op, request_id, kind_len, message_len
_STATS = struct.Struct("<BII")  # op, request_id, json_len
_METRICS = struct.Struct("<BII")  # op, request_id, text_len

_ID_DTYPE = np.dtype("<i8")


@dataclass(frozen=True)
class QueryRequest:
    """A decoded ``depends``/``visible`` batch frame."""

    op: int
    request_id: int
    run: str
    view: str
    variant: "str | None"  # None = the server's default
    ids: np.ndarray  # (n, 2) int64 pairs for depends, (n,) uids for visible
    #: 64-bit trace id when the client opted into tracing (``None`` = no id
    #: on the wire; the server may still start a trace of its own).
    trace_id: "int | None" = None


@dataclass(frozen=True)
class StatsRequest:
    request_id: int


@dataclass(frozen=True)
class MetricsRequest:
    """Ask for the server's metrics registry as Prometheus text exposition."""

    request_id: int


@dataclass(frozen=True)
class AnswersReply:
    request_id: int
    answers: "list[bool]"


@dataclass(frozen=True)
class ShedReply:
    """The server refused the batch: its bounded queue is full.

    ``retry_after_s`` is the server's hint for when to resend;
    ``queue_depth`` is the depth that triggered the shed (diagnostics).
    """

    request_id: int
    retry_after_s: float
    queue_depth: int


@dataclass(frozen=True)
class ErrorReply:
    """A query-level failure (unknown view/run, engine fault) for one frame."""

    request_id: int
    kind: str  # the exception class name on the server
    message: str


@dataclass(frozen=True)
class StatsReply:
    request_id: int
    payload: dict


@dataclass(frozen=True)
class MetricsReply:
    request_id: int
    text: str  # Prometheus text exposition (format 0.0.4)


# -- encoding -------------------------------------------------------------------


def _frame(*parts: bytes) -> bytes:
    payload = b"".join(parts)
    if len(payload) > MAX_FRAME_BYTES:
        raise SerializationError(
            f"frame payload of {len(payload)} bytes exceeds the protocol "
            f"bound ({MAX_FRAME_BYTES}); split the batch"
        )
    return _LEN.pack(len(payload)) + payload


def _encode_query(
    op: int, request_id: int, run, view, variant, ids: np.ndarray, trace_id=None
) -> bytes:
    run_b = run.encode("utf-8")
    view_b = view.encode("utf-8")
    variant_b = ("" if variant is None else variant).encode("utf-8")
    n = ids.shape[0]
    parts = []
    if trace_id is not None:
        op |= TRACE_FLAG
    parts.append(
        _REQUEST.pack(op, request_id, len(run_b), len(view_b), len(variant_b), n)
    )
    if trace_id is not None:
        parts.append(_TRACE_ID.pack(trace_id & ((1 << 64) - 1)))
    parts.extend(
        (run_b, view_b, variant_b, np.ascontiguousarray(ids, dtype=_ID_DTYPE).tobytes())
    )
    return _frame(*parts)


def encode_depends_request(
    request_id: int, run: str, view: str, variant, pairs, *, trace_id: "int | None" = None
) -> bytes:
    """One ``depends`` batch frame: ``pairs`` of ``(d1, d2)`` as packed int64."""
    ids = np.asarray(pairs, dtype=_ID_DTYPE)
    if ids.size == 0:
        ids = ids.reshape(0, 2)
    if ids.ndim != 2 or ids.shape[1] != 2:
        raise SerializationError("depends pairs must be an (n, 2) id array")
    return _encode_query(OP_DEPENDS, request_id, run, view, variant, ids, trace_id)


def encode_visible_request(
    request_id: int, run: str, view: str, variant, uids, *, trace_id: "int | None" = None
) -> bytes:
    """One ``is_visible`` batch frame: packed int64 uids."""
    ids = np.asarray(uids, dtype=_ID_DTYPE)
    if ids.ndim != 1:
        raise SerializationError("visible uids must be a flat id array")
    return _encode_query(OP_VISIBLE, request_id, run, view, variant, ids, trace_id)


def encode_stats_request(request_id: int) -> bytes:
    return _frame(_REQUEST.pack(OP_STATS, request_id, 0, 0, 0, 0))


def encode_metrics_request(request_id: int) -> bytes:
    return _frame(_REQUEST.pack(OP_METRICS, request_id, 0, 0, 0, 0))


def encode_answers(request_id: int, answers) -> bytes:
    bits = np.packbits(np.asarray(answers, dtype=bool))
    return _frame(_ANSWERS.pack(RESP_ANSWERS, request_id, len(answers)), bits.tobytes())


def encode_shed(request_id: int, retry_after_s: float, queue_depth: int) -> bytes:
    return _frame(_SHED.pack(RESP_SHED, request_id, retry_after_s, queue_depth))


def encode_error(request_id: int, kind: str, message: str) -> bytes:
    kind_b = kind.encode("utf-8")[:1024]
    message_b = message.encode("utf-8")[:65536]
    return _frame(
        _ERROR.pack(RESP_ERROR, request_id, len(kind_b), len(message_b)),
        kind_b,
        message_b,
    )


def encode_stats_reply(request_id: int, payload: dict) -> bytes:
    body = json.dumps(payload, default=str).encode("utf-8")
    return _frame(_STATS.pack(RESP_STATS, request_id, len(body)), body)


def encode_metrics_reply(request_id: int, text: str) -> bytes:
    body = text.encode("utf-8")
    return _frame(_METRICS.pack(RESP_METRICS, request_id, len(body)), body)


# -- decoding -------------------------------------------------------------------


class _Cursor:
    __slots__ = ("payload", "offset")

    def __init__(self, payload: bytes) -> None:
        self.payload = payload
        self.offset = 0

    def take(self, n: int) -> bytes:
        end = self.offset + n
        if n < 0 or end > len(self.payload):
            raise SerializationError("truncated protocol frame")
        chunk = self.payload[self.offset : end]
        self.offset = end
        return chunk

    def unpack(self, spec: struct.Struct):
        return spec.unpack(self.take(spec.size))

    def text(self, n: int) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError(f"bad UTF-8 in protocol frame: {exc}") from exc


def decode_request(payload: bytes) -> "QueryRequest | StatsRequest | MetricsRequest":
    """Decode one request payload (the bytes after the length prefix)."""
    cursor = _Cursor(payload)
    op, request_id, run_len, view_len, variant_len, n = cursor.unpack(_REQUEST)
    traced = bool(op & TRACE_FLAG)
    op &= ~TRACE_FLAG
    if op == OP_STATS:
        return StatsRequest(request_id)
    if op == OP_METRICS:
        return MetricsRequest(request_id)
    if op not in (OP_DEPENDS, OP_VISIBLE):
        raise SerializationError(f"unknown request opcode 0x{op:02x}")
    trace_id = None
    if traced:
        # Consumed before the strings/ids, so the trailing-bytes check below
        # keeps rejecting malformed frames exactly as for untraced ones.
        (trace_id,) = cursor.unpack(_TRACE_ID)
    run = cursor.text(run_len)
    view = cursor.text(view_len)
    variant = cursor.text(variant_len) or None
    width = 2 if op == OP_DEPENDS else 1
    raw = cursor.take(n * width * _ID_DTYPE.itemsize)
    if cursor.offset != len(payload):
        raise SerializationError("trailing bytes after the request's id array")
    ids = np.frombuffer(raw, dtype=_ID_DTYPE)
    if op == OP_DEPENDS:
        ids = ids.reshape(n, 2)
    return QueryRequest(op, request_id, run, view, variant, ids, trace_id)


def decode_reply(payload: bytes):
    """Decode one response payload into its typed reply dataclass."""
    if not payload:
        raise SerializationError("empty protocol frame")
    op = payload[0]
    cursor = _Cursor(payload)
    if op == RESP_ANSWERS:
        _, request_id, n = cursor.unpack(_ANSWERS)
        raw = cursor.take((n + 7) // 8)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n)
        return AnswersReply(request_id, [bool(b) for b in bits])
    if op == RESP_SHED:
        _, request_id, retry_after_s, queue_depth = cursor.unpack(_SHED)
        return ShedReply(request_id, retry_after_s, queue_depth)
    if op == RESP_ERROR:
        _, request_id, kind_len, message_len = cursor.unpack(_ERROR)
        return ErrorReply(request_id, cursor.text(kind_len), cursor.text(message_len))
    if op == RESP_STATS:
        _, request_id, json_len = cursor.unpack(_STATS)
        try:
            return StatsReply(request_id, json.loads(cursor.take(json_len)))
        except ValueError as exc:
            raise SerializationError(f"corrupt stats reply: {exc}") from exc
    if op == RESP_METRICS:
        _, request_id, text_len = cursor.unpack(_METRICS)
        return MetricsReply(request_id, cursor.text(text_len))
    raise SerializationError(f"unknown reply opcode 0x{op:02x}")


class FrameAssembler:
    """Reassemble length-prefixed frames from a TCP/unix byte stream.

    ``feed(data)`` buffers the chunk and returns every *complete* frame
    payload it closed; partial frames wait for more bytes.  A length prefix
    above ``max_frame_bytes`` raises — that peer is broken or hostile, and
    the connection should be dropped rather than the buffer grown.
    """

    __slots__ = ("_buffer", "_max")

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max = max_frame_bytes

    def feed(self, data: bytes) -> "list[bytes]":
        self._buffer += data
        frames: list[bytes] = []
        while len(self._buffer) >= _LEN.size:
            (length,) = _LEN.unpack_from(self._buffer)
            if length > self._max:
                raise SerializationError(
                    f"peer announced a {length}-byte frame (protocol bound "
                    f"{self._max}); dropping the connection"
                )
            end = _LEN.size + length
            if len(self._buffer) < end:
                break
            frames.append(bytes(self._buffer[_LEN.size : end]))
            del self._buffer[:end]
        return frames

    @property
    def buffered(self) -> int:
        return len(self._buffer)
