"""The network tier: binary-batch transport over the provenance scheduler.

``repro.net`` puts a wire in front of :class:`repro.serve.ProvenanceServer`
— a length-prefixed binary frame protocol over unix or TCP sockets where one
client frame carries one ``(run, view)``-keyed query batch and
comes back as bit-packed booleans.  See :mod:`repro.net.protocol` for the
frame layout, :class:`ProvenanceNetServer` for the event-loop server with
admission control (SHED, not blocking) and per-connection fairness, and
:class:`ProvenanceClient` for the pooled, batch-first client.
"""

from repro.net.client import (
    CircuitOpenError,
    ProvenanceClient,
    RemoteQueryError,
    ServerOverloadedError,
)
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    TRACE_FLAG,
    AnswersReply,
    ErrorReply,
    FrameAssembler,
    MetricsReply,
    MetricsRequest,
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
from repro.net.server import NetStats, ProvenanceNetServer

__all__ = [
    "MAX_FRAME_BYTES",
    "TRACE_FLAG",
    "AnswersReply",
    "CircuitOpenError",
    "ErrorReply",
    "FrameAssembler",
    "MetricsReply",
    "MetricsRequest",
    "NetStats",
    "ProvenanceClient",
    "ProvenanceNetServer",
    "QueryRequest",
    "RemoteQueryError",
    "ServerOverloadedError",
    "ShedReply",
    "StatsReply",
    "StatsRequest",
    "decode_reply",
    "decode_request",
    "encode_answers",
    "encode_depends_request",
    "encode_error",
    "encode_metrics_reply",
    "encode_metrics_request",
    "encode_shed",
    "encode_stats_reply",
    "encode_stats_request",
    "encode_visible_request",
]
