"""Unified observability layer: metrics registry, request records, event log.

Three cooperating pieces, each usable alone:

* :mod:`repro.obs.metrics` — a lock-cheap registry of monotonic counters,
  gauges, and fixed-bucket latency histograms.  One registry serves a whole
  engine/server stack; a single lock acquisition snapshots every family at
  one instant, and the same snapshot renders as Prometheus text exposition.
* :mod:`repro.obs.trace` — 64-bit trace ids with nested spans carrying
  wall + CPU timings, and the one per-request record: a
  :class:`~repro.obs.trace.Sampler` opens a
  :class:`~repro.obs.trace.Request` per frame, head-samples it
  deterministically, and at finish observes its latency, keeps it (reason
  ``error`` / ``shed`` / ``slow`` / ``head``) in one byte-bounded ring or
  drops it, and folds a sampled request's span self-times into the
  per-(run, view, variant, phase) cost counters.
* :mod:`repro.obs.events` — a structured JSONL event log with bounded
  rotation, reached through a module-global ``emit()`` that is a no-op until
  an :class:`~repro.obs.events.EventLog` is installed (the same pattern as
  :data:`repro.faults.hit`).

On top of those, the intelligence tier closes the loop from raw telemetry
to decisions:

* :mod:`repro.obs.timeseries` — a ring of registry snapshots turning
  cumulative counters into windowed deltas, rates and percentiles.
* :mod:`repro.obs.watchdog` — declarative SLOs evaluated on that ring,
  emitting ``alert`` / ``alert_clear`` events and the degraded-health
  verdict the stats wire op reports.
"""

# NOTE: ``events.emit`` is deliberately NOT re-exported: it is a re-bindable
# module global (like ``faults.hit``), so call sites must go through the
# module — ``from repro.obs import events; events.emit(...)`` — or they would
# freeze the no-op binding at import time.
from repro.obs.events import EventLog, install_event_log, uninstall_event_log
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    MetricsRegistry,
)
from repro.obs.timeseries import SnapshotRing
from repro.obs.trace import (
    DEFAULT_SAMPLE_RATE,
    PHASE_BY_SPAN,
    Request,
    Sampler,
    Span,
    Trace,
    TraceContext,
    activate,
    current_trace,
    phase_costs,
    top_costs,
    trace_span,
)
from repro.obs.watchdog import SLO, Watchdog, default_slos

__all__ = [
    "MetricsRegistry",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "LATENCY_BUCKETS",
    "Sampler",
    "Request",
    "Trace",
    "TraceContext",
    "Span",
    "DEFAULT_SAMPLE_RATE",
    "PHASE_BY_SPAN",
    "activate",
    "current_trace",
    "phase_costs",
    "top_costs",
    "trace_span",
    "EventLog",
    "install_event_log",
    "uninstall_event_log",
    "SnapshotRing",
    "Watchdog",
    "SLO",
    "default_slos",
]
