"""SLO watchdog: declarative specs evaluated on snapshot deltas.

The observability layer can *record* a shed storm; nothing so far *notices*
one.  :class:`Watchdog` closes the loop: each :meth:`tick` snapshots the
stack's registry into a :class:`~repro.obs.timeseries.SnapshotRing`, then
evaluates every declared :class:`SLO` against the windowed deltas — rates
and increases from counter differences, percentiles from histogram-bucket
differences — and manages firing state with hysteresis:

* the first breaching tick emits an ``alert`` event (into the installed
  :mod:`repro.obs.events` log) and marks the SLO firing;
* a firing SLO clears only after ``clear_after`` consecutive healthy ticks
  — one quiet interval is not a recovery — emitting ``alert_clear``;
* :meth:`health` folds the firing set into the verdict the stats/health
  wire op reports: ``"ok"`` or ``"degraded"`` plus the firing alerts.

SLO kinds:

``rate``
    counter increase per second over ``window_s`` must stay <= ``threshold``
    (shed rate, error rate).
``delta``
    counter increase over ``window_s`` must stay <= ``threshold`` — with
    threshold 0 this is "no new corruption in the window".
``percentile``
    the windowed q-quantile of a histogram family must stay <= ``threshold``
    seconds (p99 latency); a window with no observations reads 0.0, so an
    idle server's latency alert clears.

Run it either by calling :meth:`tick` yourself (tests, deterministic
clocks) or via :meth:`start`'s background thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.obs import events as obs_events
from repro.obs.timeseries import SnapshotRing

__all__ = ["SLO", "SLO_KINDS", "Watchdog", "default_slos"]

#: The SLO kinds :class:`Watchdog` evaluates.
SLO_KINDS = ("rate", "delta", "percentile")


@dataclass(frozen=True)
class SLO:
    """One declarative objective over a metric family."""

    name: str
    kind: str  # one of SLO_KINDS
    metric: str
    threshold: float = 0.0
    #: Select one labeled child; ``None`` aggregates the whole family.
    labels: "tuple[str, ...] | None" = None
    window_s: float = 10.0
    #: For kind="percentile": which quantile of the windowed distribution.
    q: float = 0.99
    #: Consecutive healthy ticks required before a firing alert clears.
    clear_after: int = 2

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.clear_after < 1:
            raise ValueError("clear_after must be at least 1")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must be in (0, 1]")


def default_slos() -> "tuple[SLO, ...]":
    """The serving stack's stock objectives: latency, errors, sheds, corruption.

    A caller that wants other thresholds passes its own :class:`SLO` list.
    """
    return (
        SLO("p99_latency", "percentile", "tail_request_seconds", threshold=0.5, q=0.99),
        SLO("error_rate", "rate", "net_errors_total", threshold=5.0),
        SLO("shed_rate", "rate", "net_sheds_total", threshold=1.0),
        SLO("corruption", "delta", "corruption_detected_total", threshold=0.0),
    )


@dataclass
class _AlertState:
    firing: bool = False
    ok_streak: int = 0
    since: float = 0.0
    value: float = 0.0
    fired_total: int = 0


class Watchdog:
    """Evaluate SLOs over a ring of registry snapshots; emit alert events."""

    def __init__(
        self,
        registry,
        slos: "tuple[SLO, ...] | list[SLO] | None" = None,
        *,
        interval_s: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        self.registry = registry
        self.slos = tuple(slos) if slos is not None else default_slos()
        names = [slo.name for slo in self.slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self.ring = SnapshotRing(clock=clock)
        self.interval_s = interval_s
        self._clock = clock
        self._states = {slo.name: _AlertState() for slo in self.slos}
        self._lock = threading.Lock()
        self._thread: "threading.Thread | None" = None
        self._stop = threading.Event()
        self._ticks_c = registry.counter(
            "watchdog_ticks_total", "watchdog evaluation passes"
        )
        self._alerts_c = registry.counter(
            "watchdog_alerts_total", "alerts fired per SLO", ("slo",)
        )
        self._firing_g = registry.gauge(
            "watchdog_alerts_firing", "SLOs currently in breach"
        )

    # -- evaluation --------------------------------------------------------------

    def _evaluate(self, slo: SLO) -> float:
        """The observed value of one SLO at the ring's head."""
        if slo.kind == "rate":
            return self.ring.rate(slo.metric, slo.labels, slo.window_s)
        if slo.kind == "delta":
            return self.ring.delta(slo.metric, slo.labels, slo.window_s)[0]
        return self.ring.percentile(slo.metric, slo.q, slo.labels, slo.window_s)

    def tick(self) -> dict:
        """One watchdog pass: snapshot, evaluate, manage alert transitions.

        Returns ``{slo name: {"value", "breached", "firing"}}`` for
        introspection; the side effects (events, counters, health verdict)
        are the point.
        """
        self.ring.record(self.registry)
        self._ticks_c.inc()
        now = self._clock()
        report: dict[str, dict] = {}
        with self._lock:
            for slo in self.slos:
                state = self._states[slo.name]
                value = self._evaluate(slo)
                breached = value > slo.threshold
                if breached:
                    state.ok_streak = 0
                    state.value = value
                    if not state.firing:
                        state.firing = True
                        state.since = now
                        state.fired_total += 1
                        self._alerts_c.labels(slo.name).inc()
                        obs_events.emit(
                            "alert",
                            slo=slo.name,
                            kind=slo.kind,
                            metric=slo.metric,
                            value=round(value, 6),
                            threshold=slo.threshold,
                        )
                elif state.firing:
                    state.ok_streak += 1
                    if state.ok_streak >= slo.clear_after:
                        state.firing = False
                        obs_events.emit(
                            "alert_clear",
                            slo=slo.name,
                            value=round(value, 6),
                            breached_for_s=round(now - state.since, 3),
                        )
                report[slo.name] = {
                    "value": value,
                    "breached": breached,
                    "firing": state.firing,
                }
            firing = sum(1 for s in self._states.values() if s.firing)
        self._firing_g.set(firing)
        return report

    # -- verdicts ----------------------------------------------------------------

    def health(self) -> dict:
        """The degraded-health verdict the stats/health wire op reports."""
        now = self._clock()
        with self._lock:
            alerts = [
                {
                    "slo": slo.name,
                    "value": round(state.value, 6),
                    "threshold": slo.threshold,
                    "since_s": round(now - state.since, 3),
                }
                for slo in self.slos
                for state in (self._states[slo.name],)
                if state.firing
            ]
        return {
            "status": "degraded" if alerts else "ok",
            "alerts": alerts,
        }

    def firing(self) -> list[str]:
        with self._lock:
            return [name for name, state in self._states.items() if state.firing]

    # -- background loop ---------------------------------------------------------

    def start(self) -> "Watchdog":
        if self._thread is not None:
            raise RuntimeError("watchdog is already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="obs-watchdog", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join()
        self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.tick()
            except Exception:  # pragma: no cover - the loop must survive
                pass

    def __enter__(self) -> "Watchdog":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
