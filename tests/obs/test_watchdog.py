"""Watchdog: SLO evaluation, alert hysteresis, health verdicts."""

from __future__ import annotations

import pytest

from repro.obs import events as obs_events
from repro.obs.metrics import MetricsRegistry
from repro.obs.watchdog import SLO, Watchdog, default_slos


class ManualClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture()
def emitted(monkeypatch):
    events: list[tuple[str, dict]] = []
    monkeypatch.setattr(
        obs_events, "emit", lambda event, **fields: events.append((event, fields))
    )
    return events


def make_watchdog(slos, registry=None):
    registry = registry if registry is not None else MetricsRegistry()
    clock = ManualClock()
    dog = Watchdog(registry, slos, clock=clock)
    return registry, clock, dog


def test_slo_spec_is_validated():
    with pytest.raises(ValueError):
        SLO("x", "median", "m_total")  # unknown kind
    with pytest.raises(ValueError):
        SLO("x", "rate", "m_total", clear_after=0)
    with pytest.raises(ValueError):
        SLO("x", "percentile", "m_total", q=1.5)
    with pytest.raises(ValueError):
        make_watchdog([SLO("dup", "rate", "a_total"), SLO("dup", "rate", "b_total")])
    names = [slo.name for slo in default_slos()]
    assert names == ["p99_latency", "error_rate", "shed_rate", "corruption"]


def test_removed_slo_kinds_are_rejected():
    for kind in ("value", "anomaly"):
        with pytest.raises(ValueError, match="unknown SLO kind"):
            SLO("x", kind, "m_total", threshold=1.0)


def test_default_slos_breach_at_their_stock_thresholds():
    reg, clock, dog = make_watchdog(default_slos())
    errors = reg.counter("net_errors_total")
    sheds = reg.counter("net_sheds_total")
    corrupt = reg.counter("corruption_detected_total")
    latency = reg.histogram("tail_request_seconds", buckets=(0.1, 0.5, 1.0, 5.0))
    dog.tick()
    clock.t = 10.0
    errors.inc(40)  # 4/s: under the 5/s bound
    sheds.inc(20)  # 2/s: over the 1/s bound
    for _ in range(100):
        latency.observe(0.05)
    report = dog.tick()
    assert {name for name, entry in report.items() if entry["breached"]} == {"shed_rate"}
    clock.t = 20.0
    corrupt.inc()  # any corruption breaches
    for _ in range(100):
        latency.observe(2.0)  # p99 of the window: 5.0s > 0.5s
    report = dog.tick()
    assert {name for name, entry in report.items() if entry["breached"]} == {
        "corruption",
        "p99_latency",
    }


def test_the_watchdog_ring_runs_on_the_watchdog_clock():
    slo = SLO("x_rate", "rate", "x_total", threshold=1.0)
    reg, clock, dog = make_watchdog([slo])
    clock.t = 42.0
    dog.tick()
    assert dog.ring.latest[0] == 42.0
    reg.counter("x_total").inc(30)
    clock.t = 52.0
    assert dog.tick()["x_rate"]["value"] == pytest.approx(3.0)


def test_rate_slo_fires_once_and_clears_with_hysteresis(emitted):
    slo = SLO("shed_rate", "rate", "sheds_total", threshold=1.0,
              window_s=2.0, clear_after=2)
    reg, clock, dog = make_watchdog([slo])
    sheds = reg.counter("sheds_total")

    dog.tick()  # single snapshot: no window yet, healthy
    assert dog.health()["status"] == "ok"

    clock.t = 1.0
    sheds.inc(10)  # 10 sheds in 1s >> 1/s
    report = dog.tick()
    assert report["shed_rate"]["breached"] and report["shed_rate"]["firing"]
    health = dog.health()
    assert health["status"] == "degraded"
    [alert] = health["alerts"]
    assert alert["slo"] == "shed_rate" and alert["threshold"] == 1.0
    assert dog.firing() == ["shed_rate"]

    clock.t = 1.5
    sheds.inc(10)  # still breaching: no second alert event
    dog.tick()

    # Quiet ticks outside the window: the first is not enough to clear ...
    clock.t = 4.0
    dog.tick()
    assert dog.health()["status"] == "degraded"
    # ... the second consecutive healthy tick is.
    clock.t = 5.0
    dog.tick()
    assert dog.health()["status"] == "ok"

    kinds = [event for event, _ in emitted]
    assert kinds == ["alert", "alert_clear"]
    assert emitted[0][1]["slo"] == "shed_rate"
    assert emitted[1][1]["breached_for_s"] == pytest.approx(4.0)
    snap = reg.snapshot()
    assert snap["watchdog_alerts_total"][("shed_rate",)] == 1
    assert snap["watchdog_alerts_firing"][()] == 0.0
    assert snap["watchdog_ticks_total"][()] == 5


def test_delta_slo_zero_threshold_flags_any_corruption(emitted):
    slo = SLO("corruption", "delta", "corruption_detected_total",
              threshold=0.0, window_s=10.0)
    reg, clock, dog = make_watchdog([slo])
    family = reg.counter("corruption_detected_total", "", ("layer",))
    dog.tick()
    clock.t = 1.0
    dog.tick()
    assert dog.health()["status"] == "ok"
    family.labels("engine").inc()
    clock.t = 2.0
    report = dog.tick()
    assert report["corruption"]["breached"]
    assert [event for event, _ in emitted] == ["alert"]


def test_percentile_slo_windows_the_latency_histogram():
    slo = SLO("p99", "percentile", "lat_seconds", threshold=0.05,
              q=0.99, window_s=10.0)
    reg, clock, dog = make_watchdog([slo])
    hist = reg.histogram("lat_seconds", buckets=(0.01, 0.1, 1.0))
    for _ in range(100):
        hist.observe(0.005)
    dog.tick()
    clock.t = 1.0
    dog.tick()
    assert dog.health()["status"] == "ok"
    for _ in range(10):
        hist.observe(0.5)  # the window's p99 jumps to the 1.0 edge
    clock.t = 2.0
    report = dog.tick()
    assert report["p99"]["value"] == pytest.approx(1.0)
    assert dog.health()["status"] == "degraded"


def test_percentile_alert_clears_on_an_idle_server(emitted):
    """An idle window reads 0.0: the alert clears after ``clear_after`` quiet ticks."""
    slo = SLO("p99", "percentile", "lat_seconds", threshold=0.05,
              window_s=10.0, clear_after=2)
    reg, clock, dog = make_watchdog([slo])
    hist = reg.histogram("lat_seconds", buckets=(0.01, 0.1, 1.0))
    dog.tick()
    for _ in range(100):
        hist.observe(0.005)
    for _ in range(10):
        hist.observe(0.5)
    clock.t = 2.0
    assert dog.tick()["p99"]["firing"]
    assert dog.health()["status"] == "degraded"
    # No traffic from here on: each tick's window holds no observation.
    clock.t = 62.0
    report = dog.tick()
    assert report["p99"]["value"] == 0.0 and report["p99"]["firing"]
    clock.t = 122.0
    assert not dog.tick()["p99"]["firing"]
    assert dog.health() == {"status": "ok", "alerts": []}
    assert [event for event, _ in emitted] == ["alert", "alert_clear"]


def test_background_loop_ticks_and_context_manager_stops():
    slo = SLO("noop", "rate", "x_total", threshold=1e9)
    reg = MetricsRegistry()
    with Watchdog(reg, [slo], interval_s=0.01) as dog:
        deadline = 200
        while reg.snapshot().get("watchdog_ticks_total", {}).get((), 0) < 2:
            deadline -= 1
            assert deadline > 0, "background loop never ticked"
            import time

            time.sleep(0.01)
    assert dog._thread is None
