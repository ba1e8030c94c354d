"""Failure containment in the lifecycle manager: backoff, quarantine, recovery."""

from __future__ import annotations

import pytest

import repro.service.lifecycle as lifecycle_module
from repro.core import FVLScheme
from repro.core.run_labeler import RunLabeler
from repro.engine import QueryEngine
from repro.errors import LabelingError
from repro.service import CheckpointPolicy, RunLifecycleManager
from repro.store import run_file_info
from repro.workloads import build_bioaid_specification, random_run


@pytest.fixture(scope="module")
def spec():
    return build_bioaid_specification()


@pytest.fixture(scope="module")
def scheme(spec):
    return FVLScheme(spec)


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _failing_manager(scheme, spec, tmp_path, clock, **kwargs):
    """A managed run whose flushes fail: its directory does not exist yet."""
    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(
        engine,
        policy=CheckpointPolicy(every_events=1, every_seconds=None),
        clock=clock,
        **kwargs,
    )
    labeler = RunLabeler(scheme.index)
    missing = tmp_path / "not-yet"
    manager.manage("r", missing / "r.fvl", labeler=labeler)
    for event in random_run(spec, 40, seed=50).events:
        labeler(event)
    return manager, labeler, missing


def test_knob_validation(scheme):
    engine = QueryEngine(scheme)
    with pytest.raises(ValueError, match="quarantine_after"):
        RunLifecycleManager(engine, quarantine_after=0)
    with pytest.raises(ValueError, match="backoff"):
        RunLifecycleManager(engine, retry_backoff_s=-1.0)


def test_second_failure_starts_exponential_backoff(scheme, spec, tmp_path):
    clock = FakeClock()
    manager, _, missing = _failing_manager(
        scheme, spec, tmp_path, clock, retry_backoff_s=1.0, quarantine_after=None
    )
    with pytest.raises(OSError):
        manager.poll_once()  # failure 1: retried on the very next sweep
    with pytest.raises(OSError):
        manager.poll_once()  # failure 2: backoff (1.0s) begins
    # Inside the backoff window the run is skipped — no raise, no attempt.
    assert manager.poll_once().checkpoints == []
    assert manager.stats.run_failures == 2
    clock.advance(1.1)
    with pytest.raises(OSError):
        manager.poll_once()  # failure 3: backoff doubles (2.0s)
    clock.advance(1.1)
    assert manager.poll_once().checkpoints == []  # still inside 2.0s
    clock.advance(1.0)
    missing.mkdir()
    sweep = manager.poll_once()  # backoff elapsed and the path healed
    assert len(sweep.checkpoints) == 1
    assert manager.stats.run_failures == 3
    assert manager.run_failure("r") is None  # streak cleared by the success
    manager.unmanage("r")


def test_retry_backoff_is_capped(scheme, spec, tmp_path, monkeypatch):
    monkeypatch.setattr(lifecycle_module, "RETRY_BACKOFF_CAP_S", 1.5)
    clock = FakeClock()
    manager, _, missing = _failing_manager(
        scheme, spec, tmp_path, clock, retry_backoff_s=1.0, quarantine_after=None
    )
    with pytest.raises(OSError):
        manager.poll_once()  # failure 1: retried on the very next sweep
    with pytest.raises(OSError):
        manager.poll_once()  # failure 2: backoff (1.0s) begins
    clock.advance(1.1)
    with pytest.raises(OSError):
        manager.poll_once()  # failure 3: 2.0s, capped to 1.5s
    clock.advance(1.4)
    assert manager.poll_once().checkpoints == []  # inside the capped window
    clock.advance(0.2)
    with pytest.raises(OSError):
        manager.poll_once()  # failure 4: 4.0s, capped to 1.5s
    clock.advance(1.6)
    missing.mkdir()
    assert len(manager.poll_once().checkpoints) == 1
    assert manager.stats.run_failures == 4
    manager.unmanage("r")


def test_quarantine_after_consecutive_failures(scheme, spec, tmp_path):
    clock = FakeClock()
    manager, labeler, missing = _failing_manager(
        scheme, spec, tmp_path, clock, retry_backoff_s=1.0, quarantine_after=3
    )
    for _ in range(3):
        with pytest.raises(OSError):
            manager.poll_once()
        clock.advance(60.0)  # clear any backoff window
    assert manager.quarantined_runs == ("r",)
    assert manager.stats.quarantined_runs == 1
    assert isinstance(manager.run_failure("r"), OSError)
    # Quarantined: sweeps skip the run entirely — no raise, forever.
    for _ in range(3):
        assert manager.poll_once().checkpoints == []
        clock.advance(60.0)
    # Healing the path alone is not enough for *background* sweeps...
    missing.mkdir()
    assert manager.poll_once().checkpoints == []
    # ...but an explicit flush bypasses quarantine and, on success, lifts it.
    results = manager.flush("r")
    assert len(results) == 1
    assert manager.quarantined_runs == ()
    assert run_file_info(missing / "r.fvl").n_items == len(labeler.store)
    manager.unmanage("r")


def test_unquarantine_restores_background_sweeps(scheme, spec, tmp_path):
    clock = FakeClock()
    manager, labeler, missing = _failing_manager(
        scheme, spec, tmp_path, clock, retry_backoff_s=0.0, quarantine_after=2
    )
    for _ in range(2):
        with pytest.raises(OSError):
            manager.poll_once()
        clock.advance(60.0)
    assert manager.quarantined_runs == ("r",)
    missing.mkdir()
    manager.unquarantine("r")
    sweep = manager.poll_once()
    assert len(sweep.checkpoints) == 1
    assert manager.quarantined_runs == ()
    assert manager.run_failure("r") is None
    manager.unmanage("r")


def test_unquarantine_unknown_run_raises(scheme):
    manager = RunLifecycleManager(QueryEngine(scheme))
    with pytest.raises(LabelingError, match="not managed"):
        manager.unquarantine("ghost")
    with pytest.raises(LabelingError, match="not managed"):
        manager.run_failure("ghost")


def test_quarantined_run_does_not_wedge_siblings(scheme, spec, tmp_path):
    clock = FakeClock()
    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(
        engine,
        policy=CheckpointPolicy(every_events=1, every_seconds=None),
        clock=clock,
        retry_backoff_s=1.0,
        quarantine_after=2,
    )
    good_labeler = RunLabeler(scheme.index)
    bad_labeler = RunLabeler(scheme.index)
    manager.manage("good", tmp_path / "good.fvl", labeler=good_labeler)
    manager.manage("bad", tmp_path / "missing" / "bad.fvl", labeler=bad_labeler)
    events = random_run(spec, 60, seed=51).events
    half = len(events) // 2
    for event in events[:half]:
        good_labeler(event)
        bad_labeler(event)
    for _ in range(2):
        with pytest.raises(OSError):
            manager.poll_once()
        clock.advance(60.0)
    assert manager.quarantined_runs == ("bad",)
    # The good run flushed on those very sweeps and keeps flushing after.
    assert run_file_info(tmp_path / "good.fvl").n_items == len(good_labeler.store)
    for event in events[half:]:
        good_labeler(event)
    sweep = manager.poll_once()  # quarantined sibling skipped, no raise
    assert len(sweep.checkpoints) == 1
    assert run_file_info(tmp_path / "good.fvl").n_items == len(good_labeler.store)
    manager.unmanage("good")


def test_deferred_lease_retry_after_n_failed_sweeps(scheme, spec, tmp_path):
    """The directory appearing after N flush failures still gets the lease."""
    clock = FakeClock()
    manager, labeler, missing = _failing_manager(
        scheme, spec, tmp_path, clock, retry_backoff_s=0.5, quarantine_after=10
    )
    managed = manager._runs["r"]
    assert managed.lease is not None and not managed.lease.held  # deferred
    for _ in range(3):
        with pytest.raises(OSError):
            manager.poll_once()
        clock.advance(60.0)
    missing.mkdir()
    sweep = manager.poll_once()
    assert len(sweep.checkpoints) == 1
    assert managed.lease.held  # the healthy flush finally took the lease
    assert run_file_info(missing / "r.fvl").n_items == len(labeler.store)
    manager.unmanage("r")
