"""Unit tests for the run lifecycle service (background checkpoint/compact/reopen)."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import FVLScheme, FVLVariant
from repro.core.run_labeler import RunLabeler
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.errors import LabelingError, SerializationError
from repro.model.projection import ViewProjection
from repro.obs import events as obs_events
from repro.service import CheckpointPolicy, RunLifecycleManager
from repro.store import run_file_info
from repro.bench import sample_query_pairs
from repro.workloads import build_bioaid_specification, random_run, random_view


@pytest.fixture(scope="module")
def spec():
    return build_bioaid_specification()


@pytest.fixture(scope="module")
def scheme(spec):
    return FVLScheme(spec)


class FakeClock:
    """A manually advanced monotonic clock for deterministic policy tests."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _stream(labeler, events):
    for event in events:
        labeler(event)


def _durable_items(path) -> int:
    """Header watermark of ``path``, or -1 while the writer has not committed one.

    The writer creates the file before its first header lands (header last,
    by design), so a poller must tolerate the transient headerless state.
    """
    if not os.path.exists(path):
        return -1
    try:
        return run_file_info(path).n_items
    except SerializationError:
        return -1


# -- policy --------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        CheckpointPolicy(every_events=None, every_seconds=None)
    with pytest.raises(ValueError):
        CheckpointPolicy(every_events=0)
    with pytest.raises(ValueError):
        CheckpointPolicy(every_seconds=0.0)
    with pytest.raises(ValueError):
        CheckpointPolicy(compact_after_segments=1)


def test_event_bound_triggers_flush(scheme, spec, tmp_path):
    derivation = random_run(spec, 200, seed=1)
    clock = FakeClock()
    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(
        engine,
        policy=CheckpointPolicy(every_events=100, every_seconds=None),
        clock=clock,
    )
    labeler = RunLabeler(scheme.index)
    manager.manage("r", tmp_path / "r.fvl", labeler=labeler)

    # Below the event bound: the sweep does nothing.
    events = derivation.events
    _stream(labeler, events[:2])
    assert 0 < len(labeler.store) < 100
    assert manager.poll_once().checkpoints == []

    # Crossing the bound flushes exactly the pending delta.
    _stream(labeler, events[2:])
    sweep = manager.poll_once()
    assert len(sweep.checkpoints) == 1
    assert sweep.flushed_items == len(labeler.store)
    assert run_file_info(tmp_path / "r.fvl").n_items == len(labeler.store)
    # Nothing pending -> the next sweep is a no-op (no empty segments).
    assert manager.poll_once().checkpoints == []
    stats = manager.stats
    assert stats.checkpoints == 1 and stats.items_flushed == len(labeler.store)


def test_time_bound_flushes_any_pending_delta(scheme, spec, tmp_path):
    derivation = random_run(spec, 120, seed=2)
    clock = FakeClock()
    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(
        engine,
        policy=CheckpointPolicy(every_events=10**9, every_seconds=30.0),
        clock=clock,
    )
    labeler = RunLabeler(scheme.index)
    manager.manage("r", tmp_path / "r.fvl", labeler=labeler)
    _stream(labeler, derivation.events[:4])

    assert manager.poll_once().checkpoints == []  # time not elapsed yet
    clock.advance(29.0)
    assert manager.poll_once().checkpoints == []
    clock.advance(2.0)
    sweep = manager.poll_once()
    assert len(sweep.checkpoints) == 1 and sweep.flushed_items > 0
    # The flush resets the interval.
    _stream(labeler, derivation.events[4:6])
    assert manager.poll_once().checkpoints == []
    clock.advance(31.0)
    assert len(manager.poll_once().checkpoints) == 1


def test_multiple_due_runs_flush_in_one_batched_sweep(scheme, spec, tmp_path):
    clock = FakeClock()
    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(
        engine, policy=CheckpointPolicy(every_events=1, every_seconds=None), clock=clock
    )
    labelers = {}
    for name in ("a", "b", "c"):
        labelers[name] = RunLabeler(scheme.index)
        manager.manage(name, tmp_path / f"{name}.fvl", labeler=labelers[name])
    for seed, labeler in enumerate(labelers.values()):
        _stream(labeler, random_run(spec, 60, seed=seed).events)
    sweep = manager.poll_once()
    assert len(sweep.checkpoints) == 3
    for name, labeler in labelers.items():
        assert run_file_info(tmp_path / f"{name}.fvl").n_items == len(labeler.store)


def test_manage_resumes_existing_file_watermarks(scheme, spec, tmp_path):
    derivation = random_run(spec, 150, seed=3)
    engine = QueryEngine(scheme)
    labeler = RunLabeler(scheme.index)
    _stream(labeler, derivation.events)
    path = tmp_path / "resume.fvl"

    first = RunLifecycleManager(
        engine, policy=CheckpointPolicy(every_events=1, every_seconds=None)
    )
    first.manage("r", path, labeler=labeler)
    first.flush()
    durable = run_file_info(path)

    resumed = RunLifecycleManager(
        engine, policy=CheckpointPolicy(every_events=1, every_seconds=None)
    )
    resumed.manage("r", path, labeler=labeler)
    # Already durable: the resumed manager sees no pending delta.
    assert resumed.poll_once().checkpoints == []
    assert run_file_info(path).n_segments == durable.n_segments


def test_manage_registration_errors(scheme, spec, tmp_path):
    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(engine)
    labeler = RunLabeler(scheme.index)
    manager.manage("r", tmp_path / "r.fvl", labeler=labeler)
    with pytest.raises(LabelingError, match="already managed"):
        manager.manage("r", tmp_path / "other.fvl", labeler=labeler)
    with pytest.raises(LabelingError, match="not managed"):
        manager.unmanage("ghost")
    with pytest.raises(LabelingError, match="no run"):
        manager.manage("unregistered", tmp_path / "x.fvl")  # engine lookup fails
    manager.unmanage("r")
    assert manager.managed_runs == ()


def test_manage_rejects_sharing_a_run_file(scheme, spec, tmp_path):
    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(engine)
    manager.manage("a", tmp_path / "shared.fvl", labeler=RunLabeler(scheme.index))
    with pytest.raises(LabelingError, match="own file"):
        manager.manage("b", tmp_path / "shared.fvl", labeler=RunLabeler(scheme.index))


def test_unmanage_keeps_the_run_when_the_final_flush_fails(scheme, spec, tmp_path):
    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(engine)
    labeler = RunLabeler(scheme.index)
    missing = tmp_path / "nope" / "r.fvl"
    manager.manage("r", missing, labeler=labeler)
    _stream(labeler, random_run(spec, 40, seed=23).events)
    with pytest.raises(OSError):
        manager.unmanage("r")  # final flush fails: directory missing
    assert manager.managed_runs == ("r",)  # still retryable
    (tmp_path / "nope").mkdir()
    manager.unmanage("r")
    assert run_file_info(missing).n_items == len(labeler.store)


def test_unmanage_flushes_final_delta(scheme, spec, tmp_path):
    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(
        engine, policy=CheckpointPolicy(every_events=10**9, every_seconds=3600.0)
    )
    labeler = RunLabeler(scheme.index)
    path = tmp_path / "r.fvl"
    manager.manage("r", path, labeler=labeler)
    _stream(labeler, random_run(spec, 80, seed=4).events)
    manager.unmanage("r")
    assert run_file_info(path).n_items == len(labeler.store)


def test_engine_registered_run_needs_no_explicit_labeler(scheme, spec, tmp_path):
    derivation = random_run(spec, 100, seed=5)
    engine = QueryEngine(scheme)
    engine.add_run(DEFAULT_RUN, derivation)
    manager = RunLifecycleManager(
        engine, policy=CheckpointPolicy(every_events=1, every_seconds=None)
    )
    path = tmp_path / "engine-run.fvl"
    manager.manage(DEFAULT_RUN, path)
    assert len(manager.poll_once().checkpoints) == 1
    assert run_file_info(path).n_items == derivation.run.n_data_items


# -- compaction + hot reopen ---------------------------------------------------


def test_segment_threshold_compacts_and_remaps_attached_readers(scheme, spec, tmp_path):
    derivation = random_run(spec, 400, seed=6)
    view = random_view(spec, 6, seed=9, mode="grey", name="lifecycle-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 300, seed=13)

    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view, variant=FVLVariant.DEFAULT)

    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(
        engine, policy=CheckpointPolicy(every_events=1, every_seconds=None)
    )
    labeler = RunLabeler(scheme.index)
    path = tmp_path / "managed.fvl"
    # No compaction while the segment chain builds up...
    manager.manage("stream", path, labeler=labeler)
    events = derivation.events
    step = max(1, len(events) // 5)
    for lo in range(0, len(events), step):
        _stream(labeler, events[lo : lo + step])
        manager.poll_once()
    assert run_file_info(path).n_segments >= 4
    assert run_file_info(path).generation == 0

    # Attach a live reader before compaction so the sweep must remap it.
    mapped = engine.attach(path, run_id="reader")
    assert mapped.n_segments >= 4
    before = engine.depends_batch(pairs, view, run="reader", variant=FVLVariant.DEFAULT)
    assert np.array_equal(before, expected)

    # ...then hand the run to a compacting policy: the next sweep merges
    # the chain and remaps the attached reader in the same pass.
    manager.unmanage("stream")
    manager.manage(
        "stream",
        path,
        labeler=labeler,
        policy=CheckpointPolicy(
            every_events=1, every_seconds=None, compact_after_segments=4
        ),
    )
    sweep = manager.poll_once()
    assert len(sweep.compactions) == 1 and sweep.compactions[0].compacted
    assert sweep.reopened == ["reader"]
    shard_store = engine._shards["reader"].mapped
    assert shard_store.generation == 1 and shard_store.n_segments == 1
    assert max(shard_store.extents_per_column().values()) == 1
    after = engine.depends_batch(pairs, view, run="reader", variant=FVLVariant.DEFAULT)
    assert np.array_equal(after, expected)
    assert manager.stats.compactions == 1 and manager.stats.reopens == 1

    # Ingest continues after the swap: the next delta appends to the
    # compacted generation instead of forcing a fresh file.
    assert run_file_info(path).generation == 1


def test_compact_run_on_demand_flushes_first(scheme, spec, tmp_path):
    derivation = random_run(spec, 200, seed=7)
    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(
        engine, policy=CheckpointPolicy(every_events=1, every_seconds=None)
    )
    labeler = RunLabeler(scheme.index)
    path = tmp_path / "ondemand.fvl"
    manager.manage("r", path, labeler=labeler)
    events = derivation.events
    _stream(labeler, events[: len(events) // 2])
    manager.poll_once()
    _stream(labeler, events[len(events) // 2 :])
    # Pending delta + existing segment: compact_run flushes, then merges.
    result = manager.compact_run("r")
    assert result.compacted and result.segments_before == 2
    info = run_file_info(path)
    assert info.n_items == len(labeler.store)
    assert info.n_segments == 1 and info.generation == 1
    # Single-segment file: a second compaction is a no-op.
    assert not manager.compact_run("r").compacted


def test_segment_count_is_the_one_compaction_trigger(scheme, spec, tmp_path):
    """No compaction below ``compact_after_segments``; the flush reaching it merges."""
    events = random_run(spec, 300, seed=35).events
    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(
        engine,
        policy=CheckpointPolicy(
            every_events=1, every_seconds=None, compact_after_segments=3
        ),
    )
    labeler = RunLabeler(scheme.index)
    path = tmp_path / "counted.fvl"
    manager.manage("r", path, labeler=labeler)
    third = len(events) // 3
    for segments in (1, 2):
        _stream(labeler, events[(segments - 1) * third : segments * third])
        sweep = manager.poll_once()
        assert len(sweep.checkpoints) == 1 and sweep.compactions == []
        assert run_file_info(path).n_segments == segments
    _stream(labeler, events[2 * third :])
    sweep = manager.poll_once()
    assert len(sweep.compactions) == 1
    assert sweep.compactions[0].segments_before == 3
    info = run_file_info(path)
    assert (info.n_segments, info.generation) == (1, 1)
    assert info.n_items == len(labeler.store)
    manager.unmanage("r")


def test_compaction_joins_the_lease_manage_took(scheme, spec, tmp_path, monkeypatch):
    """compact_run() rewrites under the managed lease: one OS lock, held throughout."""
    emitted: list[tuple[str, dict]] = []
    monkeypatch.setattr(
        obs_events, "emit", lambda event, **fields: emitted.append((event, fields))
    )
    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(
        engine, policy=CheckpointPolicy(every_events=1, every_seconds=None)
    )
    labeler = RunLabeler(scheme.index)
    path = tmp_path / "shared.fvl"
    manager.manage("r", path, labeler=labeler)
    events = random_run(spec, 160, seed=36).events
    _stream(labeler, events[: len(events) // 2])
    manager.poll_once()
    _stream(labeler, events[len(events) // 2 :])
    assert manager.compact_run("r").compacted
    assert manager._runs["r"].lease.held
    manager.unmanage("r")
    leases = [entry for entry in emitted if entry[0].startswith("lease_")]
    assert leases == [
        ("lease_acquire", {"path": os.fspath(path)}),
        ("lease_release", {"path": os.fspath(path)}),
    ]


# -- the background thread -----------------------------------------------------


def test_background_thread_reaches_durability_without_checkpoint_calls(
    scheme, spec, tmp_path
):
    """Acceptance: a managed streaming ingest becomes durable hands-off."""
    derivation = random_run(spec, 300, seed=8)
    engine = QueryEngine(scheme)
    labeler = RunLabeler(scheme.index)
    path = tmp_path / "threaded.fvl"
    policy = CheckpointPolicy(every_events=50, every_seconds=0.01)
    with RunLifecycleManager(engine, policy=policy, poll_interval=0.005) as manager:
        manager.manage("stream", path, labeler=labeler)
        assert manager.running
        for event in derivation.events:
            labeler(event)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if _durable_items(path) == len(labeler.store):
                break
            time.sleep(0.01)
        assert run_file_info(path).n_items == len(labeler.store)
        assert manager.last_error is None
    # stop() joined the thread and flushed; the file is complete and valid.
    assert not manager.running
    assert run_file_info(path).n_items == derivation.run.n_data_items
    served = QueryEngine(scheme)
    served.attach(path, run_id=DEFAULT_RUN)
    assert manager.stats.checkpoints >= 1

    with pytest.raises(RuntimeError):
        with manager:
            manager.start()  # already running


def test_background_thread_recovers_and_clears_last_error(scheme, spec, tmp_path):
    engine = QueryEngine(scheme)
    labeler = RunLabeler(scheme.index)
    missing_dir = tmp_path / "not-yet-here"
    path = missing_dir / "r.fvl"
    with RunLifecycleManager(
        engine,
        policy=CheckpointPolicy(every_events=1, every_seconds=None),
        poll_interval=0.005,
    ) as manager:
        manager.manage("r", path, labeler=labeler)
        _stream(labeler, random_run(spec, 60, seed=20).events)
        deadline = time.monotonic() + 5.0
        while manager.last_error is None and time.monotonic() < deadline:
            time.sleep(0.005)
        assert isinstance(manager.last_error, OSError)  # directory missing
        # Heal the environment: the next healthy sweep clears the error and
        # the delta becomes durable.
        missing_dir.mkdir()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if manager.last_error is None and _durable_items(path) == len(
                labeler.store
            ):
                break
            time.sleep(0.005)
        assert manager.last_error is None
        assert run_file_info(path).n_items == len(labeler.store)


def test_one_bad_path_does_not_wedge_sibling_runs(scheme, spec, tmp_path):
    """A failing job in a batched sweep must not poison or starve the others."""
    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(
        engine, policy=CheckpointPolicy(every_events=1, every_seconds=None)
    )
    good_labeler = RunLabeler(scheme.index)
    bad_labeler = RunLabeler(scheme.index)
    good_path = tmp_path / "good.fvl"
    manager.manage("good", good_path, labeler=good_labeler)
    manager.manage("bad", tmp_path / "missing-dir" / "bad.fvl", labeler=bad_labeler)
    _stream(good_labeler, random_run(spec, 60, seed=21).events)
    _stream(bad_labeler, random_run(spec, 60, seed=22).events)
    # The failure still surfaces, but the per-run fallback makes the good
    # run durable in the SAME sweep — one bad run cannot starve siblings —
    # and the good run's rolled-back batch file is not left headerless.
    with pytest.raises(OSError):
        manager.poll_once()
    assert run_file_info(good_path).n_items == len(good_labeler.store)
    # Once the bad run is gone the service is healthy again (no re-flush:
    # the good run's watermark advanced despite the failed sweep).
    manager.unmanage("bad", flush=False)
    assert manager.poll_once().checkpoints == []


def test_path_and_node_only_tails_are_flushed(scheme, tmp_path):
    """A trailing delta with zero label items (trie/node rows only) still persists."""
    import types

    from repro.store import LabelStore, PathTable

    table = PathTable()
    store = LabelStore(table)
    stub = types.SimpleNamespace(store=store, tree=types.SimpleNamespace(nodes=None))
    clock = FakeClock()
    manager = RunLifecycleManager(
        QueryEngine(scheme),
        policy=CheckpointPolicy(every_events=5, every_seconds=30.0),
        clock=clock,
    )
    path = tmp_path / "tail.fvl"
    manager.manage("r", path, labeler=stub)
    a = table.extend_production(0, 1, 1)
    store.append(0, a, 1, a, 2)
    manager.flush()
    assert run_file_info(path).n_items == 1

    # Tail: new trie rows, zero new items.  The run must still come due on
    # the time bound and the final flush must persist the path rows.
    table.extend_production(a, 2, 1)
    assert manager.poll_once().checkpoints == []  # below both bounds
    clock.advance(31.0)
    sweep = manager.poll_once()
    assert len(sweep.checkpoints) == 1
    assert sweep.checkpoints[0].delta_paths == 1
    assert sweep.checkpoints[0].delta_items == 0
    assert run_file_info(path).n_paths == len(table)
    # Nothing pending anymore -> no empty segments.
    clock.advance(31.0)
    assert manager.poll_once().checkpoints == []
    # unmanage's final flush honours trie-only tails too.
    table.extend_production(a, 3, 1)
    manager.unmanage("r")
    assert run_file_info(path).n_paths == len(table)


# -- the cross-process writer lease --------------------------------------------


def test_manage_holds_the_lease_and_unmanage_releases_it(scheme, spec, tmp_path):
    from repro.store import FileLease

    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(engine)
    labeler = RunLabeler(scheme.index)
    path = tmp_path / "leased.fvl"
    manager.manage("r", path, labeler=labeler)
    managed = manager._runs["r"]
    assert managed.lease.held
    assert os.path.exists(managed.lease.lock_path)
    owner = managed.lease.owner()
    assert owner is not None and owner.pid == os.getpid()
    # In-process lease sharing: a bare compact() of the same file coexists
    # with the manager instead of deadlocking on the kernel lock.
    _stream(labeler, random_run(spec, 120, seed=32).events)
    manager.poll_once()
    assert manager.compact_run("r") is not None
    manager.unmanage("r")
    assert not managed.lease.held
    # Released: a fresh manager (posing as "another process") can take it.
    with FileLease(path) as probe:
        assert probe.held


def test_manage_refuses_a_file_whose_writer_is_another_process(
    scheme, spec, tmp_path
):
    """Acceptance: two processes can never both manage one run file."""
    import subprocess
    import sys
    import textwrap

    from repro.store import LeaseHeldError

    path = tmp_path / "contested.fvl"
    ready = tmp_path / "ready"
    release = tmp_path / "release"
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    holder = subprocess.Popen(
        [
            sys.executable,
            "-c",
            textwrap.dedent(
                f"""
                import os, sys, time
                sys.path.insert(0, {src!r})
                from repro.store import FileLease
                lease = FileLease({os.fspath(path)!r}).acquire()
                open({os.fspath(ready)!r}, "w").close()
                deadline = time.monotonic() + 30
                while not os.path.exists({os.fspath(release)!r}):
                    if time.monotonic() > deadline:
                        sys.exit(2)
                    time.sleep(0.01)
                lease.release()
                """
            ),
        ]
    )
    try:
        deadline = time.monotonic() + 30
        while not ready.exists():
            assert time.monotonic() < deadline, "lease holder never came up"
            time.sleep(0.01)
        engine = QueryEngine(scheme)
        manager = RunLifecycleManager(engine)
        labeler = RunLabeler(scheme.index)
        with pytest.raises(LeaseHeldError, match="writer lease"):
            manager.manage("r", path, labeler=labeler)
        assert manager.managed_runs == ()  # the refused run was not half-added
    finally:
        release.touch()
        holder.wait(timeout=30)


def test_deferred_lease_is_acquired_by_the_first_healthy_flush(scheme, spec, tmp_path):
    """A missing directory defers the lease; the flush that creates the file takes it."""
    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(
        engine, policy=CheckpointPolicy(every_events=1, every_seconds=None)
    )
    labeler = RunLabeler(scheme.index)
    missing = tmp_path / "later"
    path = missing / "r.fvl"
    manager.manage("r", path, labeler=labeler)
    managed = manager._runs["r"]
    assert not managed.lease.held  # deferred
    _stream(labeler, random_run(spec, 40, seed=33).events)
    with pytest.raises(OSError):
        manager.poll_once()  # directory still missing: the flush itself fails
    missing.mkdir()
    sweep = manager.poll_once()
    assert len(sweep.checkpoints) == 1
    assert managed.lease.held  # the retry took the lease before writing
    manager.unmanage("r")
