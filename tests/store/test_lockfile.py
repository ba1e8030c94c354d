"""Unit tests for the cross-process writer lease (store/lockfile.py)."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import textwrap

import pytest

from repro.errors import SerializationError
from repro.obs import events as obs_events
from repro.store import FileLease, LeaseInfo
from repro.store.lockfile import _lease_payload

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _child(code: str) -> subprocess.Popen:
    """Start a Python child with ``repro`` importable; stdout is captured."""
    script = f"import sys\nsys.path.insert(0, {SRC!r})\n" + textwrap.dedent(code)
    return subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _another_process_can_take(target) -> bool:
    """Whether a fresh process acquires the lease (it exits, dropping it)."""
    probe = _child(
        f"""
        from repro.store import FileLease
        print(FileLease({os.fspath(target)!r}).try_acquire())
        """
    )
    out, err = probe.communicate(timeout=60)
    assert probe.returncode == 0, err
    return out.strip() == "True"


def test_acquire_release_reacquire(tmp_path):
    target = tmp_path / "run.fvl"
    lease = FileLease(target)
    assert not lease.held
    assert lease.try_acquire()
    assert lease.held
    assert os.path.exists(lease.lock_path)
    owner = lease.owner()
    assert owner is not None and owner.pid == os.getpid()
    lease.release()
    assert not lease.held
    # The lock file stays (flock contract) but the lease is re-acquirable.
    with FileLease(target) as again:
        assert again.held


def test_same_process_leases_are_shared(tmp_path):
    target = tmp_path / "run.fvl"
    first = FileLease(target).acquire()
    second = FileLease(target)
    # flock would self-conflict across fds; the process registry shares it.
    assert second.try_acquire()
    second.release()
    assert first.held  # still held through the remaining reference
    first.release()


def test_double_acquire_same_instance_rejected(tmp_path):
    lease = FileLease(tmp_path / "run.fvl").acquire()
    with pytest.raises(SerializationError, match="already held"):
        lease.try_acquire()
    lease.release()


def test_acquire_fails_loudly_across_processes(tmp_path):
    """A real second process cannot take a flock-held lease (and sees who has it)."""
    target = tmp_path / "run.fvl"
    lease = FileLease(target).acquire()
    try:
        script = textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {os.path.join(os.path.dirname(__file__), "..", "..", "src")!r})
            from repro.store import FileLease, LeaseHeldError
            probe = FileLease({os.fspath(target)!r})
            try:
                probe.acquire()
            except LeaseHeldError as exc:
                assert str({os.getpid()!r}) in str(exc), exc
                sys.exit(0)
            sys.exit(1)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
    finally:
        lease.release()


def test_payload_round_trip(tmp_path):
    raw = _lease_payload()
    data = json.loads(raw)
    assert data["pid"] == os.getpid()
    assert data["host"] == socket.gethostname()


def test_a_dead_holders_lease_is_free_at_once(tmp_path):
    """The kernel drops a crashed writer's lock: no takeover rule, no wait."""
    target = tmp_path / "run.fvl"
    holder = _child(
        f"""
        import os
        from repro.store import FileLease
        FileLease({os.fspath(target)!r}).acquire()
        os._exit(0)  # die holding the lease, without release()
        """
    )
    _, err = holder.communicate(timeout=60)
    assert holder.returncode == 0, err
    lease = FileLease(target)
    # The record still names the dead holder: "who held this last".
    assert lease.owner().pid == holder.pid
    assert lease.try_acquire()
    assert lease.owner().pid == os.getpid()
    lease.release()


def test_the_os_lock_is_dropped_with_the_last_reference(tmp_path):
    target = tmp_path / "run.fvl"
    first = FileLease(target).acquire()
    second = FileLease(target).acquire()
    first.release()
    assert second.held
    assert not _another_process_can_take(target)  # one reference still holds it
    second.release()
    assert _another_process_can_take(target)


def test_release_is_idempotent_and_keeps_the_lock_file(tmp_path):
    lease = FileLease(tmp_path / "run.fvl").acquire()
    lease.release()
    lease.release()  # a second release is a no-op
    assert not lease.held
    # Never unlinked: a contender may already hold the inode open.
    assert os.path.exists(lease.lock_path)
    with FileLease(tmp_path / "run.fvl") as again:
        assert again.held


def test_owner_is_none_without_a_well_formed_record(tmp_path):
    lease = FileLease(tmp_path / "run.fvl")
    assert lease.owner() is None  # no lock file yet
    for junk in (b"", b"not json", b"[]", b'{"pid": 1}', b'{"pid": "x", "host": "h"}'):
        with open(lease.lock_path, "wb") as handle:
            handle.write(junk)
        assert lease.owner() is None, junk
    # Acquiring rewrites whatever the file held with this process's record.
    with open(lease.lock_path, "wb") as handle:
        handle.write(b"x" * 200)
    with lease:
        assert lease.owner() == LeaseInfo(os.getpid(), socket.gethostname())


def test_only_the_os_lock_emits_lease_events(tmp_path, monkeypatch):
    events: list[tuple[str, dict]] = []
    monkeypatch.setattr(
        obs_events, "emit", lambda event, **fields: events.append((event, fields))
    )
    target = tmp_path / "run.fvl"
    first = FileLease(target).acquire()
    second = FileLease(target).acquire()  # joins the held lock: no event
    second.release()
    first.release()
    assert events == [
        ("lease_acquire", {"path": os.fspath(target)}),
        ("lease_release", {"path": os.fspath(target)}),
    ]


def test_the_context_manager_releases_on_error(tmp_path):
    target = tmp_path / "run.fvl"
    with pytest.raises(RuntimeError, match="writer failed"):
        with FileLease(target) as lease:
            raise RuntimeError("writer failed")
    assert not lease.held
    assert _another_process_can_take(target)


def test_a_missing_directory_raises_and_leaves_no_state(tmp_path):
    """``FileNotFoundError`` is what the lifecycle manager defers on."""
    lease = FileLease(tmp_path / "later" / "run.fvl")
    with pytest.raises(FileNotFoundError):
        lease.try_acquire()
    assert not lease.held
    (tmp_path / "later").mkdir()
    assert lease.try_acquire()
    lease.release()
