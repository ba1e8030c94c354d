"""Cross-process writer leases for run files (advisory, readers lock-free).

The run lifecycle manager serialises appends and compaction *within* one
process with plain threading locks; nothing stops a second **process** from
managing (and corrupting) the same run file.  :class:`FileLease` closes that
gap with an advisory ``fcntl.flock`` exclusive lock on ``<run-file>.lock``:
the kernel releases it the instant the holder dies, so a crashed writer
never wedges the file and no liveness refresh or takeover rule is needed.
The store is POSIX-only (compaction replaces files under live mappings),
so ``flock`` is always there.

Within one process, leases on the same path are *shared* (reference
counted): the in-process writers are already coordinated by
:class:`~repro.service.RunLifecycleManager`'s file locks, and ``flock``
would otherwise self-conflict across file descriptors of the same process
(e.g. a manager holding the lease while :func:`repro.store.compact` takes
it for the rewrite).  The lease therefore means exactly "this *process* is
the writer of this run file".

Readers (:class:`~repro.store.MappedRunStore`, the query engine's attached
shards, :class:`~repro.serve.ProvenanceServer`) never touch the lock file:
the run-file format is safe to map concurrently with appends, and compaction
publishes atomically via ``os.replace``.
"""

from __future__ import annotations

import errno
import fcntl
import json
import os
import socket
import threading
from dataclasses import dataclass

from repro.errors import SerializationError
from repro.obs import events as obs_events

__all__ = ["LeaseHeldError", "LeaseInfo", "FileLease"]


class LeaseHeldError(SerializationError):
    """Another process holds the writer lease of this run file."""


@dataclass(frozen=True)
class LeaseInfo:
    """What the lock file records about its holder (diagnostics only).

    The kernel lock is authoritative and the recorded info can outlive a
    released lease; treat it as "who held this last", not proof of a live
    holder.
    """

    pid: int
    host: str


def _lease_payload() -> bytes:
    info = {"pid": os.getpid(), "host": socket.gethostname()}
    return (json.dumps(info) + "\n").encode("utf-8")


def _parse_payload(raw: bytes) -> LeaseInfo | None:
    try:
        data = json.loads(raw.decode("utf-8"))
        return LeaseInfo(int(data["pid"]), str(data["host"]))
    except (ValueError, KeyError, TypeError):
        return None


class _LeaseCore:
    """One per-process OS-level lock, shared by every FileLease on its path."""

    __slots__ = ("key", "fd", "refs")

    def __init__(self, key: str, fd: int) -> None:
        self.key = key
        self.fd = fd
        self.refs = 1


#: Process-wide registry of held leases, so re-acquisition from the same
#: process shares the OS lock instead of self-conflicting.
_registry: dict[str, _LeaseCore] = {}
_registry_lock = threading.Lock()


class FileLease:
    """Advisory cross-process writer lease on one run file.

    ::

        lease = FileLease("/data/run.fvl").acquire()   # raises LeaseHeldError
        ...                                            # this process writes
        lease.release()
    """

    def __init__(self, path) -> None:
        self._target = os.fspath(path)
        self._lock_path = self._target + ".lock"
        self._core: _LeaseCore | None = None

    # -- introspection -----------------------------------------------------------

    @property
    def path(self) -> str:
        """The run file this lease guards (not the lock file itself)."""
        return self._target

    @property
    def lock_path(self) -> str:
        return self._lock_path

    @property
    def held(self) -> bool:
        return self._core is not None

    def owner(self) -> LeaseInfo | None:
        """The holder recorded in the lock file, if any (see :class:`LeaseInfo`)."""
        try:
            with open(self._lock_path, "rb") as handle:
                return _parse_payload(handle.read(4096))
        except OSError:
            return None

    # -- acquisition -------------------------------------------------------------

    def try_acquire(self) -> bool:
        """Take (or join) the lease; ``False`` if another process holds it."""
        if self._core is not None:
            raise SerializationError("lease is already held by this FileLease")
        key = os.path.realpath(self._lock_path)
        with _registry_lock:
            core = _registry.get(key)
            if core is not None:
                core.refs += 1
                self._core = core
                return True
            fd = os.open(self._lock_path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError as exc:
                os.close(fd)
                if exc.errno in (errno.EWOULDBLOCK, errno.EAGAIN, errno.EACCES):
                    return False
                raise
            os.ftruncate(fd, 0)
            os.pwrite(fd, _lease_payload(), 0)
            self._core = _registry[key] = _LeaseCore(key, fd)
        obs_events.emit("lease_acquire", path=self._target)
        return True

    def acquire(self) -> "FileLease":
        """Like :meth:`try_acquire` but raises :class:`LeaseHeldError` on failure."""
        if self.try_acquire():
            return self
        owner = self.owner()
        detail = f" (held by pid {owner.pid} on {owner.host})" if owner else ""
        raise LeaseHeldError(
            f"another process holds the writer lease of "
            f"{self._target!r}{detail}; two processes must never append "
            "to or compact the same run file"
        )

    def release(self) -> None:
        """Drop this reference; the OS lock is released with the last one."""
        core = self._core
        if core is None:
            return
        self._core = None
        with _registry_lock:
            core.refs -= 1
            if core.refs > 0:
                return
            _registry.pop(core.key, None)
            # Never unlink the lock file: a contender may already have the
            # inode open, and re-creation would let two processes lock
            # different inodes under one path.
            try:
                fcntl.flock(core.fd, fcntl.LOCK_UN)
            finally:
                os.close(core.fd)
        obs_events.emit("lease_release", path=self._target)

    def __enter__(self) -> "FileLease":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.release()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FileLease({self._target!r}, held={self.held})"
