"""Structured JSONL event log with bounded rotation.

Lifecycle facts that today only surface as counters — a checkpoint
committed, a compaction swapped generations, a run was quarantined, a
lease changed hands, a frame was shed, a checksum failed — are emitted as
one JSON object per line through the module-global :func:`emit`.  Like :data:`repro.faults.hit`, ``emit`` is a re-bindable
no-op until :func:`install_event_log` points it at an :class:`EventLog`,
so the store/service/serve layers call it unconditionally with zero
configuration plumbing and near-zero cost when no log is installed.

Rotation is byte-bounded: when the active file exceeds ``max_bytes`` it is
renamed to ``<path>.1`` (shifting older generations up, dropping the
oldest past ``max_files``), so the log can live beside the run files
without ever growing unbounded.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from typing import Callable

__all__ = ["EventLog", "emit", "install_event_log", "uninstall_event_log", "read_events"]


def _noop(event: str, **fields: object) -> None:
    return None


#: Module-global emitter; rebound by :func:`install_event_log`.  Layers call
#: ``events.emit("checkpoint", run=..., path=...)`` unconditionally.
emit: Callable[..., None] = _noop

_installed: "EventLog | None" = None
_install_lock = threading.Lock()


class EventLog:
    """An append-only JSONL file with size-bounded rotation."""

    def __init__(self, path: str | os.PathLike, *, max_bytes: int = 4 << 20,
                 max_files: int = 3) -> None:
        if max_bytes < 1 or max_files < 1:
            raise ValueError("max_bytes and max_files must be positive")
        self.path = os.fspath(path)
        self.max_bytes = max_bytes
        self.max_files = max_files
        self._lock = threading.Lock()
        self._fh: io.TextIOWrapper | None = None
        self._size = 0
        self._emitted = 0
        self._open()

    def _open(self) -> None:
        self._fh = open(self.path, "a", encoding="utf-8")
        self._size = self._fh.tell()

    def emit(self, event: str, **fields: object) -> None:
        record = {"ts": time.time(), "event": event}
        record.update(fields)
        try:
            line = json.dumps(record, separators=(",", ":"), default=repr) + "\n"
        except (TypeError, ValueError):  # pragma: no cover - default=repr covers
            return
        with self._lock:
            if self._fh is None:
                return
            if self._size + len(line) > self.max_bytes and self._size > 0:
                self._rotate_locked()
            self._fh.write(line)
            self._fh.flush()
            self._size += len(line)
            self._emitted += 1

    def _rotate_locked(self) -> None:
        self._fh.close()
        oldest = f"{self.path}.{self.max_files - 1}"
        if os.path.exists(oldest):
            os.unlink(oldest)
        for gen in range(self.max_files - 2, 0, -1):
            src = f"{self.path}.{gen}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{gen + 1}")
        if self.max_files > 1:
            os.replace(self.path, f"{self.path}.1")
        else:
            os.unlink(self.path)
        self._open()

    @property
    def emitted(self) -> int:
        with self._lock:
            return self._emitted

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def install_event_log(log: EventLog) -> EventLog:
    """Route the module-global :func:`emit` into ``log`` (replacing any prior)."""
    global emit, _installed
    with _install_lock:
        _installed = log
        emit = log.emit
    return log


def uninstall_event_log() -> None:
    """Restore the no-op emitter (the log itself is left open for the caller)."""
    global emit, _installed
    with _install_lock:
        _installed = None
        emit = _noop


def read_events(path: str | os.PathLike) -> list[dict]:
    """Read one event-log file back as dicts (skipping torn final lines)."""
    out: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
    except FileNotFoundError:
        pass
    return out
