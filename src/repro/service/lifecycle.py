"""Background checkpointing, segment compaction and hot reopen for runs.

:class:`RunLifecycleManager` owns the *when* of run persistence.  Each
managed run pairs a live :class:`~repro.core.run_labeler.RunLabeler` (its
streaming ingest) with a run-file path and a :class:`CheckpointPolicy`; a
maintenance thread then sweeps the registry on a small interval and

* **flushes** every run whose unpersisted delta crossed the policy's event
  bound, or that has any pending delta once the time bound elapsed — all due
  runs of one sweep go through :func:`~repro.store.checkpoint_batch`, so
  their fsync barriers are grouped instead of interleaved;
* **compacts** a run file whose segment chain reached
  ``compact_after_segments`` (:func:`repro.store.compact`: merge, verify,
  atomic swap, GC), holding the run's file lock so no checkpoint interleaves
  with the rewrite;
* **remaps** the engine's readers of every managed run's file after each
  sweep and :meth:`RunLifecycleManager.compact_run`
  (:meth:`~repro.engine.QueryEngine.reopen_all`), per run: a reader that
  fails keeps its old mapping, leaves the writer's health alone and is
  retried next sweep.

Checkpointing a run another thread is still appending to is safe — the
writer snapshots bounded, internally consistent row counts (PR 3) and rows
that land mid-write simply join the next delta.  Every sweep is also
available synchronously (:meth:`RunLifecycleManager.poll_once`) so tests and
benchmarks can drive the policy deterministically with an injected clock.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field

from repro.engine.engine import QueryEngine, grammar_fingerprint
from repro.errors import CorruptionError, LabelingError
from repro.obs import events as obs_events
from repro.store import (
    CheckpointResult,
    checkpoint_batch,
    checkpoint_run,
    run_file_info,
)
from repro.store.compaction import CompactionResult, compact
from repro.store.lockfile import FileLease, LeaseHeldError

__all__ = ["CheckpointPolicy", "LifecycleStats", "SweepResult", "RunLifecycleManager"]

#: Per-process manager ids for the registry label (see ``__init__``).
_MANAGER_IDS = itertools.count()

#: Upper bound (seconds) of a failing run's exponential retry backoff.
RETRY_BACKOFF_CAP_S = 30.0


@dataclass(frozen=True)
class CheckpointPolicy:
    """When a managed run is flushed — and when its file is rewritten.

    A run comes due for a checkpoint when it has at least ``every_events``
    unpersisted items, or when ``every_seconds`` elapsed since its last
    flush and *any* delta is pending — whichever fires first.  Either bound
    may be ``None`` (disabled), but not both.  ``compact_after_segments``
    additionally rewrites the run file into one extent per column whenever
    its segment chain reaches that length (``None`` disables background
    compaction; it can still be requested via
    :meth:`RunLifecycleManager.compact_run`).
    """

    every_events: int | None = 1024
    every_seconds: float | None = 30.0
    compact_after_segments: int | None = None

    def __post_init__(self) -> None:
        if self.every_events is None and self.every_seconds is None:
            raise ValueError(
                "a checkpoint policy needs an event bound, a time bound, or both"
            )
        if self.every_events is not None and self.every_events < 1:
            raise ValueError("every_events must be at least 1")
        if self.every_seconds is not None and self.every_seconds <= 0:
            raise ValueError("every_seconds must be positive")
        if self.compact_after_segments is not None and self.compact_after_segments < 2:
            raise ValueError("compact_after_segments must be at least 2")


@dataclass(frozen=True)
class LifecycleStats:
    """Counters over the manager's lifetime (exposed for observability).

    A view over the engine's metrics registry: the lifetime counters come
    from one registry snapshot (families labeled per manager, so two
    managers over one engine stay distinguishable), the live run fields
    from the manager's own lock.
    """

    managed_runs: int
    sweeps: int
    checkpoints: int
    items_flushed: int
    compactions: int
    reopens: int
    #: Per-run flush/compaction failures recorded (lifetime count).
    run_failures: int = 0
    #: Runs currently quarantined (skipped by background sweeps until an
    #: explicit flush succeeds or :meth:`RunLifecycleManager.unquarantine`).
    quarantined_runs: int = 0
    #: Why the most recent quarantine happened (``repr`` of the failure that
    #: crossed the threshold); survives the quarantine being lifted so a
    #: scrape after recovery still explains the incident.
    last_quarantine_reason: "str | None" = None


@dataclass(frozen=True)
class SweepResult:
    """What one maintenance sweep (:meth:`poll_once`) actually did."""

    checkpoints: list[CheckpointResult]
    compactions: list[CompactionResult]
    reopened: list[str]

    @property
    def flushed_items(self) -> int:
        return sum(result.delta_items for result in self.checkpoints)


@dataclass
class _ManagedRun:
    """Registry entry: one streaming run, its file, its policy, its watermarks."""

    run_id: str
    path: str
    labeler: object
    node_table: object
    policy: CheckpointPolicy
    #: Cross-process writer lease on the run file.  Normally held from
    #: ``manage()`` on; acquisition is deferred (and retried per flush) when
    #: the file's directory does not exist yet.
    lease: FileLease
    #: Serialises segment appends against compaction for this file.
    file_lock: threading.Lock = field(default_factory=threading.Lock)
    flushed_items: int = 0
    flushed_paths: int = 0
    flushed_nodes: int = 0
    last_flush: float = 0.0
    n_segments: int = 0
    #: Consecutive sweep failures on this run (reset by any success).
    failures: int = 0
    #: Clock time before which background sweeps skip the run (exponential
    #: backoff; explicit ``flush``/``compact_run``/``unmanage`` ignore it).
    next_retry_at: float = 0.0
    #: Quarantined runs are skipped by every background sweep until an
    #: explicit operation succeeds or ``unquarantine()`` clears them.
    quarantined: bool = False
    #: The exception behind the most recent recorded failure.
    last_failure: "Exception | None" = None
    #: ``repr`` of the failure that put the run in quarantine.
    quarantine_reason: "str | None" = None

    def pending_items(self) -> int:
        return len(self.labeler.store) - self.flushed_items

    def has_pending(self) -> bool:
        """Whether *any* rows await persistence — items, paths or nodes.

        An expansion whose production adds no internal data edges appends
        parse-tree/trie rows but zero label items; gating every flush on
        items alone would leave such a tail unpersisted forever.
        """
        if self.pending_items() > 0:
            return True
        if len(self.labeler.store.table) > self.flushed_paths:
            return True
        return (
            self.node_table is not None and len(self.node_table) > self.flushed_nodes
        )


class RunLifecycleManager:
    """Hands-off durability and store health for streaming ingests.

    ::

        engine = QueryEngine(scheme)
        labeler = engine.add_run("run-1", derivation)
        with RunLifecycleManager(engine, policy=CheckpointPolicy(512, 5.0)) as mgr:
            mgr.manage("run-1", "/data/run-1.fvl")
            ...  # stream events; durability needs no checkpoint() calls

    The manager never blocks ingest: checkpoints read bounded snapshots of
    the append-only arenas, and compaction rewrites a private temp that is
    atomically swapped in.  ``poll_once()`` is the whole policy engine; the
    background thread just calls it on an interval and records (rather than
    raises) failures so one bad sweep cannot kill the service.
    """

    def __init__(
        self,
        engine: QueryEngine,
        *,
        policy: CheckpointPolicy | None = None,
        poll_interval: float = 0.05,
        clock=time.monotonic,
        quarantine_after: int | None = 5,
        retry_backoff_s: float = 0.05,
    ) -> None:
        self._engine = engine
        self._policy = policy or CheckpointPolicy()
        self._poll_interval = poll_interval
        self._clock = clock
        #: Failure containment: a run whose flush/compaction fails is retried
        #: on the next sweep once, then with exponential per-run backoff
        #: (``retry_backoff_s * 2^(n-2)``, capped at
        #: :data:`RETRY_BACKOFF_CAP_S`) instead of being
        #: re-hammered every sweep; after ``quarantine_after`` consecutive
        #: failures the run is quarantined — background sweeps skip it until
        #: an explicit flush succeeds or :meth:`unquarantine` is called.
        #: ``quarantine_after=None`` disables quarantining (backoff remains).
        if quarantine_after is not None and quarantine_after < 1:
            raise ValueError("quarantine_after must be at least 1 (or None)")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        self._quarantine_after = quarantine_after
        self._retry_backoff_s = retry_backoff_s
        self._runs: dict[str, _ManagedRun] = {}
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        #: Lifetime counters live in the engine's metrics registry, labeled
        #: by a per-manager id so a manager recreated over the same engine
        #: (resume) starts its own series instead of inheriting counts.
        self._metrics = engine.metrics
        mid = f"m{next(_MANAGER_IDS)}"
        self._mlabel = (mid,)
        lbl = ("manager",)
        m = engine.metrics
        self._sweeps_c = m.counter(
            "lifecycle_sweeps_total", "maintenance sweeps run", lbl
        ).labels(mid)
        self._checkpoints_c = m.counter(
            "lifecycle_checkpoints_total", "segments committed by checkpoints", lbl
        ).labels(mid)
        self._items_flushed_c = m.counter(
            "lifecycle_items_flushed_total", "label items made durable", lbl
        ).labels(mid)
        self._compactions_c = m.counter(
            "lifecycle_compactions_total", "run files compacted", lbl
        ).labels(mid)
        self._reopens_c = m.counter(
            "lifecycle_reopens_total", "shards remapped after compaction", lbl
        ).labels(mid)
        self._run_failures_c = m.counter(
            "lifecycle_run_failures_total", "per-run flush/compaction failures", lbl
        ).labels(mid)
        self._corruption_c = m.counter(
            "corruption_detected_total",
            "checksum/structure corruption detections by layer",
            ("layer",),
        ).labels("lifecycle")
        m.gauge(
            "lifecycle_managed_runs", "runs under lifecycle management", lbl
        ).labels(mid).set_function(lambda: len(self._runs))
        m.gauge(
            "lifecycle_quarantined_runs", "runs currently quarantined", lbl
        ).labels(mid).set_function(self._count_quarantined)
        self._last_quarantine_reason: "str | None" = None
        #: The last exception a background sweep swallowed (None = healthy).
        self.last_error: Exception | None = None

    def _count_quarantined(self) -> int:
        with self._lock:
            return sum(1 for m in self._runs.values() if m.quarantined)

    # -- registration ------------------------------------------------------------

    def manage(
        self,
        run_id: str,
        path,
        *,
        labeler=None,
        policy: CheckpointPolicy | None = None,
    ) -> None:
        """Put one streaming run under background lifecycle management.

        ``run_id`` normally names a labelled shard of the engine (its
        labeler is looked up there); pass ``labeler`` explicitly to manage a
        bare :class:`~repro.core.run_labeler.RunLabeler` that is not
        registered as a shard.  If ``path`` already exists its header
        watermarks seed the pending-delta accounting, so managing a resumed
        run does not re-flush what is already durable.  The run file is
        claimed with a :class:`~repro.store.FileLease`, so a manager in
        another process cannot append to or compact the same file.
        """
        if labeler is None:
            labeler = self._engine.run_labeler(run_id)
        path = os.fspath(path)
        lease = FileLease(path)
        self._take_lease(lease)
        try:
            managed = _ManagedRun(
                run_id=run_id,
                path=path,
                labeler=labeler,
                node_table=getattr(labeler.tree, "nodes", None),
                policy=policy or self._policy,
                lease=lease,
                last_flush=self._clock(),
            )
            if os.path.exists(path):
                info = run_file_info(path)
                managed.flushed_items, managed.flushed_paths = info.n_items, info.n_paths
                managed.flushed_nodes, managed.n_segments = info.n_nodes, info.n_segments
            with self._lock:
                if run_id in self._runs:
                    raise LabelingError(f"run {run_id!r} is already managed")
                key = os.path.realpath(path)
                for other in self._runs.values():
                    if os.path.realpath(other.path) == key:
                        raise LabelingError(
                            f"run file {path!r} is already managed for run "
                            f"{other.run_id!r}; each run needs its own file"
                        )
                self._runs[run_id] = managed
        except Exception:
            lease.release()
            raise

    def unmanage(self, run_id: str, *, flush: bool = True) -> None:
        """Stop managing a run (flushing its final delta first by default).

        The final flush happens while the run is still registered: if it
        fails (e.g. a transiently full disk) the run stays managed, the
        error propagates, and the pending delta remains retryable instead
        of silently dropping out of lifecycle management.
        """
        managed = self._managed(run_id)
        if flush and managed.has_pending():
            self._flush_runs([managed])
        with self._lock:
            if self._runs.get(run_id) is managed:
                del self._runs[run_id]
        managed.lease.release()

    @property
    def managed_runs(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._runs)

    # -- the background thread ---------------------------------------------------

    def start(self) -> None:
        """Start the maintenance thread (idempotent start is an error)."""
        if self._thread is not None:
            raise RuntimeError("lifecycle manager is already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="run-lifecycle", daemon=True
        )
        self._thread.start()

    def stop(self, *, flush: bool = True) -> None:
        """Stop the thread; by default flush every pending delta on the way out."""
        thread = self._thread
        if thread is not None:
            self._stop.set()
            thread.join()
            self._thread = None
        if flush:
            self.flush()

    @property
    def running(self) -> bool:
        return self._thread is not None

    def __enter__(self) -> "RunLifecycleManager":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.wait(self._poll_interval):
            try:
                self.poll_once()
            except Exception as exc:  # keep the service alive; surface via stats
                self.last_error = exc
            else:
                # A healthy sweep clears a stale error: ``last_error`` means
                # "the most recent sweep failed", not "ever failed".
                self.last_error = None

    # -- the policy engine -------------------------------------------------------

    def poll_once(self) -> SweepResult:
        """One maintenance sweep: flush due runs, compact long chains, remap readers.

        This is exactly what the background thread runs per interval;
        calling it directly (tests, benchmarks, single-threaded deployments)
        gives the same behaviour deterministically.

        Failure containment is per run: a failing run is retried on the next
        sweep, then with exponential backoff, and quarantined (skipped
        entirely) after ``quarantine_after`` consecutive failures — so one
        broken path cannot make every sweep re-fail, and its first failure's
        error still surfaces from each sweep that attempts it.
        """
        now = self._clock()
        with self._lock:
            runs = list(self._runs.values())
        self._sweeps_c.inc()
        eligible = [
            m for m in runs if not m.quarantined and now >= m.next_retry_at
        ]
        checkpoints: list[CheckpointResult] = []
        flush_error: Exception | None = None
        try:
            checkpoints = self._flush_runs([m for m in eligible if self._due(m, now)])
        except Exception as exc:
            # One unflushable run must not starve the compaction/reopen half
            # of the sweep (healthy runs were already flushed by the per-run
            # fallback); finish the sweep, then surface the failure.
            flush_error = exc
        compactions: list[CompactionResult] = []
        compact_error: Exception | None = None
        for managed in eligible:
            # Re-check: the flush phase may just have quarantined the run.
            if managed.quarantined or not self._compaction_due(managed):
                continue
            try:
                result = self._compact_managed(managed)
            except Exception as exc:
                self._record_failure(managed, exc)
                if compact_error is None:
                    compact_error = exc
                continue
            if result.compacted:
                compactions.append(result)
        reopened, remap_error = self._remap(runs)
        for error in (flush_error, compact_error, remap_error):
            if error is not None:
                raise error
        return SweepResult(checkpoints, compactions, reopened)

    def flush(self, run_id: str | None = None) -> list[CheckpointResult]:
        """Checkpoint pending deltas now (one run, or every managed run)."""
        if run_id is None:
            with self._lock:
                targets = list(self._runs.values())
        else:
            targets = [self._managed(run_id)]
        return self._flush_runs([m for m in targets if m.has_pending()])

    def compact_run(self, run_id: str) -> CompactionResult:
        """Flush, compact and remap one managed run on demand."""
        managed = self._managed(run_id)
        self.flush(run_id)
        result = self._compact_managed(managed)
        _, remap_error = self._remap([managed])
        if remap_error is not None:
            raise remap_error
        return result

    # -- observability -----------------------------------------------------------

    @property
    def stats(self) -> LifecycleStats:
        # Snapshot before taking self._lock: the registry's callback gauges
        # (quarantined-run count) take self._lock themselves.
        snap = self._metrics.snapshot()

        def counter(name: str) -> int:
            family = snap.get(name)
            return int(family.get(self._mlabel, 0)) if family else 0

        with self._lock:
            managed_runs = len(self._runs)
            quarantined = sum(1 for m in self._runs.values() if m.quarantined)
            reason = self._last_quarantine_reason
        return LifecycleStats(
            managed_runs=managed_runs,
            sweeps=counter("lifecycle_sweeps_total"),
            checkpoints=counter("lifecycle_checkpoints_total"),
            items_flushed=counter("lifecycle_items_flushed_total"),
            compactions=counter("lifecycle_compactions_total"),
            reopens=counter("lifecycle_reopens_total"),
            run_failures=counter("lifecycle_run_failures_total"),
            quarantined_runs=quarantined,
            last_quarantine_reason=reason,
        )

    @property
    def quarantined_runs(self) -> tuple[str, ...]:
        """Run ids currently quarantined (with their last failure in
        :meth:`run_failure`); background sweeps skip them entirely."""
        with self._lock:
            return tuple(
                run_id for run_id, m in self._runs.items() if m.quarantined
            )

    def run_failure(self, run_id: str) -> "Exception | None":
        """The exception behind a managed run's most recent recorded failure."""
        return self._managed(run_id).last_failure

    def unquarantine(self, run_id: str) -> None:
        """Clear a run's quarantine and failure streak; sweeps resume at once.

        The underlying fault is the operator's to have fixed — if it has
        not been, the run re-earns its quarantine after another
        ``quarantine_after`` consecutive failures.  Idempotent; the last
        failure stays readable through :meth:`run_failure`.
        """
        self._mark_healthy(self._managed(run_id), "operator request", succeeded=False)

    # -- internals ---------------------------------------------------------------

    def _managed(self, run_id: str) -> _ManagedRun:
        with self._lock:
            try:
                return self._runs[run_id]
            except KeyError:
                raise LabelingError(f"run {run_id!r} is not managed") from None

    def _remap(self, runs: list[_ManagedRun]) -> tuple[list[str], "Exception | None"]:
        """Remap the engine's readers of each run's file; the first failure is returned.

        A reader's failure is not the writer's: it leaves the run's health
        alone, and the other runs are still remapped.
        """
        reopened: list[str] = []
        first_error: Exception | None = None
        for managed in runs:
            try:
                reopened.extend(self._engine.reopen_all(managed.path))
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if reopened:
            self._reopens_c.inc(len(reopened))
        return reopened, first_error

    @staticmethod
    def _compaction_due(managed: _ManagedRun) -> bool:
        """Whether the run's segment chain reached ``compact_after_segments``."""
        limit = managed.policy.compact_after_segments
        return limit is not None and managed.n_segments >= limit

    @staticmethod
    def _take_lease(lease: FileLease) -> None:
        """Acquire a run file's writer lease unless it is held.

        Only a missing directory is deferred (the first flush creates it and
        every write retries); :class:`~repro.store.LeaseHeldError` and any
        other failure stay loud, or the cross-process guarantee would drop.
        """
        if lease.held:
            return
        try:
            lease.acquire()
        except FileNotFoundError:
            pass

    def _due(self, managed: _ManagedRun, now: float) -> bool:
        if not managed.has_pending():
            return False
        policy = managed.policy
        if (
            policy.every_events is not None
            and managed.pending_items() >= policy.every_events
        ):
            return True
        return (
            policy.every_seconds is not None
            and now - managed.last_flush >= policy.every_seconds
        )

    def _flush_runs(self, due: list[_ManagedRun]) -> list[CheckpointResult]:
        if not due:
            return []
        fingerprint = grammar_fingerprint(self._engine.scheme.index)
        # File locks are taken in registry order (every caller builds `due`
        # from the same dict iteration), so concurrent flush/compact calls
        # cannot deadlock.
        for managed in due:
            managed.file_lock.acquire()
        try:
            # A run whose writer lease belongs to another process must not be
            # flushed (its file is someone else's to append to), but it must
            # not starve its siblings either: flush the leased runs, then
            # surface the conflict.
            lease_error: Exception | None = None
            flushable: list[_ManagedRun] = []
            for managed in due:
                try:
                    self._take_lease(managed.lease)
                except LeaseHeldError as exc:
                    if lease_error is None:
                        lease_error = exc
                    self._record_failure(managed, exc)
                else:
                    flushable.append(managed)
            results: list[CheckpointResult] = []
            if flushable:
                try:
                    results = checkpoint_batch(
                        [(m.path, m.labeler.store, m.node_table) for m in flushable],
                        fingerprint=fingerprint,
                    )
                except Exception as exc:
                    if len(flushable) == 1 and lease_error is None:
                        self._record_failure(flushable[0], exc)
                        raise
                    # The batch fails as a unit, so one bad run (unwritable
                    # path, foreign file at its path, ...) must not starve
                    # its siblings: retry per run, keep the healthy flushes,
                    # re-raise the first failure once the rest are durable.
                    results = self._flush_individually(flushable, fingerprint)
                else:
                    # Record while the file locks are still held, so a
                    # racing flush of the same run never assigns an older
                    # header's watermarks after ours.
                    for managed, result in zip(flushable, results):
                        self._record_flush(managed, result)
            if lease_error is not None:
                raise lease_error
            return results
        finally:
            for managed in due:
                managed.file_lock.release()

    def _flush_individually(
        self, due: list[_ManagedRun], fingerprint: int
    ) -> list[CheckpointResult]:
        """Per-run fallback after a failed batch (locks are held by the caller)."""
        results: list[CheckpointResult] = []
        first_error: Exception | None = None
        for managed in due:
            try:
                result = checkpoint_run(
                    managed.path,
                    managed.labeler.store,
                    managed.node_table,
                    fingerprint=fingerprint,
                )
            except Exception as exc:
                if first_error is None:
                    first_error = exc
                self._record_failure(managed, exc)
                continue
            self._record_flush(managed, result)
            results.append(result)
        if first_error is not None:
            raise first_error
        return results

    def _record_flush(self, managed: _ManagedRun, result: CheckpointResult) -> None:
        # The header the checkpoint wrote: exact even after a batch that
        # committed this file but failed on a sibling before reporting.
        now = self._clock()
        with self._lock:
            managed.flushed_items = result.n_items
            managed.flushed_paths = result.n_paths
            managed.flushed_nodes = result.n_nodes
            managed.last_flush = now
            if result.wrote_segment:
                managed.n_segments += 1
                self._checkpoints_c.inc()
            self._items_flushed_c.inc(result.delta_items)
        self._mark_healthy(managed, "flush succeeded")

    def _mark_healthy(self, managed: _ManagedRun, reason: str, *, succeeded: bool = True) -> None:
        """Reset a run's failure streak, backoff and quarantine; a success
        also forgets the last failure (an operator's ``unquarantine`` keeps it)."""
        with self._lock:
            lifted = managed.quarantined
            managed.quarantined = False
            managed.quarantine_reason = None
            managed.failures = 0
            managed.next_retry_at = 0.0
            if succeeded:
                managed.last_failure = None
        if lifted:
            obs_events.emit("unquarantine", run=managed.run_id, reason=reason)

    def _record_failure(self, managed: _ManagedRun, exc: Exception) -> None:
        """Advance a run's failure streak: next-sweep retry, backoff, quarantine."""
        entered_quarantine = False
        with self._lock:
            managed.failures += 1
            managed.last_failure = exc
            self._run_failures_c.inc()
            if isinstance(exc, CorruptionError):
                self._corruption_c.inc()
            if (
                self._quarantine_after is not None
                and managed.failures >= self._quarantine_after
            ):
                entered_quarantine = not managed.quarantined
                managed.quarantined = True
                managed.quarantine_reason = repr(exc)
                self._last_quarantine_reason = repr(exc)
            if managed.failures > 1:
                # The first failure retries on the very next sweep (most
                # failures are transient — a missing directory, a racing
                # writer); from the second on the retry interval doubles.
                backoff = min(
                    RETRY_BACKOFF_CAP_S,
                    self._retry_backoff_s * (1 << (managed.failures - 2)),
                )
                managed.next_retry_at = self._clock() + backoff
        obs_events.emit(
            "run_failure",
            run=managed.run_id,
            error=repr(exc),
            failures=managed.failures,
        )
        if entered_quarantine:
            obs_events.emit(
                "quarantine",
                run=managed.run_id,
                reason=repr(exc),
                failures=managed.failures,
            )

    def _compact_managed(self, managed: _ManagedRun) -> CompactionResult:
        with managed.file_lock:
            self._take_lease(managed.lease)
            lease = managed.lease if managed.lease.held else None
            result = compact(managed.path, lease=lease)
            if result.compacted:
                # Re-read the chain length while still holding the file
                # lock: a flush on another thread must not have its count
                # clobbered by a stale "= 1" written after it appended.
                n_segments = run_file_info(managed.path).n_segments
                with self._lock:
                    managed.n_segments = n_segments
                self._compactions_c.inc()
        self._mark_healthy(managed, "compaction succeeded")
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"RunLifecycleManager({len(self._runs)} managed runs, "
                f"running={self._thread is not None})"
            )
