"""The batched provenance query engine (the serving layer of the reproduction).

:class:`QueryEngine` owns one :class:`~repro.core.scheme.FVLScheme`, any
number of labelled runs (shards) and a registry of safe views, and answers
reachability queries in batches:

* ``depends_batch(pairs, view)`` — many ``(d1, d2)`` pairs against one view
  of one run;
* ``is_visible_batch(uids, view)`` — the visibility of many items in one
  view of one run.

A batch's answer is one ``(n,)`` ``bool`` array in input order.
``depends`` and ``is_visible`` are one-line single-query wrappers over the
two that return a Python ``bool``; a workload spanning several runs or views
is one batch call per ``(run, view)`` group.

This module keeps registration, shard lifecycle, view-state caching and
stats; how a batch is evaluated — one gather, one group-by-path-pair
pipeline for every batch size and store state — is
:mod:`repro.engine.evaluate`.  The engine serves views: each is labelled
once, with the paper's default materialisation, whose label keeps the body
closures the decode kernel gathers from.  The paper's other view-label
trade-offs and the matrix-free encoding of Section 6.4 stay core-level
labels (:mod:`repro.core`) the engine does not serve from.

Two layers of caching amortize the per-view decode work that the one-pair
``FVLScheme.depends`` API repeats on every call:

1. **View interning** — a view is labelled statically, once: the
   :class:`ViewLabel` and what depends only on ``(grammar, view)`` (the
   matrix bank with its classes and recursion chain products) form a
   :class:`~repro.engine.cache.StaticViewState` kept for as long as the
   engine lives.  The label is built by the view's first query — safety
   comes before any answer — unless an admitted ``.hotmx`` section has
   already proved the view safe; then it waits for the first batch that
   reads it (a kernel pass, visibility flags), and a restart that only
   re-asks what its predecessor decided labels nothing.  What depends on a
   run — the pair tables of decisions keyed by path ids, visibility flags —
   is a :class:`~repro.engine.cache.DecodedViewState` over that static part, held
   in an LRU bounded by ``state_budget_bytes`` — one byte budget over all
   decoded state, static parts included (:mod:`repro.engine.cache` is the
   policy) — so every view a deployment serves stays resident until the
   bytes, not a view count, say otherwise; an evicted view's next query
   rebuilds the per-run half with kernel passes and never relabels;
2. **Path grouping** — every distinct pair of parse-tree paths is decided
   once (a verdict for all its ports or a reachability matrix, by the stacked
   decode kernel) and remembered in a sorted pair table; every query pair
   sharing the paths is one probe and one entry lookup.

Shards come in two flavours: **labelled** runs ingested live into the
engine's shared path arena (:meth:`QueryEngine.add_run`), and **attached**
runs served read-only from an mmap-backed file written by
:meth:`QueryEngine.checkpoint` (:mod:`repro.store.checkpoint`) — disk-backed
shards answer the same queries bit-identically without a decode pass, so a
deployment can serve runs larger than RAM and survive restarts.  An attached
shard follows its file onto a compacted generation through one method,
:meth:`QueryEngine.reopen`, whoever asks (the server's probe, the lifecycle
manager, :meth:`QueryEngine.reopen_all`).
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.analysis.reachability import port_layout
from repro.core.run_labeler import RunLabeler
from repro.core.scheme import FVLScheme
from repro.core.visibility import path_visibility, visible_batch
from repro.engine.cache import CacheStats, DecodedViewState, LRUCache, StaticViewState
from repro.engine.evaluate import depends_grouped
from repro.errors import (
    CorruptionError,
    LabelingError,
    SerializationError,
    ViewError,
)
from repro.obs import events as obs_events
from repro.obs.metrics import MetricsRegistry, Tally
from repro.obs.trace import trace_span
from repro.model.derivation import Derivation
from repro.model.grammar import WorkflowGrammar
from repro.model.specification import WorkflowSpecification
from repro.model.views import WorkflowView
from repro.store import (
    CheckpointResult,
    MappedRunStore,
    PathTable,
    checkpoint_run,
    run_file_info,
)

__all__ = [
    "DEFAULT_RUN",
    "EngineStats",
    "QueryEngine",
    "grammar_fingerprint",
]

#: Run id used when the caller does not name one.
DEFAULT_RUN = "default"

_DEPENDS = "depends"
_VISIBLE = "visible"


def grammar_fingerprint(index) -> int:
    """A stable structural fingerprint of a grammar (nonzero 32-bit int).

    Written into run-file headers by :meth:`QueryEngine.checkpoint` and
    checked by :meth:`QueryEngine.attach`: packed path ids and ``(k, i)``
    edges only decode correctly against the specification that produced
    them, so attaching a run persisted under a different grammar must fail
    loudly instead of serving plausible-looking wrong answers.  Built from a
    canonical rendering (not Python's salted ``hash``, so it is stable
    across processes) of what a label's meaning rests on, production by
    production: its left-hand side and children in the fixed topological
    order, every child's port block (so every module's port counts), where
    each left-hand-side port is bound inside the body, and the data edges as
    ``(src position, src port, dst position, dst port)`` in sorted order.
    All of it is read off the productions'
    :class:`~repro.analysis.reachability.PortLayout`, whose body-wide port
    indices sort exactly so.  Two grammars that differ only in their wiring
    get different fingerprints.
    """
    if index.fingerprint is None:
        grammar = index.grammar
        layouts = [port_layout(production) for production in grammar.productions]
        wires = [wire for layout in layouts for wire in layout.edges]
        # The production of every position, then of every data edge.
        of_position = np.repeat(np.arange(len(layouts)), [len(layout.edges) for layout in layouts])
        owner = np.repeat(of_position, [sources.size for sources, _ in wires])
        sources = np.concatenate([sources for sources, _ in wires] + [np.zeros(0, np.intp)])
        targets = np.concatenate([targets for _, targets in wires] + [np.zeros(0, np.intp)])
        edges = np.lexsort((targets, sources, owner))
        numbers = [owner[edges], sources[edges], targets[edges]]
        for layout in layouts:
            sides = (len(layout.lhs_in), len(layout.lhs_out))
            numbers += [layout.bounds.reshape(-1), sides, layout.lhs_in, layout.lhs_out]
        names = ";".join(
            f"{production.lhs.name}->{','.join(production.rhs.module_names())}"
            for production in grammar.productions
        )
        rendered = f"{grammar.start}|{names}|".encode("utf-8")
        rendered += np.concatenate(numbers).astype("<i8").tobytes()
        index.fingerprint = zlib.crc32(rendered) or 1
    return index.fingerprint


@dataclass(frozen=True)
class EngineStats:
    """Counters exposed for observability (and exercised by the test suite)."""

    views: CacheStats
    #: Queries of every op (``depends`` and ``visible``) the registered
    #: shards answered: the sum of ``queries_by_run``.
    queries: int
    batches: int
    #: ``engine_queries_total`` summed per *currently registered* run: a
    #: detached run drops out of the dict, not out of the counter, and a
    #: run re-registered under its id counts on from its earlier queries.
    queries_by_run: dict[str, int]
    #: Intermediate pairs answered from a verdict row (every factor of the
    #: path pair's product was all-true, or one all-false: no matrix) vs.
    #: from a decoded matrix (or the reference decoder's "none").
    structural_pairs: int = 0
    matrix_pairs: int = 0
    #: Static view labels built so far: at most one per view, built by the
    #: view's first query or, for a view a ``.hotmx`` section proved safe,
    #: by its first label-reading batch (LRU evictions in ``views`` never
    #: add to it).
    labels_built: int = 0


@dataclass
class _RunShard:
    """One labelled run: independent of every other shard, safe to query concurrently.

    A shard is either *labelled* (a live :class:`RunLabeler` fed by a
    derivation, in the engine's shared path arena) or *attached* (a read-only
    :class:`~repro.store.MappedRunStore` served straight from its file
    mapping).  ``arena`` tags the shard's path-id namespace in the decode
    caches: labelled shards share the engine arena (tag 0), every attached
    file brings its own trie and gets a fresh tag.
    """

    run_id: str
    arena: int
    derivation: Derivation | None = None
    labeler: RunLabeler | None = None
    mapped: "MappedRunStore | None" = None

    @property
    def store(self):
        return self.labeler.store if self.labeler is not None else self.mapped.store


class QueryEngine:
    """Batched reachability queries over labelled runs and cached view state."""

    def __init__(
        self,
        source: FVLScheme | WorkflowSpecification | WorkflowGrammar,
        *,
        state_budget_bytes: int = 64 << 20,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self._scheme = source if isinstance(source, FVLScheme) else FVLScheme(source)
        #: One shared path arena for every shard: path ids are engine-global,
        #: sibling runs dedupe their parse-tree paths, and the pair tables
        #: can key on integer id pairs across runs.
        self._path_table = PathTable()
        #: ``columns()`` of the shared arena, re-taken once it has grown.
        self._live_trie: dict[str, np.ndarray] = self._path_table.columns()
        self._views: dict[str, WorkflowView] = {}
        #: view name -> the view's bank and static label (each built on first read).
        #: Filled on first use (``add_view`` stays cheap, an unsafe view
        #: raises every time and is never stored) and kept as long as the
        #: view is registered — the view-state LRU below only holds per-run
        #: state built over these.
        self._statics: dict[str, StaticViewState] = {}
        #: Held while a view is interned (and an unproven one labelled), so
        #: racing first queries on one view make one entry; never taken once
        #: the view's entry exists.
        self._label_lock = threading.Lock()
        #: One metrics registry per engine (not process-global): the serving
        #: stack above shares it — ``ProvenanceServer``/``ProvenanceNetServer``
        #: register their families here — so a single snapshot covers the
        #: whole tier, while separate engines (tests!) never mix counts.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Every byte of decoded state, per-run or static, counts against
        #: ``state_budget_bytes`` (a deployment setting, like a buffer-pool
        #: size); only per-run states are ever evicted to honour it.
        self._states = LRUCache(state_budget_bytes, self._statics, self.metrics)
        self._shards: dict[str, _RunShard] = {}
        #: Serialises shard remaps (reopen from concurrent server workers
        #: and the lifecycle manager) so exactly one fresh mapping wins and
        #: none leak.
        self._reopen_lock = threading.Lock()
        #: Next decode-cache namespace tag for attached (own-trie) shards;
        #: labelled shards all share the engine arena under tag 0.
        self._next_arena = 0
        self._queries_c = self.metrics.counter(
            "engine_queries_total",
            "queries answered, labeled by (run, view, op)",
            ("run", "view", "op"),
        )
        self._batches_c = self.metrics.counter(
            "engine_batches_total", "depends batches evaluated"
        )
        pairs = self.metrics.counter(
            "engine_pairs_total",
            "intermediate pairs by the row that answered (structural: a verdict, vs a matrix)",
            ("mode",),
        )
        self._structural_pairs_c = pairs.labels("structural")
        self._matrix_pairs_c = pairs.labels("matrix")
        self._batch_seconds = self.metrics.histogram(
            "engine_batch_seconds", "wall time per engine batch", ("op",)
        )
        self._labels_c = self.metrics.counter(
            "engine_view_labels_total", "static view labels built (once per view)"
        )
        self._label_seconds = self.metrics.histogram(
            "engine_view_label_seconds", "wall time per static view labelling"
        )
        self._reopens_c = self.metrics.counter(
            "engine_reopens_total", "attached shards remapped onto a newer generation"
        )
        #: Shared corruption tally — the watchdog's "corruption == 0" SLO
        #: watches this family; other layers (lifecycle) label their own.
        self._corruption_c = self.metrics.counter(
            "corruption_detected_total",
            "checksum/structure corruption detections by layer",
            ("layer",),
        ).labels("engine")

    # -- registration ------------------------------------------------------------

    @property
    def scheme(self) -> FVLScheme:
        return self._scheme

    @property
    def run_ids(self) -> tuple[str, ...]:
        return tuple(self._shards)

    @property
    def view_names(self) -> tuple[str, ...]:
        return tuple(self._views)

    def add_run(self, run_id: str, derivation: Derivation) -> RunLabeler:
        """Register (and label) one run; past events are replayed, future streamed.

        Runs are labelled into the engine's shared path arena; register runs
        from one thread (queries may run concurrently, registration may not).
        """
        if run_id in self._shards:
            raise LabelingError(f"run {run_id!r} is already registered with this engine")
        labeler = self._scheme.label_run(derivation, path_table=self._path_table)
        self._shards[run_id] = _RunShard(
            run_id, arena=0, derivation=derivation, labeler=labeler
        )
        return labeler

    def attach(
        self, path, run_id: str = DEFAULT_RUN, *, verify: str = "lazy"
    ) -> MappedRunStore:
        """Serve a persisted run straight from its file mapping as a shard.

        The file (written by :meth:`checkpoint` /
        :func:`~repro.store.checkpoint_run`) is ``mmap``-ed, not decoded:
        labels and paths page in lazily, so runs larger than RAM can be
        queried.  The attached shard is read-only; its path ids live in the
        file's own trie (not the engine arena), which the pair tables keep
        apart by arena.  Register attachments from one thread, like
        :meth:`add_run`.

        ``verify`` is passed to :class:`~repro.store.MappedRunStore`:
        ``"lazy"`` (default) scrubs the file's checksums once, before the
        first column of any kind (labels, trie, nodes) is served;
        ``"attach"`` scrubs before this call returns.  A failed scrub raises
        :class:`~repro.errors.CorruptionError` — on every retry — instead of
        ever serving a silently wrong answer.
        """
        if run_id in self._shards:
            # Guard before the file is mapped: silently replacing the live
            # shard would leak its mmap and serve half the callers a
            # different run.  Re-attach requires an explicit detach first.
            raise LabelingError(
                f"run {run_id!r} is already registered with this engine; "
                "detach(run_id) it first to attach a different file under "
                "this id"
            )
        mapped = self._map(path, verify)
        self._next_arena += 1
        self._shards[run_id] = _RunShard(run_id, arena=self._next_arena, mapped=mapped)
        return mapped

    def _map(self, path, verify: str) -> MappedRunStore:
        """Map a run file, refusing one checkpointed under another specification."""
        mapped = MappedRunStore(path, verify=verify)
        if mapped.fingerprint and mapped.fingerprint != grammar_fingerprint(self._scheme.index):
            mapped.close()
            raise LabelingError(
                f"run file {mapped.path!r} was checkpointed under a different "
                "specification; its labels would decode to wrong answers here"
            )
        return mapped

    def checkpoint(self, path, run_id: str = DEFAULT_RUN) -> CheckpointResult:
        """Persist a labelled shard to ``path`` (incremental after the first call).

        The first checkpoint writes the whole run (trie, label columns, node
        rows); later calls on the same file append only the rows added since
        the recorded ``(n_paths, n_items, n_nodes)`` watermarks.  The shard
        keeps serving from memory — use :meth:`attach` (in this or another
        process) to serve the persisted form.
        """
        shard = self._shard(run_id)
        if shard.labeler is None:
            raise LabelingError(
                f"run {run_id!r} is an attached mapped store; it is already "
                "persistent and read-only"
            )
        tree = shard.labeler.tree
        nodes = getattr(tree, "nodes", None)
        return checkpoint_run(
            path,
            shard.labeler.store,
            nodes,
            fingerprint=grammar_fingerprint(self._scheme.index),
        )

    def reopen(self, run_id: str = DEFAULT_RUN) -> bool:
        """Remap an attached shard onto a newer generation of its run file.

        After :func:`repro.store.compact` swaps a merged rewrite over the
        path, this shard keeps serving the superseded inode; ``reopen``
        stats the path and, only if it names another inode, reads the file
        header once and, if the generation moved on, maps the
        current file and swaps it in — without a restart and **without
        invalidating decode-cache results**: compaction preserves every row
        and path id, so the shard keeps its arena tag and every cached
        ``(arena, id, id)`` matrix stays valid.  In-flight queries finish on
        the old mapping.

        Returns ``True`` iff the shard was remapped; ``False`` for a
        labelled shard, an unchanged generation, or a file that is
        unreadable, vanished or torn mid-swap (the next call retries).  A
        refusal keeps the old mapping serving: a rewrite that fails its
        scrub raises :class:`~repro.errors.CorruptionError` (counted in
        ``corruption_detected_total{layer="engine"}``), one under a foreign
        specification or with fewer rows :class:`~repro.errors.LabelingError`.

        The stat settles the common case without opening the file: a new
        generation only ever arrives as a new inode (``os.replace``), and
        the mapped inode cannot be reused while the mapping holds it
        (:attr:`~repro.store.MappedRunStore.inode`).
        """
        shard = self._shard(run_id)
        if shard.mapped is None:
            return False
        # One remap at a time: two concurrent probes (e.g. two server
        # workers) racing here would both map the fresh file, and the
        # loser's mapping would leak when the winner's swap lands first.
        with self._reopen_lock:
            old = shard.mapped
            try:
                stat = os.stat(old.path)
                if (stat.st_dev, stat.st_ino) == old.inode:
                    return False
                if run_file_info(old.path).generation == old.generation:
                    return False
                # Scrubbed before the swap (only a scrub raises corruption).
                fresh = self._map(old.path, "attach")
            except CorruptionError:
                self._corruption_c.inc()
                raise
            except (OSError, SerializationError):
                return False
            if any(getattr(fresh, n) < getattr(old, n) for n in ("n_items", "n_paths", "n_nodes")):
                fresh.close()
                raise LabelingError(
                    f"run file {old.path!r} shrank across generations; this is "
                    "not a compaction of the attached run"
                )
            shard.mapped = fresh
            old.close()
            self._reopens_c.inc()
            obs_events.emit(
                "reopen", run=run_id, path=old.path, generation=fresh.generation
            )
            return True

    def reopen_all(self, path=None) -> list[str]:
        """:meth:`reopen` every attached shard (of the file at ``path``, if given).

        Spellings of ``path`` are resolved with ``os.path.samefile``, so a
        shard attached under a relative or symlinked alias is still found.
        Returns the run ids that were actually remapped.
        """
        target = os.fspath(path) if path is not None else None
        reopened = []
        for run_id, shard in list(self._shards.items()):
            if shard.mapped is None:
                continue
            if target is not None and not self._same_file(shard.mapped.path, target):
                continue
            if self.reopen(run_id):
                reopened.append(run_id)
        return reopened

    @staticmethod
    def _same_file(left: str, right: str) -> bool:
        if left == right:
            return True
        try:
            return os.path.samefile(left, right)
        except OSError:
            return False

    def detach(self, run_id: str) -> None:
        """Unregister a shard and release what it pinned (arena hygiene).

        An attached shard closes its file mapping and has its private-trie
        rows purged from every decoded view's pair tables — the
        file brought its own path-id arena, so those entries can never be
        probed again and would otherwise accumulate across run churn.
        Labelled shards are only unregistered: their paths live in the
        engine's *shared* arena where sibling runs may reference the same
        interned ids, which is exactly why churny workloads should serve
        runs through ``checkpoint``/``attach`` and detach them when done.
        """
        shard = self._shard(run_id)
        del self._shards[run_id]
        if shard.mapped is not None:
            self._purge_decode_entries(shard.arena)
            shard.mapped.close()

    def add_view(self, view: WorkflowView) -> WorkflowView:
        """Register a view so queries can refer to it by name.

        Re-registering a structurally identical view (same composites, same
        perceived dependencies) keeps the existing registration — callers may
        rebuild their view objects per request — while a genuinely different
        view under an already-taken name is rejected.  Safety is checked when
        the view is first decoded (labeling an unsafe view raises
        :class:`~repro.errors.UnsafeWorkflowError`).
        """
        existing = self._views.get(view.name)
        if existing is None:
            self._views[view.name] = view
            return view
        if existing is view or (
            existing.visible_composites == view.visible_composites
            and existing.dependencies == view.dependencies
        ):
            return existing
        raise ViewError(
            f"a different view named {view.name!r} is already registered"
        )

    def view(self, name: str) -> WorkflowView:
        """The registered :class:`WorkflowView` of that name (else ViewError)."""
        return self._resolve_view(name)

    def run_labeler(self, run_id: str = DEFAULT_RUN) -> RunLabeler:
        labeler = self._shard(run_id).labeler
        if labeler is None:
            raise LabelingError(
                f"run {run_id!r} is an attached mapped store and has no labeler"
            )
        return labeler

    # -- queries -----------------------------------------------------------------

    def depends(
        self,
        d1: int,
        d2: int,
        view: "WorkflowView | str",
        *,
        run: str = DEFAULT_RUN,
    ) -> bool:
        """Single-pair convenience wrapper over :meth:`depends_batch`."""
        return bool(self.depends_batch([(d1, d2)], view, run=run)[0])

    def depends_batch(
        self,
        pairs: "list[tuple[int, int]] | np.ndarray",
        view: "WorkflowView | str",
        *,
        run: str = DEFAULT_RUN,
    ) -> np.ndarray:
        """Answer ``pairs`` of ``(d1, d2)`` item ids against one view of one run.

        Returns an ``(n,)`` ``bool`` array lined up with ``pairs``:
        ``result[i]`` is ``True`` iff item ``pairs[i][1]`` depends on
        ``pairs[i][0]`` in ``view``.  ``pairs`` is
        a sequence of pairs or an ``(n, 2)`` integer array; an array feeds
        :mod:`repro.engine.evaluate` as is.
        """
        return self._answer_folded(_DEPENDS, pairs, view, run)

    def is_visible(
        self,
        uid: int,
        view: "WorkflowView | str",
        *,
        run: str = DEFAULT_RUN,
    ) -> bool:
        """Single-item convenience wrapper over :meth:`is_visible_batch`."""
        return bool(self.is_visible_batch([uid], view, run=run)[0])

    def is_visible_batch(
        self,
        uids,
        view: "WorkflowView | str",
        *,
        run: str = DEFAULT_RUN,
    ) -> np.ndarray:
        """Visibility (Section 5) of many items in one view of one run.

        Returns an ``(n,)`` ``bool`` array lined up with ``uids``, answered
        from the label columns of live and attached runs alike: the
        retained-production test is folded **once per decoded view** over the
        path trie (the flags are memoized per arena and merely extended when
        the trie has grown) and each item costs one gathered row and two flag
        lookups — no
        :class:`~repro.core.labels.DataLabel` objects.  ``uids`` may be an
        ``(n,)`` integer array.
        """
        return self._answer_folded(_VISIBLE, uids, view, run)

    def _answer_folded(self, op: str, ids, view, run: str) -> np.ndarray:
        """:meth:`answer`, its metric updates folded into the registry."""
        if not isinstance(ids, np.ndarray):
            ids = list(ids)
        tally = Tally()
        try:
            return self.answer(op, ids, view, run, tally)
        finally:
            self.metrics.fold(tally)

    def answer(self, op: str, ids, view: "WorkflowView | str", run: str, tally: Tally) -> np.ndarray:
        """One batch of ``op`` — ``"depends"`` or ``"visible"`` — whose metric
        updates go to ``tally``; the caller folds it.

        What :meth:`depends_batch` and :meth:`is_visible_batch` run, and what
        a scheduling step (:class:`~repro.serve.ProvenanceServer`) calls for
        each of its groups: the step folds the counts of all its engine calls
        and its own under one registry lock, before any of its records
        resolves.  ``ids`` is ``(n, 2)`` pairs or ``(n,)`` uids, as for those
        two methods.
        """
        if op not in (_DEPENDS, _VISIBLE):
            raise ValueError(f"unknown query op {op!r} (expected {_DEPENDS!r} or {_VISIBLE!r})")
        shard = self._shards.get(run) or self._shard(run)
        state = self._decoded_state(view, tally)
        n = len(ids)
        tally.add(self._queries_c.labels(shard.run_id, state.static.view, op), n)
        t0 = time.perf_counter()
        try:
            if op == _DEPENDS:
                tally.add(self._batches_c)
                with trace_span("engine.depends_batch", run=shard.run_id, pairs=n):
                    results, structural_n, matrix_n = depends_grouped(
                        shard.store,
                        shard.arena,
                        state,
                        ids,
                        lambda: self._trie_columns(shard),
                    )
                if structural_n:
                    tally.add(self._structural_pairs_c, structural_n)
                if matrix_n:
                    tally.add(self._matrix_pairs_c, matrix_n)
                return results
            with trace_span("engine.visible_batch", run=shard.run_id, uids=n):
                flags = self._visibility_flags(shard, state)
                return visible_batch(shard.store, state.label, ids, flags=flags)
        finally:
            self._states.settle(state)
            tally.observe(self._batch_seconds.labels(op), time.perf_counter() - t0)

    def _visibility_flags(self, shard: _RunShard, state) -> np.ndarray:
        """The view's per-path flags over the shard's trie, extended if it grew."""
        known = state.visibility_flags.get(shard.arena)
        flags = path_visibility(shard.store.table, state.label, prefix=known)
        if flags is not known:
            state.keep_flags(shard.arena, flags)
        return flags

    # -- the serving surface (repro.serve) ---------------------------------------

    def shard_arena(self, run_id: str = DEFAULT_RUN) -> int:
        """The decode-cache arena tag of one shard (0 = the shared trie)."""
        return self._shard(run_id).arena

    def mapped_store(self, run_id: str = DEFAULT_RUN) -> "MappedRunStore | None":
        """The :class:`MappedRunStore` behind an attached shard (else ``None``)."""
        return self._shard(run_id).mapped

    def decoded_state(self, view: "WorkflowView | str") -> DecodedViewState:
        """The (LRU-interned) decoded state of one view.

        Public so callers can inspect a state's pair tables without issuing a
        query first.  Like a query, the first call for a view proves it safe
        by labelling it (an unsafe view raises and nothing is interned),
        unless an admitted ``.hotmx`` section already proved it — then its
        label waits for the first read that needs it.  The label and the
        bank (``state.static``) outlive the returned object's stay in the
        LRU.
        """
        tally = Tally()
        try:
            return self._decoded_state(view, tally)
        finally:
            self.metrics.fold(tally)

    def decoded_states(self) -> dict[str, DecodedViewState]:
        """A snapshot of the currently interned decoded view states.

        Keys are view names; iteration order is LRU (least
        recent first).  Snapshot semantics: concurrent queries may intern or
        evict states while the caller walks it.
        """
        return dict(self._states.items())

    # -- observability ----------------------------------------------------------------

    @property
    def stats(self) -> EngineStats:
        """A point-in-time view over the metrics registry.

        Every count comes from one registry
        :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` (a single lock
        acquisition, so they are mutually consistent).
        """
        snap = self.metrics.snapshot()
        pairs = snap.get("engine_pairs_total", {})
        queries_by_run = dict.fromkeys(list(self._shards), 0)
        for (run, _view, _op), n in snap["engine_queries_total"].items():
            if run in queries_by_run:
                queries_by_run[run] += int(n)
        return EngineStats(
            views=self._states.stats_from(snap),
            queries=sum(queries_by_run.values()),
            batches=int(snap.get("engine_batches_total", {}).get((), 0)),
            queries_by_run=queries_by_run,
            structural_pairs=int(pairs.get(("structural",), 0)),
            matrix_pairs=int(pairs.get(("matrix",), 0)),
            labels_built=int(sum(snap.get("engine_view_labels_total", {}).values())),
        )

    # -- internals --------------------------------------------------------------------------

    def _purge_decode_entries(self, arena: int) -> None:
        """Drop the pair table and visibility flags of one private (attached) arena.

        Arena 0 is the engine's shared trie — its ids stay meaningful across
        shard churn, so only private arenas are purged.  Only the LRU's
        per-run states can hold such entries: the static part of a view
        (the label and the bank's codes) mentions no arena and is left alone.  Each state gives the arena's bytes back
        exactly.
        """
        if arena == 0:
            return
        for state in self._states.values():
            state.purge(arena)

    def _trie_columns(self, shard: _RunShard) -> tuple:
        """The ``(parent, packed, c)`` arrays of the shard's trie, for the decode kernel.

        Mapped shards hand out their file views (zero-copy).  Labelled shards
        share the engine arena, whose ``columns()`` are copies of its whole
        rows — they pin nothing that grows — re-taken only once it has grown.
        """
        if shard.mapped is not None:
            columns = shard.mapped.table.columns()
        else:
            columns = self._live_trie
            if len(columns["c"]) != len(self._path_table):
                columns = self._live_trie = self._path_table.columns()
        return columns["parent"], columns["packed"], columns["c"]

    def _shard(self, run_id: str) -> _RunShard:
        try:
            return self._shards[run_id]
        except KeyError:
            raise LabelingError(
                f"no run {run_id!r} is registered with this engine "
                f"(known runs: {sorted(self._shards) or 'none'})"
            ) from None

    def _resolve_view(self, view: "WorkflowView | str") -> WorkflowView:
        if isinstance(view, WorkflowView):
            return self.add_view(view)
        try:
            return self._views[view]
        except KeyError:
            raise ViewError(
                f"unknown view {view!r}; register it with add_view first "
                f"(known views: {sorted(self._views) or 'none'})"
            ) from None

    def _decoded_state(
        self, view: "WorkflowView | str", tally: Tally, *, proven: bool = False
    ) -> DecodedViewState:
        """The decoded state of ``view``, its LRU hit or miss counted in ``tally``;
        ``proven`` says its safety is already established.

        Only :func:`~repro.serve.matrix_cache.load_hot_matrices` passes
        ``proven``, for a view one of its admitted sections proves safe.
        """
        view = self._resolve_view(view)
        return self._states.get_or_create(
            view.name,
            lambda: DecodedViewState(self._static_state(view, proven), self._states.room),
            tally,
        )

    def _static_state(self, view: WorkflowView, proven: bool) -> StaticViewState:
        """The interned static part of ``view``, made on first use.

        A view is interned once it is *proven* safe: its label has been
        built, or an admitted ``.hotmx`` section vouches for it (``proven``).
        An unproven view is labelled before it is interned, so a view that
        fails the safety check raises out of the labeller and leaves nothing
        behind, and every later query on it raises the same error.  A proven
        one is interned unlabelled and labels itself on the first read of
        :attr:`StaticViewState.label`.
        """
        static = self._statics.get(view.name)
        if static is not None:
            return static
        with self._label_lock:
            static = self._statics.get(view.name)
            if static is None:
                static = StaticViewState(view.name, self._scheme.index, lambda: self._label_view(view))
                if not proven:
                    static.label  # noqa: B018 - the read labels it: an unsafe view raises here
                self._statics[view.name] = static
        return static

    def _label_view(self, view: WorkflowView):
        """Label ``view`` from scratch, timed and counted: the one labelling path.

        :meth:`FVLScheme.label_view` is not memoised (it is what the paper's
        view-labelling experiments time); the engine calls it once per view,
        through its :class:`StaticViewState`.
        """
        t0 = time.perf_counter()
        with trace_span("engine.label_view", view=view.name):
            label = self._scheme.label_view(view)
        self._label_seconds.observe(time.perf_counter() - t0)
        self._labels_c.inc()
        return label
