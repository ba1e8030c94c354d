"""The batched provenance query engine (the serving layer of the reproduction).

:class:`QueryEngine` owns one :class:`~repro.core.scheme.FVLScheme`, any
number of labelled runs (shards) and a registry of safe views, and answers
reachability queries in batches:

* ``depends_batch(pairs, view)`` — many ``(d1, d2)`` pairs against one view
  of one run;
* ``depends_many(queries)`` — heterogeneous queries spanning several runs and
  views, answered as one ``depends_batch`` per ``(run, view, variant)``.

This module keeps registration, shard lifecycle, view-state caching and
stats; how a batch is evaluated — one gather, one group-by-path-pair
pipeline for every batch size, store state and variant — is
:mod:`repro.engine.evaluate`.  A ``variant`` is one of the paper's three
:class:`~repro.core.view_label.FVLVariant` materialisations (or its string
value), turned into the enum once on entry; the matrix-free encoding of
Section 6.4 stays a core-level label (:mod:`repro.core.matrix_free`) the
engine does not serve from.

Three layers of caching amortize the per-view decode work that the one-pair
``FVLScheme.depends`` API repeats on every call:

1. **View interning** — a view is labelled statically, once, on its first
   use: the :class:`ViewLabel` and every memo that depends only on
   ``(grammar, view, variant)`` (production triples, recursion chain
   products, path-segment products, the matrix bank and its classes) form a
   :class:`~repro.engine.cache.StaticViewState` kept for as long as the
   engine lives.  What depends on a run — the pair tables of decisions keyed
   by path ids, visibility flags — is a
   :class:`~repro.engine.cache.DecodedViewState` over that static part, held
   in an LRU bounded by ``state_budget_bytes`` — one byte budget over all
   decoded state, static parts included (:mod:`repro.engine.cache` is the
   policy) — so every view a deployment serves stays resident until the
   bytes, not a view count, say otherwise; an evicted view's next query
   rebuilds the per-run half with matrix products and never relabels;
2. **Production memoization** — the space-efficient variant's on-demand graph
   searches run once per production instead of once per matrix access;
3. **Path grouping** — every distinct pair of parse-tree paths is decided
   once (a verdict for all its ports or a reachability matrix, by the stacked
   decode kernel) and remembered in a sorted pair table; every query pair
   sharing the paths is one probe and one entry lookup.

The combination makes the space-efficient variant's batched path perform
within a small constant factor of the fully materialised variants (the
one-pair API leaves it 30–40x behind).

Shards come in two flavours: **labelled** runs ingested live into the
engine's shared path arena (:meth:`QueryEngine.add_run`), and **attached**
runs served read-only from an mmap-backed file written by
:meth:`QueryEngine.checkpoint` (:mod:`repro.store.checkpoint`) — disk-backed
shards answer the same queries bit-identically without a decode pass, so a
deployment can serve runs larger than RAM and survive restarts.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.run_labeler import RunLabeler
from repro.core.scheme import FVLScheme
from repro.core.view_label import FVLVariant
from repro.core.visibility import path_visibility, visible_batch, visible_mask
from repro.engine.cache import CacheStats, DecodedViewState, LRUCache, StaticViewState
from repro.engine.evaluate import depends_grouped
from repro.errors import (
    CorruptionError,
    DecodingError,
    LabelingError,
    SerializationError,
    ViewError,
)
from repro.obs import events as obs_events
from repro.obs.metrics import MetricsRegistry
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
    "DependsQuery",
    "EngineStats",
    "QueryEngine",
    "grammar_fingerprint",
]

#: Run id used when the caller does not name one.
DEFAULT_RUN = "default"


def grammar_fingerprint(index) -> int:
    """A stable structural fingerprint of a grammar (nonzero 32-bit int).

    Written into run-file headers by :meth:`QueryEngine.checkpoint` and
    checked by :meth:`QueryEngine.attach`: packed path ids and ``(k, i)``
    edges only decode correctly against the specification that produced
    them, so attaching a run persisted under a different grammar must fail
    loudly instead of serving plausible-looking wrong answers.  Built from a
    canonical rendering of the production templates (not Python's salted
    ``hash``), so it is stable across processes.
    """
    if index.fingerprint is None:
        parts = [index.grammar.start]
        for k in range(1, index.n_productions() + 1):
            children = ",".join(
                f"{position}:{module_name}"
                for position, module_name, _ in index.production_children(k)
            )
            parts.append(f"{k}->{children}")
        index.fingerprint = zlib.crc32("|".join(parts).encode("utf-8")) or 1
    return index.fingerprint


@dataclass(frozen=True)
class DependsQuery:
    """One reachability query: does ``d2`` depend on ``d1`` in ``view``?"""

    d1: int
    d2: int
    view: "WorkflowView | str"
    run: str = DEFAULT_RUN
    variant: "FVLVariant | str | None" = None


@dataclass(frozen=True)
class EngineStats:
    """Counters exposed for observability (and exercised by the test suite)."""

    views: CacheStats
    queries: int
    batches: int
    queries_by_run: dict[str, int]
    #: Intermediate pairs answered from a verdict row (every factor of the
    #: path pair's product was all-true, or one all-false: no matrix) vs.
    #: from a decoded matrix (or the reference decoder's "none").
    structural_pairs: int = 0
    matrix_pairs: int = 0
    #: Static view labels built so far (one per ``(view, variant)`` ever
    #: queried; LRU evictions in ``views`` never add to it).
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
    queries: int = 0

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
        variant: "FVLVariant | str" = FVLVariant.DEFAULT,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self._scheme = source if isinstance(source, FVLScheme) else FVLScheme(source)
        #: One shared path arena for every shard: path ids are engine-global,
        #: sibling runs dedupe their parse-tree paths, and the decode caches
        #: can key on integer id pairs across runs.
        self._path_table = PathTable()
        #: ``(n_paths, (parent, packed, c) arrays)`` of the shared arena.
        self._live_trie: tuple = (0, ())
        self._variant = self._check_variant(variant)
        self._views: dict[str, WorkflowView] = {}
        #: ``(view name, variant value)`` -> the view's static label and its
        #: run-independent memos.  Filled on first use (``add_view`` stays
        #: cheap, an unsafe view raises every time and is never stored) and
        #: kept as long as the view is registered — the view-state LRU below
        #: only holds per-run state built over these.
        self._statics: dict[tuple[str, str], StaticViewState] = {}
        #: Held while a view is labelled, so racing first queries on one view
        #: label it once; never taken once the view's entry exists.
        self._label_lock = threading.Lock()
        #: One metrics registry per engine (not process-global): the serving
        #: stack above shares it — ``ProvenanceServer``/``ProvenanceNetServer``
        #: register their families here — so a single snapshot covers the
        #: whole tier, while separate engines (tests!) never mix counts.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        view_cache = self.metrics.counter(
            "engine_view_cache_total", "decoded-view LRU events", ("event",)
        )
        #: Every byte of decoded state, per-run or static, counts against
        #: ``state_budget_bytes`` (a deployment setting, like a buffer-pool
        #: size); only per-run states are ever evicted to honour it.
        self._states = LRUCache(
            state_budget_bytes,
            self._statics,
            counters=(
                view_cache.labels("hit"),
                view_cache.labels("miss"),
                view_cache.labels("evict"),
            ),
        )
        state_bytes = self.metrics.gauge(
            "engine_decoded_state_bytes",
            "decoded view state resident (array bytes), evictable per-run part vs static part",
            ("part",),
        )
        state_bytes.labels("per_run").set_function(self._states.per_run_bytes)
        state_bytes.labels("static").set_function(self._states.static_bytes)
        self._shards: dict[str, _RunShard] = {}
        self._lock = threading.Lock()
        #: Serialises shard remaps (reopen/maybe_reopen from concurrent
        #: server workers) so exactly one fresh mapping wins and none leak.
        self._reopen_lock = threading.Lock()
        #: Next decode-cache namespace tag for attached (own-trie) shards;
        #: labelled shards all share the engine arena under tag 0.
        self._next_arena = 0
        self._queries_c = self.metrics.counter(
            "engine_queries_total",
            "queries answered, labeled by (run, view, variant, op)",
            ("run", "view", "variant", "op"),
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
            "engine_view_labels_total",
            "static view labels built (once per view and variant)",
            ("variant",),
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
        )

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
        file's own trie (not the engine arena), which the decode caches keep
        apart automatically.  Register attachments from one thread, like
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
        mapped = MappedRunStore(path, verify=verify)
        expected = grammar_fingerprint(self._scheme.index)
        if mapped.fingerprint and mapped.fingerprint != expected:
            mapped.close()
            raise LabelingError(
                f"run file {mapped.path!r} was checkpointed under a different "
                "specification; its labels would decode to wrong answers here"
            )
        self._next_arena += 1
        self._shards[run_id] = _RunShard(run_id, arena=self._next_arena, mapped=mapped)
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
        detects the bumped generation with a header peek and, if one is
        there, maps the current file and swaps it in — without a restart and
        **without invalidating decode-cache results**: compaction preserves
        every row and path id bit-identically (and appends only ever extend
        them), so the shard keeps its arena tag and every cached
        ``(arena, id, id)`` matrix stays valid.  Returns ``True`` iff the
        shard was remapped.  In-flight queries finish on the old mapping;
        its pages are released once their views are collected.
        """
        shard = self._shard(run_id)
        if shard.mapped is None:
            raise LabelingError(
                f"run {run_id!r} is a labelled shard; only attached mapped "
                "shards can be reopened"
            )
        # One remap at a time: two concurrent probes (e.g. two server
        # workers) racing here would both map the fresh file, and the
        # loser's mapping would leak when the winner's swap lands first.
        with self._reopen_lock:
            old = shard.mapped
            if old.current_generation() == old.generation:
                return False
            # The fresh generation is scrubbed *before* the swap: a corrupt
            # rewrite raises CorruptionError here and the old mapping (the
            # last good generation) keeps serving untouched.
            fresh = MappedRunStore(old.path, verify="attach")
            expected = grammar_fingerprint(self._scheme.index)
            if fresh.fingerprint and fresh.fingerprint != expected:
                fresh.close()
                raise LabelingError(
                    f"run file {old.path!r} was rewritten under a different "
                    "specification; refusing to remap"
                )
            if (
                fresh.n_items < old.n_items
                or fresh.n_paths < old.n_paths
                or fresh.n_nodes < old.n_nodes
            ):
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

    def maybe_reopen(self, run_id: str = DEFAULT_RUN) -> bool:
        """Probe an attached shard's file header and remap if it moved on.

        The cheap half of :meth:`reopen` for *follower* processes whose
        lifecycle manager lives elsewhere: one :func:`~repro.store.run_file_info`
        header peek decides whether a compacted generation was swapped in
        under the path, and only then is the file remapped.  Returns ``True``
        iff the shard was remapped; labelled (non-mapped) shards and probes
        that race a mid-swap or deleted file return ``False`` instead of
        raising — the next probe simply tries again.
        :class:`~repro.serve.ProvenanceServer` calls this on a
        query-count/time backoff so readers follow compactions without any
        in-process manager.
        """
        shard = self._shard(run_id)
        if shard.mapped is None:
            return False
        try:
            info = run_file_info(shard.mapped.path)
        except (OSError, SerializationError):
            return False
        if info.generation == shard.mapped.generation:
            return False
        try:
            return self.reopen(run_id)
        except CorruptionError:
            # A failed checksum is damage, not a race: the old mapping (the
            # last good generation) keeps serving, but the caller must hear
            # about the corrupt rewrite rather than silently retrying it.
            self._corruption_c.labels("engine").inc()
            raise
        except (OSError, SerializationError):
            # The file vanished or tore between the probe and the remap
            # (e.g. a compaction swap in flight); the old mapping still
            # serves and the next probe retries.  reopen's LabelingError
            # (foreign spec, shrunk file) stays loud — that is corruption,
            # not a race.
            return False

    def reopen_all(self, path=None) -> list[str]:
        """Reopen every attached shard whose file gained a generation.

        ``path`` restricts the sweep to shards mapping that file (the
        lifecycle manager passes the path it just compacted); spellings are
        resolved with ``os.path.samefile`` so a shard attached under a
        relative or symlinked alias of the compacted path is still remapped.
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
        variant: "FVLVariant | str | None" = None,
    ) -> bool:
        """Single-pair convenience wrapper over :meth:`depends_batch`."""
        return self.depends_batch([(d1, d2)], view, run=run, variant=variant)[0]

    def depends_batch(
        self,
        pairs: "list[tuple[int, int]] | np.ndarray",
        view: "WorkflowView | str",
        *,
        run: str = DEFAULT_RUN,
        variant: "FVLVariant | str | None" = None,
    ) -> list[bool]:
        """Answer ``pairs`` of ``(d1, d2)`` item ids against one view of one run.

        Results line up with ``pairs``: ``result[i]`` is ``True`` iff item
        ``pairs[i][1]`` depends on ``pairs[i][0]`` in ``view``.  ``pairs`` is
        a sequence of pairs or an ``(n, 2)`` integer array; an array feeds
        :mod:`repro.engine.evaluate` as is.
        """
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        shard = self._shard(run)
        state = self._decoded_state(view, variant)
        return self._evaluate(shard, state, pairs)

    def depends_many(self, queries) -> list[bool]:
        """Answer heterogeneous queries spanning runs and views.

        ``queries`` may contain :class:`DependsQuery` objects or plain tuples
        ``(d1, d2, view)`` / ``(d1, d2, view, run)``.  Queries are grouped by
        ``(run, view, variant)`` and each group is one :meth:`depends_batch`.
        """
        normalized = [self._normalize_query(q) for q in queries]
        # Resolve shards and views up front so a bad query raises before
        # anything is evaluated.
        groups: dict[tuple, tuple] = {}
        for pos, query in enumerate(normalized):
            self._shard(query.run)
            view = self._resolve_view(query.view)
            variant = self._check_variant(query.variant or self._variant)
            key = (query.run, view.name, variant)
            _, _, positions, pairs = groups.setdefault(key, (view, variant, [], []))
            positions.append(pos)
            pairs.append((query.d1, query.d2))
        results: list[bool] = [False] * len(normalized)
        for (run, _, _), (view, variant, positions, pairs) in groups.items():
            answers = self.depends_batch(pairs, view, run=run, variant=variant)
            for pos, answer in zip(positions, answers):
                results[pos] = answer
        return results

    def is_visible(
        self,
        uid: int,
        view: "WorkflowView | str",
        *,
        run: str = DEFAULT_RUN,
        variant: "FVLVariant | str | None" = None,
    ) -> bool:
        """Single-item convenience wrapper over :meth:`is_visible_batch`."""
        return self.is_visible_batch([uid], view, run=run, variant=variant)[0]

    def is_visible_batch(
        self,
        uids,
        view: "WorkflowView | str",
        *,
        run: str = DEFAULT_RUN,
        variant: "FVLVariant | str | None" = None,
    ) -> list[bool]:
        """Visibility (Section 5) of many items in one view of one run.

        Answered from the packed label columns of live, compacted and
        attached runs alike: the retained-production test is folded **once
        per decoded view** over the path trie (the flags are memoized per
        arena and merely extended when the trie has grown) and each item
        costs one gathered row and two flag lookups — no
        :class:`~repro.core.labels.DataLabel` objects.  ``uids`` may be an
        ``(n,)`` integer array.
        """
        if not isinstance(uids, np.ndarray):
            uids = list(uids)
        shard = self._shard(run)
        state = self._decoded_state(view, variant)
        self._note_queries(shard, state, "visible", len(uids))
        t0 = time.perf_counter()
        try:
            with trace_span("engine.visible_batch", run=shard.run_id, uids=len(uids)):
                flags = self._visibility_flags(shard, state)
                return visible_batch(shard.store, state.label, uids, flags=flags)
        finally:
            self._states.settle(state)
            self._batch_seconds.labels("visible").observe(time.perf_counter() - t0)

    def visible_mask(
        self,
        view: "WorkflowView | str",
        *,
        run: str = DEFAULT_RUN,
        variant: "FVLVariant | str | None" = None,
    ) -> np.ndarray:
        """The visibility of **every** item of a run in one view, as a bool array.

        :meth:`is_visible_batch` over all rows in insertion order, sharing
        its memoized per-path flags, so repeated calls against an unchanged
        store skip the trie fold entirely.
        """
        shard = self._shard(run)
        state = self._decoded_state(view, variant)
        flags = self._visibility_flags(shard, state)
        self._states.settle(state)
        return visible_mask(shard.store, state.label, flags=flags)

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

    def decoded_state(
        self,
        view: "WorkflowView | str",
        variant: "FVLVariant | str | None" = None,
    ) -> DecodedViewState:
        """The (LRU-interned) decoded state of one ``(view, variant)`` pair.

        Public so the serving layer can warm a state's decode cache (the
        persistent hot-matrix cache seeds the arena's pair table through
        this) without issuing a query first.  The first call for a view labels it;
        the label and the run-independent memos (``state.static``) outlive
        the returned object's stay in the LRU.
        """
        return self._decoded_state(view, variant)

    def decoded_states(self) -> dict[tuple[str, str], DecodedViewState]:
        """A snapshot of the currently interned decoded view states.

        Keys are ``(view_name, variant.value)``; iteration order is LRU (least
        recent first).  Snapshot semantics: concurrent queries may intern or
        evict states while the caller walks it.
        """
        return dict(self._states.items())

    # -- observability ----------------------------------------------------------------

    @property
    def stats(self) -> EngineStats:
        """A point-in-time view over the metrics registry (plus shard tallies).

        ``batches``/``structural_pairs``/``matrix_pairs``/``labels_built`` come from one
        registry :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` (a
        single lock acquisition, so they are mutually consistent);
        ``queries_by_run`` stays keyed by the *currently registered* shards,
        which is why it reads the shard tallies rather than the labeled
        counter family (detached runs drop out of the dict but not out of
        the monotonic counters).
        """
        snap = self.metrics.snapshot()
        pairs = snap.get("engine_pairs_total", {})
        with self._lock:
            queries_by_run = {s.run_id: s.queries for s in self._shards.values()}
        return EngineStats(
            views=self._states.stats,
            queries=sum(queries_by_run.values()),
            batches=int(snap.get("engine_batches_total", {}).get((), 0)),
            queries_by_run=queries_by_run,
            structural_pairs=int(pairs.get(("structural",), 0)),
            matrix_pairs=int(pairs.get(("matrix",), 0)),
            labels_built=int(sum(snap.get("engine_view_labels_total", {}).values())),
        )

    def _note_queries(self, shard: _RunShard, state, op: str, n: int) -> None:
        label = state.label
        self._queries_c.labels(shard.run_id, label.view.name, label.variant.value, op).inc(n)

    # -- internals --------------------------------------------------------------------------

    def _purge_decode_entries(self, arena: int) -> None:
        """Drop the pair table (and friends) of one private (attached) arena.

        Arena 0 is the engine's shared trie — its ids stay meaningful across
        shard churn, so only private arenas are purged.  Only the LRU's
        per-run states can hold such entries: the static part of a view
        (path-segment and chain products, keyed by materialised edge labels)
        mentions no arena and is left alone.  Each state gives the arena's
        bytes back exactly.
        """
        if arena == 0:
            return
        for state in self._states.values():
            state.purge(arena)

    def _trie_columns(self, shard: _RunShard) -> tuple:
        """The ``(parent, packed, c)`` arrays of the shard's trie, for the decode kernel.

        Mapped shards hand out their file views (zero-copy).  Labelled shards
        share the engine arena, whose live columns are copied — a view would
        pin a growing buffer — and re-read only once the arena has grown.
        ``c`` is the column an intern appends last: its length bounds the
        rows that are whole.
        """
        if shard.mapped is not None:
            columns = shard.mapped.table.columns()
            return columns["parent"], columns["packed"], columns["c"]
        live = self._path_table.raw_columns()
        n_paths = len(live[2])
        if self._live_trie[0] != n_paths:
            # A slice is a private copy, so the arrays pin nothing that grows.
            self._live_trie = (
                n_paths,
                tuple(np.asarray(column[:n_paths], dtype=np.int64) for column in live),
            )
        return self._live_trie[1]

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

    @staticmethod
    def _check_variant(variant: "FVLVariant | str") -> FVLVariant:
        """The one place a caller's (or the wire's) variant becomes an ``FVLVariant``."""
        try:
            return FVLVariant(variant)
        except ValueError:
            accepted = ", ".join(repr(member.value) for member in FVLVariant)
            raise DecodingError(
                f"unknown labeling variant {variant!r} (accepted: {accepted})"
            ) from None

    def _decoded_state(
        self, view: "WorkflowView | str", variant: "FVLVariant | str | None"
    ) -> DecodedViewState:
        view = self._resolve_view(view)
        variant = self._check_variant(variant or self._variant)
        return self._states.get_or_create(
            (view.name, variant.value),
            lambda: DecodedViewState(self._static_state(view, variant), self._states.room),
        )

    def _static_state(self, view: WorkflowView, variant: FVLVariant) -> StaticViewState:
        """The interned static label of ``(view, variant)``, labelled on first use.

        Interned here and not in :meth:`FVLScheme.label_view`, which keeps
        labelling from scratch (it is what the paper's view-labelling
        experiments time).  A view that fails the safety check raises out of
        the labeller and leaves nothing behind, so every later query on it
        raises the same error.
        """
        key = (view.name, variant.value)
        static = self._statics.get(key)
        if static is not None:
            return static
        with self._label_lock:
            static = self._statics.get(key)
            if static is None:
                t0 = time.perf_counter()
                with trace_span("engine.label_view", view=view.name, variant=variant.value):
                    label = self._scheme.label_view(view, variant)
                self._label_seconds.observe(time.perf_counter() - t0)
                self._labels_c.labels(variant.value).inc()
                static = self._statics[key] = StaticViewState(label)
        return static

    def _normalize_query(self, query) -> DependsQuery:
        if isinstance(query, DependsQuery):
            return query
        if isinstance(query, tuple) and len(query) in (3, 4):
            return DependsQuery(*query)
        raise DecodingError(
            f"cannot interpret {query!r} as a depends query; pass a DependsQuery "
            "or a (d1, d2, view[, run]) tuple"
        )

    def _evaluate(
        self,
        shard: _RunShard,
        state: DecodedViewState,
        pairs: "list[tuple[int, int]] | np.ndarray",
    ) -> list[bool]:
        with self._lock:
            shard.queries += len(pairs)
        self._batches_c.inc()
        self._note_queries(shard, state, "depends", len(pairs))
        t0 = time.perf_counter()
        try:
            with trace_span("engine.depends_batch", run=shard.run_id, pairs=len(pairs)):
                results, structural_n, matrix_n = depends_grouped(
                    shard.store,
                    shard.arena,
                    state,
                    pairs,
                    lambda: self._trie_columns(shard),
                )
                if structural_n:
                    self._structural_pairs_c.inc(structural_n)
                if matrix_n:
                    self._matrix_pairs_c.inc(matrix_n)
                return results
        finally:
            self._states.settle(state)
            self._batch_seconds.labels("depends").observe(time.perf_counter() - t0)
