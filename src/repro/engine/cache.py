"""Engine-side caches: the byte-budgeted view-state LRU and what it holds.

The decoding predicate (:mod:`repro.core.decoder`) only *reads* a view label,
but without help it re-derives two kinds of view-constant state on every call:

* for the **space-efficient** variant, each access to an ``I``/``O``/``Z``
  matrix re-runs a graph search over the production body — the variant stores
  nothing but ``lambda*`` — which is what makes it 30–40x slower per query
  than the other variants;
* for **every** variant, chain products over the label-path segments of a
  query are rebuilt even when thousands of queries share the same paths.

The state is split along the line the paper draws.  :class:`StaticViewState`
is the view's *static label* plus every memo that is a function of
``(grammar, view, variant)`` only — among them the space-efficient variant's
one closure per production and the
:class:`~repro.engine.kernel.MatrixBank` the decode kernel multiplies from,
which gathers ``I``/``O``/``Z`` out of the closures
:meth:`DecodedViewState.closure` hands out; the engine builds it once per
registered view and keeps it for good.
:class:`DecodedViewState` adds what depends on a run — the pair tables of
decisions keyed by path ids, visibility flags — and is what
:class:`LRUCache` holds and evicts; rebuilding one costs matrix products over
the surviving static part, never a relabelling.

**One byte budget** bounds all of it, and this module is the one place that
knows the policy.  Sizes are sums of array sizes, kept as running sums where
bytes change.  Static parts are counted — the label's closures and copies
included — and never evicted.  After a batch the
engine has the LRU :meth:`~LRUCache.settle` the state it used:
least-recently-used *other* per-run states go until the total fits.  The
state in use is never evicted by its own growth; what it may still store is
:meth:`~LRUCache.room`, and a result that does not fit is computed, used for
the batch and not stored.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from repro.analysis.reachability import ClosureSlices
from repro.core.decoder import DecodeCache, MatrixMemo, depends as _depends
from repro.core.labels import DataLabel
from repro.core.preprocessing import GrammarIndex
from repro.core.view_label import FVLVariant, ViewLabel
from repro.engine.kernel import MatrixBank
from repro.errors import DecodingError
from repro.matrices import BoolMatrix

__all__ = [
    "CacheStats",
    "LRUCache",
    "StaticViewState",
    "DecodedViewState",
]


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of the view-state LRU's accounting."""

    hits: int
    misses: int
    evictions: int
    #: Decoded state resident, static parts included, and its budget.
    bytes: int
    max_bytes: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """The thread-safe LRU of per-run view states, bounded in bytes.

    ``max_bytes`` is the budget over the static parts in ``statics`` (the
    engine's ``(view, variant) -> StaticViewState`` dict: counted, never
    evicted) plus the per-run states held here.  Lookups only account hits
    and misses and move recency; eviction happens in :meth:`settle`.

    Values are built outside the lock (building a view label can take
    milliseconds); if two threads race on the same key the first inserted
    value wins and the loser's work is discarded, so entries must be
    deterministic functions of their key.

    ``counters`` optionally mirrors the accounting into a metrics registry:
    a ``(hits, misses, evictions)`` triple of
    :class:`~repro.obs.metrics.Counter` handles incremented alongside the
    internal tallies (the registry lock is a leaf lock, so taking it while
    holding the cache lock is safe).
    """

    def __init__(self, max_bytes: int, statics: dict, *, counters=None) -> None:
        if max_bytes < 1:
            raise ValueError("the state budget must be at least 1 byte")
        self._max_bytes = max_bytes
        self._statics = statics
        #: The static parts' bytes as of their last :meth:`settle` (each
        #: part remembers its share), so :meth:`room` costs no walk.
        self._static_settled = 0
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        if counters is not None:
            self._hits_c, self._misses_c, self._evictions_c = counters
        else:
            self._hits_c = self._misses_c = self._evictions_c = None

    def get_or_create(self, key: Hashable, factory: Callable[[], object]):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                if self._hits_c is not None:
                    self._hits_c.inc()
                return entry
            self._misses += 1
            if self._misses_c is not None:
                self._misses_c.inc()
        value = factory()
        with self._lock:
            entry = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            return entry

    def static_bytes(self) -> int:
        """Bytes of the static parts (one running sum per view)."""
        return sum(static.nbytes for static in list(self._statics.values()))

    def per_run_bytes(self) -> int:
        """Bytes of the per-run states held."""
        return sum(state.nbytes for state in self.values())

    def room(self, state) -> int:
        """Bytes ``state`` may still grow by: the budget less the static parts and itself.

        (Every other per-run state can be evicted to make room.)  Of the
        static parts only ``state``'s own can have grown since the last
        :meth:`settle` — a batch grows no other — so it alone is read live.
        """
        static = state.static
        statics = self._static_settled - static.settled + static.nbytes
        return self._max_bytes - statics - state.nbytes

    def settle(self, state) -> None:
        """Re-weigh after a batch on ``state``: evict until the total fits.

        Least-recently-used states go first and ``state`` never does.  A
        batch that stored nothing — any warm one — changes no weight and
        returns after one comparison.
        """
        weight = state.nbytes + state.static.nbytes
        if weight == state.weighed:
            return
        state.weighed = weight
        with self._lock:
            statics = list(self._statics.values())
            for static in statics:
                static.settled = static.nbytes
            self._static_settled = sum(static.settled for static in statics)
            excess = self._static_settled - self._max_bytes
            excess += sum(entry.nbytes for entry in self._entries.values())
            for key, entry in list(self._entries.items()):
                if excess <= 0:
                    break
                if entry is not state:
                    del self._entries[key]
                    excess -= entry.nbytes
                    self._evictions += 1
                    if self._evictions_c is not None:
                        self._evictions_c.inc()

    def values(self) -> list:
        """A snapshot of the cached values (no recency effect)."""
        with self._lock:
            return list(self._entries.values())

    def items(self) -> list[tuple[Hashable, object]]:
        """A snapshot of ``(key, value)`` pairs, LRU order (no recency effect)."""
        with self._lock:
            return list(self._entries.items())

    @property
    def stats(self) -> CacheStats:
        resident = self.static_bytes() + self.per_run_bytes()
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                bytes=resident,
                max_bytes=self._max_bytes,
            )


class StaticViewState:
    """The run-independent half of a decoded view: one per ``(view, variant)``.

    Holds the static label itself and the memo tables whose entries depend
    on nothing but the grammar and that label.
    The engine interns one instance per registered ``(view, variant)`` and
    never evicts it: the label (its closures and the copies read out of
    them), the production memo and the bank's edge matrices are bounded by
    the grammar, and what queried labels can grow without bound (chain and
    segment products) only grows while the engine's byte budget has room.
    No key here mentions an arena or a run, so run churn cannot leak into it.
    """

    __slots__ = (
        "label",
        "productions",
        "chains",
        "inputs_segments",
        "outputs_segments",
        "bank",
        "settled",
    )

    def __init__(self, label: ViewLabel) -> None:
        self.label = label
        #: production ``k`` -> the closure of its body, with its slices
        #: (space-efficient variant only: one graph search per production, not
        #: per access).
        self.productions = MatrixMemo(lambda slices: slices.nbytes)
        #: ``(function, s, t, count)`` -> recursion chain product.
        self.chains = MatrixMemo()
        #: Path-segment products keyed by materialised edge labels; every
        #: :class:`DecodeCache` built over this view shares the two tables.
        self.inputs_segments = MatrixMemo()
        self.outputs_segments = MatrixMemo()
        #: The view's matrices as one float32 stack with a class per matrix,
        #: resolved on first use: what the decode kernel classifies and
        #: gathers its factors from.
        self.bank = MatrixBank(label.index)
        #: This part's share of :attr:`LRUCache._static_settled`.
        self.settled = 0

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays held: the label's, the bank's and the four memos'."""
        return (
            self.label.nbytes
            + self.bank.nbytes
            + self.productions.nbytes
            + self.chains.nbytes
            + self.inputs_segments.nbytes
            + self.outputs_segments.nbytes
        )

    def __len__(self) -> int:
        """Memo entries held (the label itself is not counted)."""
        return (
            len(self.productions)
            + len(self.chains)
            + len(self.inputs_segments)
            + len(self.outputs_segments)
            + len(self.bank)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StaticViewState(view={self.label.view.name!r}, {len(self)} memo entries)"


class DecodedViewState:
    """What the LRU holds: the per-run decode state of one ``(view, variant)``, weighed in bytes.

    Duck-types the read interface of :class:`ViewLabel` that the decoding
    predicate consumes (``index`` / ``lam_star_start`` / ``inputs`` /
    ``outputs`` / ``z`` / ``inputs_chain`` / ``outputs_chain``), answering
    from the production and chain memos of the :class:`StaticViewState` it
    was built over, hands the bank the body closures it gathers from
    (:meth:`closure`), and carries the :class:`~repro.core.decoder.DecodeCache`
    every query through this view shares.  The cache's path-segment tables
    *are* the static part's (they survive this object); its pair tables and
    the visibility flags are keyed by arena and live and die with this LRU
    entry.

    ``room(state)``, when given, is the owning cache's :meth:`LRUCache.room`;
    without it the state is unbounded.  The visibility flags are filled
    through :meth:`keep_flags`, which keeps their bytes as a running sum.
    """

    def __init__(self, static: StaticViewState, room=None) -> None:
        self.static = static
        self._room = room
        #: arena -> per-path-id visibility flags (append-only tries let the
        #: engine extend a cached array instead of re-folding the trie).
        self.visibility_flags: dict[int, object] = {}
        self._side_lock = threading.Lock()
        self._side_nbytes = 0
        #: What :meth:`LRUCache.settle` last weighed this state and its static part at.
        self.weighed = -1
        self._label = static.label
        self.decode_cache = DecodeCache(
            self.room,
            inputs_segments=static.inputs_segments,
            outputs_segments=static.outputs_segments,
        )
        self._productions = static.productions
        self._chains = static.chains
        self._memoize = self._label.variant is FVLVariant.SPACE_EFFICIENT

    @property
    def nbytes(self) -> int:
        """Bytes of the pair tables and visibility flags."""
        return self._side_nbytes + self.decode_cache.nbytes

    def room(self) -> int:
        """Bytes the engine's budget still admits for this state."""
        return sys.maxsize if self._room is None else self._room(self)

    def keep_flags(self, arena: int, flags) -> None:
        """Remember ``arena``'s visibility flags if their bytes fit.

        Whatever the arena held is released first, so a replacement is
        charged for its growth only.
        """
        with self._side_lock:
            self._release_flags(arena)
            if flags.nbytes <= self.room():
                self.visibility_flags[arena] = flags
                self._side_nbytes += flags.nbytes

    def purge(self, arena: int) -> None:
        """Drop everything keyed by ``arena``, giving its bytes back."""
        with self._side_lock:
            self._release_flags(arena)
        self.decode_cache.drop(arena)

    def _release_flags(self, arena: int) -> None:
        dropped = self.visibility_flags.pop(arena, None)
        if dropped is not None:
            self._side_nbytes -= dropped.nbytes

    # -- the ViewLabel read interface used by the decoder -----------------------

    @property
    def label(self) -> ViewLabel:
        return self._label

    @property
    def index(self) -> GrammarIndex:
        return self._label.index

    @property
    def variant(self) -> FVLVariant:
        return self._label.variant

    def lam_star_start(self) -> BoolMatrix:
        return self._label.lam_star_start()

    def inputs(self, k: int, i: int) -> BoolMatrix:
        if not self._memoize:
            return self._label.inputs(k, i)
        return self._production(k, i).inputs(i)

    def outputs(self, k: int, i: int) -> BoolMatrix:
        if not self._memoize:
            return self._label.outputs(k, i)
        return self._production(k, i).outputs(i)

    def z(self, k: int, i: int, j: int) -> BoolMatrix:
        if not self._memoize or i >= j:
            # i >= j is an all-false matrix the label returns without any
            # graph search, for every variant.
            return self._label.z(k, i, j)
        slices = self._production(k)
        if i < 1 or j > len(slices.layout.blocks):
            raise DecodingError(f"no production-graph edges ({k}, {i})/({k}, {j})")
        return slices.z(i, j)

    def closure(self, k: int) -> "np.ndarray | None":
        """The body closure of production ``k``, or ``None`` if the view does not retain it.

        What the :class:`~repro.engine.kernel.MatrixBank` gathers ``I``/``O``/``Z``
        from: the label's own closure, or the space-efficient variant's
        production memo (one graph search per production).
        """
        if k not in self._label.retained_productions:
            return None
        if self._memoize:
            return self._production(k).closure
        return self._label.closure_slices(k).closure

    def inputs_chain(self, s: int, t: int, count: int) -> BoolMatrix:
        return self._chain("I", s, t, count)

    def outputs_chain(self, s: int, t: int, count: int) -> BoolMatrix:
        return self._chain("O", s, t, count)

    # -- query evaluation ---------------------------------------------------------

    def depends(self, label1: DataLabel, label2: DataLabel) -> bool:
        return _depends(label1, label2, self, cache=self.decode_cache)

    # -- internals ------------------------------------------------------------------

    def _production(self, k: int, i: int = 1) -> ClosureSlices:
        """Production ``k``'s memoized closure slices, with position ``i`` checked."""
        slices = self._productions.get(k)
        if slices is None:
            slices = self._label.closure_slices(k)
            self._productions[k] = slices
        if not 1 <= i <= len(slices.layout.blocks):
            raise DecodingError(f"no production-graph edge ({k}, {i})")
        return slices

    def _chain(self, function: str, s: int, t: int, count: int) -> BoolMatrix:
        t = self.index.normalize_rotation(s, t)
        key = (function, s, t, count)
        matrix = self._chains.get(key)
        if matrix is None:
            matrix = self._label.chain(
                function, s, t, count, edge_matrix=self._edge_matrix
            )
            # Chain memos count against the same budget as the decode cache:
            # `count` comes from queried labels' recursion depths, which an
            # adversarial stream can make unbounded.
            if self.decode_cache.has_room(matrix.data.nbytes):
                self._chains[key] = matrix
        return matrix

    def _edge_matrix(self, function: str, s: int, rotation: int) -> BoolMatrix:
        edge = self.index.cycle_edge(s, rotation)
        if function == "I":
            return self.inputs(edge.production, edge.position)
        return self.outputs(edge.production, edge.position)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DecodedViewState(view={self._label.view.name!r}, "
            f"variant={self._label.variant.value})"
        )
