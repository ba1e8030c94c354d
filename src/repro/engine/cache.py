"""Engine-side caches: the byte-budgeted view-state LRU and what it holds.

The state is split along the line the paper draws.  :class:`StaticViewState`
is the view's *static label* plus what is a function of ``(grammar, view)``
only: the :class:`~repro.engine.kernel.MatrixBank` the decode kernel
multiplies from, which gathers ``I``/``O``/``Z`` out of the body closures
:meth:`DecodedViewState.closure` hands out and holds each recursion chain up
to its period; the engine makes one per registered view and keeps it for
good.  The bank and the label inside it are each built on their first
read — the bank by the first kernel pass, the label by that pass or by
visibility flags — so a state the ``.hotmx`` side file warmed answers its
table hits with neither.
:class:`DecodedViewState` adds what depends on a run — the pair tables of
decisions keyed by path ids, visibility flags — and is what
:class:`LRUCache` holds and evicts; rebuilding one costs kernel passes over
the surviving static part, never a relabelling.

**One byte budget** bounds all of it, and this module is the one place that
knows the policy.  Sizes are sums of array sizes, kept as running sums where
bytes change.  Static parts are counted — the bank, and the label's
closures and copies, each from the moment it is built — and never evicted.
After a batch the engine has the LRU :meth:`~LRUCache.settle` the state it
used: least-recently-used *other* per-run states go until the total fits.
The state in use is never evicted
by its own growth; what it may still store is :meth:`~LRUCache.room`, and a
result that does not fit is computed, used for the batch and not stored.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from repro.core.pair_table import EMPTY, PairTable
from repro.core.view_label import ViewLabel
from repro.engine.kernel import MatrixBank

__all__ = [
    "CacheStats",
    "LRUCache",
    "StaticViewState",
    "DecodedViewState",
]


@dataclass(frozen=True)
class CacheStats:
    """The view-state LRU's accounting, read from one registry snapshot."""

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
    engine's ``view name -> StaticViewState`` dict: counted, never
    evicted) plus the per-run states held here.  Lookups only account hits
    and misses and move recency; eviction happens in :meth:`settle`.

    Values are built outside the lock (building a view label can take
    milliseconds); if two threads race on the same key the first inserted
    value wins and the loser's work is discarded, so entries must be
    deterministic functions of their key.

    The registry ``metrics`` is the only tally: hits and misses go to the
    caller's :class:`~repro.obs.metrics.Tally` as
    ``engine_view_cache_total{event}``, an eviction straight to the
    registry (its lock is a leaf lock, so taking it while holding the
    cache lock is safe), and ``engine_decoded_state_bytes{part}`` reads
    the resident bytes at snapshot time; :meth:`stats_from` reads them
    back.
    """

    def __init__(self, max_bytes: int, statics: dict, metrics) -> None:
        if max_bytes < 1:
            raise ValueError("the state budget must be at least 1 byte")
        self._max_bytes = max_bytes
        self._statics = statics
        #: The static parts' bytes as of their last :meth:`settle` (each
        #: part remembers its share), so :meth:`room` costs no walk.
        self._static_settled = 0
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        events = metrics.counter(
            "engine_view_cache_total", "decoded-view LRU events", ("event",)
        )
        self._hits_c = events.labels("hit")
        self._misses_c = events.labels("miss")
        self._evictions_c = events.labels("evict")
        state_bytes = metrics.gauge(
            "engine_decoded_state_bytes",
            "decoded view state resident (array bytes), evictable per-run part vs static part",
            ("part",),
        )
        state_bytes.labels("per_run").set_function(self.per_run_bytes)
        state_bytes.labels("static").set_function(self.static_bytes)

    def get_or_create(self, key: Hashable, factory: Callable[[], object], tally):
        """The entry of ``key``, built by ``factory()`` on a miss; the hit or
        miss is counted in ``tally`` (a :class:`~repro.obs.metrics.Tally`)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                tally.add(self._hits_c)
                return entry
            tally.add(self._misses_c)
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
        :meth:`settle` — a batch grows no other (its bank, built or grown
        mid-batch, or its label built mid-batch) — so it alone is read live.
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
                    self._evictions_c.inc()

    def values(self) -> list:
        """A snapshot of the cached values (no recency effect)."""
        with self._lock:
            return list(self._entries.values())

    def items(self) -> list[tuple[Hashable, object]]:
        """A snapshot of ``(key, value)`` pairs, LRU order (no recency effect)."""
        with self._lock:
            return list(self._entries.items())

    def stats_from(self, snap: dict) -> CacheStats:
        """:class:`CacheStats` from a registry snapshot of the cache's families."""
        events = snap["engine_view_cache_total"]
        return CacheStats(
            hits=int(events[("hit",)]),
            misses=int(events[("miss",)]),
            evictions=int(events[("evict",)]),
            bytes=int(sum(snap["engine_decoded_state_bytes"].values())),
            max_bytes=self._max_bytes,
        )


class StaticViewState:
    """The run-independent half of a decoded view: one per view.

    Holds the view's name, the bank the decode kernel gathers its factors
    into and the static label.  Both are built on their first read, once
    each, under a lock: the bank (from the grammar index, which needs no
    label) by the first kernel pass, the label by ``build()`` when a kernel
    pass (the bank's gather out of the closures, ``lambda*(S)``), visibility
    flags or a declined key's reference error reads it.  A warm probe and
    read of the pair tables reads neither, so a warm attach whose rows
    answer every key builds no bank and no label.  The engine interns one
    instance per registered view and never evicts it: the label (its
    closures and the copies read out of them) and the bank (its factors, and
    each chain's steps up to its Lemma-5 period, whatever the recursion
    depth) are bounded by the grammar and the view.  No key here mentions an
    arena or a run, so run churn cannot leak into it.
    """

    __slots__ = ("view", "settled", "_index", "_build", "_bank", "_label", "_lock")

    def __init__(self, view: str, index, build: Callable[[], ViewLabel]) -> None:
        self.view = view
        #: This part's share of :attr:`LRUCache._static_settled`.
        self.settled = 0
        self._index = index
        self._build = build
        self._bank: "MatrixBank | None" = None
        self._label: "ViewLabel | None" = None
        self._lock = threading.Lock()

    @property
    def bank(self) -> MatrixBank:
        """The view's matrices as one float32 stack with a class per matrix,
        resolved on first use: what the decode kernel classifies and gathers
        its factors from.  Built on the first read (racing readers build it once)."""
        bank = self._bank
        if bank is None:
            with self._lock:
                bank = self._bank
                if bank is None:
                    bank = self._bank = MatrixBank(self._index)
        return bank

    @property
    def banked(self) -> bool:
        """Whether :attr:`bank` has been built (reading this builds nothing)."""
        return self._bank is not None

    @property
    def label(self) -> ViewLabel:
        """The view's static label, built on the first read (racing readers build it once)."""
        label = self._label
        if label is None:
            with self._lock:
                label = self._label
                if label is None:
                    label = self._label = self._build()
        return label

    @property
    def labelled(self) -> bool:
        """Whether :attr:`label` has been built (reading this builds nothing)."""
        return self._label is not None

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays held: the bank's and the label's, each once it is built."""
        bank, label = self._bank, self._label
        return (0 if bank is None else bank.nbytes) + (0 if label is None else label.nbytes)

    def __len__(self) -> int:
        """Bank entries held, 0 before the bank is built (the label itself is not counted)."""
        bank = self._bank
        return 0 if bank is None else len(bank)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StaticViewState(view={self.view!r}, {len(self)} bank entries)"


class DecodedViewState:
    """What the LRU holds: the per-run decode state of one view, weighed in bytes.

    Two kinds of entry live here, both keyed by arena (a path-id namespace)
    and living and dying with this LRU entry:

    * the **pair tables**, one immutable
      :class:`~repro.core.pair_table.PairTable` snapshot per arena, which the
      batch evaluator probes with packed integer keys and extends through
      :meth:`admit`; read them through :meth:`table`, :meth:`arenas` and
      :meth:`rows`;
    * the **visibility flags**, one array per arena, kept through
      :meth:`keep_flags`.

    :attr:`nbytes` is their bytes, a running sum kept under one lock wherever
    a table is published or flags are kept or dropped.  ``room(state)``, when
    given, is the owning cache's :meth:`LRUCache.room`; without it the state
    is unbounded.  A decision that does not fit is computed, used and not
    stored, so memory stays bounded for adversarial query streams.  The state
    also hands the bank the body closures it gathers from (:meth:`closure`).
    """

    def __init__(self, static: StaticViewState, room=None) -> None:
        self.static = static
        self._room = room
        #: arena -> the arena's current table snapshot (replaced, never mutated).
        self.pair_tables: dict[int, PairTable] = {}
        #: arena -> per-path-id visibility flags (append-only tries let the
        #: engine extend a cached array instead of re-folding the trie).
        self.visibility_flags: dict[int, object] = {}
        #: Bytes of the pair tables and visibility flags.
        self.nbytes = 0
        #: Rows admitted so far: the next row's decision-order stamp.
        self._decided = 0
        self._lock = threading.Lock()
        #: What :meth:`LRUCache.settle` last weighed this state and its static part at.
        self.weighed = -1

    @property
    def label(self) -> ViewLabel:
        """The static part's label (built on this read if it was not yet)."""
        return self.static.label

    def room(self) -> int:
        """Bytes the engine's budget still admits for this state."""
        return sys.maxsize if self._room is None else self._room(self)

    def admit(self, arena: int, fresh: PairTable) -> int:
        """Merge ``fresh``'s rows into ``arena``'s table, as far as the budget allows.

        Rows whose key the arena already holds are dropped (a racing batch
        decided them first; a loaded ``.hotmx`` never clobbers a decision).
        The others are admitted if their bytes fit; if they do not, the
        best-ranked go first (``fresh.order``: hottest first in a loaded
        section, key order in a kernel pass's) for as long as their bytes
        fit.  Admitted rows are stamped with decision-order numbers after
        every earlier row's.  The merged table is published by one
        assignment; returns the rows admitted.
        """
        with self._lock:
            current = self.table(arena)
            select = np.nonzero(~current.probe(fresh.keys)[1])[0]
            sizes, room = fresh.row_nbytes(), self.room()
            if sizes[select].sum() > room:
                ranked = select[np.argsort(fresh.order[select], kind="stable")]
                fits = np.cumsum(sizes[ranked]) <= room
                select = np.sort(ranked[: int(np.count_nonzero(fits))])
            if select.size:
                if select.size < len(fresh):
                    fresh = fresh.take(select)
                merged = self.pair_tables[arena] = current.merged(fresh, self._decided)
                self.nbytes += merged.nbytes - current.nbytes
                self._decided += int(fresh.order.max()) + 1
            return int(select.size)

    def table(self, arena: int) -> PairTable:
        """``arena``'s current snapshot (an empty table before its first decision)."""
        return self.pair_tables.get(arena, EMPTY)

    def arenas(self) -> list[int]:
        """The arenas that currently hold at least one row."""
        return [arena for arena, table in list(self.pair_tables.items()) if len(table)]

    def rows(self, arena: int):
        """``(path1, path2, matrix | None, hits)`` of ``arena``'s decoder rows.

        In decision order; classifier verdicts and boundary rows are not
        listed (see :meth:`~repro.core.pair_table.PairTable.matrix_rows`),
        though the table holds them and the ``.hotmx`` side file persists them.
        """
        return self.table(arena).matrix_rows()

    def keep_flags(self, arena: int, flags) -> None:
        """Remember ``arena``'s visibility flags if their bytes fit.

        Whatever the arena held is released first, so a replacement is
        charged for its growth only.
        """
        with self._lock:
            self._release_flags(arena)
            if flags.nbytes <= self.room():
                self.visibility_flags[arena] = flags
                self.nbytes += flags.nbytes

    def purge(self, arena: int) -> None:
        """Drop everything keyed by ``arena``, giving its bytes back."""
        with self._lock:
            self._release_flags(arena)
            self.nbytes -= self.pair_tables.pop(arena, EMPTY).nbytes

    def _release_flags(self, arena: int) -> None:
        dropped = self.visibility_flags.pop(arena, None)
        if dropped is not None:
            self.nbytes -= dropped.nbytes

    def closure(self, k: int) -> "np.ndarray | None":
        """The body closure of production ``k``, or ``None`` if the view does not retain it.

        What the :class:`~repro.engine.kernel.MatrixBank` gathers ``I``/``O``/``Z``
        from: the label's own closure.
        """
        if k not in self.label.retained_productions:
            return None
        return self.label.closure_slices(k).closure

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DecodedViewState(view={self.static.view!r})"
