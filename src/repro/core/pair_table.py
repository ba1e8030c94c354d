"""The pair table: every decided ``(producer path, consumer path)`` as columns.

The decoding predicate is path-constant, so what a decoded view remembers
per run is one *decision* per distinct path pair.  A :class:`PairTable` holds
the decisions of one arena as parallel arrays sorted by the packed key
``producer_path << 32 | consumer_path``:

* ``off`` — where the pair's reachability matrix starts in the flat ``pool``
  (one zero-padded ``ports x ports`` block per matrix, so entry ``(x, y)`` is
  ``pool[off + x * ports + y]``), or a negative sentinel: the reference
  decoder found no dependency possible (:data:`NO_DEPENDENCY`), or the decode
  kernel settled every port pair at once because the product was forced
  (:data:`VERDICT_FALSE` / :data:`VERDICT_TRUE`);
* ``rows`` / ``cols`` — the matrix's real shape inside its block, which every
  entry read is checked against;
* ``hits`` — pairs answered from the row (the one mutable column; what
  :mod:`repro.serve.matrix_cache` ranks by);
* ``order`` — the row's decision sequence number, which breaks hit ties.

The boundary cases of the predicate are path-constant too — an initial input
on the left has no producer path, a final output on the right no consumer
path — and are rows like any other, keyed with :data:`ABSENT` on the missing
side; their matrix is the one decoder Cases II–IV read (``lambda*(S)``, or the
``Inputs`` / ``Outputs`` chain over the one path there is).

What a table weighs is the sum of its arrays (:attr:`PairTable.nbytes`): the
unit the engine's state budget is counted in.

A table is an immutable snapshot: a batch probes it with one
``searchsorted`` of its keys in ascending order (:meth:`PairTable.probe`
argsorts them and scatters the slots back) and reads it with one fancy
index, and new decisions are merged copy-on-write into a *new* table that
the engine's decoded view state publishes by one reference assignment —
readers never lock and never see a half-merged table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from repro.matrices import BoolMatrix

__all__ = [
    "NO_DEPENDENCY",
    "VERDICT_FALSE",
    "VERDICT_TRUE",
    "ABSENT",
    "PairTable",
    "EMPTY",
    "pair_keys",
    "pair_paths",
]

#: ``off`` sentinels (any ``off >= 0`` is a pool offset).
NO_DEPENDENCY, VERDICT_FALSE, VERDICT_TRUE = -1, -2, -3

#: The path id a boundary key carries on its missing side.  Path ids are
#: non-negative int32s handed out from 0, so the last one is never a path;
#: ``NO_PATH`` (-1) itself would smear over the other half of a packed key.
ABSENT = 0x7FFFFFFF

#: Bytes one row holds outside the pool: keys, off, hits, order (int64) and
#: rows, cols (int32).
_ROW_NBYTES = 4 * 8 + 2 * 4


def pair_keys(path1, path2) -> np.ndarray:
    """Pack producer/consumer path ids into the table's sorted int64 key."""
    keys = np.left_shift(path1, 32, dtype=np.int64)
    keys |= path2
    return keys


def pair_paths(keys):
    """``(producer path id, consumer path id)`` of packed keys (ints or arrays)."""
    return keys >> 32, keys & 0xFFFFFFFF


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class PairTable:
    """One arena's decisions, sorted by key; see the module docstring."""

    ports: int
    keys: np.ndarray
    off: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    hits: np.ndarray
    order: np.ndarray
    pool: np.ndarray

    @classmethod
    def build(
        cls, ports: int, keys, blocks, rows, cols, sentinels, hits=None, order=None
    ) -> "PairTable":
        """A table over ascending distinct ``keys``.

        ``sentinels[r]`` is a negative ``off`` sentinel or ``0`` for a matrix
        row, whose zero-padded ``ports x ports`` block is ``blocks[r]``
        (rows of ``blocks`` under a sentinel are ignored).  ``order`` ranks
        the rows among themselves (default: key order, the order a batch
        decides its keys in); :meth:`merged` turns ranks into stamps.
        """
        keys = np.asarray(keys, dtype=np.int64)
        off = np.asarray(sentinels, dtype=np.int64).copy()
        matrix = np.nonzero(off >= 0)[0]
        off[matrix] = np.arange(matrix.size, dtype=np.int64) * (ports * ports)
        return cls(
            ports,
            keys,
            off,
            np.asarray(rows, dtype=np.int32),
            np.asarray(cols, dtype=np.int32),
            np.zeros(keys.size, dtype=np.int64) if hits is None else np.asarray(hits, np.int64),
            np.arange(keys.size, dtype=np.int64) if order is None else np.asarray(order, np.int64),
            np.ascontiguousarray(np.asarray(blocks, dtype=bool)[matrix]).reshape(-1),
        )

    def __len__(self) -> int:
        return int(self.keys.size)

    @property
    def nbytes(self) -> int:
        """Bytes held: the six per-row columns and the pool."""
        return len(self) * _ROW_NBYTES + self.pool.nbytes

    def row_nbytes(self) -> np.ndarray:
        """What each row adds to the :attr:`nbytes` of a table it is merged into."""
        return _ROW_NBYTES + (self.off >= 0) * (self.ports * self.ports)

    def probe(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(slot, found)`` per key; ``slot`` is only meaningful where found.

        The needles are argsorted once and searched in ascending order —
        numpy then starts each binary search from where the previous needle
        landed, in cache, instead of from the whole column; the slots are
        scattered back to the keys' order and checked there.
        """
        if self.keys.size == 0:
            return np.zeros(keys.size, dtype=np.intp), np.zeros(keys.size, dtype=bool)
        order = keys.argsort()
        at = np.searchsorted(self.keys, keys[order])
        np.minimum(at, self.keys.size - 1, out=at)
        slot = np.empty(keys.size, dtype=np.intp)
        slot[order] = at
        return slot, self.keys[slot] == keys

    def take(self, select: np.ndarray) -> "PairTable":
        """The sub-table of the rows at ascending positions ``select``.

        Only the selected matrix rows' blocks are copied out of the pool (a
        pool is whole ``ports x ports`` blocks, one per matrix row), so a
        sub-table of many sentinel rows costs no block for each.
        """
        stride = self.ports * self.ports
        off = self.off[select]
        matrix = off >= 0
        pool = self.pool.reshape(-1, stride)[off[matrix] // stride].reshape(-1)
        off[matrix] = np.arange(0, pool.size, stride)
        return PairTable(
            self.ports,
            self.keys[select],
            off,
            self.rows[select],
            self.cols[select],
            self.hits[select],
            self.order[select],
            pool,
        )

    def merged(self, fresh: "PairTable", first_order: int) -> "PairTable":
        """A new table: these rows plus ``fresh``'s, none of whose keys is here.

        ``fresh``'s ranks become decision-order stamps from ``first_order`` on.
        Into an empty table, ``fresh``'s columns are the new table's.
        """
        if not len(self):
            return replace(fresh, order=first_order + fresh.order)
        keys = np.concatenate((self.keys, fresh.keys))
        sort = np.argsort(keys, kind="stable")
        shifted = fresh.off + np.where(fresh.off >= 0, self.pool.size, 0)
        return PairTable(
            fresh.ports,
            keys[sort],
            np.concatenate((self.off, shifted))[sort],
            np.concatenate((self.rows, fresh.rows))[sort],
            np.concatenate((self.cols, fresh.cols))[sort],
            np.concatenate((self.hits, fresh.hits))[sort],
            np.concatenate((self.order, first_order + fresh.order))[sort],
            np.concatenate((self.pool, fresh.pool)),
        )

    def _blocks(self, select: np.ndarray) -> np.ndarray:
        """The ``ports x ports`` blocks of ``select``'s rows (zeros under a sentinel)."""
        stride = self.ports * self.ports
        blocks = np.zeros((select.size, stride), dtype=bool)
        matrix = self.off[select] >= 0
        blocks[matrix] = self.pool[self.off[select][matrix, None] + np.arange(stride)]
        return blocks

    def matrix_rows(
        self, select: "np.ndarray | None" = None
    ) -> Iterator[tuple[int, int, "BoolMatrix | None", int]]:
        """``(path1, path2, matrix | None, hits)`` of the rows at ``select``.

        By default the rows the reference decoder's vocabulary can state, in
        decision order: every matrix and :data:`NO_DEPENDENCY` row between
        two paths (``None`` is the decoder's "no dependency between these two
        nodes").  Verdict rows are not listed — a :data:`VERDICT_TRUE` row
        listed as ``None`` would read "no dependency" — and neither are
        boundary rows, which name no pair of paths.  The side file persists
        every kind; it reads the columns, not this listing.
        """
        if select is None:
            path1, path2 = pair_paths(self.keys)
            select = np.nonzero((self.off >= NO_DEPENDENCY) & (path1 != ABSENT) & (path2 != ABSENT))[0]
            select = select[np.argsort(self.order[select], kind="stable")]
        blocks = self._blocks(select).reshape(-1, self.ports, self.ports)
        columns = (self.keys, self.off, self.rows, self.cols, self.hits)
        for block, (key, off, rows, cols, hits) in zip(
            blocks, zip(*(column[select].tolist() for column in columns))
        ):
            matrix = BoolMatrix(block[:rows, :cols].copy()) if off >= 0 else None
            yield *pair_paths(key), matrix, hits


#: The table of an arena nothing was decided for yet (its ``ports`` is never
#: read: :meth:`PairTable.merged` takes the stride of the rows merged in).
EMPTY = PairTable.build(1, (), np.zeros((0, 1), dtype=bool), (), (), ())
