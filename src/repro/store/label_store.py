"""Columnar run labels: a whole run's data labels as four integer columns.

The seed kept ``dict[int, DataLabel]`` — two :class:`PortLabel` objects and
one :class:`DataLabel` per data item, each with a ``__dict__``, plus a path
tuple per parse-tree node — so label memory was hundreds of bytes per item
and ingest time was dominated by object construction.  With paths interned in
a :class:`~repro.store.path_table.PathTable`, a data label is just four small
integers:

``(producer_path_id, producer_port, consumer_path_id, consumer_port)``

:class:`LabelStore` keeps them as append-only columns (struct of arrays):
plain Python lists while the run is being ingested — appending a pointer to
an already-existing int is the cheapest write Python offers — and mmap-backed
views once the run is persisted (:class:`~repro.store.mapped.MappedLabelStore`):
int32 path ids and int8 ports, 10 bytes per item.  ``-1`` path ids mark the
absent side of boundary labels.  Value objects are materialised lazily, only
for the items a compatibility consumer actually touches.

Item uids are assigned sequentially by :class:`~repro.model.derivation.
Derivation`, so a run's items are one consecutive uid range and the row of
an item is ``uid - base``: no per-item index entry at all.  ``append`` and
``extend_items`` refuse any uid that is not the run's next one with
:class:`~repro.errors.LabelingError`.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Mapping
from typing import Sequence

import numpy as np

from repro.core.labels import DataLabel, PortLabel
from repro.errors import LabelingError
from repro.store.path_table import PathTable
from repro.store.runfile import SCHEMA

__all__ = ["LabelStore", "LabelStoreMapping", "NO_PATH"]

#: Sentinel path id marking an absent producer/consumer (boundary labels).
NO_PATH = -1

#: The run-file dtype of each label column, in ``raw_columns()`` order.
_COLUMN_DTYPES = tuple(
    column.numpy_dtype for column in SCHEMA if column.name.startswith("label.")
)


def _check_rows(rows: np.ndarray, length: int) -> None:
    """Raise ``IndexError`` unless every one of int64 ``rows`` lies in ``[0, length)``."""
    if rows.size and (rows.min() < 0 or rows.max() >= length):
        raise IndexError(f"gather rows outside [0, {length})")


def _already_labelled(uid: int) -> LabelingError:
    return LabelingError(f"data item {uid} was already labelled; labels are immutable")


def _not_labelled(uid: int) -> LabelingError:
    return LabelingError(f"data item {uid} has not been labelled")


class LabelStoreMapping(Mapping):
    """A read-only ``uid -> DataLabel`` view over a store (lazy materialisation)."""

    __slots__ = ("_store",)

    def __init__(self, store: "LabelStore") -> None:
        self._store = store

    def __getitem__(self, uid: int) -> DataLabel:
        try:
            return self._store.label(uid)
        except LabelingError:
            raise KeyError(uid) from None

    def __contains__(self, uid: object) -> bool:
        return uid in self._store

    def __iter__(self) -> Iterator[int]:
        return self._store.uids()

    def __len__(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LabelStoreMapping({len(self)} labels)"


class LabelStore:
    """Columnar data labels for one run: row ``uid - base`` holds item ``uid``."""

    __slots__ = (
        "_table",
        "_producer_path",
        "_producer_port",
        "_consumer_path",
        "_consumer_port",
        "_base",
        "_view",
        "_label_cache",
    )

    def __init__(self, table: PathTable) -> None:
        self._table = table
        self._producer_path: list[int] = []
        self._producer_port: list[int] = []
        self._consumer_path: list[int] = []
        self._consumer_port: list[int] = []
        #: The first uid; ``None`` until the first row lands.
        self._base: int | None = None
        self._view: LabelStoreMapping | None = None
        #: uid -> materialised DataLabel, filled only for items a caller
        #: reads (repeat consumers — e.g. matrix-free query paths — would
        #: otherwise rebuild the same value objects per access).
        self._label_cache: dict[int, DataLabel] = {}

    # -- ingest ------------------------------------------------------------------

    def _not_next(self, uid: int, row: int) -> LabelingError:
        """The error for ``uid`` arriving where row ``row`` is due."""
        if 0 <= uid - self._base < row:
            return _already_labelled(uid)
        return LabelingError(
            f"data item {uid} is not the run's next uid {self._base + row}; "
            "a run's items are one consecutive uid range"
        )

    def append(
        self,
        uid: int,
        producer_path: int,
        producer_port: int,
        consumer_path: int,
        consumer_port: int,
    ) -> None:
        """Record the label of the run's next item; ``NO_PATH`` marks an absent side."""
        row = len(self._producer_path)
        if self._base is None:
            self._base = uid
        elif uid - self._base != row:
            raise self._not_next(uid, row)
        self._producer_path.append(producer_path)
        self._producer_port.append(producer_port)
        self._consumer_path.append(consumer_path)
        self._consumer_port.append(consumer_port)

    def extend_items(self, items: Sequence, path_ids: Sequence[int]) -> None:
        """Bulk-record the labels of one expansion event's new data items.

        ``items`` are :class:`~repro.model.derivation.NewItem` records and
        ``path_ids[position]`` is the interned path id of the child node at
        that production position.  This is the hot ingest loop: each item
        costs four list appends and one contiguity check — no per-item
        method call, no object construction.  An item that is not the run's
        next uid raises :class:`LabelingError`; the rows before it stay.
        """
        if not items:
            return
        if self._base is None:
            self._base = items[0].uid
        next_uid = self._base + len(self._producer_path)
        producer_path = self._producer_path.append
        producer_port = self._producer_port.append
        consumer_path = self._consumer_path.append
        consumer_port = self._consumer_port.append
        for item in items:
            if item.uid != next_uid:
                raise self._not_next(item.uid, next_uid - self._base)
            next_uid += 1
            producer_path(path_ids[item.producer_position])
            producer_port(item.producer_port)
            consumer_path(path_ids[item.consumer_position])
            consumer_port(item.consumer_port)

    # -- lookups -----------------------------------------------------------------

    def _row(self, uid: int) -> int:
        base = self._base
        # Bounded by the column ``append`` writes last, so a reader racing
        # the ingest thread never sees a half-appended row.
        if base is not None and 0 <= uid - base < len(self._consumer_port):
            return uid - base
        raise _not_labelled(uid)

    def rows_for(self, uids: np.ndarray) -> np.ndarray:
        """Row indices of an int64 array of uids, for :meth:`gather_rows`.

        Raises the same :class:`LabelingError` as :meth:`row` for the first
        unlabelled uid in array order.
        """
        rows = uids - (self._base or 0)
        # A negative row is a huge unsigned one: one comparison checks both ends.
        unknown = rows.view(np.uint64) >= len(self._consumer_port)
        if np.count_nonzero(unknown):
            raise _not_labelled(int(uids[unknown.argmax()]))
        return rows

    def row(self, uid: int) -> tuple[int, int, int, int]:
        """The packed label ``(producer_path, producer_port, consumer_path, consumer_port)``."""
        r = self._row(uid)
        return (
            self._producer_path[r],
            self._producer_port[r],
            self._consumer_path[r],
            self._consumer_port[r],
        )

    def label(self, uid: int) -> DataLabel:
        """Materialise the value-object label of one item (memoized, shared paths)."""
        cached = self._label_cache.get(uid)
        if cached is not None:
            return cached
        ppid, pport, cpid, cport = self.row(uid)
        path = self._table.path
        label = DataLabel(
            None if ppid < 0 else PortLabel(path(ppid), pport),
            None if cpid < 0 else PortLabel(path(cpid), cport),
        )
        self._label_cache[uid] = label
        return label

    def __contains__(self, uid: object) -> bool:
        try:
            uid = operator.index(uid)  # any integral: numpy uids are uids too
        except TypeError:
            return False
        base = self._base
        return base is not None and 0 <= uid - base < len(self._consumer_port)

    def __len__(self) -> int:
        return len(self._consumer_port)

    def uids(self) -> Iterator[int]:
        """The labelled uids, in row order."""
        base = self._base or 0
        return iter(range(base, base + len(self._consumer_port)))

    def iter_rows(self) -> Iterator[tuple[int, int, int, int, int]]:
        """Iterate ``(uid, producer_path, producer_port, consumer_path, consumer_port)``."""
        return zip(
            self.uids(),
            self._producer_path,
            self._producer_port,
            self._consumer_path,
            self._consumer_port,
        )

    def raw_columns(self) -> tuple:
        """The live label column sequences, in ``(producer_path, producer_port,
        consumer_path, consumer_port)`` order.

        Used by the persistent store to slice delta rows; the returned
        sequences are the store's own storage — do not mutate them.
        """
        return (
            self._producer_path,
            self._producer_port,
            self._consumer_path,
            self._consumer_port,
        )

    def labels_view(self) -> LabelStoreMapping:
        """A cached read-only mapping view (labels materialise on access)."""
        if self._view is None:
            self._view = LabelStoreMapping(self)
        return self._view

    @property
    def table(self) -> PathTable:
        return self._table

    @property
    def base_uid(self) -> int:
        """The first uid of the run (0 for an empty store)."""
        return self._base if self._base is not None else 0

    def columns(self) -> dict[str, np.ndarray]:
        """Numpy copies of the whole rows, in the dtypes of the mapped columns.

        Paths are int32 and ports int8; a port that does not fit raises
        ``OverflowError`` (such a run cannot be checkpointed either).  Every
        column is cut at the shortest one, so a row whose appends are still
        in flight is left out.  The copies pin nothing: the store keeps
        growing while they are alive.
        """
        n_items = min(len(column) for column in self.raw_columns())
        return {
            field: np.array(column[:n_items], dtype=dtype)
            for field, column, dtype in zip(
                self.GATHER_FIELDS, self.raw_columns(), _COLUMN_DTYPES
            )
        }

    #: Column names accepted by :meth:`gather_rows`, in row order.
    GATHER_FIELDS = (
        "producer_path_id",
        "producer_port",
        "consumer_path_id",
        "consumer_port",
    )

    def gather_rows(self, rows: np.ndarray, fields: tuple = GATHER_FIELDS):
        """The requested label columns gathered at ``rows``, as int32 copies.

        ``rows`` come from :meth:`rows_for`; the returned tuple lines up
        with ``fields``.  A row outside ``[0, len(self))`` raises
        ``IndexError``.  Valid beside a concurrent ``append``: the growing
        lists are copied element by element and no buffer is exported.
        Mapped stores override this with an in-place gather over their
        extents.
        """
        rows = np.asarray(rows, dtype=np.int64)
        _check_rows(rows, len(self))
        columns = dict(zip(self.GATHER_FIELDS, self.raw_columns()))
        index = rows.tolist()
        return tuple(
            np.fromiter(map(columns[field].__getitem__, index), np.int32, len(index))
            for field in fields
        )

    def gather_resolved(self, rows: np.ndarray) -> tuple:
        """All four columns at the int64 ``rows`` :meth:`rows_for` returned,
        in :data:`GATHER_FIELDS` order; a mapped store reads them in place,
        unchecked, its ports in their one-byte dtype."""
        return self.gather_rows(rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LabelStore({len(self)} labels, {self._table!r})"
