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
an already-existing int is the cheapest write Python offers — and packed
``array('i')`` buffers (4 bytes per entry, zero-copy viewable as numpy
arrays) after :meth:`compact`.  ``-1`` path ids mark the absent side of
boundary labels.  Value objects are materialised lazily, only for the items
a compatibility consumer actually touches.

Item uids are assigned sequentially by :class:`~repro.model.derivation.
Derivation`, so the store runs in *dense* mode — row index is ``uid - base``,
no per-item index entry at all — and falls back to a uid->row dict only if a
caller appends out-of-order uids.

:class:`ObjectLabelStore` is the seed representation behind the same append
interface; it exists as the baseline for the ingest benchmark and for tests
that compare the two representations bit for bit.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Mapping
from types import MappingProxyType
from typing import Sequence

import numpy as np

from repro.core.labels import DataLabel, PortLabel
from repro.errors import LabelingError
from repro.store.path_table import PathTable

__all__ = ["LabelStore", "ObjectLabelStore", "LabelStoreMapping", "NO_PATH"]

#: Sentinel path id marking an absent producer/consumer (boundary labels).
NO_PATH = -1


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
    """Columnar data labels for one run, keyed by data-item uid."""

    __slots__ = (
        "_table",
        "_producer_path",
        "_producer_port",
        "_consumer_path",
        "_consumer_port",
        "_uids",
        "_base",
        "_row_of",
        "_view",
        "_label_cache",
        "_compacted",
    )

    def __init__(self, table: PathTable) -> None:
        self._table = table
        self._producer_path: list[int] | array = []
        self._producer_port: list[int] | array = []
        self._consumer_path: list[int] | array = []
        self._consumer_port: list[int] | array = []
        #: Dense mode: row == uid - _base, _uids stays empty and _row_of None.
        self._uids: list[int] | array = []
        self._base: int | None = None
        self._row_of: dict[int, int] | None = None
        self._view: LabelStoreMapping | None = None
        #: uid -> materialised DataLabel, filled only for items a caller
        #: reads (repeat consumers — e.g. matrix-free query paths — would
        #: otherwise rebuild the same value objects per access).
        self._label_cache: dict[int, DataLabel] = {}
        self._compacted = False

    # -- ingest ------------------------------------------------------------------

    def append(
        self,
        uid: int,
        producer_path: int,
        producer_port: int,
        consumer_path: int,
        consumer_port: int,
    ) -> None:
        """Record one label; ``NO_PATH`` marks an absent producer/consumer."""
        row = len(self._producer_path)
        if self._row_of is None:
            base = self._base
            if base is None:
                self._base = uid
            elif uid - base != row:
                if 0 <= uid - base < row:
                    raise _already_labelled(uid)
                self._go_sparse()
        elif uid in self._row_of:
            raise _already_labelled(uid)
        self._producer_path.append(producer_path)
        self._producer_port.append(producer_port)
        self._consumer_path.append(consumer_path)
        self._consumer_port.append(consumer_port)
        if self._row_of is not None:
            # Published after the row is whole: a racing reader that finds
            # the uid finds all four of its columns.
            self._uids.append(uid)
            self._row_of[uid] = row

    def extend_items(self, items: Sequence, path_ids: Sequence[int]) -> None:
        """Bulk-record the labels of one expansion event's new data items.

        ``items`` are :class:`~repro.model.derivation.NewItem` records and
        ``path_ids[position]`` is the interned path id of the child node at
        that production position.  This is the hot ingest loop: in dense mode
        each item costs four list appends and one contiguity check — no
        per-item method call, no object construction.
        """
        if self._row_of is None and not self._compacted:
            base = self._base
            if base is None:
                if not items:
                    return
                self._base = base = items[0].uid
            next_uid = base + len(self._producer_path)
            producer_path = self._producer_path.append
            producer_port = self._producer_port.append
            consumer_path = self._consumer_path.append
            consumer_port = self._consumer_port.append
            for item in items:
                if item.uid != next_uid:
                    # At most once per store: the per-item fallback either
                    # raises (duplicate) or flips the store to sparse mode,
                    # and sparse stores never re-enter this branch — so the
                    # O(n) index() rescan cannot repeat.
                    for rest in items[items.index(item):]:
                        self.append(
                            rest.uid,
                            path_ids[rest.producer_position],
                            rest.producer_port,
                            path_ids[rest.consumer_position],
                            rest.consumer_port,
                        )
                    return
                next_uid += 1
                producer_path(path_ids[item.producer_position])
                producer_port(item.producer_port)
                consumer_path(path_ids[item.consumer_position])
                consumer_port(item.consumer_port)
        else:
            for item in items:
                self.append(
                    item.uid,
                    path_ids[item.producer_position],
                    item.producer_port,
                    path_ids[item.consumer_position],
                    item.consumer_port,
                )

    def append_label(self, uid: int, label: DataLabel) -> None:
        """Record one label given as a value object (paths are interned)."""
        producer, consumer = label.producer, label.consumer
        self.append(
            uid,
            NO_PATH if producer is None else self._table.intern(producer.path),
            0 if producer is None else producer.port,
            NO_PATH if consumer is None else self._table.intern(consumer.path),
            0 if consumer is None else consumer.port,
        )

    def _go_sparse(self) -> None:
        """Leave dense mode: materialise the uid column and the uid->row index."""
        base = self._base or 0
        uids = range(base, base + len(self._producer_path))
        self._uids = array("q", uids) if self._compacted else list(uids)
        self._row_of = {uid: row for row, uid in enumerate(uids)}

    def compact(self) -> "LabelStore":
        """Pack the columns into ``array('i')`` buffers (4 bytes per entry).

        Idempotent; typically called once the run is complete.  Appending
        after compaction still works (the packed arrays grow in place).
        """
        if not self._compacted:
            self._producer_path = array("i", self._producer_path)
            self._producer_port = array("i", self._producer_port)
            self._consumer_path = array("i", self._consumer_path)
            self._consumer_port = array("i", self._consumer_port)
            self._uids = array("q", self._uids)
            self._compacted = True
        return self

    @property
    def is_compacted(self) -> bool:
        return self._compacted

    # -- lookups -----------------------------------------------------------------

    def _row(self, uid: int) -> int:
        if self._row_of is None:
            base = self._base
            # Bounded by the column ``append`` writes last, so a reader
            # racing the ingest thread never sees a half-appended row.
            if base is not None and 0 <= uid - base < len(self._consumer_port):
                return uid - base
            raise _not_labelled(uid)
        try:
            return self._row_of[uid]
        except KeyError:
            raise _not_labelled(uid) from None

    def rows_for(self, uids: np.ndarray) -> np.ndarray:
        """Row indices of an int64 array of uids, for :meth:`gather_rows`.

        Raises the same :class:`LabelingError` as :meth:`row` for the first
        unlabelled uid in array order.
        """
        if self._row_of is None:
            rows = uids - (self._base or 0)
            unknown = (rows < 0) | (rows >= len(self._consumer_port))
            if unknown.any():
                raise _not_labelled(int(uids[unknown.argmax()]))
            return rows
        try:
            return np.fromiter(
                map(self._row_of.__getitem__, uids.tolist()), np.int64, uids.size
            )
        except KeyError as exc:
            raise _not_labelled(exc.args[0]) from None

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
        if not isinstance(uid, int):
            return False
        if self._row_of is None:
            base = self._base
            return base is not None and 0 <= uid - base < len(self._consumer_port)
        return uid in self._row_of

    def __len__(self) -> int:
        return len(self._consumer_port)

    def uids(self) -> Iterator[int]:
        """The labelled uids in insertion order."""
        if self._row_of is None:
            base = self._base or 0
            return iter(range(base, base + len(self._consumer_port)))
        return iter(self._uids)

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

        Used by the persistent store to slice delta rows without forcing a
        compaction or pinning numpy views; the returned sequences are the
        store's own storage — do not mutate them.
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
    def is_dense(self) -> bool:
        """Whether uids are a contiguous range (no per-item index entry)."""
        return self._row_of is None

    @property
    def base_uid(self) -> int:
        """The first uid of the dense range (0 for an empty store)."""
        return self._base if self._base is not None else 0

    def columns(self) -> dict[str, np.ndarray]:
        """Numpy views of the four label columns (zero-copy once compacted).

        The views export the underlying buffers: while any returned array is
        alive, further :meth:`append` calls raise ``BufferError`` (arrays
        cannot grow while their memory is pinned).  Read, drop, then append.
        """
        self.compact()
        return {
            "producer_path_id": np.frombuffer(self._producer_path, dtype=np.int32),
            "producer_port": np.frombuffer(self._producer_port, dtype=np.int32),
            "consumer_path_id": np.frombuffer(self._consumer_path, dtype=np.int32),
            "consumer_port": np.frombuffer(self._consumer_port, dtype=np.int32),
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
        with ``fields``.  Valid in every store state, beside a concurrent
        ``append``: growing lists and packed arrays alike are copied element
        by element — nothing is compacted and no buffer is exported, so the
        ingest thread can never meet a ``BufferError``.  Mapped stores
        override this with an in-place gather over their extents.
        """
        columns = dict(zip(self.GATHER_FIELDS, self.raw_columns()))
        index = rows.tolist()
        return tuple(
            np.fromiter(map(columns[field].__getitem__, index), np.int32, len(index))
            for field in fields
        )

    def memory_bytes(self) -> int:
        """Payload bytes of the current columnar representation (index included).

        Before :meth:`compact` the columns are pointer lists (8 bytes per
        entry, values shared); afterwards packed 4-byte arrays.
        """
        columns = (
            self._producer_path,
            self._producer_port,
            self._consumer_path,
            self._consumer_port,
            self._uids,
        )
        total = sum(
            len(col) * (col.itemsize if isinstance(col, array) else 8)
            for col in columns
        )
        if self._row_of is not None:
            total += 64 * len(self._row_of)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LabelStore({len(self)} labels, {self._table!r})"


class ObjectLabelStore:
    """The seed's per-item value-object representation behind the store interface.

    Used as the comparison baseline in the ingest benchmark and in the
    differential property tests; functionally identical to :class:`LabelStore`
    but materialises two :class:`PortLabel` and one :class:`DataLabel` per
    item at append time and keeps them in a dict.
    """

    __slots__ = ("_table", "_labels")

    def __init__(self, table: PathTable) -> None:
        self._table = table
        self._labels: dict[int, DataLabel] = {}

    def append(
        self,
        uid: int,
        producer_path: int,
        producer_port: int,
        consumer_path: int,
        consumer_port: int,
    ) -> None:
        if uid in self._labels:
            raise _already_labelled(uid)
        path = self._table.path
        self._labels[uid] = DataLabel(
            None if producer_path < 0 else PortLabel(path(producer_path), producer_port),
            None if consumer_path < 0 else PortLabel(path(consumer_path), consumer_port),
        )

    def extend_items(self, items: Sequence, path_ids: Sequence[int]) -> None:
        labels = self._labels
        path = self._table.path
        for item in items:
            uid = item.uid
            if uid in labels:
                raise _already_labelled(uid)
            labels[uid] = DataLabel(
                PortLabel(path(path_ids[item.producer_position]), item.producer_port),
                PortLabel(path(path_ids[item.consumer_position]), item.consumer_port),
            )

    def append_label(self, uid: int, label: DataLabel) -> None:
        if uid in self._labels:
            raise _already_labelled(uid)
        self._labels[uid] = label

    def label(self, uid: int) -> DataLabel:
        try:
            return self._labels[uid]
        except KeyError:
            raise _not_labelled(uid) from None

    def __contains__(self, uid: object) -> bool:
        return uid in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def uids(self) -> Iterator[int]:
        return iter(self._labels)

    def labels_view(self) -> Mapping:
        """A read-only (non-copying) view of the label dict."""
        return MappingProxyType(self._labels)

    @property
    def table(self) -> PathTable:
        return self._table

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ObjectLabelStore({len(self)} labels)"
