"""The seed's label store: one ``DataLabel`` value object per data item.

:class:`ObjectLabelStore` has the append interface of
:class:`repro.store.LabelStore` but materialises two :class:`PortLabel` and
one :class:`DataLabel` per item at append time and keeps them in a dict.
It is the reference the differential tests compare the columnar store
against bit for bit; nothing in ``src/`` uses it.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from types import MappingProxyType
from typing import Sequence

from repro.core.labels import DataLabel, PortLabel
from repro.store.label_store import _already_labelled, _not_labelled
from repro.store.path_table import PathTable

__all__ = ["ObjectLabelStore"]


class ObjectLabelStore:
    """The seed's per-item value-object representation behind the store interface.

    The reference of the differential property tests; functionally identical
    to :class:`LabelStore` but materialises two :class:`PortLabel` and one
    :class:`DataLabel` per item at append time and keeps them in a dict.
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
