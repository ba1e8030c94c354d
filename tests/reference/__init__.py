"""Test-side references for the differential tests.

The library labels a run one way: :class:`repro.core.RunLabeler` grows a
columnar :class:`~repro.core.CompressedParseTree` and appends to a columnar
:class:`~repro.store.LabelStore`.  The seed kept one object per parse-tree
node and one ``DataLabel`` per data item instead.  Those object forms live
here, behind the library's own event loop, so the differential tests can
check the columnar run against them.  :mod:`tests.reference.production_graph`
is the seed's production graph (an edge object per occurrence, Tarjan over
every module), the reference of the graph's differential test.  No module
under ``src/`` imports this package.
"""

from __future__ import annotations

from repro.core.run_labeler import RunLabeler
from tests.reference.label_store import ObjectLabelStore
from tests.reference.parse_tree import ObjectParseNode, ObjectParseTree

__all__ = [
    "ObjectLabelStore",
    "ObjectParseNode",
    "ObjectParseTree",
    "ObjectRunLabeler",
    "label_run_objects",
]


class ObjectRunLabeler(RunLabeler):
    """:class:`RunLabeler`'s event loop over the object tree and object store."""

    def __init__(self, index, *, path_table=None) -> None:
        super().__init__(index, path_table=path_table)
        self._tree = ObjectParseTree(index, path_table)
        self._store = ObjectLabelStore(self._tree.path_table)


def label_run_objects(scheme, derivation) -> ObjectRunLabeler:
    """Label a derivation with the object representation, as
    :meth:`FVLScheme.label_run` does with the columnar one."""
    return ObjectRunLabeler(scheme.index).attach(derivation)
