"""Columnar run storage: arena-interned paths, node rows, labels, run files.

The ingest-side counterpart of the batched query engine: paths of the
compressed parse tree are interned once in a :class:`PathTable` trie, the
tree's nodes are integer rows in a :class:`NodeTable`, and a run's data
labels become four integer columns in a :class:`LabelStore` instead of
per-item value objects.  The fully columnar run has a page-aligned at-rest
form, described once in :mod:`repro.store.runfile` (header, section schema,
the one segment encoder and the one chain decoder):
:mod:`repro.store.checkpoint`'s :func:`checkpoint_run` appends delta rows
behind ``(n_paths, n_items, n_nodes)`` watermarks (``checkpoint_batch``
groups the fsync barriers across runs) and :mod:`repro.store.mapped`'s
:class:`MappedRunStore` serves the file through ``mmap`` with no decode
pass, scrubbing its checksums before the first column is handed out
(``verify="lazy"``) or at open (``verify="attach"``).
:mod:`repro.store.compaction` rewrites a segmented file into one extent per
column under a bumped generation and swaps it in atomically — the store-side
half of the run lifecycle (:mod:`repro.service`).  See the architecture
section of the README for how the store sits between the run labeler and the
codec/engine.
"""

from repro.store.label_store import (
    NO_PATH,
    LabelStore,
    LabelStoreMapping,
    ObjectLabelStore,
)
from repro.store.node_table import (
    NO_NODE,
    NODE_MODULE,
    NODE_RECURSIVE,
    NodeTable,
)
from repro.store.path_table import (
    KIND_PRODUCTION,
    KIND_RECURSION,
    KIND_ROOT,
    ROOT_PATH,
    PathTable,
)
from repro.store.compaction import (
    CompactionResult,
    compact,
)
from repro.store.lockfile import (
    DEFAULT_STALE_AFTER,
    FileLease,
    LeaseHeldError,
    LeaseInfo,
)
from repro.store.runfile import FORMAT_MAGIC, FORMAT_VERSION, PAGE_SIZE
from repro.store.mapped import (
    MappedLabelStore,
    MappedNodeTable,
    MappedPathTable,
    MappedRunStore,
    RunFileInfo,
    VerifyReport,
    run_file_info,
    verify_run,
)
from repro.store.checkpoint import (
    CheckpointResult,
    checkpoint_batch,
    checkpoint_run,
)

__all__ = [
    "PathTable",
    "ROOT_PATH",
    "KIND_ROOT",
    "KIND_PRODUCTION",
    "KIND_RECURSION",
    "NodeTable",
    "NO_NODE",
    "NODE_MODULE",
    "NODE_RECURSIVE",
    "LabelStore",
    "LabelStoreMapping",
    "ObjectLabelStore",
    "NO_PATH",
    "checkpoint_run",
    "checkpoint_batch",
    "CheckpointResult",
    "RunFileInfo",
    "run_file_info",
    "VerifyReport",
    "verify_run",
    "compact",
    "CompactionResult",
    "FileLease",
    "LeaseHeldError",
    "LeaseInfo",
    "DEFAULT_STALE_AFTER",
    "MappedRunStore",
    "MappedLabelStore",
    "MappedPathTable",
    "MappedNodeTable",
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
    "PAGE_SIZE",
]
