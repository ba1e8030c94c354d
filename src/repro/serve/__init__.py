"""The concurrent provenance serving layer.

:mod:`repro.engine` made provenance queries *batched*; this package makes
them *served*.  :class:`ProvenanceServer` coalesces concurrently-arriving
single ``depends`` / ``is_visible`` requests into the engine's vectorised
batch calls with a micro-batching scheduler (bounded queue, max-batch +
max-linger policy — singletons linger for company, a frame never does —
per ``(run, view, variant)`` grouping) and returns futures; a per-run generation-probe backoff keeps follower processes mapped
onto the current compacted generation of every run file
(:meth:`~repro.engine.QueryEngine.maybe_reopen`), and the persistent
hot-matrix cache (:mod:`repro.serve.matrix_cache`) lets a fresh process skip
the cold decode of the hottest ``(path, path)`` reachability matrices.

Cross-process writer safety — one process appending/compacting while others
serve — is the :class:`repro.store.FileLease` writer lease, acquired by the
lifecycle manager and :func:`repro.store.compact`; readers (this package)
stay lock-free.
"""

from repro.serve.matrix_cache import (
    DEFAULT_HOT_ENTRIES,
    load_hot_matrices,
    matrix_cache_path,
    save_hot_matrices,
    view_fingerprint,
)
from repro.serve.server import (
    BatchPolicy,
    ProvenanceServer,
    ReopenPolicy,
    ServerStats,
)

__all__ = [
    "ProvenanceServer",
    "BatchPolicy",
    "ReopenPolicy",
    "ServerStats",
    "matrix_cache_path",
    "save_hot_matrices",
    "load_hot_matrices",
    "view_fingerprint",
    "DEFAULT_HOT_ENTRIES",
]
