"""The concurrent provenance serving layer.

:mod:`repro.engine` made provenance queries *batched*; this package makes
them *served*.  :class:`ProvenanceServer` coalesces concurrently-arriving
``depends`` / ``is_visible`` frames (:meth:`~ProvenanceServer.submit_batch`,
one id array each) into the engine's vectorised batch calls with a
micro-batching scheduler (bounded queue, max-batch policy, per
``(kind, run, view)`` grouping; the submitter that finds it idle serves
everything queued on its own thread) and returns futures; a per-run
generation-probe backoff keeps follower processes mapped
onto the current compacted generation of every run file
(:meth:`~repro.engine.QueryEngine.reopen`), and the persistent
hot-matrix cache (:mod:`repro.serve.matrix_cache`) lets a fresh process skip
the cold decode of the ``(path, path)`` pairs its predecessor decided.

Cross-process writer safety — one process appending/compacting while others
serve — is the :class:`repro.store.FileLease` writer lease, acquired by the
lifecycle manager and :func:`repro.store.compact`; readers (this package)
stay lock-free.
"""

from repro.serve.matrix_cache import (
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
]
