"""Batched provenance query serving on top of the FVL labeling scheme.

The paper's decoding predicate answers one ``(d1, d2, view)`` query from the
labels alone; this package adds the serving layer a production deployment
needs around it: per-view decode caching (view labels interned once with
their memoized production matrices and path-segment chain products, per-run
decode state in an LRU over them), one batched evaluator that groups queries
by shared label paths (:mod:`repro.engine.evaluate`), and multi-run sharding.
"""

from repro.engine.cache import CacheStats, DecodedViewState, LRUCache, StaticViewState
from repro.engine.engine import (
    DEFAULT_RUN,
    EngineStats,
    QueryEngine,
    grammar_fingerprint,
)

__all__ = [
    "QueryEngine",
    "EngineStats",
    "CacheStats",
    "LRUCache",
    "StaticViewState",
    "DecodedViewState",
    "DEFAULT_RUN",
    "grammar_fingerprint",
]
