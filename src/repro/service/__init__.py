"""Run lifecycle service: hands-off durability and store health.

The serving stack below this package is deliberately mechanism, not policy:
:func:`~repro.store.checkpoint_run` persists a delta *when called*,
:func:`~repro.store.compact` rewrites a segment chain *when called*, and
:meth:`~repro.engine.QueryEngine.reopen` remaps an attached shard *when
called*.  :class:`RunLifecycleManager` is the policy layer that calls them:
a background thread that flushes managed runs after N new events or M
seconds (one checkpoint per due run, a failing run never holding up its
siblings), compacts run files whose segment chains grow past a bound, and
remaps live attached readers onto the compacted generation — so a streaming deployment reaches durability and
stays compact with zero explicit checkpoint/compact/reopen calls.
"""

from repro.service.lifecycle import (
    CheckpointPolicy,
    LifecycleStats,
    RunLifecycleManager,
    SweepResult,
)

__all__ = [
    "CheckpointPolicy",
    "LifecycleStats",
    "RunLifecycleManager",
    "SweepResult",
]
