"""Options ledger for the durability and transport tier, and the query surface.

Pins the parameters of the tier's public signatures and the SLO kind set,
so adding (or removing) a knob is a visible edit to this file.  The
independently settable values are each signature's parameters minus the
inputs it operates on, addresses/paths, and the ``clock`` / ``sleep`` /
``jitter_seed`` test seams.  The query surface — engine, scheduler and
client — is pinned too: a query names its ids, a view and a run, and the
engine serves one label per view, so no signature takes a variant.
"""

from __future__ import annotations

import dataclasses
import inspect

from repro.engine import QueryEngine
from repro.net import ProvenanceClient, ProvenanceNetServer
from repro.obs.watchdog import SLO, SLO_KINDS, Watchdog, default_slos
from repro.serve import ProvenanceServer
from repro.service import CheckpointPolicy, RunLifecycleManager
from repro.store import FileLease, compact, run_file_info

#: Parameters that are not knobs: what a call operates on, where it binds,
#: and the deterministic-test seams.
NOT_KNOBS = {
    "self", "path", "engine", "policy", "lease", "server", "registry", "slos",
    "unix_path", "address", "host", "port", "name", "metric",
    "clock", "sleep", "jitter_seed",
}

#: Engine, scheduler and client: what a query names, and nothing else.
QUERY_SURFACE = {
    "QueryEngine": (QueryEngine, ("source", "state_budget_bytes", "metrics")),
    "QueryEngine.depends": (QueryEngine.depends, ("self", "d1", "d2", "view", "run")),
    "QueryEngine.depends_batch": (QueryEngine.depends_batch, ("self", "pairs", "view", "run")),
    "QueryEngine.is_visible": (QueryEngine.is_visible, ("self", "uid", "view", "run")),
    "QueryEngine.is_visible_batch": (QueryEngine.is_visible_batch, ("self", "uids", "view", "run")),
    "QueryEngine.decoded_state": (QueryEngine.decoded_state, ("self", "view")),
    "ProvenanceServer.submit_batch": (
        ProvenanceServer.submit_batch,
        ("self", "kind", "ids", "view", "run", "block", "trace"),
    ),
    "ProvenanceServer.submit_many": (
        ProvenanceServer.submit_many,
        ("self", "kind", "items", "view", "run", "block", "trace"),
    ),
    "ProvenanceClient.depends": (ProvenanceClient.depends, ("self", "d1", "d2", "view", "run")),
    "ProvenanceClient.depends_batch": (
        ProvenanceClient.depends_batch, ("self", "pairs", "view", "run")
    ),
    "ProvenanceClient.is_visible": (ProvenanceClient.is_visible, ("self", "uid", "view", "run")),
    "ProvenanceClient.is_visible_batch": (
        ProvenanceClient.is_visible_batch, ("self", "uids", "view", "run")
    ),
}

SIGNATURES = {
    **QUERY_SURFACE,
    "FileLease": (FileLease, ("path",)),
    "FileLease.acquire": (FileLease.acquire, ("self",)),
    "compact": (compact, ("path", "lease")),
    "RunLifecycleManager": (
        RunLifecycleManager,
        ("engine", "policy", "poll_interval", "clock", "quarantine_after", "retry_backoff_s"),
    ),
    "run_file_info": (run_file_info, ("path",)),
    "ProvenanceNetServer": (ProvenanceNetServer, ("server", "unix_path", "host", "port")),
    "ProvenanceClient": (
        ProvenanceClient,
        (
            "unix_path", "address", "pool_size", "timeout", "retries",
            "breaker_threshold", "clock", "sleep", "jitter_seed", "trace_ids",
        ),
    ),
    "default_slos": (default_slos, ()),
    "Watchdog": (Watchdog, ("registry", "slos", "interval_s", "clock")),
}

#: Config objects count each field.
FIELDS = {
    "CheckpointPolicy": (
        CheckpointPolicy,
        ("every_events", "every_seconds", "compact_after_segments"),
    ),
    "SLO": (
        SLO,
        ("name", "kind", "metric", "threshold", "labels", "window_s", "q", "clear_after"),
    ),
}


def _knobs(names) -> list[str]:
    return [name for name in names if name not in NOT_KNOBS]


def test_signatures_are_pinned():
    for label, (target, expected) in SIGNATURES.items():
        assert tuple(inspect.signature(target).parameters) == expected, label
    for label, (cls, expected) in FIELDS.items():
        assert tuple(field.name for field in dataclasses.fields(cls)) == expected, label


def test_the_tier_has_eighteen_settable_values():
    counts = {
        label: len(_knobs(expected))
        for label, (_, expected) in SIGNATURES.items()
        if label not in QUERY_SURFACE
    }
    counts.update({label: len(_knobs(expected)) for label, (_, expected) in FIELDS.items()})
    assert counts == {
        "FileLease": 0,
        "FileLease.acquire": 0,
        "compact": 0,
        "RunLifecycleManager": 3,
        "CheckpointPolicy": 3,
        "run_file_info": 0,
        "ProvenanceNetServer": 0,
        "ProvenanceClient": 5,
        "SLO": 6,
        "default_slos": 0,
        "Watchdog": 1,
    }
    assert sum(counts.values()) == 18


def test_slo_kinds_are_pinned():
    assert SLO_KINDS == ("rate", "delta", "percentile")
    assert {slo.kind for slo in default_slos()} <= set(SLO_KINDS)
