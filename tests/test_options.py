"""Options ledger for the durability and transport tier, the query surface and the decode tier.

Pins the parameters of the tier's public signatures and the SLO kind set,
so adding (or removing) a knob is a visible edit to this file.  The
independently settable values are each signature's parameters minus the
inputs it operates on, addresses/paths, and the ``clock`` / ``sleep`` /
``jitter_seed`` test seams.  The query surface — engine, scheduler and
client — is pinned too: a query names its ids, a view and a run, and the
engine serves one label per view, so no signature takes a variant.  So is
the decode tier: the bank takes a grammar index and a call names its keys,
their chain counts and the view state, and the kernel's module constants are
its outcome, family and class codes and one stack bound — a recursion depth
cap or a budget hook would be a visible edit here.  A view's static part
takes its name, the grammar index its bank is built from and the one
function that labels it, and builds each of the two on its first read —
an eager/lazy switch would be a visible edit too.  Run labeling takes a
grammar index and, at most, the path arena to intern in: the library has
one run representation, so a switch that picks another would be a visible
edit.  The scheduler's knobs — the fields of its batching and reopen
policies — are counted apart from the tier's eighteen; its ``workers``
parameter accepts only 1 (the scheduler starts no thread), so it is not
one.
"""

from __future__ import annotations

import dataclasses
import inspect

from repro.core import FVLScheme, RunLabeler
from repro.engine import QueryEngine, kernel
from repro.engine.cache import StaticViewState
from repro.engine.kernel import MatrixBank
from repro.net import ProvenanceClient, ProvenanceNetServer
from repro.obs.watchdog import SLO, SLO_KINDS, Watchdog, default_slos
from repro.serve import BatchPolicy, ProvenanceServer, ReopenPolicy
from repro.service import CheckpointPolicy, RunLifecycleManager
from repro.store import FileLease, compact, run_file_info

#: Parameters that are not knobs: what a call operates on, where it binds,
#: and the deterministic-test seams.
NOT_KNOBS = {
    "self", "path", "engine", "policy", "lease", "server", "registry", "slos",
    "unix_path", "address", "host", "port", "name", "metric",
    "clock", "sleep", "jitter_seed", "index", "keys", "counts", "state", "view", "build",
    "derivation", "path_table", "reopen", "sampler",
    # The scheduler starts no thread: ``workers`` accepts 1 and nothing else.
    "workers",
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
        ("self", "kind", "ids", "view", "run"),
    ),
    "ProvenanceServer.submit_many": (
        ProvenanceServer.submit_many,
        ("self", "kind", "items", "view", "run"),
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

#: The decode kernel's bank: what it is built from and what a call resolves;
#: and the static part of a view that holds it beside the lazily built label.
DECODE_TIER = {
    "StaticViewState": (StaticViewState, ("view", "index", "build")),
    "MatrixBank": (MatrixBank, ("index",)),
    "MatrixBank.codes": (MatrixBank.codes, ("self", "keys", "counts", "state")),
}

#: Run labeling: what is labelled and the arena its paths intern in.
RUN_LABELING = {
    "RunLabeler": (RunLabeler, ("index", "path_table")),
    "FVLScheme.run_labeler": (FVLScheme.run_labeler, ("self", "path_table")),
    "FVLScheme.label_run": (FVLScheme.label_run, ("self", "derivation", "path_table")),
}

#: The scheduler: its engine, its two policies (their fields are counted
#: below), its worker count (1, the only value it accepts), the sampler it
#: records into and its clock.
SCHEDULER = {
    "ProvenanceServer": (
        ProvenanceServer,
        ("engine", "policy", "reopen", "workers", "clock", "sampler"),
    ),
}
SCHEDULER_FIELDS = {
    "BatchPolicy": (BatchPolicy, ("max_batch", "max_queue")),
    "ReopenPolicy": (ReopenPolicy, ("after_queries", "after_seconds")),
}

#: Every int at the kernel's module level, imported ones included.
KERNEL_CONSTANTS = {
    # outcomes and pair-table sentinels
    "MATRIX": 0, "REFERENCE": 1, "VERDICT_FALSE": -2, "VERDICT_TRUE": -3,
    # trie and key layout
    "ABSENT": 2**31 - 1, "ROOT_PATH": 0, "_FIELD_BITS": 16, "_FIELD_MASK": 0xFFFF, "_WORD_BITS": 33,
    # bank key families, codes and classes
    "_INPUTS": 0, "_OUTPUTS": 1, "_Z": 2, "_CHAIN": 3, "_IDENTITY": 0, "_UNDEFINED": -1,
    "_ALL_TRUE": 0, "_ALL_FALSE": 1, "_MIXED": 2,
    # the one bound: cells a transient matrix stack may hold
    "_STACK_CELLS": 1 << 20,
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


def test_the_decode_tier_is_pinned_and_has_no_settable_value():
    for label, (target, expected) in DECODE_TIER.items():
        assert tuple(inspect.signature(target).parameters) == expected, label
        assert _knobs(expected) == [], label
    constants = {name: value for name, value in vars(kernel).items() if type(value) is int}
    assert constants == KERNEL_CONSTANTS


def test_slo_kinds_are_pinned():
    assert SLO_KINDS == ("rate", "delta", "percentile")
    assert {slo.kind for slo in default_slos()} <= set(SLO_KINDS)


def test_run_labeling_is_pinned_and_has_no_settable_value():
    for label, (target, expected) in RUN_LABELING.items():
        assert tuple(inspect.signature(target).parameters) == expected, label
        assert _knobs(expected) == [], label


def test_the_scheduler_has_four_settable_values():
    for label, (target, expected) in SCHEDULER.items():
        assert tuple(inspect.signature(target).parameters) == expected, label
    for label, (cls, expected) in SCHEDULER_FIELDS.items():
        assert tuple(field.name for field in dataclasses.fields(cls)) == expected, label
    counts = {
        label: len(_knobs(expected))
        for label, (_, expected) in {**SCHEDULER, **SCHEDULER_FIELDS}.items()
    }
    assert counts == {"ProvenanceServer": 0, "BatchPolicy": 2, "ReopenPolicy": 2}
    assert sum(counts.values()) == 4
