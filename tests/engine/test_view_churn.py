"""View churn: more views than view-state LRU slots, cycled for good.

A view is labelled statically, once; what the LRU evicts is only the per-run
decode state built over that label.  These tests cycle ten views through
engines of 1, 2 and 8 slots over live, attached and re-opened shards and pin
down (a) that every answer stays equal to the single-pair predicate on a
freshly labelled view and to the label-free reachability oracle, (b) that the
labeller runs once per ``(view, variant)`` however often states are evicted,
(c) that ``decode_cache_entries`` still bounds every memo table, (d) the
unsafe / re-registration / name-clash paths, (e) that run churn neither leaks
into nor shrinks the static part, and (f) that racing first queries intern
one label.
"""

from __future__ import annotations

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import FVLScheme, FVLVariant, QueryEngine
from repro.analysis import RunReachabilityOracle
from repro.engine import DEFAULT_RUN, MATRIX_FREE
from repro.errors import UnsafeWorkflowError, ViewError
from repro.model import Derivation, WorkflowSpecification, WorkflowView, default_view
from repro.model.projection import ViewProjection
from repro.store import checkpoint_run, compact
from repro.workloads import (
    build_bioaid_specification,
    build_running_example,
    build_unsafe_example,
    random_run,
    random_view,
)

N_VIEWS = 10
CYCLES = 3


class _Case:
    """One view with its queries and the bits every engine must return."""

    def __init__(self, spec, scheme, derivation, labeler, view, seed) -> None:
        self.view = view
        oracle = RunReachabilityOracle(derivation.run, view, spec)
        fresh = scheme.label_view(view)
        rng = random.Random(seed)
        visible = sorted(oracle.projection.visible_items)
        # Few distinct sources: the oracle pays one graph search per source.
        sources = rng.sample(visible, min(12, len(visible)))
        # 1,100 pairs cross the structural vector threshold on sealed shards.
        self.pairs = [(rng.choice(sources), rng.choice(visible)) for _ in range(1100)]
        self.depends = [oracle.depends(d1, d2) for d1, d2 in self.pairs]
        assert self.depends == [
            scheme.depends(labeler.label(d1), labeler.label(d2), fresh)
            for d1, d2 in self.pairs
        ]
        uids = sorted(derivation.run.data_items)
        self.uids = rng.sample(uids, min(200, len(uids)))
        self.visible = [oracle.is_visible(uid) for uid in self.uids]
        assert self.visible == [
            scheme.is_visible(labeler.label(uid), fresh) for uid in self.uids
        ]


@pytest.fixture(scope="module")
def churn(tmp_path_factory):
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 500, seed=17)
    labeler = scheme.label_run(derivation)
    cases = [
        _Case(
            spec,
            scheme,
            derivation,
            labeler,
            random_view(
                spec,
                2 + index % 5,
                seed=300 + index,
                mode=("grey", "black", "white")[index % 3],
                name=f"churn-{index}",
            ),
            seed=index,
        )
        for index in range(N_VIEWS)
    ]
    # One single-segment file, and one written in four appends (compacted
    # under a live attachment by the tests that reopen it).
    directory = tmp_path_factory.mktemp("churn")
    whole = directory / "whole.fvl"
    checkpoint_run(whole, labeler.store, labeler.tree.nodes)
    return spec, scheme, derivation, cases, whole


def _segmented_file(scheme, derivation, path):
    events = derivation.events
    labeler = scheme.run_labeler()
    step = max(1, len(events) // 4)
    for lo in range(0, len(events), step):
        for event in events[lo : lo + step]:
            labeler(event)
        checkpoint_run(path, labeler.store, labeler.tree.nodes)
    return path


def _ask_all(engine, case, run, as_arrays=False):
    pairs = np.asarray(case.pairs, dtype=np.int64) if as_arrays else case.pairs
    uids = np.asarray(case.uids, dtype=np.int64) if as_arrays else case.uids
    assert list(engine.depends_batch(pairs, case.view.name, run=run)) == case.depends
    assert list(engine.is_visible_batch(uids, case.view.name, run=run)) == case.visible


# -- (a) + (b): differential under churn, one labelling per view -----------------


@pytest.mark.parametrize("cache_size", [1, 2, 8])
def test_cycling_views_answers_like_the_oracle_and_labels_once(churn, tmp_path, cache_size):
    _, scheme, derivation, cases, whole = churn
    engine = QueryEngine(scheme, cache_size=cache_size)
    engine.add_run("live", derivation)
    engine.attach(whole, "disk")
    segmented = _segmented_file(scheme, derivation, tmp_path / "segmented.fvl")
    assert engine.attach(segmented, "reopened").n_segments >= 3
    for case in cases:
        engine.add_view(case.view)
    assert engine.stats.labels_built == 0  # registration labels nothing

    for cycle in range(CYCLES):
        if cycle == 1:
            assert compact(segmented).compacted
            assert engine.reopen("reopened")
        for case in cases:
            for run in ("live", "disk", "reopened"):
                _ask_all(engine, case, run, as_arrays=cycle == 2)

    stats = engine.stats
    lookups = CYCLES * N_VIEWS * 3 * 2
    assert stats.views.hits + stats.views.misses == lookups
    if cache_size < N_VIEWS:
        # Ten views through fewer slots: the first lookup of every view in
        # every cycle finds its state evicted.
        assert stats.views.misses >= CYCLES * N_VIEWS
        assert stats.views.evictions >= CYCLES * N_VIEWS - cache_size
    assert stats.labels_built == N_VIEWS
    snapshot = engine.metrics.snapshot()
    assert snapshot["engine_view_labels_total"] == {("default",): N_VIEWS}
    assert snapshot["engine_view_label_seconds"][()]["count"] == N_VIEWS

    # Another variant is another label, once each; the matrix-free encoding too.
    for _ in range(2):
        for case in cases[:3]:
            answers = engine.depends_batch(
                case.pairs[:50], case.view.name, run="disk", variant=FVLVariant.SPACE_EFFICIENT
            )
            assert answers == case.depends[:50]
            engine.is_visible_batch(case.uids, case.view.name, run="disk", variant=MATRIX_FREE)
    assert engine.metrics.snapshot()["engine_view_labels_total"] == {
        ("default",): N_VIEWS,
        ("space-efficient",): 3,
        (MATRIX_FREE,): 3,
    }
    assert engine.stats.labels_built == N_VIEWS + 6


def test_rebuilt_state_shares_the_static_part(churn):
    _, scheme, derivation, cases, _ = churn
    engine = QueryEngine(scheme, cache_size=1)
    engine.add_run(DEFAULT_RUN, derivation)
    first, second = cases[0], cases[1]
    engine.depends_batch(first.pairs, first.view)
    state = engine.decoded_state(first.view)
    static = state.static
    memo_entries = len(static)
    assert memo_entries > 0
    engine.depends_batch(second.pairs, second.view)  # evicts
    rebuilt = engine.decoded_state(first.view)
    assert rebuilt is not state
    assert rebuilt.static is static and rebuilt.label is state.label
    assert rebuilt.decode_cache.inputs_segments is static.inputs_segments
    assert not rebuilt.decode_cache.arenas()  # the per-run half starts over
    assert engine.depends_batch(first.pairs, first.view) == first.depends
    assert len(static) == memo_entries  # the same queries add nothing


# -- (c) the memo budget -------------------------------------------------------------


def test_decode_budget_holds_across_rebuilds_and_deep_recursion():
    spec = build_running_example()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 600, seed=2)  # one recursion chain > 20 deep
    labeler = scheme.label_run(derivation)
    views = [default_view(spec), random_view(spec, 3, seed=1, mode="grey", name="other")]
    engine = QueryEngine(scheme, cache_size=1, decode_cache_entries=4)
    engine.add_run(DEFAULT_RUN, derivation)
    rng = random.Random(0)
    for _ in range(4):
        for view in views:
            uids = sorted(ViewProjection(derivation.run, view).visible_items)
            pairs = [(rng.choice(uids), rng.choice(uids)) for _ in range(150)]
            fresh = scheme.label_view(view)
            expected = [
                scheme.depends(labeler.label(d1), labeler.label(d2), fresh)
                for d1, d2 in pairs
            ]
            # A saturated budget only stops storing; answers stay correct.
            assert engine.depends_batch(pairs, view) == expected
            state = engine.decoded_state(view)
            assert len(state.decode_cache) <= 4
            assert len(state.static.chains) <= 4
            assert len(state.static.inputs_segments) + len(state.static.outputs_segments) <= 4
    assert engine.stats.views.evictions >= 7 and engine.stats.labels_built == 2


# -- (d) unsafe views, re-registration, name clashes ------------------------------------


def test_unsafe_view_raises_every_time_and_is_never_interned():
    grammar, dependencies = build_unsafe_example()
    spec = WorkflowSpecification(grammar, dependencies)
    engine = QueryEngine(spec)
    engine.add_run(DEFAULT_RUN, Derivation(spec))
    view = default_view(spec)
    for _ in range(3):
        with pytest.raises(UnsafeWorkflowError):
            engine.depends_batch([(1, 2)], view)
        with pytest.raises(UnsafeWorkflowError):
            engine.is_visible_batch([1], view, variant=MATRIX_FREE)
    assert engine._statics == {}
    assert engine.stats.labels_built == 0
    assert engine.stats.views.size == 0


def test_identical_reregistration_reuses_the_label_and_a_clash_is_rejected(churn):
    spec, scheme, derivation, cases, _ = churn
    engine = QueryEngine(scheme, cache_size=1)
    engine.add_run(DEFAULT_RUN, derivation)
    case = cases[0]
    assert engine.depends_batch(case.pairs, case.view) == case.depends
    label = engine.decoded_state(case.view).label
    rebuilt = WorkflowView(
        case.view.visible_composites, case.view.dependencies, name=case.view.name
    )
    engine.depends_batch(cases[1].pairs, cases[1].view)  # evict, then come back
    assert engine.depends_batch(case.pairs, rebuilt) == case.depends
    assert engine.decoded_state(rebuilt).label is label
    assert engine.stats.labels_built == 2
    clash = random_view(spec, 4, seed=999, mode="black", name=case.view.name)
    with pytest.raises(ViewError, match="already registered"):
        engine.depends_batch(case.pairs, clash)
    assert engine.decoded_state(case.view.name).label is label


# -- (e) run churn --------------------------------------------------------------------------


def _arena_tagged(key) -> bool:
    return isinstance(key, tuple) and len(key) == 3 and all(isinstance(k, int) for k in key)


def test_attach_detach_churn_leaves_the_static_part_alone(churn):
    _, scheme, _, cases, whole = churn
    engine = QueryEngine(scheme)
    case = cases[2]
    engine.add_view(case.view)
    sizes = set()
    for index in range(50):
        run = f"run-{index}"
        engine.attach(whole, run)
        _ask_all(engine, case, run)
        state = engine.decoded_state(case.view)
        arena = engine.shard_arena(run)
        assert state.decode_cache.arenas() == [arena] and any(state.decode_cache.rows(arena))
        assert arena in state.visibility_flags and (arena, run) in state.structural
        engine.detach(run)
        # The per-run half is empty again ...
        assert not state.decode_cache.arenas() and not state.decode_cache.pair_tables
        assert not state.visibility_flags and not state.structural
        # ... and the static half neither grew nor learnt about the arena.
        static = state.static
        sizes.add(len(static))
        for table in (
            static.productions,
            static.chains,
            static.inputs_segments,
            static.outputs_segments,
            static.structural_classes,
        ):
            assert not any(_arena_tagged(key) for key in table)
    assert len(sizes) == 1 and sizes.pop() > 0
    assert engine.stats.labels_built == 1 and engine.stats.views.misses == 1


# -- (f) racing first queries ----------------------------------------------------------------


def test_threads_missing_on_one_unseen_view_intern_one_label(churn):
    _, scheme, derivation, cases, _ = churn
    engine = QueryEngine(scheme, cache_size=2)
    engine.add_run(DEFAULT_RUN, derivation)
    case = cases[4]
    engine.add_view(case.view)
    n_threads = 8  # more than the cores of any CI host this runs on
    barrier = threading.Barrier(n_threads)
    trio = cases[5:8]

    def herd(_):
        barrier.wait(timeout=60)
        answers = engine.depends_batch(case.pairs[:200], case.view.name)
        return answers == case.depends[:200], engine.decoded_state(case.view.name).static

    def churner(thread_id):
        chosen = trio[thread_id % 3]
        return engine.depends_batch(chosen.pairs[:150], chosen.view) == chosen.depends[:150]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleavings inside the label/intern window
    try:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            outcomes = list(pool.map(herd, range(n_threads), timeout=120))
            assert all(ok for ok, _ in outcomes)
            # A lost interning would hand some thread a second label object.
            assert len({id(static) for _, static in outcomes}) == 1
            assert engine.stats.labels_built == 1
            # And with eviction churn underneath: 8 threads, 3 views, 2 slots.
            assert all(pool.map(churner, range(32), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert engine.stats.labels_built == 4


# -- a traced frame shows when it paid for labelling -------------------------------------------


def test_label_view_span_appears_once_per_view(churn):
    from repro.obs.trace import Trace, activate

    _, scheme, derivation, cases, _ = churn
    engine = QueryEngine(scheme, cache_size=1)
    engine.add_run(DEFAULT_RUN, derivation)
    traces = []
    for case in (cases[0], cases[1], cases[0]):  # the third frame rebuilds an evicted state
        trace = Trace(len(traces) + 1)
        with activate(trace):
            engine.depends_batch(case.pairs[:100], case.view)
        traces.append([(span.name, span.attrs) for span in trace.spans])
    for spans, case in zip(traces[:2], cases[:2]):
        assert ("engine.label_view", {"view": case.view.name, "variant": "default"}) in spans
    assert "engine.label_view" not in [name for name, _ in traces[2]]
    assert "engine.depends_batch" in [name for name, _ in traces[2]]
    assert engine.stats.views.misses == 3 and engine.stats.labels_built == 2
