"""View churn: more decoded view state than the byte budget holds, cycled for good.

A view is labelled statically, once; what the LRU evicts is only the per-run
decode state built over that label.  These tests cycle ten views through
engines whose state budget holds 1, 2, 8 and all 10 of them (budgets taken
from a measured dry run, not guessed) over live, attached and re-opened
shards and pin down (a) that every answer stays equal to the single-pair
predicate on a freshly labelled view and to the label-free reachability
oracle, (b) that the labeller runs once per view however often
states are evicted, (c) that the byte budget bounds every memo table and the
accounting is exact, (d) the unsafe / re-registration / name-clash paths,
(e) that run churn neither leaks into nor shrinks the static part, and
(f) that racing first queries intern one label.
"""

from __future__ import annotations

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import FVLScheme, QueryEngine
from repro.analysis import RunReachabilityOracle
from repro.engine import DEFAULT_RUN
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
    assert engine.depends_batch(pairs, case.view.name, run=run).tolist() == case.depends
    assert engine.is_visible_batch(uids, case.view.name, run=run).tolist() == case.visible


# -- (a) + (b): differential under churn, one labelling per view -----------------


def _cycle_all(engine, churn, tmp_path, after_each=lambda case: None):
    """Register three shards and ten views, ask every view of every shard, CYCLES times."""
    _, scheme, derivation, cases, whole = churn
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
            after_each(case)


@pytest.fixture(scope="module")
def measured(churn, tmp_path_factory, decoded_state_bytes):
    """The dry run the budgets come from: everything resident under the default budget.

    Returns the static bytes of the ten views and each view's per-run bytes.
    """
    engine = QueryEngine(churn[1])
    _cycle_all(engine, churn, tmp_path_factory.mktemp("measured"))
    stats = engine.stats.views
    assert stats.evictions == 0 and stats.misses == N_VIEWS
    per_run = {name: state.nbytes for name, state in engine.decoded_states().items()}
    assert (sum(per_run.values()), stats.bytes - sum(per_run.values())) == decoded_state_bytes(engine)
    for run in ("disk", "reopened"):
        engine.detach(run)
    return stats.bytes - sum(per_run.values()), per_run


@pytest.mark.parametrize("resident", [1, 2, 8, N_VIEWS])
def test_cycling_views_answers_like_the_oracle_and_labels_once(
    churn, measured, tmp_path, resident, decoded_state_bytes
):
    cases = churn[3]
    static, per_run = measured
    # Room for the static parts and the `resident` largest per-run states,
    # hence for any `resident` of them — and, below ten, never for all.
    budget = static + sum(sorted(per_run.values())[-resident:])
    engine = QueryEngine(churn[1], state_budget_bytes=budget)
    resident_views: list[str] = []  # least recently used first

    def after_each(case):
        name = case.view.name
        others = [view for view in resident_views if view != name]
        held = list(engine.decoded_states())
        stats = engine.stats.views
        # Within budget after every batch, and the running sums are exact.
        assert stats.bytes <= stats.max_bytes == budget
        assert sum(decoded_state_bytes(engine)) == stats.bytes
        # The least recently used of the others went, the view in use stayed ...
        evicted = others[: len(others) + 1 - len(held)]
        assert held == others[len(evicted) :] + [name]
        # ... and the last one had to go: with it the total exceeded the budget.
        if evicted:
            assert stats.bytes + per_run[evicted[-1]] > budget
        resident_views[:] = held

    _cycle_all(engine, churn, tmp_path, after_each)

    stats = engine.stats
    lookups = CYCLES * N_VIEWS * 3 * 2
    assert stats.views.hits + stats.views.misses == lookups
    assert stats.views.evictions == stats.views.misses - len(engine.decoded_states())
    if resident < N_VIEWS:
        # Ten views through room for fewer: the first lookup of every view
        # in every cycle finds its state evicted.
        assert stats.views.misses >= CYCLES * N_VIEWS
    else:
        assert (stats.views.misses, stats.views.evictions) == (N_VIEWS, 0)
    assert stats.labels_built == N_VIEWS
    snapshot = engine.metrics.snapshot()
    assert snapshot["engine_view_labels_total"] == {(): N_VIEWS}
    assert snapshot["engine_view_label_seconds"][()]["count"] == N_VIEWS
    for run in ("disk", "reopened"):
        engine.detach(run)


def test_rebuilt_state_shares_the_static_part(churn, state_budget_for):
    _, scheme, derivation, cases, _ = churn
    first, second = cases[0], cases[1]
    frames = [(first.pairs, first.view), (second.pairs, second.view)]
    engine = QueryEngine(scheme, state_budget_bytes=state_budget_for(scheme, derivation, frames, 1))
    engine.add_run(DEFAULT_RUN, derivation)
    engine.depends_batch(first.pairs, first.view)
    state = engine.decoded_state(first.view)
    static = state.static
    memo_entries = len(static)
    assert memo_entries > 0
    engine.depends_batch(second.pairs, second.view)  # evicts
    rebuilt = engine.decoded_state(first.view)
    assert rebuilt is not state
    assert rebuilt.static is static and rebuilt.label is state.label
    assert not rebuilt.arenas()  # the per-run half starts over
    assert engine.depends_batch(first.pairs, first.view).tolist() == first.depends
    assert len(static) == memo_entries  # the same queries add nothing


# -- (c) the memo budget -------------------------------------------------------------


def test_decode_budget_holds_across_rebuilds_and_deep_recursion(decoded_state_bytes):
    """A state that alone exceeds the budget: right answers, what fits, never more."""
    spec = build_running_example()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 600, seed=2)  # one recursion chain > 20 deep
    labeler = scheme.label_run(derivation)
    views = [default_view(spec), random_view(spec, 3, seed=1, mode="grey", name="other")]
    rounds = []
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
            rounds.append((view, pairs, expected))

    # The dry run: everything the eight batches want to keep, under the default budget.
    roomy = QueryEngine(scheme)
    roomy.add_run(DEFAULT_RUN, derivation)
    for view, pairs, expected in rounds:
        assert roomy.depends_batch(pairs, view).tolist() == expected
    wanted = {view: state.nbytes for view, state in roomy.decoded_states().items()}
    static = roomy.stats.views.bytes - sum(wanted.values())
    assert roomy.stats.views.evictions == 0

    # Room for every static byte and for a quarter of the smaller per-run state.
    # (The dry run's static bytes overstate what this engine holds: its banks
    # doubled their stacks for boundary chain products this budget keeps out.)
    budget = static + min(wanted.values()) // 4
    engine = QueryEngine(scheme, state_budget_bytes=budget)
    engine.add_run(DEFAULT_RUN, derivation)
    for view, pairs, expected in rounds:
        # A saturated budget only stops storing; answers stay correct.
        assert engine.depends_batch(pairs, view).tolist() == expected
        stats = engine.stats.views
        assert stats.bytes <= stats.max_bytes == budget
        assert sum(decoded_state_bytes(engine)) == stats.bytes
        # The state in use stored what fitted and was not evicted by its own growth.
        state = engine.decoded_states()[view.name]
        assert 0 < state.nbytes < wanted[view.name]
        assert state.arenas() == [0]
    assert engine.stats.views.evictions >= 7 and engine.stats.labels_built == 2


def test_a_one_byte_budget_stores_nothing_and_answers_the_same(decoded_state_bytes):
    """Never-repeated pairs over ever deeper recursion: resident bytes stay flat."""
    spec = build_running_example()
    scheme = FVLScheme(spec)
    view = default_view(spec)
    fresh = scheme.label_view(view)
    engine = QueryEngine(scheme, state_budget_bytes=1)
    rng = random.Random(5)
    resident = []
    for index, size in enumerate((100, 300, 600, 900)):  # deeper chains every time
        derivation = random_run(spec, size, seed=2)
        labeler = engine.add_run(f"run-{index}", derivation)
        uids = sorted(ViewProjection(derivation.run, view).visible_items)
        for _ in range(3):
            pairs = [(rng.choice(uids), rng.choice(uids)) for _ in range(150)]
            expected = [
                scheme.depends(labeler.label(d1), labeler.label(d2), fresh) for d1, d2 in pairs
            ]
            assert engine.depends_batch(pairs, view, run=f"run-{index}").tolist() == expected
            engine.is_visible_batch(uids[:50], view, run=f"run-{index}")
            per_run, static = decoded_state_bytes(engine)
            # Nothing a query can grow is kept: no row, fold, flag or chain product ...
            assert per_run == 0 and engine.stats.views.bytes == static
            label = engine.decoded_state(view).label
            resident.append((static - label.nbytes, label.nbytes))
    # ... so what is resident is the grammar-bounded static part: the bank and
    # memos flat once met, the label at most its closures and every function
    # copied out of them (the reference decoder reads a function on first need).
    for k in fresh.retained_productions:
        fresh.production_matrices(k)
    assert len({bank for bank, _ in resident[3:]}) == 1 and engine.stats.views.evictions == 0
    assert max(label for _, label in resident) <= fresh.nbytes


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
            engine.is_visible_batch([1], view)
    assert engine._statics == {}
    assert engine.stats.labels_built == 0
    assert not engine.decoded_states() and engine.stats.views.bytes == 0


def test_identical_reregistration_reuses_the_label_and_a_clash_is_rejected(churn, state_budget_for):
    spec, scheme, derivation, cases, _ = churn
    frames = [(case.pairs, case.view) for case in cases[:2]]
    engine = QueryEngine(scheme, state_budget_bytes=state_budget_for(scheme, derivation, frames, 1))
    engine.add_run(DEFAULT_RUN, derivation)
    case = cases[0]
    assert engine.depends_batch(case.pairs, case.view).tolist() == case.depends
    label = engine.decoded_state(case.view).label
    rebuilt = WorkflowView(
        case.view.visible_composites, case.view.dependencies, name=case.view.name
    )
    engine.depends_batch(cases[1].pairs, cases[1].view)  # evict, then come back
    assert engine.depends_batch(case.pairs, rebuilt).tolist() == case.depends
    assert engine.decoded_state(rebuilt).label is label
    assert engine.stats.labels_built == 2
    clash = random_view(spec, 4, seed=999, mode="black", name=case.view.name)
    with pytest.raises(ViewError, match="already registered"):
        engine.depends_batch(case.pairs, clash)
    assert engine.decoded_state(case.view.name).label is label


# -- (e) run churn --------------------------------------------------------------------------


def test_attach_detach_churn_leaves_the_static_part_alone(churn, decoded_state_bytes):
    _, scheme, _, cases, whole = churn
    engine = QueryEngine(scheme)
    case = cases[2]
    engine.add_view(case.view)
    sizes = set()
    resident = set()
    for index in range(50):
        run = f"run-{index}"
        engine.attach(whole, run)
        _ask_all(engine, case, run)
        state = engine.decoded_state(case.view)
        arena = engine.shard_arena(run)
        assert state.arenas() == [arena] and any(state.rows(arena))
        assert arena in state.visibility_flags
        assert state.nbytes > 0
        engine.detach(run)
        # The per-run half is empty again, and gave every byte back ...
        assert not state.arenas() and not state.pair_tables
        assert not state.visibility_flags
        assert state.nbytes == 0
        resident.add(engine.stats.views.bytes)
        assert decoded_state_bytes(engine) == (0, engine.stats.views.bytes)
        # ... and the static half did not grow: its keys (production numbers,
        # bank keys) have no arena field to learn a new one through.
        sizes.add(len(state.static))
    assert len(sizes) == 1 and sizes.pop() > 0
    assert len(resident) == 1  # fifty cycles on, exactly where the first one ended
    assert engine.stats.labels_built == 1 and engine.stats.views.misses == 1


def test_state_bytes_gauge_equals_a_walk_of_the_arrays(churn, measured, decoded_state_bytes):
    """Whatever batches, attaches and detaches came before, and under eviction."""
    _, scheme, derivation, cases, whole = churn
    static, per_run = measured
    engine = QueryEngine(scheme, state_budget_bytes=static + max(per_run.values()))
    engine.add_run("live", derivation)
    rng = random.Random(11)
    attached: list[str] = []
    grew = set()
    for step in range(120):
        action = rng.choice(("depends", "depends", "visible", "attach", "detach"))
        case = rng.choice(cases)
        run = rng.choice(attached + ["live"])
        if action == "attach" and len(attached) < 3:
            attached.append(f"disk-{step}")
            engine.attach(whole, attached[-1])
        elif action == "detach" and attached:
            engine.detach(attached.pop(rng.randrange(len(attached))))
        elif action == "visible":
            engine.is_visible_batch(case.uids, case.view, run=run)
        else:
            lo = rng.randrange(1000)
            assert (
                engine.depends_batch(case.pairs[lo : lo + 100], case.view, run=run).tolist()
                == case.depends[lo : lo + 100]
            )
        gauge = engine.metrics.snapshot()["engine_decoded_state_bytes"]
        walked = decoded_state_bytes(engine)
        assert (gauge[("per_run",)], gauge[("static",)]) == walked
        assert engine.stats.views.bytes == sum(walked)
        grew.add(walked)
    assert len(grew) > 20 and engine.stats.views.evictions > 0
    assert 'engine_decoded_state_bytes{part="static"}' in engine.metrics.exposition()
    for run in attached:
        engine.detach(run)


# -- (f) racing first queries ----------------------------------------------------------------


def test_threads_missing_on_one_unseen_view_intern_one_label(
    churn, decoded_state_bytes, state_budget_for
):
    _, scheme, derivation, cases, _ = churn
    case = cases[4]
    trio = cases[5:8]
    # Four views in all; the churners' three meet a budget with room for two.
    frames = [(case.pairs[:200], case.view)] + [(c.pairs[:150], c.view) for c in trio]
    engine = QueryEngine(scheme, state_budget_bytes=state_budget_for(scheme, derivation, frames, 2))
    engine.add_run(DEFAULT_RUN, derivation)
    engine.add_view(case.view)
    n_threads = 8  # more than the cores of any CI host this runs on
    barrier = threading.Barrier(n_threads)

    def herd(_):
        barrier.wait(timeout=60)
        answers = engine.depends_batch(case.pairs[:200], case.view.name)
        return answers.tolist() == case.depends[:200], engine.decoded_state(case.view.name).static

    def churner(thread_id):
        chosen = trio[thread_id % 3]
        return engine.depends_batch(chosen.pairs[:150], chosen.view).tolist() == chosen.depends[:150]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleavings inside the label/intern window
    try:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            outcomes = list(pool.map(herd, range(n_threads), timeout=120))
            assert all(ok for ok, _ in outcomes)
            # A lost interning would hand some thread a second label object.
            assert len({id(static) for _, static in outcomes}) == 1
            assert engine.stats.labels_built == 1
            # And with eviction churn underneath: 8 threads, 3 views, room for 2.
            assert all(pool.map(churner, range(32), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert engine.stats.labels_built == 4
    assert engine.stats.views.evictions > 0
    # A lost update to a running byte sum would leave it off the arrays for good.
    assert sum(decoded_state_bytes(engine)) == engine.stats.views.bytes


# -- a traced frame shows when it paid for labelling -------------------------------------------


def test_label_view_span_appears_once_per_view(churn, state_budget_for):
    from repro.obs.trace import Trace, activate

    _, scheme, derivation, cases, _ = churn
    frames = [(case.pairs[:100], case.view) for case in cases[:2]]
    engine = QueryEngine(scheme, state_budget_bytes=state_budget_for(scheme, derivation, frames, 1))
    engine.add_run(DEFAULT_RUN, derivation)
    traces = []
    for case in (cases[0], cases[1], cases[0]):  # the third frame rebuilds an evicted state
        trace = Trace(len(traces) + 1)
        with activate(trace):
            engine.depends_batch(case.pairs[:100], case.view)
        traces.append([(span.name, span.attrs) for span in trace.spans])
    for spans, case in zip(traces[:2], cases[:2]):
        assert ("engine.label_view", {"view": case.view.name}) in spans
    assert "engine.label_view" not in [name for name, _ in traces[2]]
    assert "engine.depends_batch" in [name for name, _ in traces[2]]
    assert engine.stats.views.misses == 3 and engine.stats.labels_built == 2
