"""Unit tests for the batched provenance query engine.

Covers cache hit/miss accounting, LRU eviction, multi-run sharding,
concurrent access, and the error paths (unknown run id, unknown view,
unsafe view) — all raising the existing :mod:`repro.errors` types.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import FVLScheme, FVLVariant, QueryEngine
from repro.engine import DEFAULT_RUN, DependsQuery
from repro.errors import (
    DecodingError,
    LabelingError,
    UnsafeWorkflowError,
    ViewError,
)
from repro.model import WorkflowSpecification, default_view
from repro.model.projection import ViewProjection
from repro.workloads import (
    build_running_example,
    build_unsafe_example,
    random_run,
    random_view,
    running_example_views,
)

SPEC = build_running_example()
SCHEME = FVLScheme(SPEC)
VIEWS = running_example_views(SPEC)


def _visible_pairs(derivation, view, n=40, seed=0):
    visible = sorted(ViewProjection(derivation.run, view).visible_items)
    rng = random.Random(seed)
    return [(rng.choice(visible), rng.choice(visible)) for _ in range(n)]


def _expected(derivation, labeler, pairs, view, variant=FVLVariant.DEFAULT):
    view_label = SCHEME.label_view(view, variant)
    return [
        SCHEME.depends(labeler.label(d1), labeler.label(d2), view_label)
        for d1, d2 in pairs
    ]


@pytest.fixture()
def derivation():
    return random_run(SPEC, 120, seed=3)


@pytest.fixture()
def engine(derivation):
    engine = QueryEngine(SCHEME)
    engine.add_run(DEFAULT_RUN, derivation)
    return engine


# -- correctness of the batched paths ------------------------------------------------


@pytest.mark.parametrize("variant", list(FVLVariant))
def test_batch_matches_single_pair_api(engine, derivation, variant):
    labeler = engine.run_labeler()
    for view in VIEWS:
        pairs = _visible_pairs(derivation, view)
        assert engine.depends_batch(pairs, view, variant=variant) == _expected(
            derivation, labeler, pairs, view, variant
        )


def test_depends_single_wrapper(engine, derivation):
    view = VIEWS[0]
    (pair,) = _visible_pairs(derivation, view, n=1)
    assert engine.depends(*pair, view) == engine.depends_batch([pair], view)[0]


def test_views_resolvable_by_name(engine, derivation):
    view = VIEWS[0]
    engine.add_view(view)
    pairs = _visible_pairs(derivation, view)
    assert engine.depends_batch(pairs, view.name, run=DEFAULT_RUN) == engine.depends_batch(
        pairs, view
    )
    assert view.name in engine.view_names


# -- cache accounting and LRU eviction -------------------------------------------------


def test_cache_hit_miss_accounting(engine, derivation):
    view = VIEWS[0]
    pairs = _visible_pairs(derivation, view)
    assert engine.stats.views.hits == engine.stats.views.misses == 0
    engine.depends_batch(pairs, view)
    stats = engine.stats.views
    assert (stats.hits, stats.misses) == (0, 1)
    engine.depends_batch(pairs, view)
    stats = engine.stats.views
    assert (stats.hits, stats.misses) == (1, 1)
    engine.depends_batch(pairs, view, variant=FVLVariant.SPACE_EFFICIENT)
    stats = engine.stats.views
    assert (stats.hits, stats.misses) == (1, 2)
    assert 0 < stats.hit_rate < 1
    assert len(engine.decoded_states()) == 2 and 0 < stats.bytes < stats.max_bytes


def test_lru_eviction(derivation, state_budget_for):
    view_a, view_b = VIEWS[0], VIEWS[1]
    pairs_a = _visible_pairs(derivation, view_a)
    pairs_b = _visible_pairs(derivation, view_b)
    # Room for either view's decoded state, not for both.
    budget = state_budget_for(SCHEME, derivation, [(pairs_a, view_a), (pairs_b, view_b)], 1)
    engine = QueryEngine(SCHEME, state_budget_bytes=budget)
    engine.add_run(DEFAULT_RUN, derivation)
    engine.depends_batch(pairs_a, view_a)
    engine.depends_batch(pairs_b, view_b)  # evicts view_a's state
    stats = engine.stats.views
    assert stats.evictions == 1 and list(engine.decoded_states()) == [(view_b.name, "default")]
    assert stats.bytes <= stats.max_bytes == budget
    engine.depends_batch(pairs_a, view_a)  # rebuilt: a second miss, not a hit
    stats = engine.stats.views
    assert (stats.hits, stats.misses, stats.evictions) == (0, 3, 2)


def test_state_budget_must_be_positive():
    with pytest.raises(ValueError):
        QueryEngine(SCHEME, state_budget_bytes=0)


def test_a_state_over_budget_stores_what_fits(derivation, state_budget_for):
    view = VIEWS[1]
    pairs = _visible_pairs(derivation, view, n=80)
    roomy = QueryEngine(SCHEME)
    labeler = roomy.add_run(DEFAULT_RUN, derivation)
    expected = _expected(derivation, labeler, pairs, view)
    assert roomy.depends_batch(pairs, view) == expected
    wanted = roomy.decoded_state(view).nbytes
    # Room for half of what the one view wants to keep.
    budget = state_budget_for(SCHEME, derivation, [(pairs, view)], 0.5)
    bounded = QueryEngine(SCHEME, state_budget_bytes=budget)
    bounded.add_run(DEFAULT_RUN, derivation)
    for _ in range(3):
        # A saturated budget only stops storing; answers stay correct.
        assert bounded.depends_batch(pairs, view) == expected
        stats = bounded.stats.views
        assert stats.bytes <= stats.max_bytes == budget
        # The state took what fitted and is not evicted by its own growth.
        (state,) = bounded.decoded_states().values()
        assert 0 < state.nbytes <= wanted // 2
    assert stats.evictions == 0 and (stats.hits, stats.misses) == (2, 1)


# -- multi-run sharding ---------------------------------------------------------------


def test_depends_many_shards_across_runs(engine, derivation):
    other = random_run(SPEC, 150, seed=11)
    engine.add_run("other", other)
    view = VIEWS[1]
    pairs_a = _visible_pairs(derivation, view, seed=1)
    pairs_b = _visible_pairs(other, view, seed=2)
    queries = [DependsQuery(d1, d2, view, run=DEFAULT_RUN) for d1, d2 in pairs_a]
    queries += [DependsQuery(d1, d2, view, run="other") for d1, d2 in pairs_b]
    random.Random(0).shuffle(queries)
    answers = engine.depends_many(queries)
    for query, answer in zip(queries, answers):
        assert answer == engine.depends(query.d1, query.d2, view, run=query.run)
    stats = engine.stats
    assert set(stats.queries_by_run) == {DEFAULT_RUN, "other"}
    assert stats.queries_by_run["other"] >= len(pairs_b)


def test_depends_many_accepts_tuples(engine, derivation):
    view = VIEWS[0]
    pairs = _visible_pairs(derivation, view)
    as_tuples = engine.depends_many([(d1, d2, view) for d1, d2 in pairs])
    assert as_tuples == engine.depends_batch(pairs, view)


def test_run_ids_and_duplicate_run_rejected(engine, derivation):
    assert engine.run_ids == (DEFAULT_RUN,)
    with pytest.raises(LabelingError):
        engine.add_run(DEFAULT_RUN, random_run(SPEC, 60, seed=4))


# -- concurrent access ------------------------------------------------------------------


def test_concurrent_batches_agree_with_serial(derivation, state_budget_for):
    # A budget with room for two forces eviction churn while 8 threads hammer 3 views.
    labeler = SCHEME.label_run(derivation)
    workload = []
    for index, view in enumerate(VIEWS):
        pairs = _visible_pairs(derivation, view, n=30, seed=index)
        workload.append((view, pairs, _expected(derivation, labeler, pairs, view)))
    budget = state_budget_for(SCHEME, derivation, [(pairs, view) for view, pairs, _ in workload], 2)
    engine = QueryEngine(SCHEME, state_budget_bytes=budget)
    engine.add_run(DEFAULT_RUN, derivation)

    def worker(thread_id: int):
        view, pairs, expected = workload[thread_id % len(workload)]
        return engine.depends_batch(pairs, view) == expected

    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = list(pool.map(worker, range(24)))
    assert all(outcomes)
    stats = engine.stats
    assert stats.queries == 24 * 30 and stats.batches == 24


# -- error paths --------------------------------------------------------------------------


def test_unknown_run_id_raises(engine):
    with pytest.raises(LabelingError, match="no run 'missing'"):
        engine.depends_batch([(1, 2)], VIEWS[0], run="missing")


def test_unknown_view_name_raises(engine):
    with pytest.raises(ViewError, match="unknown view"):
        engine.depends_batch([(1, 2)], "not-registered")


def test_conflicting_view_name_raises(engine):
    engine.add_view(VIEWS[0])
    clone = random_view(SPEC, 2, seed=9, mode="grey", name=VIEWS[0].name)
    with pytest.raises(ViewError, match="already registered"):
        engine.add_view(clone)


def test_structurally_identical_view_reregisters_cleanly(engine, derivation):
    # Callers may rebuild their view object per request; same name + same
    # structure must keep working (and keep hitting the cached decode state).
    from repro.model import WorkflowView

    original = VIEWS[0]
    rebuilt = WorkflowView(
        original.visible_composites, original.dependencies, name=original.name
    )
    pairs = _visible_pairs(derivation, original)
    first = engine.depends_batch(pairs, original)
    assert engine.depends_batch(pairs, rebuilt) == first
    assert engine.stats.views.hits >= 1


def test_unsafe_view_raises():
    grammar, dependencies = build_unsafe_example()
    spec = WorkflowSpecification(grammar, dependencies)
    engine = QueryEngine(spec)
    from repro.model import Derivation

    engine.add_run(DEFAULT_RUN, Derivation(spec))
    with pytest.raises(UnsafeWorkflowError):
        engine.depends_batch([(1, 2)], default_view(spec))


def test_unknown_variant_raises(engine):
    with pytest.raises(DecodingError, match="unknown labeling variant"):
        engine.depends_batch([(1, 2)], VIEWS[0], variant="turbo")


def test_malformed_query_raises(engine):
    with pytest.raises(DecodingError, match="depends query"):
        engine.depends_many([(1, 2)])
