"""The columnar decode path against the reference decoder.

``repro.engine.kernel.decide_many`` is Algorithm 2 over trie columns and
stacked float32 matrices; ``repro.core.decoder.intermediate_matrix`` is the
paper's definition on edge-label tuples and ``BoolMatrix``.  The contract is
*a bit-identical answer or the reference's typed error*:

(1) differential — every matrix the kernel builds is the reference's, every
    ``VERDICT_FALSE`` a key the reference finds no dependency for (its
    ``None`` or an all-false matrix), every ``VERDICT_TRUE`` one whose
    reference matrix is all-true, every key it declines one the reference
    raises for, and ``depends_batch`` equals the per-pair
    ``FVLScheme.depends`` outcome, error type and message included — over
    the synthetic family (mid-cycle dropped productions included), BioAID,
    the nested chain and a deep recursion; all three variants; grey, white
    and black-box views; live, sealed, mapped, multi-segment and sparse
    stores;
(2) a warm batch executes no per-key Python;
(3) the state budget bounds the pair tables and the bank's chain products
    together, in bytes, across LRU rebuilds;
(4) a ``parent`` column that breaks the id order ends in a typed error;
(5) racing first queries on one unseen view over two arenas agree;
(6) entry reads are bounds-checked.
"""

from __future__ import annotations

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.decoder as decoder
from repro import FVLScheme, FVLVariant, QueryEngine
from repro.analysis import RunReachabilityOracle
from repro.engine import DEFAULT_RUN
from repro.engine.cache import DecodedViewState, StaticViewState
from repro.engine.kernel import REFERENCE, MatrixBank, decide_many
from repro.errors import DecodingError
from repro.model import default_view
from repro.model.projection import ViewProjection
from repro.store import LabelStore, checkpoint_run
from repro.workloads import (
    build_bioaid_specification,
    build_nested_chain_specification,
    build_running_example,
    build_synthetic_specification,
    random_run,
    random_view,
)

STORES = ("live", "sealed", "mapped", "segmented", "sparse")


def _engine_over(scheme, derivation, labeler, store, run_file) -> QueryEngine:
    """An engine serving ``derivation`` from a store in the named state."""
    engine = QueryEngine(scheme)
    if store in ("live", "sealed"):
        own = engine.add_run(DEFAULT_RUN, derivation)
        if store == "sealed":
            own.store.compact()
    elif store == "mapped":
        checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
        engine.attach(run_file)
    elif store == "segmented":
        writer = scheme.run_labeler()
        events = derivation.events
        step = max(1, len(events) // 3)
        for lo in range(0, len(events), step):
            for event in events[lo : lo + step]:
                writer(event)
            checkpoint_run(run_file, writer.store, writer.tree.nodes)
        engine.attach(run_file)
    else:
        shuffled = LabelStore(labeler.store.table)
        uids = list(labeler.store.uids())
        random.Random(5).shuffle(uids)
        for uid in uids:
            shuffled.append(uid, *labeler.store.row(uid))
        checkpoint_run(run_file, shuffled, labeler.tree.nodes)
        assert not engine.attach(run_file).store.is_dense
    return engine


# -- (1) differential -------------------------------------------------------------------


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec_seed=st.integers(min_value=0, max_value=50),
    nesting_depth=st.integers(min_value=1, max_value=3),
    recursion_length=st.integers(min_value=1, max_value=3),
    run_seed=st.integers(min_value=0, max_value=10_000),
    target_items=st.integers(min_value=40, max_value=260),
    n_expand=st.integers(min_value=1, max_value=6),
    mode=st.sampled_from(["grey", "white", "black"]),
    variant=st.sampled_from(list(FVLVariant)),
    store=st.sampled_from(STORES),
)
def test_synthetic_family_matches_the_reference(
    tmp_path_factory,
    kernel_vs_reference,
    spec_seed,
    nesting_depth,
    recursion_length,
    run_seed,
    target_items,
    n_expand,
    mode,
    variant,
    store,
):
    # Cycles of length 1..3 nested 1..3 deep; a random derivable-closed view
    # routinely keeps C{d}_1 and drops C{d}_2 — a production dropped in the
    # middle of a cycle — so chain products defined up to some count and not
    # beyond are the common case (tests/core/test_visibility_fold.py).
    spec = build_synthetic_specification(
        workflow_size=4,
        module_degree=2,
        nesting_depth=nesting_depth,
        recursion_length=recursion_length,
        seed=spec_seed,
    )
    scheme = FVLScheme(spec)
    derivation = random_run(spec, target_items, seed=run_seed)
    labeler = scheme.label_run(derivation)
    view = random_view(spec, n_expand, seed=run_seed, mode=mode, name="kernel")
    run_file = tmp_path_factory.mktemp("kernel") / "run.fvl"
    engine = _engine_over(scheme, derivation, labeler, store, run_file)
    try:
        kernel_vs_reference(
            engine, scheme, labeler, view, variant, random.Random(run_seed), n_pairs=60
        )
    finally:
        engine.detach(DEFAULT_RUN)


@pytest.mark.parametrize("variant", list(FVLVariant))
@pytest.mark.parametrize("mode", ["grey", "black"])
@pytest.mark.parametrize(
    "workload", ["bioaid", "chain"], ids=["bioaid", "nested-chain"]
)
def test_bioaid_and_nested_chain_match_the_reference(
    tmp_path, kernel_vs_reference, workload, mode, variant
):
    if workload == "bioaid":
        spec = build_bioaid_specification()
        derivation = random_run(spec, 400, seed=11)
    else:
        spec = build_nested_chain_specification(6, 8, 3)
        derivation = random_run(spec, 1 << 30, seed=0)
    scheme = FVLScheme(spec)
    labeler = scheme.label_run(derivation)
    view = random_view(spec, 5, seed=21, mode=mode, name=f"{workload}-{mode}")
    decided = declined = 0
    for store in ("mapped", "live"):
        engine = _engine_over(scheme, derivation, labeler, store, tmp_path / f"{store}.fvl")
        try:
            counts = kernel_vs_reference(
                engine, scheme, labeler, view, variant, random.Random(3), n_pairs=150
            )
        finally:
            engine.detach(DEFAULT_RUN)
        decided, declined = decided + counts[0], declined + counts[1]
    assert decided > 0


@pytest.mark.parametrize("variant", list(FVLVariant))
def test_deep_recursion_beyond_a_cycle_turn_and_the_power_table_tail(kernel_vs_reference, variant):
    """Child indices far past one turn of the cycle and past every stored power."""
    spec = build_running_example()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 600, seed=2)  # one recursion chain > 20 deep
    labeler = scheme.label_run(derivation)
    _, packed, child = labeler.store.table.raw_columns()
    deepest = max(int(i) for word, i in zip(packed, child) if word >= 0 and word & 1)
    index = scheme.index
    longest_cycle = max(index.cycle_length(s) for s in range(1, index.n_cycles + 1))
    assert deepest > 20 and deepest > 4 * longest_cycle
    view = default_view(spec)
    if variant is FVLVariant.QUERY_EFFICIENT:
        label = scheme.label_view(view, variant)
        assert label._power_tables
        assert deepest // longest_cycle > max(
            table.stored_powers for table in label._power_tables.values()
        )
    engine = QueryEngine(scheme)
    engine.add_run(DEFAULT_RUN, derivation)
    decided, declined = kernel_vs_reference(
        engine, scheme, labeler, view, variant, random.Random(0), n_pairs=300
    )
    # The default view drops nothing: every key is a clean case.
    assert decided > 0 and declined == 0
    bank = engine.decoded_state(view, variant).static.bank
    assert bank.chain_codes > longest_cycle  # chains really ran past one turn


# -- (2) a warm batch executes no per-key Python -------------------------------------------


def test_warm_batch_calls_neither_the_classifier_nor_the_decoder(tmp_path, monkeypatch):
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 400, seed=11)
    labeler = scheme.label_run(derivation)
    view = random_view(spec, 6, seed=8, mode="grey", name="warm")
    visible = sorted(ViewProjection(derivation.run, view).visible_items)
    rng = random.Random(1)
    # Every boundary case rides along: initial inputs have no producer path,
    # final outputs no consumer path (decoder Cases I-IV).
    row = labeler.store.row
    initial = [uid for uid in visible if row(uid)[0] < 0]
    final = [uid for uid in visible if row(uid)[2] < 0]
    assert initial and final
    ends = initial + final
    pairs = np.asarray(
        [(rng.choice(visible), rng.choice(visible)) for _ in range(600)]
        + [(rng.choice(ends), rng.choice(visible)) for _ in range(60)]
        + [(rng.choice(visible), rng.choice(ends)) for _ in range(60)]
        + [(a, b) for a in initial[:4] for b in final[:4]],
        dtype=np.int64,
    )
    run_file = tmp_path / "warm.fvl"
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    engine = QueryEngine(scheme)
    engine.attach(run_file)

    before = engine.stats
    first = engine.depends_batch(pairs, view)
    cold = engine.stats
    deltas = (
        cold.structural_pairs - before.structural_pairs,
        cold.matrix_pairs - before.matrix_pairs,
    )
    assert min(deltas) > 0  # both kinds of row are in play
    store = engine.mapped_store().store
    labels = [(labeler.label(d1), labeler.label(d2)) for d1, d2 in pairs.tolist()]
    assert first == [scheme.depends(a, b, scheme.label_view(view)) for a, b in labels]

    def forbidden(*args, **kwargs):
        raise AssertionError("per-key or per-pair Python on a warm batch")

    monkeypatch.setattr(MatrixBank, "_code", forbidden)
    monkeypatch.setattr(decoder, "_intermediate_matrix", forbidden)
    monkeypatch.setattr(decoder, "_chain_over", forbidden)
    monkeypatch.setattr(DecodedViewState, "depends", forbidden)
    monkeypatch.setattr(type(store), "label", forbidden)
    assert engine.depends_batch(pairs, view) == first
    assert engine.depends_batch(pairs.tolist(), view) == first
    warm = engine.stats
    assert (
        warm.structural_pairs - cold.structural_pairs,
        warm.matrix_pairs - cold.matrix_pairs,
    ) == (2 * deltas[0], 2 * deltas[1])
    # Hit or miss, the two counters add up to the interior pairs asked.
    interior = sum(
        1 for d1, d2 in pairs.tolist() if min(store.row(d1) + store.row(d2)) >= 0
    )
    assert sum(deltas) == interior
    engine.detach(DEFAULT_RUN)


# -- (3) the byte budget ------------------------------------------------------------------


def test_budget_bounds_pair_tables_and_chain_products_across_rebuilds(tmp_path, decoded_state_bytes):
    spec = build_running_example()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 600, seed=2)  # one recursion chain > 20 deep
    labeler = scheme.label_run(derivation)
    run_file = tmp_path / "budget.fvl"
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    views = [default_view(spec), random_view(spec, 3, seed=1, mode="grey", name="other")]
    rounds = []
    rng = random.Random(0)
    for index in range(8):
        view = views[index % 2]
        uids = sorted(ViewProjection(derivation.run, view).visible_items)
        pairs = [(rng.choice(uids), rng.choice(uids)) for _ in range(150)]
        fresh = scheme.label_view(view)
        expected = [
            scheme.depends(labeler.label(d1), labeler.label(d2), fresh) for d1, d2 in pairs
        ]
        rounds.append((view, pairs, expected, ("live", "disk")[index // 2 % 2]))

    def engine_with(**budget):
        engine = QueryEngine(scheme, **budget)
        engine.add_run("live", derivation)
        engine.attach(run_file, "disk")
        return engine

    # The dry runs: what two freshly labelled views weigh before any batch, and
    # what the rounds want to keep when everything fits.
    roomy = engine_with()
    for view in views:
        roomy.decoded_state(view)
    labelled = roomy.stats.views.bytes
    for view, pairs, expected, run in rounds:
        assert roomy.depends_batch(pairs, view, run=run) == expected
    wanted = {name: state for (name, _), state in roomy.decoded_states().items()}
    per_run = min(state.nbytes for state in wanted.values())
    static = roomy.stats.views.bytes - sum(state.nbytes for state in wanted.values())
    wanted_chains = sum(state.static.bank.chain_codes for state in wanted.values())
    wanted_rows = {
        name: sum(len(state.decode_cache.table(arena)) for arena in (0, 1))
        for name, state in wanted.items()
    }
    assert wanted_chains > 40
    roomy.detach("disk")

    # A twentieth of the smaller per-run state — a few rows — on top of (a) every static byte wanted, (b) the static parts as
    # they start out, with no room to double a bank for chain products.
    for budget in (static + per_run // 20, labelled + per_run // 20):
        engine = engine_with(state_budget_bytes=budget)
        for view, pairs, expected, run in rounds:
            held = engine.decoded_states().get((view.name, "default"))
            before = held.nbytes if held is not None else 0
            # A saturated budget only stops storing; answers stay correct.
            assert engine.depends_batch(pairs, view, run=run) == expected
            stats = engine.stats.views
            now = decoded_state_bytes(engine)
            assert sum(now) == stats.bytes and stats.max_bytes == budget
            # Over budget only by what the grammar bounds, never by what a query grows.
            assert stats.bytes <= max(budget, now[1] + before)
            state = engine.decoded_states()[(view.name, "default")]  # not evicted by its own growth
            tables = [state.decode_cache.table(arena) for arena in (0, 1)]
            assert state.decode_cache.nbytes == sum(table.nbytes for table in tables) == state.nbytes
            assert sum(len(table) for table in tables) < wanted_rows[view.name]
        chains = sum(part.bank.chain_codes for part in engine._statics.values())
        if budget >= static:
            # (a) the static parts fit whole, so the budget itself held and rows got the rest.
            assert engine.stats.views.bytes <= budget and chains == wanted_chains
            assert any(len(state.decode_cache.table(arena)) for arena in (0, 1))
        else:
            # (b) chain products stopped where the bytes ran out.
            assert 0 < chains < wanted_chains
        assert engine.stats.views.evictions >= 7 and engine.stats.labels_built == 2
        engine.detach("disk")


# -- (4) hostile columns ------------------------------------------------------------------


@pytest.mark.parametrize(
    "parent",
    [
        [-1, 0, 1, 3, 2],  # path 3 is its own parent
        [-1, 0, 4, 1, 2],  # 2 -> 4 -> 2: a cycle
        [-1, 0, 1, -1, 2],  # a second root below the root
    ],
    ids=["self-parent", "cycle", "orphan"],
)
def test_a_parent_column_out_of_id_order_is_a_typed_error(parent):
    spec = build_running_example()
    scheme = FVLScheme(spec)
    state = DecodedViewState(StaticViewState(scheme.label_view(default_view(spec))))
    parent = np.asarray(parent, dtype=np.int64)
    packed = np.asarray([-1] + [1 << 1 | (i + 1) << 17 for i in range(4)], dtype=np.int64)
    trie = (parent, packed, np.zeros(5, dtype=np.int64))
    every = np.arange(5, dtype=np.int64)
    path1, path2 = np.repeat(every, 5), np.tile(every, 5)
    with pytest.raises(DecodingError, match="malformed path trie"):
        decide_many(trie, state.static.bank, state, path1, path2)
    # Ids beyond the columns are not the kernel's to judge.
    outcome, _, _ = decide_many(
        trie, state.static.bank, state, np.asarray([7]), np.asarray([1])
    )
    assert outcome.tolist() == [REFERENCE]


# -- (5) racing first queries on one unseen view, two arenas --------------------------------


def test_threads_racing_on_an_unseen_view_over_two_arenas_agree(tmp_path):
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 500, seed=17)
    labeler = scheme.label_run(derivation)
    view = random_view(spec, 6, seed=304, mode="grey", name="raced")
    oracle = RunReachabilityOracle(derivation.run, view, spec)
    rng = random.Random(4)
    visible = sorted(oracle.projection.visible_items)
    sources = rng.sample(visible, 12)
    pairs = [(rng.choice(sources), rng.choice(visible)) for _ in range(400)]
    expected = [oracle.depends(d1, d2) for d1, d2 in pairs]
    run_file = tmp_path / "raced.fvl"
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)

    engine = QueryEngine(scheme)
    engine.add_run("live", derivation)
    engine.attach(run_file, "disk")
    engine.add_view(view)
    n_threads = 8  # more than the cores of any CI host this runs on
    barrier = threading.Barrier(n_threads)

    def herd(thread_id):
        run = ("live", "disk")[thread_id % 2]
        barrier.wait(timeout=60)
        answers = engine.depends_batch(pairs, view.name, run=run)
        return answers == expected, engine.decoded_state(view.name).static

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleavings inside resolve/admit
    try:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            outcomes = list(pool.map(herd, range(n_threads), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(ok for ok, _ in outcomes)
    assert len({id(static) for _, static in outcomes}) == 1 and engine.stats.labels_built == 1

    # The bank is consistent: every code's matrix is what the view's accessors
    # say — a fresh engine, asked calmly, resolves the same keys to the same
    # matrices — and no matrix was appended twice.
    state = engine.decoded_state(view.name)
    bank = state.static.bank
    codes = bank._codes
    held = sorted(code for code in codes.values() if code > 0)
    assert held == list(range(1, len(bank)))
    calm = QueryEngine(scheme)
    calm.add_run("live", derivation)
    calm.attach(run_file, "disk")
    for run in ("live", "disk"):
        assert calm.depends_batch(pairs, view, run=run) == expected
    calm_bank = calm.decoded_state(view).static.bank
    assert sorted(calm_bank._codes) == sorted(codes)
    for key, code in codes.items():
        calm_code = calm_bank._codes[key]
        assert (code < 0) == (calm_code < 0), key
        if code >= 0:
            assert np.array_equal(bank.matrices[code], calm_bank.matrices[calm_code]), key
            assert bank.shapes[code].tolist() == calm_bank.shapes[calm_code].tolist(), key
    # Both arenas hold the same decisions, each under its own ids.
    cache = state.decode_cache
    live_arena, disk_arena = engine.shard_arena("live"), engine.shard_arena("disk")
    assert sorted(cache.arenas()) == sorted((live_arena, disk_arena))
    assert len(cache.table(live_arena)) == len(cache.table(disk_arena)) > 0


# -- (6) entry reads are bounds-checked --------------------------------------------------------


def _interior_pair_through_a_matrix(engine, derivation, view):
    """A visible pair answered from a decoded matrix, and its matrix shape."""
    visible = sorted(ViewProjection(derivation.run, view).visible_items)
    store = engine.run_labeler().store
    rng = random.Random(2)
    for _ in range(2000):
        d1, d2 = rng.choice(visible), rng.choice(visible)
        if min(store.row(d1) + store.row(d2)) < 0:
            continue
        engine.depends_batch([(d1, d2)], view)
        cache = engine.decoded_state(view).decode_cache
        for id1, id2, matrix, _ in cache.rows(0):
            if matrix is not None and (id1, id2) == (store.row(d1)[0], store.row(d2)[2]):
                return d1, d2, matrix.shape
    raise AssertionError("no pair of the workload reads a matrix entry")


@pytest.mark.parametrize("bad_port", ["zero", "beyond"])
def test_a_port_outside_its_matrix_is_a_decoding_error(bad_port):
    """Port 0 used to wrap to the last row; a port past the arity raised IndexError."""
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 300, seed=7)
    view = random_view(spec, 6, seed=8, mode="grey", name="ports")
    engine = QueryEngine(scheme)
    labeler = engine.add_run(DEFAULT_RUN, derivation)
    d1, d2, (rows, cols) = _interior_pair_through_a_matrix(engine, derivation, view)
    want = engine.depends_batch([(d1, d2)], view)

    # A live store whose row carries a port its module does not have.
    store = labeler.store
    producer_path, _, consumer_path, consumer_port = store.row(d1)
    forged = max(store.uids()) + 1
    store.append(forged, producer_path, 0 if bad_port == "zero" else rows + 1, consumer_path, consumer_port)
    with pytest.raises(DecodingError, match=rf"pair \({forged}, {d2}\).*{rows}x{cols}"):
        engine.depends_batch([(d1, d2), (forged, d2)], view)
    assert engine.depends_batch([(d1, d2)], view) == want  # the table is unharmed
