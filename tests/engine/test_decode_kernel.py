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
    the nested chain and a deep recursion; each of the three variants' labels
    as the reference to the engine's one; grey, white
    and black-box views; live, mapped and multi-segment stores;
(2) a warm batch executes no per-key Python;
(3) the state budget bounds the pair tables, in bytes, across LRU rebuilds;
    the bank's chain products are static, held whole whatever the budget;
(4) a ``parent`` column that breaks the id order ends in a typed error, and
    so does a key the kernel declines though the reference decides it;
(5) racing first queries on one unseen view over two arenas agree;
(6) entry reads are bounds-checked.
"""

from __future__ import annotations

import functools
import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.decoder as decoder
import repro.core.pair_table as pair_table
from repro import FVLScheme, FVLVariant, QueryEngine
from repro.analysis import RunReachabilityOracle
from repro.core.decoder import intermediate_matrix
from repro.core.labels import ProductionEdgeLabel, RecursionEdgeLabel
from repro.core.pair_table import ABSENT, pair_paths
from repro.engine import DEFAULT_RUN, evaluate, kernel
from repro.engine.cache import DecodedViewState, StaticViewState
from repro.engine.kernel import (
    MATRIX,
    REFERENCE,
    VERDICT_FALSE,
    VERDICT_TRUE,
    MatrixBank,
    decide_many,
)
from repro.errors import DecodingError, VisibilityError
from repro.matrices import BoolMatrix
from repro.model import (
    DependencyAssignment,
    Module,
    Production,
    WorkflowGrammar,
    WorkflowSpecification,
    default_view,
)
from repro.model.projection import ViewProjection
from repro.store import checkpoint_run
from repro.workloads import (
    build_bioaid_specification,
    build_nested_chain_specification,
    build_running_example,
    build_synthetic_specification,
    random_run,
    random_view,
)
from repro.workloads.builder import chain_workflow

pytestmark = pytest.mark.usefixtures("detach_engines")

STORES = ("live", "mapped", "segmented")


def _engine_over(scheme, derivation, labeler, store, run_file) -> QueryEngine:
    """An engine serving ``derivation`` from a store in the named state."""
    engine = QueryEngine(scheme)
    if store == "live":
        engine.add_run(DEFAULT_RUN, derivation)
    elif store == "mapped":
        checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
        engine.attach(run_file)
    else:
        writer = scheme.run_labeler()
        events = derivation.events
        step = max(1, len(events) // 3)
        for lo in range(0, len(events), step):
            for event in events[lo : lo + step]:
                writer(event)
            checkpoint_run(run_file, writer.store, writer.tree.nodes)
        engine.attach(run_file)
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
    # Keys past one turn of their cycle were kernel rows: every row of the
    # table is the kernel's, and some key's path takes a recursion edge deeper
    # than a turn.
    table = engine.decoded_state(view).table(engine.shard_arena())
    deep = {
        path
        for path, (word, i) in enumerate(zip(packed, child))
        if word >= 0 and word & 1 and i > longest_cycle + 1
    }

    def past_a_turn(path):
        while path > 0:
            if path in deep:
                return True
            path = labeler.store.table.parent(path)
        return False

    assert any(past_a_turn(path) for path in np.concatenate(pair_paths(table.keys)).tolist())


def _depth_first_run(spec, items, seed=1):
    """A run that always expands its newest instance: recursion chains ``items`` deep."""
    return random_run(spec, items, seed=seed, choose_pending=lambda rng, pending: max(pending))


@pytest.mark.parametrize("build", [build_running_example, build_bioaid_specification])
def test_chain_products_are_a_constant_of_the_grammar_whatever_the_depth(build, monkeypatch):
    """Lemma 5, engine side: a chain costs its tail and period, at 10^3 items as at 10^4."""
    spec = build()
    scheme = FVLScheme(spec)
    view = default_view(spec)
    view_label = scheme.label_view(view)
    referred = []
    original = evaluate._reference_matrix

    def counting(*args):
        referred.append(args[2:])
        return original(*args)

    monkeypatch.setattr(evaluate, "_reference_matrix", counting)
    held, depths = [], []
    for items in (1_000, 10_000):
        derivation = _depth_first_run(spec, items)
        labeler = scheme.label_run(derivation)
        _, packed, child = labeler.store.table.raw_columns()
        depths.append(max(i for word, i in zip(packed, child) if word >= 0 and word & 1))
        engine = QueryEngine(scheme)
        engine.add_run(DEFAULT_RUN, derivation)
        uids = sorted(ViewProjection(derivation.run, view).visible_items)
        rng = random.Random(items)
        pairs = [(rng.choice(uids), rng.choice(uids)) for _ in range(300)]
        expected = [
            scheme.depends(labeler.label(d1), labeler.label(d2), view_label) for d1, d2 in pairs
        ]
        assert engine.depends_batch(pairs, view).tolist() == expected
        assert referred == []  # the default view drops nothing: no key raises
        state = engine.decoded_state(view)
        bank = state.static.bank
        assert 0 < bank.chain_codes < sum(a + p for _, a, p in bank._chains.values())
        # Touch every chain of the grammar, at the run's deepest count.
        runs = [
            kernel._bank_key(family, s, t, 0)
            for family in (kernel._INPUTS + kernel._CHAIN, kernel._OUTPUTS + kernel._CHAIN)
            for s in range(1, len(bank.cycles))
            for t in range(1, len(bank.cycles[s]) + 1)
        ]
        bank.codes(np.asarray(runs), np.full(len(runs), depths[-1]), state)
        assert sorted(bank._chains) == sorted(runs)
        assert bank.chain_codes < sum(a + p for _, a, p in bank._chains.values())
        held.append((bank.chain_codes, {key: record[1:] for key, record in bank._chains.items()}))
    assert depths[1] > 5 * depths[0]
    assert held[0] == held[1]


_DEEP_WORKLOADS = {
    "running": build_running_example,
    "bioaid": build_bioaid_specification,
    "synthetic": lambda: build_synthetic_specification(
        workflow_size=4, module_degree=2, nesting_depth=2, recursion_length=3, seed=7
    ),
    "nested-chain": lambda: build_nested_chain_specification(6, 8, 3),
}


@functools.lru_cache(maxsize=None)
def _deep_scheme(workload):
    spec = _DEEP_WORKLOADS[workload]()
    return spec, FVLScheme(spec)


@pytest.mark.parametrize("workload", sorted(_DEEP_WORKLOADS))
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    items=st.integers(min_value=40, max_value=10_000),
    run_seed=st.integers(min_value=0, max_value=1_000),
    mode=st.sampled_from(["grey", "white", "black"]),
    store=st.sampled_from(["live", "mapped"]),
)
def test_only_keys_that_raise_reach_the_reference_decoder(
    tmp_path_factory, kernel_vs_reference, workload, items, run_seed, mode, store
):
    """Recursion up to 10^4 deep, any view: the kernel decides every key the reference does."""
    spec, scheme = _deep_scheme(workload)
    derivation = _depth_first_run(spec, items, run_seed)
    labeler = scheme.label_run(derivation)
    view = random_view(spec, 4, seed=run_seed, mode=mode, name="deep")
    run_file = tmp_path_factory.mktemp("deep") / "run.fvl"
    engine = _engine_over(scheme, derivation, labeler, store, run_file)
    outcomes = []
    original = evaluate._reference_matrix

    def raising(*args):
        try:
            original(*args)
        except Exception:
            outcomes.append("raised")
            raise
        outcomes.append("returned")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate, "_reference_matrix", raising)
        try:
            kernel_vs_reference(
                engine, scheme, labeler, view, FVLVariant.DEFAULT, random.Random(run_seed), 40
            )
        finally:
            engine.detach(DEFAULT_RUN)
    assert "returned" not in outcomes


def _rotor_specification():
    """A three-port recursion ``A -> B -> A`` whose ``Inputs`` chain rotates the ports.

    ``A -> r B r`` and ``B -> A`` form the one cycle (``L = 2``, edges ``(2, 2)``
    and ``(4, 1)``); ``r`` is a port rotation, so ``I(2, 2)`` is a permutation
    of order 3 and the running product repeats only after six steps.  ``A ->
    q`` ends the recursion; every composite's dependencies are all-true, so
    the specification is safe.
    """
    rotate = {(port, port % 3 + 1) for port in (1, 2, 3)}
    every = {(i, o) for i in (1, 2, 3) for o in (1, 2, 3)}
    modules = {name: Module(name, 3, 3) for name in ("S", "A", "B", "r", "q")}
    productions = [
        Production(modules["S"], chain_workflow([("A", modules["A"])])),
        Production(
            modules["A"],
            chain_workflow([("r1", modules["r"]), ("B", modules["B"]), ("r2", modules["r"])]),
        ),
        Production(modules["A"], chain_workflow([("q", modules["q"])])),
        Production(modules["B"], chain_workflow([("A", modules["A"])])),
    ]
    grammar = WorkflowGrammar(modules, {"S", "A", "B"}, "S", productions)
    return WorkflowSpecification(grammar, DependencyAssignment({"r": rotate, "q": every}))


@pytest.mark.parametrize("variant", [FVLVariant.DEFAULT, FVLVariant.QUERY_EFFICIENT])
def test_a_chain_of_any_depth_is_a_kernel_row(variant):
    """Recursion edges of any child index, boundary and interior keys alike, are kernel rows.

    A hand-built trie hangs one recursion edge ``(1, 1, c)`` off the root per
    child index ``c`` — ``2^24 + 3`` among them, whose step count would spill
    out of a bank key's 24-bit count field — and two production edges off
    member 1, the producer and consumer sides of the recursive-LCA keys.
    Every key is a matrix or a verdict, and every matrix is the label's chain
    (Cases III and IV) or the reference decoder's product (interior keys).
    """
    spec = _rotor_specification()
    scheme = FVLScheme(spec)
    view = default_view(spec)
    label = scheme.label_view(view, variant)
    state = DecodedViewState(StaticViewState(view.name, scheme.index, lambda: scheme.label_view(view)))
    bank = state.static.bank
    length = scheme.index.cycle_length(1)
    children = [1, 2, length + 1, 10**4, 2**24 + 3, 2**31 - 1]
    down, up = len(children) + 1, len(children) + 2
    parent = [-1] + [0] * len(children) + [1, 1]
    packed = [-1] + [1 | 1 << 1 | 1 << 17] * len(children) + [2 << 1 | 1 << 17, 2 << 1 | 3 << 17]
    child = [0] + children + [0, 0]
    trie = tuple(np.asarray(column, dtype=np.int64) for column in (parent, packed, child))
    paths = {0: ()}
    paths.update({node: (RecursionEdgeLabel(1, 1, c),) for node, c in enumerate(children, 1)})
    paths[down] = (RecursionEdgeLabel(1, 1, 1), ProductionEdgeLabel(2, 1))
    paths[up] = (RecursionEdgeLabel(1, 1, 1), ProductionEdgeLabel(2, 3))
    start = scheme.index.start_module
    expected = {
        (ABSENT, 0): BoolMatrix.identity(start.n_inputs),  # an empty path
        (0, ABSENT): BoolMatrix.identity(start.n_outputs),
    }
    for node, c in enumerate(children, 1):
        expected[ABSENT, node] = label.inputs_chain(1, 1, c - 1)  # Case III
        expected[node, ABSENT] = label.outputs_chain(1, 1, c - 1)  # Case IV
        if c > 1:  # recursive LCA, the producer above and below the consumer
            expected[down, node] = intermediate_matrix(paths[down], paths[node], label)
            expected[node, up] = intermediate_matrix(paths[node], paths[up], label)
    keys = sorted(expected)
    path1, path2 = (np.asarray(side, dtype=np.int64) for side in zip(*keys))
    outcome, blocks, shapes = decide_many(trie, bank, state, path1, path2)
    ports = bank.ports
    for key, verdict, block, shape in zip(keys, outcome.tolist(), blocks, shapes):
        matrix = expected[key]
        if verdict == VERDICT_FALSE:
            assert matrix is None or matrix.is_all_false(), key
        elif verdict == VERDICT_TRUE:
            assert matrix is not None and matrix.is_all_true(), key
        else:
            assert verdict == MATRIX and matrix is not None, key
            assert tuple(shape) == matrix.shape, key
            padded = np.zeros((ports, ports), dtype=bool)
            padded[: matrix.rows, : matrix.cols] = matrix.data
            assert np.array_equal(block.reshape(ports, ports), padded), key
    # Each chain holds at most its tail and period, the rotation's six steps.
    assert bank._chains and all(tail + period <= 7 for _, tail, period in bank._chains.values())
    assert np.count_nonzero(outcome == MATRIX) > len(children)


def test_an_unretained_chain_names_its_rotation_within_the_cycle():
    """The public predicate and the engine word the error alike, rotation normalised."""
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 3000, seed=5)
    labeler = scheme.label_run(derivation)
    view = random_view(spec, 6, seed=1, mode="grey", name="v1")
    with pytest.raises(VisibilityError) as public:
        scheme.depends(labeler.label(2721), labeler.label(526), scheme.label_view(view))
    engine = QueryEngine(scheme)
    engine.add_run(DEFAULT_RUN, derivation)
    with pytest.raises(VisibilityError) as served:
        engine.depends_batch([(2721, 526)], view)
    assert str(served.value) == str(public.value)
    s, t = map(int, re.search(r"cycle (\d+), rotation (\d+)", str(public.value)).groups())
    assert 1 <= t <= scheme.index.cycle_length(s)


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
    assert first.tolist() == [scheme.depends(a, b, scheme.label_view(view)) for a, b in labels]

    def forbidden(*args, **kwargs):
        raise AssertionError("per-key or per-pair Python on a warm batch")

    monkeypatch.setattr(MatrixBank, "codes", forbidden)
    monkeypatch.setattr(MatrixBank, "_gather", forbidden)
    monkeypatch.setattr(evaluate, "decide_many", forbidden)
    monkeypatch.setattr(decoder, "_intermediate_matrix", forbidden)
    monkeypatch.setattr(decoder, "_chain_over", forbidden)
    monkeypatch.setattr(evaluate, "_reference_matrix", forbidden)
    monkeypatch.setattr(type(store), "label", forbidden)
    assert np.array_equal(engine.depends_batch(pairs, view), first)
    assert np.array_equal(engine.depends_batch(pairs.tolist(), view), first)
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


def test_budget_bounds_pair_tables_across_rebuilds(tmp_path, decoded_state_bytes):
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
        assert roomy.depends_batch(pairs, view, run=run).tolist() == expected
    wanted = dict(roomy.decoded_states())
    per_run = min(state.nbytes for state in wanted.values())
    static = roomy.stats.views.bytes - sum(state.nbytes for state in wanted.values())
    wanted_chains = sum(state.static.bank.chain_codes for state in wanted.values())
    wanted_rows = {
        name: sum(len(state.table(arena)) for arena in (0, 1))
        for name, state in wanted.items()
    }
    roomy.detach("disk")

    # A twentieth of the smaller per-run state — a few rows — on top of (a) every
    # static byte wanted, (b) the static parts as they start out.
    for budget in (static + per_run // 20, labelled + per_run // 20):
        engine = engine_with(state_budget_bytes=budget)
        for view, pairs, expected, run in rounds:
            held = engine.decoded_states().get((view.name, "default"))
            before = held.nbytes if held is not None else 0
            # A saturated budget only stops storing; answers stay correct.
            assert engine.depends_batch(pairs, view, run=run).tolist() == expected
            stats = engine.stats.views
            now = decoded_state_bytes(engine)
            assert sum(now) == stats.bytes and stats.max_bytes == budget
            # Over budget only by what the grammar bounds, never by what a query grows.
            assert stats.bytes <= max(budget, now[1] + before)
            state = engine.decoded_states()[view.name]  # not evicted by its own growth
            tables = [state.table(arena) for arena in (0, 1)]
            assert sum(table.nbytes for table in tables) == state.nbytes
            assert sum(len(table) for table in tables) < wanted_rows[view.name]
        # Chain products are static: the grammar and the view bound them, not the budget.
        assert sum(part.bank.chain_codes for part in engine._statics.values()) == wanted_chains
        if budget >= static:
            # (a) the static parts fit whole, so the budget itself held and rows got the rest.
            assert engine.stats.views.bytes <= budget
            assert any(len(state.table(arena)) for arena in (0, 1))
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
    view = default_view(spec)
    state = DecodedViewState(StaticViewState(view.name, scheme.index, lambda: scheme.label_view(view)))
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


def test_a_declined_key_the_reference_decides_is_a_typed_error(monkeypatch):
    """The engine answers a declined key only with the reference's error, never a guess."""
    spec = build_running_example()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 200, seed=2)
    view = default_view(spec)
    uids = sorted(ViewProjection(derivation.run, view).visible_items)
    rng = random.Random(1)
    pairs = [(rng.choice(uids), rng.choice(uids)) for _ in range(50)]
    engine = QueryEngine(scheme)
    engine.add_run(DEFAULT_RUN, derivation)
    decide = evaluate.decide_many

    def declining(*args):
        outcome, blocks, shapes = decide(*args)
        return np.full_like(outcome, REFERENCE), blocks, shapes

    monkeypatch.setattr(evaluate, "decide_many", declining)
    with pytest.raises(DecodingError, match=r"declined key \(\d+, \d+\)"):
        engine.depends_batch(pairs, view)
    assert engine.decoded_state(view).arenas() == []  # nothing was stored


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
        return answers.tolist() == expected, engine.decoded_state(view.name).static

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
    steps = [code for run, _, _ in bank._chains.values() for code in run]
    held = sorted(code for code in [*codes.values(), *steps] if code > 0)
    assert held == list(range(1, len(bank)))
    calm = QueryEngine(scheme)
    calm.add_run("live", derivation)
    calm.attach(run_file, "disk")
    for run in ("live", "disk"):
        assert calm.depends_batch(pairs, view, run=run).tolist() == expected
    calm_bank = calm.decoded_state(view).static.bank
    assert sorted(calm_bank._codes) == sorted(codes)
    for key, code in codes.items():
        calm_code = calm_bank._codes[key]
        assert (code < 0) == (calm_code < 0), key
        if code >= 0:
            assert np.array_equal(bank.matrices[code], calm_bank.matrices[calm_code]), key
            assert bank.shapes[code].tolist() == calm_bank.shapes[calm_code].tolist(), key
    # And every chain ends in the same tail and period, step by step the same matrices.
    assert sorted(calm_bank._chains) == sorted(bank._chains)
    for key, (run, tail, period) in bank._chains.items():
        calm_run, calm_tail, calm_period = calm_bank._chains[key]
        assert (tail, period, len(run)) == (calm_tail, calm_period, len(calm_run)), key
        for code, calm_code in zip(run, calm_run):
            assert (code < 0) == (calm_code < 0), key
            if code >= 0:
                assert np.array_equal(bank.matrices[code], calm_bank.matrices[calm_code]), key
    # Both arenas hold the same decisions, each under its own ids.
    live_arena, disk_arena = engine.shard_arena("live"), engine.shard_arena("disk")
    assert sorted(state.arenas()) == sorted((live_arena, disk_arena))
    assert len(state.table(live_arena)) == len(state.table(disk_arena)) > 0


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
        for id1, id2, matrix, _ in engine.decoded_state(view).rows(0):
            if matrix is not None and (id1, id2) == (store.row(d1)[0], store.row(d2)[2]):
                return d1, d2, matrix.shape
    raise AssertionError("no pair of the workload reads a matrix entry")


def _boundary_pair_through_a_matrix(engine, derivation, view, no_left, no_right):
    """A visible pair of Case II, III or IV whose matrix is all-true, and its shape.

    Its classes alone would settle such a key, but then no shape would be
    left to check a port against.
    """
    visible = sorted(ViewProjection(derivation.run, view).visible_items)
    store = engine.run_labeler().store
    lefts = [d for d in visible if (store.row(d)[0] < 0) == no_left and store.row(d)[2] >= 0]
    rights = [d for d in visible if (store.row(d)[2] < 0) == no_right and store.row(d)[0] >= 0]
    pairs = [(d1, d2) for d1 in lefts[:40] for d2 in rights[:40]]
    engine.depends_batch(pairs, view)

    def key(d1, d2):
        return (
            pair_table.ABSENT if no_left else store.row(d1)[0],
            pair_table.ABSENT if no_right else store.row(d2)[2],
        )

    table = engine.decoded_state(view).table(0)
    forced = {
        (id1, id2): matrix
        for id1, id2, matrix, _ in table.matrix_rows(np.arange(len(table)))
        if matrix is not None and matrix.data.all()
    }
    d1, d2 = next(pair for pair in pairs if key(*pair) in forced)
    return d1, d2, forced[key(d1, d2)].shape


#: Per case: the sides without a path (producer of d1, consumer of d2), and
#: the item and row field carrying the port read as the matrix row — d1's
#: output port (interior), d1's input port of the start module (Cases II,
#: III) or d2's output port of it (Case IV).
_PORT_CASES = {
    "interior": (False, False, 0, 1),
    "II": (True, True, 0, 3),
    "III": (True, False, 0, 3),
    "IV": (False, True, 1, 1),
}


@pytest.mark.parametrize(
    "case, bad_port",
    [pytest.param(case, port, id=port if case == "interior" else f"{case}-{port}")
     for case in _PORT_CASES for port in ("zero", "beyond")],
)
def test_a_port_outside_its_matrix_is_a_decoding_error(case, bad_port):
    """Port 0 used to wrap to the last row; a port past the arity raised IndexError."""
    no_left, no_right, side, field = _PORT_CASES[case]
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 300, seed=7)
    view = random_view(spec, 6, seed=8, mode="grey", name="ports")
    engine = QueryEngine(scheme)
    labeler = engine.add_run(DEFAULT_RUN, derivation)
    if case == "interior":
        d1, d2, (rows, cols) = _interior_pair_through_a_matrix(engine, derivation, view)
    else:
        d1, d2, (rows, cols) = _boundary_pair_through_a_matrix(
            engine, derivation, view, no_left, no_right
        )
    want = engine.depends_batch([(d1, d2)], view)

    # A live store whose row carries a port its module does not have.
    store = labeler.store
    row = list(store.row((d1, d2)[side]))
    row[field] = 0 if bad_port == "zero" else rows + 1
    forged = max(store.uids()) + 1
    store.append(forged, *row)
    pair = (forged, d2) if side == 0 else (d1, forged)
    with pytest.raises(DecodingError, match=rf"pair \({pair[0]}, {pair[1]}\).*{rows}x{cols}"):
        engine.depends_batch([(d1, d2), pair], view)
    assert np.array_equal(engine.depends_batch([(d1, d2)], view), want)  # the table is unharmed
