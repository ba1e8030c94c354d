"""Shared fixtures: paper examples, generated workloads, derivation helpers."""

from __future__ import annotations

import random

import pytest

from repro import Derivation, FVLScheme
from repro.workloads import (
    build_bioaid_specification,
    build_nonstrict_example,
    build_running_example,
    build_synthetic_specification,
    build_unsafe_example,
    running_example_view_u2,
    running_example_views,
)


@pytest.fixture(scope="session")
def running_spec():
    """The running example of Figure 2 (session-scoped; treat as read-only)."""
    return build_running_example()


@pytest.fixture(scope="session")
def running_scheme(running_spec):
    return FVLScheme(running_spec)


@pytest.fixture(scope="session")
def running_views(running_spec):
    return running_example_views(running_spec)


@pytest.fixture(scope="session")
def view_u2(running_spec):
    return running_example_view_u2(running_spec)


@pytest.fixture(scope="session")
def unsafe_example():
    return build_unsafe_example()


@pytest.fixture(scope="session")
def nonstrict_spec():
    return build_nonstrict_example()


@pytest.fixture(scope="session")
def bioaid_spec():
    return build_bioaid_specification()


@pytest.fixture(scope="session")
def synthetic_spec():
    return build_synthetic_specification(
        workflow_size=8, module_degree=3, nesting_depth=3, recursion_length=2
    )


def derive_running(spec, seed: int = 0, max_steps: int = 30) -> Derivation:
    """A random, complete derivation of the running example (helper, not a fixture)."""
    rng = random.Random(seed)
    derivation = Derivation(spec)
    steps = 0
    while not derivation.is_complete and steps < max_steps:
        pending = derivation.pending_instances()
        uid = rng.choice(pending)
        instance = derivation.run.instance(uid)
        candidates = [k for k, _ in spec.grammar.productions_for(instance.module_name)]
        if steps > max_steps // 2 and len(candidates) > 1:
            k = candidates[-1]
        else:
            k = rng.choice(candidates)
        derivation.expand(uid, k)
        steps += 1
    while not derivation.is_complete:
        uid = derivation.pending_instances()[0]
        instance = derivation.run.instance(uid)
        candidates = [k for k, _ in spec.grammar.productions_for(instance.module_name)]
        derivation.expand(uid, candidates[-1])
    return derivation


@pytest.fixture()
def running_derivation(running_spec):
    """A fresh, moderately sized complete derivation of the running example."""
    return derive_running(running_spec, seed=1)


@pytest.fixture()
def count_constructions(monkeypatch):
    """``count(module, name)`` swaps in a subclass that records each construction.

    Returns the (initially empty) list the subclass appends to, so a test can
    assert how many ``module.<name>`` objects a code path built.
    """

    def count(module, name: str) -> list:
        built: list = []
        original = getattr(module, name)

        class Counted(original):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(module, name, Counted)
        return built

    return count


@pytest.fixture(scope="session")
def portgraph_functions():
    """``functions(production, k, matrices) -> (induced, I, O, Z)`` by the definition.

    The paper's port graph and one search per source port
    (:class:`repro.analysis.WorkflowPortGraph`), keyed like
    ``ClosureSlices.functions``: what the closure's slices must equal in
    value, shape and dtype.
    """
    from repro.analysis import WorkflowPortGraph

    def functions(production, k, matrices):
        rhs = production.rhs
        graph = WorkflowPortGraph(rhs, matrices)
        lhs_in = [("in",) + production.rhs_initial_input(x) for x in production.lhs.input_ports]
        lhs_out = [("out",) + production.rhs_final_output(y) for y in production.lhs.output_ports]
        ins, outs = {}, {}
        for i, occ in enumerate(rhs.topological_order, start=1):
            module = rhs.module_of(occ)
            ins[i] = [("in", occ, port) for port in module.input_ports]
            outs[i] = [("out", occ, port) for port in module.output_ports]
        inputs = {(k, i): graph.matrix_between(lhs_in, ins[i]) for i in ins}
        outputs = {(k, i): graph.matrix_between(outs[i], lhs_out).transpose() for i in ins}
        z = {
            (k, i, j): graph.matrix_between(outs[i], ins[j])
            for i in ins
            for j in ins
            if i < j
        }
        return graph.matrix_between(lhs_in, lhs_out), inputs, outputs, z

    return functions


@pytest.fixture(scope="session")
def decoded_state_bytes():
    """``walk(engine) -> (per_run, static)``: the array bytes of an engine's decoded state.

    An independent walk over the arrays actually reachable from
    ``engine.decoded_states()`` and ``engine._statics`` — what the engine's
    running sums (``EngineStats.views.bytes``, the
    ``engine_decoded_state_bytes`` gauge) claim to equal at all times.
    """

    def matrices(memo) -> int:
        return sum(matrix.data.nbytes for matrix in memo.values())

    def walk(engine) -> tuple[int, int]:
        per_run = 0
        for state in engine.decoded_states().values():
            per_run += sum(flags.nbytes for flags in state.visibility_flags.values())
            for table in state.decode_cache.pair_tables.values():
                columns = (table.keys, table.off, table.rows, table.cols, table.hits, table.order, table.pool)
                per_run += sum(column.nbytes for column in columns)
        static = 0
        for part in engine._statics.values():
            bank = part.bank
            arrays = (
                bank.matrices, bank.shapes, bank.classes,
                bank.cycle_len, bank.cycle_base, bank.cycle_k, bank.cycle_pos,
            )
            static += sum(array.nbytes for array in arrays)
            static += matrices(part.chains) + matrices(part.inputs_segments) + matrices(part.outputs_segments)
            static += sum(matrices(table) for triple in part.productions.values() for table in triple)
        return per_run, static

    return walk


@pytest.fixture(scope="session")
def state_budget_for():
    """``budget_for(scheme, derivation, frames, resident)``: a measured state budget.

    A dry run under the default budget answers ``frames`` (``(pairs, view)``
    each) over ``derivation`` as the default live run; the budget returned
    has room for the static parts of every view asked and for the
    ``resident`` largest per-run states — hence for any ``resident`` of them.
    ``resident=0.5`` leaves half of the smallest state's bytes.
    """
    from repro.engine import DEFAULT_RUN, QueryEngine

    def budget_for(scheme, derivation, frames, resident):
        engine = QueryEngine(scheme)
        engine.add_run(DEFAULT_RUN, derivation)
        for pairs, view in frames:
            engine.depends_batch(pairs, view)
        per_run = sorted(state.nbytes for state in engine.decoded_states().values())
        assert per_run[0] > 0
        static = engine.stats.views.bytes - sum(per_run)
        if resident < 1:
            return static + int(per_run[0] * resident)
        return static + sum(per_run[-resident:])

    return budget_for


@pytest.fixture(scope="session")
def kernel_vs_reference():
    """``check(engine, scheme, labeler, view, variant, rng, n_pairs)``: the differential contract.

    ``repro.engine.kernel.decide_many`` against ``repro.core.decoder`` key by
    key, and ``depends_batch`` against the one-pair predicate pair by pair
    (see the returned function).
    """
    import numpy as np

    from repro.core.decoder import intermediate_matrix
    from repro.engine import DEFAULT_RUN
    from repro.engine.cache import DecodedViewState, StaticViewState
    from repro.engine.kernel import MATRIX, REFERENCE, VERDICT_FALSE, VERDICT_TRUE, decide_many

    def _outcome(call):
        try:
            return ("ok", call())
        except Exception as exc:  # the error itself is the thing under comparison
            return (type(exc), str(exc))

    def check(engine, scheme, labeler, view, variant, rng, n_pairs=120):
        """Kernel decisions and engine answers vs the reference, on random item pairs.

        Items are drawn from the whole run, visible in ``view`` or not, so keys
        the view does not define (the reference raises) are part of the sample.
        Returns how many keys the kernel decided and how many it declined.
        """
        view_label = scheme.label_view(view, variant)
        uids = sorted(labeler.labels)
        pairs = [(rng.choice(uids), rng.choice(uids)) for _ in range(n_pairs)]

        shard = engine._shards[DEFAULT_RUN]
        store, table = shard.store, shard.store.table
        state = engine.decoded_state(view, variant)
        rows = [store.row(d1)[:1] + store.row(d2)[2:3] for d1, d2 in pairs]
        keys = sorted({(int(p1), int(c2)) for p1, c2 in rows if p1 >= 0 and c2 >= 0})
        path1 = np.asarray([p1 for p1, _ in keys], dtype=np.int64)
        path2 = np.asarray([c2 for _, c2 in keys], dtype=np.int64)
        outcome, blocks, shapes = decide_many(
            engine._trie_columns(shard), state.static.bank, state, path1, path2
        )
        ports = state.static.bank.ports
        for (p1, c2), verdict, block, shape in zip(keys, outcome, blocks, shapes):
            reference = _outcome(
                lambda: intermediate_matrix(table.path(p1), table.path(c2), view_label)
            )
            if verdict == REFERENCE:
                # The kernel only declines what the reference raises for.
                assert reference[0] != "ok", (p1, c2, reference)
            elif verdict == VERDICT_FALSE:
                assert reference[0] == "ok", (p1, c2, reference)
                assert reference[1] is None or reference[1].is_all_false(), (p1, c2, reference)
            elif verdict == VERDICT_TRUE:
                assert reference[0] == "ok" and reference[1] is not None, (p1, c2, reference)
                assert min(reference[1].shape) > 0, (p1, c2, reference)
                assert reference[1].is_all_true(), (p1, c2, reference)
            else:
                assert verdict == MATRIX and reference[0] == "ok" and reference[1] is not None
                matrix = reference[1]
                assert tuple(shape) == matrix.shape, (p1, c2)
                padded = np.zeros((ports, ports), dtype=bool)
                padded[: matrix.rows, : matrix.cols] = matrix.data
                assert np.array_equal(block.reshape(ports, ports), padded), (p1, c2)

        # Pair by pair, the engine and the one-pair predicate agree on the bit —
        # or on the error, type and message.  (The reference runs through a
        # decoded view state of its own, like the engine's: the state normalises
        # a chain's rotation before the label words its "not retained" message.)
        reference_state = DecodedViewState(StaticViewState(view_label))
        answered = []
        for d1, d2 in pairs:
            label1, label2 = labeler.label(d1), labeler.label(d2)
            want = _outcome(lambda: reference_state.depends(label1, label2))
            got = _outcome(lambda: engine.depends_batch([(d1, d2)], view, variant=variant)[0])
            assert got == want, (d1, d2)
            if want[0] == "ok":
                assert want[1] == scheme.depends(label1, label2, view_label)
                answered.append(((d1, d2), want[1]))
        # And as one batch (array input), warm and cold keys mixed.
        if answered:
            batch = np.asarray([pair for pair, _ in answered], dtype=np.int64)
            bits = [bit for _, bit in answered]
            assert engine.depends_batch(batch, view, variant=variant) == bits
        declined = int(np.count_nonzero(outcome == REFERENCE))
        return len(keys) - declined, declined

    return check
