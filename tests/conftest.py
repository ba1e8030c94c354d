"""Shared fixtures: paper examples, generated workloads, derivation helpers,
``ask`` (the one blocking call over the scheduler), ``offer`` (a request
edge's non-blocking submit), ``publish_generation`` (a run file's next
generation swapped in, intact or damaged) and ``detach_engines`` (every run a
test attached is detached when it ends).  Every test is also held to the
threads it starts: one still alive when it ends fails it
(``no_leaked_threads``)."""

from __future__ import annotations

import random
import threading

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


#: How long a thread a test started may take to finish after the test.
THREAD_GRACE_S = 2.0


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread it started alive, daemon or not.

    Threads of wider-scoped fixtures exist before the snapshot and are not
    the test's.  A thread on its way out gets :data:`THREAD_GRACE_S` to end.
    """
    before = set(threading.enumerate())
    yield
    started = [thread for thread in threading.enumerate() if thread not in before]
    for thread in started:
        thread.join(THREAD_GRACE_S / len(started))
    leaked = [thread.name for thread in started if thread.is_alive()]
    if leaked:
        pytest.fail(f"the test left {len(leaked)} thread(s) running: {', '.join(leaked)}")


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

    def closures(slices) -> int:
        return sum(
            part.closure.nbytes + part._from_lhs.nbytes + part._to_lhs.nbytes
            for part in slices.values()
        )

    def walk(engine) -> tuple[int, int]:
        per_run = 0
        for state in engine.decoded_states().values():
            per_run += sum(flags.nbytes for flags in state.visibility_flags.values())
            for table in state.pair_tables.values():
                columns = (table.keys, table.off, table.rows, table.cols, table.hits, table.order, table.pool)
                per_run += sum(column.nbytes for column in columns)
        static = 0
        for part in engine._statics.values():
            # The bank and the label, each once built (an unbuilt one holds
            # nothing, and this walk builds neither): the bank's stack, shapes,
            # classes and cycle columns; the label's closures and their
            # slices, and the copies read out of them.
            if part.banked:
                bank = part.bank
                arrays = (
                    bank.matrices, bank.shapes, bank.classes,
                    bank.cycle_len, bank.cycle_base, bank.cycle_k, bank.cycle_pos, bank.identity_size,
                )
                static += sum(array.nbytes for array in arrays)
            if part.labelled:
                label = part.label
                static += closures(label._slices)
                static += matrices(label._inputs) + matrices(label._outputs) + matrices(label._z)
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
    key — interior keys against ``intermediate_matrix``, boundary keys
    (Cases II–IV) against ``lambda*(S)`` and the ``Inputs`` / ``Outputs``
    chain over their one path — and ``depends_batch`` against the public
    one-pair predicate, ``FVLScheme.depends`` on ``scheme.label_view(view,
    variant)``, pair by pair (see the returned function).  The engine serves
    one label per view; ``variant`` picks only the reference's, so every
    materialisation of the paper is held to the one engine.
    """
    import numpy as np

    from repro.core.decoder import _inputs_chain_over, _outputs_chain_over, intermediate_matrix
    from repro.core.pair_table import ABSENT
    from repro.engine import DEFAULT_RUN
    from repro.engine.kernel import MATRIX, REFERENCE, VERDICT_FALSE, VERDICT_TRUE, decide_many

    def _outcome(call):
        try:
            return ("ok", call())
        except Exception as exc:  # the error itself is the thing under comparison
            return (type(exc), str(exc))

    def check(engine, scheme, labeler, view, variant, rng, n_pairs=120):
        """Kernel decisions and engine answers vs the reference, on random item pairs.

        Items are drawn from the whole run, visible in ``view`` or not, so keys
        the view does not define (the reference raises) are part of the sample;
        a fifth of the pairs have an initial input on the left or a final output
        on the right, so boundary keys (no producer or no consumer path) are too.
        Returns how many keys the kernel decided and how many it declined.
        """
        view_label = scheme.label_view(view, variant)
        uids = sorted(labeler.labels)
        shard = engine._shards[DEFAULT_RUN]
        store, table = shard.store, shard.store.table
        initial = [uid for uid in uids if store.row(uid)[0] < 0]
        final = [uid for uid in uids if store.row(uid)[2] < 0]
        pairs = [(rng.choice(uids), rng.choice(uids)) for _ in range(n_pairs)]
        for _ in range(n_pairs // 10 if initial and final else 0):
            pairs.append((rng.choice(initial), rng.choice(uids)))
            pairs.append((rng.choice(uids), rng.choice(final)))

        state = engine.decoded_state(view)
        # The decoder's key of a pair: (producer path of d1, consumer path of
        # d2), ABSENT where there is none; Case I pairs have no key.
        rows = [store.row(d1) + store.row(d2) for d1, d2 in pairs]
        keys = sorted(
            {
                (int(p1) if p1 >= 0 else ABSENT, int(c2) if c2 >= 0 else ABSENT)
                for p1, _, c1, _, p2, _, c2, _ in rows
                if c1 >= 0 and p2 >= 0
            }
        )
        assert any(ABSENT in key for key in keys) or not (initial and final)
        path1 = np.asarray([p1 for p1, _ in keys], dtype=np.int64)
        path2 = np.asarray([c2 for _, c2 in keys], dtype=np.int64)
        outcome, blocks, shapes = decide_many(
            engine._trie_columns(shard), state.static.bank, state, path1, path2
        )
        ports = state.static.bank.ports
        start = view_label.index.start_module

        def reference_matrix(p1, c2):
            if p1 == ABSENT and c2 == ABSENT:
                return view_label.lam_star_start()  # Case II
            if p1 == ABSENT:
                return _inputs_chain_over(table.path(c2), view_label, start.n_inputs)  # Case III
            if c2 == ABSENT:
                return _outputs_chain_over(table.path(p1), view_label, start.n_outputs)  # Case IV
            return intermediate_matrix(table.path(p1), table.path(c2), view_label)

        for (p1, c2), verdict, block, shape in zip(keys, outcome, blocks, shapes):
            reference = _outcome(lambda: reference_matrix(p1, c2))
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

        # Pair by pair, the engine and the public predicate agree on the bit —
        # or on the error, type and message.
        answered = []
        for d1, d2 in pairs:
            label1, label2 = labeler.label(d1), labeler.label(d2)
            want = _outcome(lambda: scheme.depends(label1, label2, view_label))
            got = _outcome(lambda: engine.depends_batch([(d1, d2)], view)[0])
            assert got == want, (d1, d2)
            if want[0] == "ok":
                answered.append(((d1, d2), want[1]))
        # And as one batch (array input), warm and cold keys mixed.
        if answered:
            batch = np.asarray([pair for pair, _ in answered], dtype=np.int64)
            bits = [bit for _, bit in answered]
            assert engine.depends_batch(batch, view).tolist() == bits
        declined = int(np.count_nonzero(outcome == REFERENCE))
        return len(keys) - declined, declined

    return check


@pytest.fixture(scope="session")
def ask():
    """``ask(server, kind, ids, view, **where) -> np.ndarray``: one frame, waited for.

    :meth:`~repro.serve.ProvenanceServer.submit_batch`, then — on a server
    that was not started — :meth:`~repro.serve.ProvenanceServer.drain_once`
    until the frame resolves to its bool array.  The scheduler keeps no
    blocking call of its own.
    """

    def ask(server, kind, ids, view, **where):
        future = server.submit_batch(kind, ids, view, **where)
        while not server.running and not future.done() and server.drain_once():
            pass
        return future.result(timeout=30)

    return ask


@pytest.fixture(scope="session")
def offer():
    """``offer(server, kind, ids, view, run=...) -> (admitted, replies)``.

    What a request edge does: one record (:class:`~repro.obs.trace.Request`,
    unsampled) whose reply sink appends ``(answers, error)`` to ``replies``,
    handed to :meth:`~repro.serve.ProvenanceServer.serve_frame`, which only
    queues it; ``admitted`` is ``False`` when it was shed.
    """
    from repro.engine import DEFAULT_RUN
    from repro.obs.trace import Request

    def offer(server, kind, ids, view, *, run=DEFAULT_RUN):
        replies: list = []
        name = view if isinstance(view, str) else view.name
        record = Request(0, kind, run, name, len(ids), 0.0)
        record.reply = lambda _record, answers, error: replies.append((answers, error))
        admitted = server.serve_frame(record, ids, view, run=run)
        return admitted, replies

    return offer


@pytest.fixture(scope="session")
def publish_generation():
    """``publish(run_file, data=None, *, flip=False, **header)``: swap in a next generation.

    ``data`` (the file's own bytes by default) gets its header's generation
    bumped and any ``header`` fields replaced; ``flip`` inverts one byte in
    the middle of the largest payload extent, which a scrub must refuse.
    The result replaces the path the way a compaction swap does — a new
    inode, so mappings of the old one keep serving it untouched.
    """
    import os
    from dataclasses import replace

    from repro.store import MappedRunStore
    from repro.store.runfile import HEADER_SIZE, Header

    def publish(run_file, data: "bytes | None" = None, *, flip: bool = False, **header):
        data = bytearray(run_file.read_bytes() if data is None else data)
        old = Header.unpack(bytes(data[:HEADER_SIZE]))
        data[:HEADER_SIZE] = replace(old, generation=old.generation + 1, **header).pack()
        if flip:
            with MappedRunStore(run_file) as mapped:
                extent = max((extent for _, extent in mapped.sections()), key=lambda e: e.nbytes)
            data[extent.offset + extent.nbytes // 2] ^= 0xFF
        staged = run_file.with_name(run_file.name + ".staged")
        staged.write_bytes(bytes(data))
        os.replace(staged, run_file)

    return publish


@pytest.fixture()
def detach_engines(monkeypatch):
    """Detach, when the test ends, every run it attached that is still registered.

    What a test that owns its engines does last: ``QueryEngine.detach``
    closes the shard's mapping.  Only runs attached through
    :meth:`QueryEngine.attach` are tracked, and only their current mapping
    is closed, so a mapping the library itself leaks (a superseded
    generation, a refused file) still surfaces as a ``ResourceWarning``.
    """
    from repro.engine import DEFAULT_RUN, QueryEngine

    attached = {}
    original = QueryEngine.attach

    def attach(engine, path, run_id=DEFAULT_RUN, **options):
        mapped = original(engine, path, run_id, **options)
        attached[id(engine), run_id] = engine
        return mapped

    monkeypatch.setattr(QueryEngine, "attach", attach)
    yield
    for (_, run_id), engine in attached.items():
        if run_id in engine.run_ids:
            engine.detach(run_id)
