"""Array-input parity: int64 arrays and lists of ids are the same question.

``depends_batch`` / ``is_visible_batch`` accept an ``(n, 2)`` / ``(n,)``
int64 array (what the wire decodes a frame into) as well as lists.  Every
store state (live, mapped, multi-extent, compacted, reopened onto its
compaction) and every batch size from one pair up takes the same evaluator, so each must equal the
per-pair ``FVLScheme.depends`` and raise the identical error for both
spellings — including frames with boundary pairs (initial inputs / final
outputs), the one place a numpy scalar could leak into ``store.label``.
Whatever the spelling, surface or store state, a batch answers one ``(n,)``
``bool`` array and a single query one ``bool``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import sys
import threading

import numpy as np
import pytest

from repro import FVLScheme, FVLVariant, QueryEngine
from repro.engine import DEFAULT_RUN
from repro.errors import DecodingError, LabelingError
from repro.faults import FaultPlan, InjectedFault
from repro.model.derivation import Derivation
from repro.model.projection import ViewProjection
from repro.net import ProvenanceClient, ProvenanceNetServer
from repro.serve import ProvenanceServer
from repro.store import checkpoint_run, compact
from repro.workloads import (
    build_bioaid_specification,
    build_synthetic_specification,
    random_run,
    random_view,
)

SPEC = build_bioaid_specification()
SCHEME = FVLScheme(SPEC)
DERIVATION = random_run(SPEC, 300, seed=7)
LABELER = SCHEME.label_run(DERIVATION)
GREY = random_view(SPEC, 6, seed=8, mode="grey", name="array-grey")
BLACK = random_view(SPEC, 2, seed=9, mode="black", name="array-black")


def _pairs(view, n, seed=0):
    """``n`` visible pairs that include boundary items on both sides."""
    visible = sorted(ViewProjection(DERIVATION.run, view).visible_items)
    store = LABELER.store
    inputs = [uid for uid in visible if store.row(uid)[0] < 0]
    outputs = [uid for uid in visible if store.row(uid)[2] < 0]
    assert inputs and outputs, "the workload lost its boundary items"
    rng = random.Random(seed)
    pairs = [
        (inputs[0], visible[len(visible) // 2]),
        (visible[len(visible) // 2], outputs[0]),
        (inputs[0], outputs[0]),
        (outputs[0], inputs[0]),
    ]
    pairs += [(rng.choice(visible), rng.choice(visible)) for _ in range(n - 4)]
    rng.shuffle(pairs)
    return pairs[:n]


@pytest.fixture(params=["live", "mapped", "segmented", "compacted", "reopened"])
def engine(request, tmp_path):
    engine = QueryEngine(SCHEME)
    run_file = tmp_path / "array.fvl"
    if request.param == "live":
        engine.add_run(DEFAULT_RUN, DERIVATION)
    elif request.param == "mapped":
        checkpoint_run(run_file, LABELER.store, LABELER.tree.nodes)
        engine.attach(run_file)
    else:
        labeler = SCHEME.run_labeler()
        events = DERIVATION.events
        step = max(1, len(events) // 4)
        for lo in range(0, len(events), step):
            for event in events[lo : lo + step]:
                labeler(event)
            checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
        if request.param == "compacted":
            # The chain rewritten into one extent per column: merged payloads.
            assert compact(run_file).segments_before >= 3
            assert max(engine.attach(run_file).extents_per_column().values()) == 1
        else:
            assert max(engine.attach(run_file).extents_per_column().values()) >= 3
        if request.param == "reopened":
            # Warm both views on the chain, then remap the shard onto its
            # compaction: the arena and every cached decode result carry over.
            arena = engine.shard_arena()
            engine.depends_batch(_pairs(GREY, 40), GREY)
            engine.depends_batch(_pairs(BLACK, 40), BLACK)
            assert compact(run_file).segments_before >= 3
            assert engine.reopen()
            assert engine.shard_arena() == arena
            assert max(engine.mapped_store().extents_per_column().values()) == 1
    yield engine
    engine.detach(DEFAULT_RUN)  # closes the mapped shard's file


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # the error itself is the thing under comparison
        return (type(exc), str(exc))


@pytest.mark.parametrize("n", [1, 2, 40, 1500])
@pytest.mark.parametrize("variant", [FVLVariant.DEFAULT, FVLVariant.SPACE_EFFICIENT])
def test_depends_array_matches_list(engine, n, variant):
    # The engine serves one label per view; ``variant`` is the reference's.
    pairs = _pairs(GREY, n)
    view_label = SCHEME.label_view(GREY, variant)
    want = [
        SCHEME.depends(LABELER.label(d1), LABELER.label(d2), view_label)
        for d1, d2 in pairs
    ]
    assert engine.depends_batch(pairs, GREY).tolist() == want
    got = engine.depends_batch(np.asarray(pairs, dtype=np.int64), GREY)
    assert got.tolist() == want
    if n >= 40:
        assert any(want) and not all(want)


def test_depends_array_matches_list_matrix_free(engine):
    pairs = _pairs(BLACK, 60)
    want = engine.depends_batch(pairs, BLACK)
    got = engine.depends_batch(np.asarray(pairs, dtype=np.int64), BLACK)
    assert np.array_equal(got, want)


def test_visible_array_matches_list(engine):
    uids = [uid for pair in _pairs(GREY, 80) for uid in pair]
    want = engine.is_visible_batch(uids, GREY)
    assert np.array_equal(engine.is_visible_batch(np.asarray(uids, dtype=np.int64), GREY), want)


@pytest.mark.parametrize("n", [0, 1, 40])
@pytest.mark.parametrize("surface", ["engine", "scheduler", "client"])
def test_every_surface_answers_one_bool_array(engine, surface, n, tmp_path):
    """Engine, scheduler future and wire client hand back the same type and bits."""
    pairs = _pairs(GREY, 40)[:n]
    uids = [d1 for d1, _ in pairs]
    view_label = SCHEME.label_view(GREY)
    want = {
        "depends": [SCHEME.depends(LABELER.label(d1), LABELER.label(d2), view_label) for d1, d2 in pairs],
        "visible": [SCHEME.is_visible(LABELER.label(uid), view_label) for uid in uids],
    }
    engine.add_view(GREY)
    with contextlib.ExitStack() as stack:
        if surface == "engine":
            batch = {"depends": engine.depends_batch, "visible": engine.is_visible_batch}
            single = {"depends": engine.depends, "visible": engine.is_visible}
        else:
            server = stack.enter_context(ProvenanceServer(engine, workers=1))
            if surface == "scheduler":
                batch = {
                    kind: lambda ids, view, kind=kind: server.submit_batch(kind, ids, view).result(30)
                    for kind in want
                }
                single = {}  # the scheduler's one entry is the frame
            else:
                sock_path = tmp_path / "answers.sock"
                stack.enter_context(ProvenanceNetServer(server, unix_path=sock_path))
                client = stack.enter_context(ProvenanceClient(unix_path=sock_path))
                batch = {"depends": client.depends_batch, "visible": client.is_visible_batch}
                single = {"depends": client.depends, "visible": client.is_visible}
        for kind, ids in (("depends", pairs), ("visible", uids)):
            answers = batch[kind](ids, GREY.name)
            assert type(answers) is np.ndarray
            assert answers.dtype == bool and answers.shape == (n,)
            assert answers.tolist() == want[kind]
            if n and kind in single:
                first = pairs[0] if kind == "depends" else (uids[0],)
                answer = single[kind](*first, GREY.name)
                assert type(answer) is bool and answer == want[kind][0]


@pytest.mark.parametrize("n", [1, 2, 40, 1500])
def test_out_of_range_uid_raises_identically(engine, n):
    pairs = _pairs(GREY, n)
    pairs[n // 2] = (pairs[n // 2][0], 10**9)
    from_list = _outcome(lambda: engine.depends_batch(pairs, GREY))
    from_array = _outcome(
        lambda: engine.depends_batch(np.asarray(pairs, dtype=np.int64), GREY)
    )
    assert from_list == (LabelingError, f"data item {10**9} has not been labelled")
    assert from_array == from_list
    uids = [uid for pair in pairs for uid in pair]
    assert _outcome(
        lambda: engine.is_visible_batch(np.asarray(uids, dtype=np.int64), GREY)
    ) == _outcome(lambda: engine.is_visible_batch(uids, GREY))


def test_boundary_pairs_do_not_leak_numpy_scalars(tmp_path, monkeypatch):
    """Boundary pairs are pair-table rows: the evaluator materialises no label.

    (It used to call ``store.label`` per boundary pair, whose memo is keyed by
    plain ints; nothing can leak into a call that is not made.)
    """
    writer = QueryEngine(SCHEME)
    writer.add_run(DEFAULT_RUN, DERIVATION)
    writer.checkpoint(tmp_path / "boundary.fvl")
    engine = QueryEngine(SCHEME)
    mapped = engine.attach(tmp_path / "boundary.fvl")
    seen: list = []
    original = type(mapped.store).label

    def spy(self, uid):
        seen.append(type(uid))
        return original(self, uid)

    monkeypatch.setattr(type(mapped.store), "label", spy)
    pairs = np.asarray(_pairs(GREY, 40), dtype=np.int64)
    store = mapped.store
    assert any(min(store.row(d1) + store.row(d2)) < 0 for d1, d2 in pairs.tolist())
    engine.depends_batch(pairs, GREY)
    engine.detach(DEFAULT_RUN)
    assert seen == []


def test_small_batches_cross_the_gather_fault_point(tmp_path):
    """One pair and three uids read their rows where a 2,048-pair frame does."""
    checkpoint_run(tmp_path / "fault.fvl", LABELER.store, LABELER.tree.nodes)
    engine = QueryEngine(SCHEME)
    engine.attach(tmp_path / "fault.fvl")
    (d1, d2), *_ = _pairs(GREY, 40)
    uids = [d1, d2, d1]
    want = engine.depends(d1, d2, GREY), engine.is_visible_batch(uids, GREY).tolist()
    plan = FaultPlan().on("mmap.gather", count=2)
    with plan.armed():
        with pytest.raises(InjectedFault):
            engine.depends(d1, d2, GREY)
        with pytest.raises(InjectedFault):
            engine.is_visible_batch(uids, GREY)
    assert plan.fired("mmap.gather") == 2
    assert (engine.depends(d1, d2, GREY), engine.is_visible_batch(uids, GREY).tolist()) == want
    engine.detach(DEFAULT_RUN)


def test_queries_race_a_live_ingest_without_torn_reads():
    """Readers beside the ingest thread see answers or ``LabelingError`` only."""
    growing = Derivation(SPEC)
    engine = QueryEngine(SCHEME)
    engine.add_run(DEFAULT_RUN, growing)
    pairs = np.asarray(_pairs(GREY, 64), dtype=np.int64)
    uids = pairs.reshape(-1)
    unexpected: list[BaseException] = []
    answered = [0, 0]  # calls that raised LabelingError / that answered
    reading, done = threading.Event(), threading.Event()

    def reader():
        while not done.is_set() or not answered[1]:
            for call in (
                lambda: engine.depends_batch(pairs, GREY),
                lambda: engine.is_visible_batch(uids, GREY),
            ):
                try:
                    call()
                    answered[1] += 1
                except LabelingError:
                    answered[0] += 1  # the frame names an item not ingested yet
                except BaseException as exc:  # BufferError, IndexError, ...
                    unexpected.append(exc)
                    return
            reading.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=reader)
    try:
        thread.start()
        assert reading.wait(timeout=60)  # the view is labelled, the loop is hot
        for event in DERIVATION.events[1:]:
            growing.expand(event.parent.uid, event.production_index)
    finally:
        done.set()
        thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert unexpected == []
    assert answered[0] and answered[1]
    view_label = SCHEME.label_view(GREY)
    assert engine.depends_batch(pairs, GREY).tolist() == [
        SCHEME.depends(LABELER.label(d1), LABELER.label(d2), view_label)
        for d1, d2 in pairs.tolist()
    ]


def test_a_pair_outside_its_matrix_is_named_past_case_one_pairs(engine):
    """A matrix entry outside its row's shape raises, naming the first pair
    in frame order that asked for one; Case I pairs ahead of it in the frame
    (answered ``False``, never read) do not change which pair that is."""
    visible = sorted(ViewProjection(DERIVATION.run, GREY).visible_items)
    store = LABELER.store
    final = next(uid for uid in visible if store.row(uid)[2] < 0)
    initial = next(uid for uid in visible if store.row(uid)[0] < 0)
    middle = visible[len(visible) // 2]
    pairs = _pairs(GREY, 40)
    engine.depends_batch(pairs, GREY)  # warm: every key has its row
    state = engine.decoded_state(GREY)
    arena = engine.shard_arena()
    table = state.table(arena)
    state.pair_tables[arena] = dataclasses.replace(
        table, rows=np.zeros_like(table.rows), hits=table.hits.copy()
    )
    plain = _outcome(lambda: engine.depends_batch(np.asarray(pairs), GREY))
    behind = _outcome(
        lambda: engine.depends_batch([(final, middle), (middle, initial)] + pairs, GREY)
    )
    state.pair_tables[arena] = table
    assert plain[0] is DecodingError and "asks for entry" in plain[1]
    assert behind == plain


def test_a_mapped_store_with_twelve_ports_reads_past_a_one_byte_entry(tmp_path):
    """A mapped store keeps its ports one byte wide; with twelve ports a
    module, entry ``(x, y)`` of a matrix sits at ``x * 12 + y`` in its
    block, past what one byte holds, so the hit path widens the ports
    before it computes that offset — cold and warm, bit for bit."""
    spec = build_synthetic_specification(
        workflow_size=4, module_degree=12, nesting_depth=2, recursion_length=2
    )
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 300, seed=5)
    labeler = scheme.label_run(derivation)
    view = random_view(spec, 2, seed=1, mode="grey", name="wide")
    run_file = tmp_path / "wide.fvl"
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    engine = QueryEngine(scheme)
    mapped = engine.attach(run_file)
    engine.add_view(view)
    assert mapped.store.raw_columns()[1].dtype == np.int8
    visible = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = np.random.default_rng(0).choice(visible, (400, 2))
    # Some intermediate pair asks for an entry past offset 127.
    assert any(
        labeler.store.row(d1)[0] >= 0 and labeler.store.row(d2)[2] >= 0
        and (labeler.store.row(d1)[1] - 1) * 12 + labeler.store.row(d2)[3] - 1 > 127
        for d1, d2 in pairs.tolist()
    )
    view_label = scheme.label_view(view)
    want = [
        scheme.depends(labeler.label(d1), labeler.label(d2), view_label)
        for d1, d2 in pairs.tolist()
    ]
    assert engine.depends_batch(pairs, view).tolist() == want  # cold
    assert engine.decoded_state(view).table(engine.shard_arena()).ports == 12
    assert engine.depends_batch(pairs, view).tolist() == want  # warm: table hits
    engine.detach(DEFAULT_RUN)
