"""Array-input parity: int64 arrays and lists of ids are the same question.

``depends_batch`` / ``is_visible_batch`` accept an ``(n, 2)`` / ``(n,)``
int64 array (what the wire decodes a frame into) as well as lists.  Every
store state (live, sealed, mapped, multi-extent, sparse) and every batch
size from one pair up takes the same evaluator, so each must equal the
per-pair ``FVLScheme.depends`` and raise the identical error for both
spellings — including frames with boundary pairs (initial inputs / final
outputs), the one place a numpy scalar could leak into ``store.label``.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from repro import FVLScheme, FVLVariant, QueryEngine
from repro.engine import DEFAULT_RUN
from repro.errors import LabelingError
from repro.faults import FaultPlan, InjectedFault
from repro.model.derivation import Derivation
from repro.model.projection import ViewProjection
from repro.store import LabelStore, checkpoint_run
from repro.workloads import build_bioaid_specification, random_run, random_view

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


@pytest.fixture(params=["live", "sealed", "mapped", "segmented", "sparse"])
def engine(request, tmp_path):
    engine = QueryEngine(SCHEME)
    run_file = tmp_path / "array.fvl"
    if request.param in ("live", "sealed"):
        labeler = engine.add_run(DEFAULT_RUN, DERIVATION)
        if request.param == "sealed":
            labeler.store.compact()
    elif request.param == "mapped":
        checkpoint_run(run_file, LABELER.store, LABELER.tree.nodes)
        engine.attach(run_file)
    elif request.param == "segmented":
        labeler = SCHEME.run_labeler()
        events = DERIVATION.events
        step = max(1, len(events) // 4)
        for lo in range(0, len(events), step):
            for event in events[lo : lo + step]:
                labeler(event)
            checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
        assert max(engine.attach(run_file).extents_per_column().values()) >= 3
    else:
        # The same rows appended out of uid order: a uid -> row index
        # instead of the dense subtract.
        shuffled = LabelStore(LABELER.store.table)
        uids = list(LABELER.store.uids())
        random.Random(5).shuffle(uids)
        for uid in uids:
            shuffled.append(uid, *LABELER.store.row(uid))
        checkpoint_run(run_file, shuffled, LABELER.tree.nodes)
        assert not engine.attach(run_file).store.is_dense
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
    pairs = _pairs(GREY, n)
    view_label = SCHEME.label_view(GREY, variant)
    want = [
        SCHEME.depends(LABELER.label(d1), LABELER.label(d2), view_label)
        for d1, d2 in pairs
    ]
    assert engine.depends_batch(pairs, GREY, variant=variant) == want
    got = engine.depends_batch(np.asarray(pairs, dtype=np.int64), GREY, variant=variant)
    assert got == want
    if n >= 40:
        assert any(want) and not all(want)


def test_depends_array_matches_list_matrix_free(engine):
    pairs = _pairs(BLACK, 60)
    want = engine.depends_batch(pairs, BLACK, variant=FVLVariant.SPACE_EFFICIENT)
    got = engine.depends_batch(
        np.asarray(pairs, dtype=np.int64), BLACK, variant=FVLVariant.SPACE_EFFICIENT
    )
    assert got == want


def test_visible_array_matches_list(engine):
    uids = [uid for pair in _pairs(GREY, 80) for uid in pair]
    want = engine.is_visible_batch(uids, GREY)
    assert engine.is_visible_batch(np.asarray(uids, dtype=np.int64), GREY) == want


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
    want = engine.depends(d1, d2, GREY), engine.is_visible_batch(uids, GREY)
    plan = FaultPlan().on("mmap.gather", count=2)
    with plan.armed():
        with pytest.raises(InjectedFault):
            engine.depends(d1, d2, GREY)
        with pytest.raises(InjectedFault):
            engine.is_visible_batch(uids, GREY)
    assert plan.fired("mmap.gather") == 2
    assert (engine.depends(d1, d2, GREY), engine.is_visible_batch(uids, GREY)) == want
    engine.detach(DEFAULT_RUN)


def test_queries_race_a_live_ingest_without_torn_reads():
    """Readers beside the ingest thread see answers or ``LabelingError`` only."""
    growing = Derivation(SPEC)
    engine = QueryEngine(SCHEME)
    store = engine.add_run(DEFAULT_RUN, growing).store
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
    assert not store.is_compacted
    view_label = SCHEME.label_view(GREY)
    assert engine.depends_batch(pairs, GREY) == [
        SCHEME.depends(LABELER.label(d1), LABELER.label(d2), view_label)
        for d1, d2 in pairs.tolist()
    ]
