"""Array-input parity: int64 arrays and lists of ids are the same question.

``depends_batch`` / ``is_visible_batch`` accept an ``(n, 2)`` / ``(n,)``
int64 array (what the wire decodes a frame into) as well as lists.  Every
shard flavour and evaluation path must give identical answers and raise the
identical error for both spellings — including frames with boundary pairs
(initial inputs / final outputs), the one place a numpy scalar could leak
into ``store.label``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.engine.engine as engine_module
from repro import FVLScheme, FVLVariant, QueryEngine
from repro.engine import DEFAULT_RUN, MATRIX_FREE
from repro.engine.engine import _RunShard
from repro.errors import LabelingError
from repro.model.projection import ViewProjection
from repro.workloads import build_bioaid_specification, random_run, random_view

SPEC = build_bioaid_specification()
SCHEME = FVLScheme(SPEC)
DERIVATION = random_run(SPEC, 300, seed=7)
GREY = random_view(SPEC, 6, seed=8, mode="grey", name="array-grey")
BLACK = random_view(SPEC, 2, seed=9, mode="black", name="array-black")


def _pairs(view, n, seed=0):
    """``n`` visible pairs that include boundary items on both sides."""
    visible = sorted(ViewProjection(DERIVATION.run, view).visible_items)
    store = SCHEME.label_run(DERIVATION).store
    inputs = [uid for uid in visible if store.row(uid)[0] < 0]
    outputs = [uid for uid in visible if store.row(uid)[2] < 0]
    assert inputs and outputs, "the workload lost its boundary items"
    rng = random.Random(seed)
    pairs = [(rng.choice(visible), rng.choice(visible)) for _ in range(n - 4)]
    pairs += [
        (inputs[0], visible[len(visible) // 2]),
        (visible[len(visible) // 2], outputs[0]),
        (inputs[0], outputs[0]),
        (outputs[0], inputs[0]),
    ]
    rng.shuffle(pairs)
    return pairs


@pytest.fixture(params=["live", "mapped", "object"])
def engine(request, tmp_path):
    engine = QueryEngine(SCHEME)
    if request.param == "live":
        engine.add_run(DEFAULT_RUN, DERIVATION)
    elif request.param == "mapped":
        writer = QueryEngine(SCHEME)
        writer.add_run(DEFAULT_RUN, DERIVATION)
        writer.checkpoint(tmp_path / "array.fvl")
        engine.attach(tmp_path / "array.fvl")
    else:
        # The engine only ingests columnar runs; register the legacy
        # value-object representation the way add_run would.
        labeler = SCHEME.label_run(DERIVATION, columnar=False)
        engine._shards[DEFAULT_RUN] = _RunShard(
            DEFAULT_RUN, arena=0, derivation=DERIVATION, labeler=labeler
        )
    yield engine
    engine.detach(DEFAULT_RUN)  # closes the mapped shard's file


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # the error itself is the thing under comparison
        return (type(exc), str(exc))


@pytest.mark.parametrize("n", [40, 1500])  # scalar path / vectorised on sealed stores
@pytest.mark.parametrize("variant", [FVLVariant.DEFAULT, FVLVariant.SPACE_EFFICIENT])
def test_depends_array_matches_list(engine, monkeypatch, n, variant):
    # 1500 pairs sit above the structural threshold; drop the plain one too
    # so sealed shards without an index take the vector path as well.
    monkeypatch.setattr(engine_module, "VECTOR_GROUP_THRESHOLD", 1000)
    pairs = _pairs(GREY, n)
    want = engine.depends_batch(pairs, GREY, variant=variant)
    got = engine.depends_batch(np.asarray(pairs, dtype=np.int64), GREY, variant=variant)
    assert got == want
    assert any(want) and not all(want)


def test_depends_array_matches_list_matrix_free(engine):
    pairs = _pairs(BLACK, 60)
    want = engine.depends_batch(pairs, BLACK, variant=MATRIX_FREE)
    got = engine.depends_batch(np.asarray(pairs, dtype=np.int64), BLACK, variant=MATRIX_FREE)
    assert got == want


def test_visible_array_matches_list(engine):
    uids = [uid for pair in _pairs(GREY, 80) for uid in pair]
    want = engine.is_visible_batch(uids, GREY)
    assert engine.is_visible_batch(np.asarray(uids, dtype=np.int64), GREY) == want


@pytest.mark.parametrize("n", [40, 1500])
def test_out_of_range_uid_raises_identically(engine, monkeypatch, n):
    monkeypatch.setattr(engine_module, "VECTOR_GROUP_THRESHOLD", 1000)
    pairs = _pairs(GREY, n)
    pairs[n // 2] = (pairs[n // 2][0], 10**9)
    from_list = _outcome(lambda: engine.depends_batch(pairs, GREY))
    from_array = _outcome(
        lambda: engine.depends_batch(np.asarray(pairs, dtype=np.int64), GREY)
    )
    assert from_list[0] is LabelingError
    assert from_array == from_list
    uids = [uid for pair in pairs for uid in pair]
    assert _outcome(
        lambda: engine.is_visible_batch(np.asarray(uids, dtype=np.int64), GREY)
    ) == _outcome(lambda: engine.is_visible_batch(uids, GREY))


def test_boundary_pairs_do_not_leak_numpy_scalars(tmp_path, monkeypatch):
    """The vector path's boundary branch hands ``store.label`` plain ints."""
    monkeypatch.setattr(engine_module, "STRUCTURAL_VECTOR_THRESHOLD", 1)
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
    engine.depends_batch(pairs, GREY)
    engine.detach(DEFAULT_RUN)
    assert seen and set(seen) == {int}
