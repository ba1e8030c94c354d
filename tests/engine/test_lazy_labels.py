"""The lazy static label and bank: a warm restart builds neither for a view it does not read.

A view's :class:`~repro.engine.cache.StaticViewState` builds its label on the
first read, once, and its decode bank on the first kernel pass, once; a
warm attach whose frames are all table hits builds neither.  Safety still
comes before every answer: a view is *proven* when its label has been
built or when a warm attach admitted a ``.hotmx`` section for it
(whole-file checksum, grammar and view fingerprints all matching).  A query
on an unproven view labels it first, so an unsafe view raises on every
query, an empty batch included, and nothing stays interned for it.
"""

from __future__ import annotations

import struct
import sys
import threading
import time
import zlib

import numpy as np
import pytest

from repro import FVLScheme, QueryEngine
from repro.bench import sample_query_pairs
from repro.engine import DEFAULT_RUN
from repro.engine import cache as engine_cache
from repro.errors import UnsafeWorkflowError
from repro.model import Derivation, WorkflowSpecification, default_view
from repro.model.projection import ViewProjection
from repro.serve import load_hot_matrices, matrix_cache_path, save_hot_matrices
from repro.serve.matrix_cache import _FILE_HEADER, _STATE_HEADER
from repro.workloads import build_bioaid_specification, build_unsafe_example, random_run, random_view

pytestmark = pytest.mark.usefixtures("detach_engines")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A run file and the side file a leader saved after one frame.

    Returns the scheme, the run file, the view, the frame's pairs (table hits
    after a warm attach), pairs of the same view the file does not hold, a
    few uids, and a labelled reference engine's answers to all three.
    """
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 400, seed=21)
    view = random_view(spec, 8, seed=22, mode="grey", name="lazy-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    warm, cold = (np.asarray(sample_query_pairs(items, 300, seed=seed)) for seed in (23, 24))
    uids = np.asarray(sorted(derivation.run.data_items)[::7], dtype=np.int64)
    run_file = tmp_path_factory.mktemp("lazy") / "run.fvl"
    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    reference.checkpoint(run_file)
    leader = QueryEngine(scheme)
    leader.attach(run_file)
    leader.depends_batch(warm, view)
    assert save_hot_matrices(leader) > 0
    expected = {
        "warm": reference.depends_batch(warm, view),
        "cold": reference.depends_batch(cold, view),
        "visible": reference.is_visible_batch(uids, view),
    }
    yield scheme, run_file, view, warm, cold, uids, expected
    leader.detach(DEFAULT_RUN)


def _follower(scheme, run_file, view, **kwargs) -> QueryEngine:
    """An engine that attached the run file warm: its view proven by the section, unlabelled, no bank."""
    engine = QueryEngine(scheme, **kwargs)
    engine.add_view(view)
    engine.attach(run_file)
    assert load_hot_matrices(engine) > 0
    assert engine.stats.labels_built == 0
    static = engine.decoded_state(view.name).static
    assert not static.labelled and not static.banked
    return engine


def test_a_proven_view_labels_itself_on_the_first_read_that_needs_it(saved):
    scheme, run_file, view, warm, cold, uids, expected = saved
    engine = _follower(scheme, run_file, view)
    static = engine.decoded_state(view.name).static
    assert np.array_equal(engine.depends_batch(warm, view.name), expected["warm"])
    assert np.array_equal(engine.depends_batch(warm[:0], view.name), expected["warm"][:0])
    assert engine.stats.labels_built == 0 and not static.banked  # table hits read neither
    assert np.array_equal(engine.depends_batch(cold, view.name), expected["cold"])
    assert engine.stats.labels_built == 1 and static.banked  # a kernel pass read both
    assert np.array_equal(engine.is_visible_batch(uids, view.name), expected["visible"])
    assert engine.stats.labels_built == 1 and static.labelled

    engine = _follower(scheme, run_file, view)
    assert np.array_equal(engine.is_visible_batch(uids, view.name), expected["visible"])
    assert engine.stats.labels_built == 1  # visibility flags read the label
    assert not engine.decoded_state(view.name).static.banked  # and no bank


def test_a_section_whose_view_fingerprint_differs_proves_nothing(saved, tmp_path):
    """The same view under a forged section fingerprint: skipped, and the first query labels it."""
    scheme, run_file, view, warm, _, _, expected = saved
    with open(matrix_cache_path(run_file), "rb") as handle:
        raw = bytearray(handle.read())
    header = list(_FILE_HEADER.unpack_from(raw))
    fingerprint_at = _FILE_HEADER.size + struct.calcsize("<H")
    (fingerprint,) = struct.unpack_from("<Q", raw, fingerprint_at)
    struct.pack_into("<Q", raw, fingerprint_at, fingerprint ^ 1)
    body = bytes(raw[_FILE_HEADER.size :])
    forged = tmp_path / "forged.hotmx"
    forged.write_bytes(_FILE_HEADER.pack(*header[:5], len(body), zlib.crc32(body)) + body)
    assert _STATE_HEADER.unpack_from(raw, _FILE_HEADER.size)[1] == fingerprint ^ 1

    engine = QueryEngine(scheme)
    engine.add_view(view)
    engine.attach(run_file)
    assert load_hot_matrices(engine, cache_path=forged) == 0
    assert engine._statics == {} and engine.stats.labels_built == 0
    assert np.array_equal(engine.depends_batch(warm, view.name), expected["warm"])
    assert engine.stats.labels_built == 1


def test_an_unsafe_view_raises_on_an_empty_batch_and_is_never_interned():
    grammar, dependencies = build_unsafe_example()
    spec = WorkflowSpecification(grammar, dependencies)
    engine = QueryEngine(spec)
    engine.add_run(DEFAULT_RUN, Derivation(spec))
    view = default_view(spec)
    for _ in range(2):
        with pytest.raises(UnsafeWorkflowError):
            engine.depends_batch(np.zeros((0, 2), dtype=np.int64), view)
        with pytest.raises(UnsafeWorkflowError):
            engine.is_visible_batch([], view)
        with pytest.raises(UnsafeWorkflowError):
            engine.decoded_state(view)
    assert engine._statics == {} and not engine.decoded_states()
    assert engine.stats.labels_built == 0


def test_threads_racing_the_first_label_read_build_one_label(saved, monkeypatch):
    """More threads than cores read a proven view's label at once: one label, one bank.

    Half the threads ask visibility frames (which read the label straight
    away), half ask keys the table misses (whose kernel pass reads the bank,
    then the label).  The labeller and the bank sleep before they build,
    which holds each first-read window open for every racer.
    """
    scheme, run_file, view, _, cold, uids, expected = saved
    engine = _follower(scheme, run_file, view)
    label_view = scheme.label_view
    banks = []

    def slow_label_view(*args, **kwargs):
        time.sleep(0.05)
        return label_view(*args, **kwargs)

    class SlowBank(engine_cache.MatrixBank):
        def __init__(self, index) -> None:
            time.sleep(0.05)
            banks.append(self)
            super().__init__(index)

    monkeypatch.setattr(scheme, "label_view", slow_label_view)
    monkeypatch.setattr(engine_cache, "MatrixBank", SlowBank)
    n_threads = 8  # more than the cores of any CI host this runs on
    barrier = threading.Barrier(n_threads)
    answers = [None] * n_threads
    errors = []

    def race(slot: int) -> None:
        try:
            barrier.wait(timeout=60)
            if slot % 2:
                answers[slot] = engine.depends_batch(cold, view.name)
            else:
                answers[slot] = engine.is_visible_batch(uids, view.name)
        except BaseException as exc:  # surfaced below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=race, args=(slot,)) for slot in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # force interleavings inside the first-read window
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert engine.stats.labels_built == 1
    assert banks == [engine.decoded_state(view.name).static.bank]
    for kind, asked in (("visible", answers[0::2]), ("cold", answers[1::2])):
        assert all(np.array_equal(answer, expected[kind]) for answer in asked)
        assert all(answer.tobytes() == asked[0].tobytes() for answer in asked)


def test_static_bytes_count_the_label_from_the_batch_that_builds_it(saved, decoded_state_bytes):
    """The static gauge equals the walk before and after the label and the bank
    are built mid-batch; the walk builds neither; budgets still bite."""
    scheme, run_file, view, warm, cold, _, expected = saved

    def gauge(engine) -> tuple[int, int]:
        parts = engine.metrics.snapshot()["engine_decoded_state_bytes"]
        return parts[("per_run",)], parts[("static",)]

    engine = _follower(scheme, run_file, view)
    static = engine.decoded_state(view.name).static
    loaded = gauge(engine)
    assert loaded == decoded_state_bytes(engine) and loaded[1] == 0
    assert not static.banked and not static.labelled  # the walk built neither
    assert np.array_equal(engine.depends_batch(cold, view.name), expected["cold"])
    assert engine.stats.labels_built == 1
    grown = gauge(engine)
    assert grown == decoded_state_bytes(engine) and sum(grown) == engine.stats.views.bytes
    label_nbytes, bank_nbytes = static.label.nbytes, static.bank.nbytes
    assert label_nbytes > 0 and bank_nbytes > 0 and grown[1] == label_nbytes + bank_nbytes
    full = len(engine.decoded_state(view.name).table(engine.shard_arena()))

    # Room for the loaded rows and half of what the cold batch added, once
    # the label is counted: the label's bytes come out of the pair tables' room.
    budget = grown[1] + (loaded[0] + grown[0]) // 2
    bounded = _follower(scheme, run_file, view, state_budget_bytes=budget)
    assert gauge(bounded) == loaded
    assert np.array_equal(bounded.depends_batch(cold, view.name), expected["cold"])
    assert bounded.stats.labels_built == 1
    assert gauge(bounded) == decoded_state_bytes(bounded)
    assert bounded.stats.views.bytes <= budget
    assert len(bounded.decoded_state(view.name).table(bounded.shard_arena())) < full
