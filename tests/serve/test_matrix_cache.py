"""Tests for the persistent hot-matrix cache (serve/matrix_cache.py)."""

from __future__ import annotations

import shutil

import pytest

from repro.core import FVLScheme, FVLVariant
from repro.core.run_labeler import RunLabeler
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.errors import LabelingError, SerializationError
from repro.model.projection import ViewProjection
from repro.serve import ProvenanceServer, load_hot_matrices, matrix_cache_path, save_hot_matrices
from repro.serve.matrix_cache import (
    _FILE_HEADER,
    _STATE_HEADER,
    CACHE_MAGIC,
    CACHE_VERSION,
    view_fingerprint,
)
from repro.store import checkpoint_run, compact
from repro.bench import sample_query_pairs
from repro.workloads import build_bioaid_specification, random_run, random_view


@pytest.fixture(scope="module")
def spec():
    return build_bioaid_specification()


@pytest.fixture(scope="module")
def scheme(spec):
    return FVLScheme(spec)


@pytest.fixture(scope="module")
def workload(spec):
    derivation = random_run(spec, 250, seed=31)
    view = random_view(spec, 6, seed=32, mode="grey", name="hot-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 300, seed=33)
    return derivation, view, pairs


@pytest.fixture()
def saved(scheme, workload, tmp_path):
    """A 2-segment run file plus a matrix cache written by a warm 'leader'."""
    derivation, view, pairs = workload
    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view, variant=FVLVariant.DEFAULT)
    run_file = tmp_path / "hot.fvl"
    labeler = RunLabeler(scheme.index)
    events = derivation.events
    half = len(events) // 2
    for event in events[:half]:
        labeler(event)
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    for event in events[half:]:
        labeler(event)
    checkpoint_run(run_file, labeler.store, labeler.tree.nodes)

    leader = QueryEngine(scheme)
    leader.attach(run_file)
    assert leader.depends_batch(pairs, view) == expected
    entries = save_hot_matrices(leader, DEFAULT_RUN)
    assert entries > 0
    return run_file, view, pairs, expected, entries


def _pair_entries(engine, view, variant=FVLVariant.DEFAULT):
    """``(id1, id2) -> (matrix | None, hits)`` of the default shard's decoder rows."""
    cache = engine.decoded_state(view, variant).decode_cache
    return {
        (id1, id2): (matrix, hits)
        for id1, id2, matrix, hits in cache.rows(engine.shard_arena())
    }


def _hottest(entries):
    """``(key, hits)`` of the row with the most hits."""
    key = max(entries, key=lambda k: entries[k][1])
    return key, entries[key][1]


# -- save ----------------------------------------------------------------------


def test_save_requires_positive_budget(scheme):
    with pytest.raises(ValueError, match="max_entries"):
        save_hot_matrices(QueryEngine(scheme), max_entries=0)


def test_save_labelled_shard_needs_explicit_run_file(scheme, workload, tmp_path):
    derivation, view, pairs = workload
    engine = QueryEngine(scheme)
    engine.add_run(DEFAULT_RUN, derivation)
    engine.depends_batch(pairs, view)
    with pytest.raises(LabelingError, match="run_file"):
        save_hot_matrices(engine, DEFAULT_RUN)
    run_file = tmp_path / "labelled.fvl"
    engine.checkpoint(run_file)
    # The labelled shard interns into the shared arena the checkpoint wrote,
    # so its hot matrices are valid against the file.
    assert save_hot_matrices(engine, DEFAULT_RUN, run_file=run_file) > 0


def test_save_ranks_by_hits_and_respects_budget(saved, scheme):
    run_file, view, pairs, expected, entries = saved
    engine = QueryEngine(scheme)
    engine.attach(run_file)
    assert engine.depends_batch(pairs, view) == expected
    # Re-query one pair many times so its matrix is unambiguously hottest.
    hot_pair = pairs[0]
    for _ in range(5):
        engine.depends_batch([hot_pair] * 3, view)
    assert save_hot_matrices(engine, DEFAULT_RUN, max_entries=1) == 1

    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    assert load_hot_matrices(follower) == 1
    (key,) = _pair_entries(follower, view)
    assert key == _hottest(_pair_entries(engine, view))[0]


def test_save_breaks_hit_ties_by_decision_order(saved, scheme):
    """All hits equal, budget n: the first n keys decided are the ones saved.

    A restarted process asks what its predecessor asked first (the warm-up
    frames), so on a tie the earlier decision is the better bet; a table that
    ranked ties by key would persist an arbitrary slice of the path-id space.
    """
    run_file, view, pairs, expected, _ = saved
    probe = QueryEngine(scheme)
    probe.attach(run_file)
    store = probe.mapped_store().store
    one_per_key = {}
    for d1, d2 in pairs:
        key = (store.row(d1)[0], store.row(d2)[2])
        if min(key) >= 0:
            one_per_key.setdefault(key, (d1, d2))
    # The later half of the key space is asked first.
    ordered = [one_per_key[key] for key in sorted(one_per_key, reverse=True)]
    first, second = ordered[: len(ordered) // 2], ordered[len(ordered) // 2 :]

    engine = QueryEngine(scheme)
    engine.attach(run_file)
    engine.depends_batch(first, view)
    early = _pair_entries(engine, view)
    engine.depends_batch(second, view)
    entries = _pair_entries(engine, view)
    assert len(early) >= 2 and len(entries) > len(early)
    assert {hits for _, hits in entries.values()} == {1}  # a perfect tie
    assert min(entries) not in early  # key order would start somewhere else
    assert list(entries)[: len(early)] == list(early)  # rows() lists in decision order

    budget = len(early) - 1
    assert save_hot_matrices(engine, DEFAULT_RUN, max_entries=budget) == budget
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    assert load_hot_matrices(follower) == budget
    seeded = _pair_entries(follower, view)
    assert list(seeded) == list(early)[:budget]  # and a reload keeps the ranking
    assert all(seeded[key] == early[key] for key in seeded)


def test_save_writes_an_empty_cache_when_nothing_is_hot(saved, scheme):
    run_file, view, pairs, expected, _ = saved
    cold = QueryEngine(scheme)
    cold.attach(run_file)
    assert save_hot_matrices(cold, DEFAULT_RUN) == 0
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    assert load_hot_matrices(follower) == 0  # honest empty file, not an error


# -- load ----------------------------------------------------------------------


def test_load_round_trip_warms_and_answers_bit_identical(saved, scheme):
    run_file, view, pairs, expected, entries = saved
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    assert not _pair_entries(follower, view)
    warmed = load_hot_matrices(follower)
    assert warmed == entries
    seeded = _pair_entries(follower, view)
    assert len(seeded) == entries
    assert follower.depends_batch(pairs, view) == expected


def test_load_requires_an_attached_shard(saved, scheme, workload):
    derivation, _, _ = workload
    engine = QueryEngine(scheme)
    engine.add_run(DEFAULT_RUN, derivation)
    with pytest.raises(LabelingError, match="attached"):
        load_hot_matrices(engine)


def test_load_missing_cache_is_zero_not_an_error(scheme, workload, tmp_path):
    derivation, view, pairs = workload
    engine = QueryEngine(scheme)
    engine.add_run(DEFAULT_RUN, derivation)
    run_file = tmp_path / "nocache.fvl"
    engine.checkpoint(run_file)
    follower = QueryEngine(scheme)
    follower.attach(run_file)
    assert load_hot_matrices(follower) == 0


def test_load_skips_unregistered_and_matrix_free_sections(saved, scheme):
    run_file, view, pairs, expected, entries = saved
    follower = QueryEngine(scheme)  # view never registered
    follower.attach(run_file)
    assert load_hot_matrices(follower) == 0
    assert follower.depends_batch(pairs, view) == expected  # cold but correct


def test_load_never_clobbers_decoded_matrices(saved, scheme):
    run_file, view, pairs, expected, entries = saved
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    assert follower.depends_batch(pairs, view) == expected  # decode first
    decoded = _pair_entries(follower, view)
    warmed = load_hot_matrices(follower)
    after = _pair_entries(follower, view)
    for key, (matrix, hits) in decoded.items():
        assert after[key] == (matrix, hits)  # the live row survived the seeding, hits and all
    assert warmed == entries - len(decoded)
    assert len(after) == entries


def test_cache_survives_compaction_of_the_same_run(saved, scheme):
    """Path ids are immutable, so a pre-compaction cache warms the new generation."""
    run_file, view, pairs, expected, entries = saved
    assert compact(run_file).compacted
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    assert load_hot_matrices(follower) == entries
    assert follower.depends_batch(pairs, view) == expected


def test_load_rejects_foreign_specification(saved, scheme):
    run_file, view, pairs, expected, _ = saved
    cache_file = matrix_cache_path(run_file)
    raw = bytearray(open(cache_file, "rb").read())
    header = list(_FILE_HEADER.unpack_from(raw))
    header[2] ^= 0xDEADBEEF  # flip the recorded grammar fingerprint
    raw[: _FILE_HEADER.size] = _FILE_HEADER.pack(*header)
    with open(cache_file, "wb") as handle:
        handle.write(raw)
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    with pytest.raises(SerializationError, match="specification"):
        load_hot_matrices(follower)


def test_load_rejects_newer_generation_cache(saved, scheme, tmp_path):
    run_file, view, pairs, expected, entries = saved
    stale_copy = tmp_path / "stale.fvl"
    shutil.copyfile(run_file, stale_copy)
    assert compact(run_file).compacted  # the real file moves to generation 1
    leader = QueryEngine(scheme)
    leader.attach(run_file)
    assert leader.depends_batch(pairs, view) == expected
    save_hot_matrices(leader, DEFAULT_RUN)  # cache tagged generation 1

    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(stale_copy)  # still generation 0
    with pytest.raises(SerializationError, match="generation"):
        load_hot_matrices(
            follower, cache_path=matrix_cache_path(run_file)
        )


def test_load_rejects_bad_magic_and_truncation(saved, scheme):
    run_file, view, pairs, expected, _ = saved
    cache_file = matrix_cache_path(run_file)
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)

    raw = open(cache_file, "rb").read()
    with open(cache_file, "wb") as handle:
        handle.write(raw[: _FILE_HEADER.size + 8])  # cut mid-section
    with pytest.raises(SerializationError, match="truncated"):
        load_hot_matrices(follower)

    with open(cache_file, "wb") as handle:
        handle.write(b"NOTACACH" + raw[8:])
    with pytest.raises(SerializationError, match="magic"):
        load_hot_matrices(follower)

    with open(cache_file, "wb") as handle:
        handle.write(
            _FILE_HEADER.pack(CACHE_MAGIC, CACHE_VERSION + 1, 0, 0, 0, 0)
        )
    with pytest.raises(SerializationError, match="version"):
        load_hot_matrices(follower)


def test_load_converts_garbled_sections_to_serialization_error(saved, scheme):
    """Corruption past the header (bad UTF-8, absurd dims) is one error type."""
    run_file, view, pairs, expected, _ = saved
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    with open(matrix_cache_path(run_file), "wb") as handle:
        handle.write(_FILE_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, 0, 0, 0, 1))
        handle.write(_STATE_HEADER.pack(2, 0, 1, 0))
        handle.write(b"\xff\xfe")  # not UTF-8
    with pytest.raises(SerializationError, match="corrupt matrix cache"):
        load_hot_matrices(follower)


def test_server_attach_swallows_corrupt_cache(saved, scheme):
    """A rotten side file must not take serving down — attach proceeds cold."""
    run_file, view, pairs, expected, _ = saved
    cache_file = matrix_cache_path(run_file)
    with open(cache_file, "wb") as handle:
        handle.write(b"garbage")
    engine = QueryEngine(scheme)
    engine.add_view(view)
    server = ProvenanceServer(engine)
    mapped, warmed = server.attach(run_file)
    assert warmed == 0
    assert isinstance(server.last_warm_error, SerializationError)
    futures = [server.submit(d1, d2, view) for d1, d2 in pairs]
    while server.pending:
        server.drain_once()
    assert [f.result() for f in futures] == expected


def test_view_fingerprint_separates_same_named_views(spec, scheme, workload, tmp_path):
    derivation, view, pairs = workload
    impostor = random_view(spec, 6, seed=99, mode="grey", name=view.name)
    assert view_fingerprint(view) != view_fingerprint(impostor)

    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    reference.depends_batch(pairs, view)
    run_file = tmp_path / "fp.fvl"
    reference.checkpoint(run_file)
    leader = QueryEngine(scheme)
    leader.attach(run_file)
    leader.depends_batch(pairs, view)
    assert save_hot_matrices(leader, DEFAULT_RUN) > 0

    follower = QueryEngine(scheme)
    follower.add_view(impostor)  # same name, different structure
    follower.attach(run_file)
    assert load_hot_matrices(follower) == 0  # skipped, never guessed at


# -- hit-count persistence (format v2) -----------------------------------------


def test_warm_seeded_hits_survive_load_then_save(saved, scheme):
    """A follower that loads the cache and re-saves keeps the warm working set.

    Before v2, seeded entries started at zero hits, so a follower
    saving under a tight budget ranked the leader's whole warm set below any
    entry it had touched even once — one load→save cycle could drop it all.
    """
    run_file, view, pairs, expected, entries = saved

    # The leader makes one pair unambiguously hottest, saves a 1-entry cache.
    leader = QueryEngine(scheme)
    leader.attach(run_file)
    assert leader.depends_batch(pairs, view) == expected
    hot_pair = pairs[0]
    for _ in range(5):
        leader.depends_batch([hot_pair] * 3, view)
    assert save_hot_matrices(leader, DEFAULT_RUN, max_entries=1) == 1
    leader_hottest_key, leader_hits = _hottest(_pair_entries(leader, view))
    assert leader_hits > 1

    # The follower loads it, touches a *different* pair once, then re-saves
    # under the same 1-entry budget.  The seeded entry must out-rank it.
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    assert load_hot_matrices(follower) == 1
    ((seeded_key, (_, seeded_hits)),) = _pair_entries(follower, view).items()
    assert seeded_key == leader_hottest_key and seeded_hits == leader_hits
    cold_pair = pairs[1] if pairs[1] != hot_pair else pairs[2]
    follower.depends_batch([cold_pair], view)
    assert save_hot_matrices(follower, DEFAULT_RUN, max_entries=1) == 1

    # A third tier still sees the original hottest pair, with its hits.
    third = QueryEngine(scheme)
    third.add_view(view)
    third.attach(run_file)
    assert load_hot_matrices(third) == 1
    ((key, (_, hits)),) = _pair_entries(third, view).items()
    assert key == leader_hottest_key and hits >= leader_hits


def test_v1_cache_files_rejected_loudly(saved, scheme):
    """The pre-hits format is refused (and the server warm path goes cold)."""
    run_file, view, pairs, expected, entries = saved
    cache_file = matrix_cache_path(run_file)
    with open(cache_file, "rb") as handle:
        raw = bytearray(handle.read())
    magic_end = len(CACHE_MAGIC)
    version = int.from_bytes(raw[magic_end : magic_end + 4], "little")
    assert version == CACHE_VERSION == 2
    raw[magic_end : magic_end + 4] = (1).to_bytes(4, "little")
    with open(cache_file, "wb") as handle:
        handle.write(bytes(raw))
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    with pytest.raises(SerializationError, match="version"):
        load_hot_matrices(follower)
