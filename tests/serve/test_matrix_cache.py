"""Tests for the persistent hot-matrix cache (serve/matrix_cache.py)."""

from __future__ import annotations

import shutil
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FVLScheme, FVLVariant
from repro.core.pair_table import NO_DEPENDENCY, VERDICT_TRUE, pair_paths
from repro.core.run_labeler import RunLabeler
from repro.engine import DEFAULT_RUN, QueryEngine, grammar_fingerprint
from repro.errors import CorruptionError, LabelingError, SerializationError
from repro.model.projection import ViewProjection
from repro.serve import ProvenanceServer, load_hot_matrices, matrix_cache_path, save_hot_matrices
from repro.obs import events as obs_events
from repro.obs.metrics import parse_exposition
from repro.serve.matrix_cache import (
    _COLUMNS,
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


def _write_raw(cache_file, body: bytes, header=None) -> None:
    """A cache file around ``body`` whose length and checksum fields are right."""
    fields = list(header or (CACHE_MAGIC, CACHE_VERSION, 0, 0, 0))[:5]
    with open(cache_file, "wb") as handle:
        handle.write(_FILE_HEADER.pack(*fields, len(body), zlib.crc32(body)) + body)


def _parse(raw: bytes):
    """``(header fields, sections)`` of a v3 file, by the layout of the module docstring.

    A section is a dict: ``head`` (the section header's fields as a list),
    ``names`` (bytes), one writable array per column, ``pool`` (the unpacked
    ``matrices x ports x ports`` blocks) and ``spans`` (name -> byte range in
    the file, the packed pool's included).
    """
    header = _FILE_HEADER.unpack_from(raw)
    sections, offset = [], _FILE_HEADER.size
    while offset < len(raw):
        head = list(_STATE_HEADER.unpack_from(raw, offset))
        spans = {"head": (offset, offset + _STATE_HEADER.size)}
        offset += _STATE_HEADER.size
        name_len, variant_len, _, n, ports, matrices = head
        section = {"head": head, "names": raw[offset : offset + name_len + variant_len]}
        offset += name_len + variant_len
        for name, dtype in _COLUMNS:
            section[name] = np.frombuffer(raw, dtype, n, offset).copy()
            spans[name] = (offset, offset + section[name].nbytes)
            offset += section[name].nbytes
        packed = np.frombuffer(raw, np.uint8, (matrices * ports * ports + 7) // 8, offset)
        section["pool"] = np.unpackbits(packed, count=matrices * ports * ports).reshape(
            matrices, ports, ports
        )
        spans["pool"] = (offset, offset + packed.nbytes)
        offset += packed.nbytes
        section["spans"] = spans
        sections.append(section)
    return header, sections


def _assemble(sections) -> bytes:
    """The body bytes of ``sections`` (as :func:`_parse` returns them), unchecked."""
    body = []
    for section in sections:
        body += [_STATE_HEADER.pack(*section["head"]), section["names"]]
        body += [section[name].astype(dtype).tobytes() for name, dtype in _COLUMNS]
        body.append(np.packbits(section["pool"]).tobytes())
    return b"".join(body)


def _hotmx_corruptions(server) -> int:
    """``corruption_detected_total{layer="hotmx"}`` as a scrape of the server reads it."""
    scraped = parse_exposition(server.metrics.exposition())
    return int(scraped.get(("corruption_detected_total", (("layer", "hotmx"),)), 0))


def _served(scheme, run_file, view) -> "tuple[ProvenanceServer, int]":
    """A fresh server over ``run_file``, attached with the warm path on; ``(server, warmed)``."""
    engine = QueryEngine(scheme)
    engine.add_view(view)
    server = ProvenanceServer(engine)
    return server, server.attach(run_file)[1]


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


def test_load_skips_unregistered_sections(saved, scheme):
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
            _FILE_HEADER.pack(CACHE_MAGIC, CACHE_VERSION + 1, 0, 0, 0, 0, 0)
        )
    with pytest.raises(SerializationError, match="version"):
        load_hot_matrices(follower)


def test_load_converts_garbled_sections_to_serialization_error(saved, scheme):
    """Corruption past the header (bad UTF-8, absurd dims) is one error type."""
    run_file, view, pairs, expected, _ = saved
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    cache_file = matrix_cache_path(run_file)
    body = _STATE_HEADER.pack(2, 0, 1, 0, 1, 0) + b"\xff\xfe"  # a name that is not UTF-8
    _write_raw(cache_file, body)
    with pytest.raises(SerializationError, match="corrupt matrix cache"):
        load_hot_matrices(follower)
    body = _STATE_HEADER.pack(0, 0, 1, 2**32 - 1, 2**32 - 1, 2**32 - 1)  # absurd dims
    _write_raw(cache_file, body)
    with pytest.raises(SerializationError, match="truncated"):
        load_hot_matrices(follower)
    _write_raw(cache_file, body[:5])  # not even a section header
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


def test_fingerprints_are_pinned_and_kept_on_their_object(spec):
    """Cross-process stable (golden values of the builds before they were kept) and computed once."""
    index = FVLScheme(spec).index
    view = random_view(spec, 8, seed=100, mode="grey", name="view-0")  # perf/inputs.py's first
    assert index.fingerprint is None and view.fingerprint is None
    assert grammar_fingerprint(index) == index.fingerprint == 4246578467
    assert view_fingerprint(view) == view.fingerprint == 3603000836
    twin = random_view(spec, 8, seed=100, mode="grey", name="another-name")
    assert view_fingerprint(twin) == 3603000836  # the name is not part of it


# -- the format (v3): the file is the table's columns --------------------------


def test_parse_and_assemble_agree_with_the_saver(saved):
    """The test's own reading of the layout reproduces the file byte for byte."""
    run_file, *_ = saved
    raw = open(matrix_cache_path(run_file), "rb").read()
    header, sections = _parse(raw)
    body = _assemble(sections)
    assert raw == _FILE_HEADER.pack(*header[:5], len(body), zlib.crc32(body)) + body
    (section,) = sections
    assert section["names"] == b"hot-view" + FVLVariant.DEFAULT.value.encode()


def test_no_bit_flip_is_a_silent_wrong_answer(saved, scheme):
    """One flipped bit anywhere: a typed refusal and a cold attach, or the same answers.

    Offsets are spread over the file header, the section header, every column
    and the packed pool.  On the per-entry format of v2, which carried no
    checksum, flipped matrix bits loaded cleanly and answered wrongly.
    """
    run_file, view, pairs, expected, entries = saved
    cache_file = matrix_cache_path(run_file)
    raw = open(cache_file, "rb").read()
    (section,) = _parse(raw)[1]
    spans = {"file header": (0, _FILE_HEADER.size), **section["spans"]}
    assert set(spans) == {"file header", "head", "pool"} | {name for name, _ in _COLUMNS}
    flips = [
        (int(at), bit % 8)
        for lo, hi in spans.values()
        for bit, at in enumerate(np.linspace(lo, hi - 1, 32).astype(int))
    ]
    assert len(set(flips)) >= 200
    server, warmed = _served(scheme, run_file, view)
    intact = _pair_entries(server.engine, view)
    assert warmed == entries == len(intact)
    refused = 0
    for at, bit in flips:
        damaged = bytearray(raw)
        damaged[at] ^= 1 << bit
        with open(cache_file, "wb") as handle:
            handle.write(damaged)
        server, warmed = _served(scheme, run_file, view)
        if isinstance(server.last_warm_error, SerializationError):
            assert warmed == 0 and not _pair_entries(server.engine, view)
            refused += 1
        else:  # a header field the checks read only one way (a lower watermark, say)
            assert at < _FILE_HEADER.size
            assert _pair_entries(server.engine, view) == intact, f"bit {bit} of byte {at} was loaded"
        assert server.engine.depends_batch(pairs, view) == expected
    assert refused >= len(flips) - 16


def test_every_byte_of_a_small_section_is_covered(saved, scheme):
    run_file, view, pairs, expected, _ = saved
    leader = QueryEngine(scheme)
    leader.attach(run_file)
    assert leader.depends_batch(pairs, view) == expected
    cache_file = matrix_cache_path(run_file)
    assert save_hot_matrices(leader, DEFAULT_RUN, max_entries=6) == 6
    raw = open(cache_file, "rb").read()
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    for at in range(_FILE_HEADER.size, len(raw)):
        damaged = bytearray(raw)
        damaged[at] ^= 0xFF
        with open(cache_file, "wb") as handle:
            handle.write(damaged)
        with pytest.raises(CorruptionError, match="checksum"):
            load_hot_matrices(follower)
    assert not _pair_entries(follower, view)
    with open(cache_file, "wb") as handle:
        handle.write(raw)
    assert load_hot_matrices(follower) == 6
    assert follower.depends_batch(pairs, view) == expected


@pytest.fixture(scope="module")
def two_views(spec, scheme, workload, tmp_path_factory):
    """A checkpointed run plus two views' batches: two sections per cache."""
    derivation, view, pairs = workload
    other = random_view(spec, 4, seed=77, mode="black", name="other-view")
    items = sorted(ViewProjection(derivation.run, other).visible_items)
    other_pairs = sample_query_pairs(items, 200, seed=78)
    writer = QueryEngine(scheme)
    writer.add_run(DEFAULT_RUN, derivation)
    directory = tmp_path_factory.mktemp("two-views")
    run_file = directory / "two.fvl"
    writer.checkpoint(run_file)
    return run_file, directory / "two.hotmx", [(view, pairs), (other, other_pairs)]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    budget=st.integers(min_value=1, max_value=400),
    again=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 199)), max_size=40),
)
def test_round_trip_is_the_table(scheme, two_views, budget, again):
    """save -> load yields ``table.take(chosen)``, column for column, in rank order."""
    run_file, cache_file, batches = two_views
    leader = QueryEngine(scheme)
    leader.attach(run_file)
    for view, pairs in batches:
        leader.depends_batch(pairs, view)
    for which, at in again:  # the hit pattern: these pairs are asked once more, in this order
        view, pairs = batches[which]
        leader.depends_batch([pairs[at]], view)
    arena = leader.shard_arena()
    tables = [leader.decoded_state(view).decode_cache.table(arena) for view, _ in batches]
    decided = [table.decoder_rows() for table in tables]
    hits = np.concatenate([table.hits[at] for table, at in zip(tables, decided)])
    hottest = np.argsort(-hits, kind="stable")[:budget]
    owner = np.repeat(np.arange(len(tables)), [at.size for at in decided])[hottest]

    assert save_hot_matrices(leader, cache_path=cache_file, max_entries=budget) == hottest.size
    follower = QueryEngine(scheme)
    for view, _ in batches:
        follower.add_view(view)
    follower.attach(run_file)
    assert load_hot_matrices(follower, cache_path=cache_file) == hottest.size
    for section, (table, at, (view, _)) in enumerate(zip(tables, decided, batches)):
        chosen = at[hottest[owner == section] - sum(a.size for a in decided[:section])]
        if not chosen.size:
            continue  # no row of this view made the cut: no section, no state
        kept = table.take(np.sort(chosen))
        loaded = follower.decoded_state(view).decode_cache.table(follower.shard_arena())
        for column in ("ports", "keys", "rows", "cols", "hits"):
            assert np.array_equal(getattr(loaded, column), getattr(kept, column)), column
        assert np.array_equal(np.minimum(loaded.off, 0), np.minimum(kept.off, 0))
        everything = np.arange(len(kept))
        assert np.array_equal(loaded._blocks(everything), kept._blocks(everything))
        assert np.array_equal(loaded.keys[np.argsort(loaded.order)], table.keys[chosen])


def test_hostile_columns_under_a_valid_checksum_are_refused(saved, scheme):
    """Columns no saver writes, checksummed as if one had: typed refusals, nothing admitted."""
    run_file, view, pairs, expected, entries = saved
    cache_file = matrix_cache_path(run_file)
    header, (genuine,) = _parse(open(cache_file, "rb").read())
    follower = QueryEngine(scheme)
    follower.add_view(view)
    mapped = follower.attach(run_file)
    n_paths, ports = mapped.n_paths, genuine["head"][4]
    matrix = np.nonzero(genuine["off"] == 0)[0]
    block, _, column = (int(at[0]) for at in np.nonzero(genuine["pool"]))  # some set bit
    assert matrix.size == entries  # this workload decides no pair "no dependency"

    def descending(s):
        s["keys"] = s["keys"][::-1]

    def duplicate(s):
        s["keys"][1] = s["keys"][0]

    def tall(s):
        s["rows"][matrix[0]] = ports + 1

    def negative_shape(s):
        s["cols"][matrix[0]] = -1

    def verdict(s):
        s["off"][0] = VERDICT_TRUE

    def repeated_rank(s):
        s["order"][1] = s["order"][0]

    def rank_out_of_range(s):
        s["order"][np.argmax(s["order"])] = entries

    def one_block_short(s):
        s["head"][5] -= 1
        s["pool"] = s["pool"][:-1]

    def one_sentinel_more(s):
        s["off"][matrix[-1]] = -1

    def padding_bit(s):  # the shape shrinks from under a set bit
        s["cols"][matrix[block]] = column

    def foreign_producer(s):
        s["keys"][-1] = n_paths << 32

    def foreign_consumer(s):
        s["keys"][-1] = (int(s["keys"][-1]) >> 32 << 32) | n_paths

    def negative_key(s):
        s["keys"][0] = -1

    def other_ports(s):
        s["head"][4] += 1
        s["pool"] = np.zeros((matrix.size, ports + 1, ports + 1), dtype=np.uint8)

    def negative_hits(s):
        s["hits"][0] = -1

    def rows_beyond_the_file(s):
        s["head"][3] += 1

    hostile = [
        descending, duplicate, tall, negative_shape, verdict, repeated_rank, rank_out_of_range,
        one_block_short, one_sentinel_more, padding_bit, foreign_producer, foreign_consumer,
        negative_key, other_ports, negative_hits, rows_beyond_the_file,
    ]
    for damage in hostile:
        section = {name: value.copy() if hasattr(value, "copy") else value for name, value in genuine.items()}
        section["head"] = list(genuine["head"])
        damage(section)
        _write_raw(cache_file, _assemble([section]), header)
        with pytest.raises(CorruptionError):  # never an IndexError or a ValueError
            load_hot_matrices(follower)
        assert not _pair_entries(follower, view), damage.__name__
    _write_raw(cache_file, _assemble([genuine]) + b"\0", header)  # bytes behind the last section
    with pytest.raises(CorruptionError):
        load_hot_matrices(follower)
    _write_raw(cache_file, _assemble([genuine]), header)
    assert load_hot_matrices(follower) == entries
    loaded = _pair_entries(follower, view)
    assert follower.depends_batch(pairs, view) == expected

    # A sentinel row written consistently (no block, one matrix fewer) is the
    # format's other decoder row and loads as one.
    section = {**genuine, "head": list(genuine["head"])}
    section["head"][5] -= 1
    section["off"] = np.where(np.arange(entries) == 3, NO_DEPENDENCY, genuine["off"])
    section["rows"], section["cols"] = (np.where(section["off"] == 0, genuine[c], 0) for c in ("rows", "cols"))
    section["pool"] = np.delete(genuine["pool"], 3, axis=0)
    _write_raw(cache_file, _assemble([section]), header)
    other = QueryEngine(scheme)
    other.add_view(view)
    other.attach(run_file)
    assert load_hot_matrices(other) == entries
    seeded = _pair_entries(other, view)
    absent = [key for key, (matrix, _) in seeded.items() if matrix is None]
    assert absent == [tuple(int(half) for half in pair_paths(int(genuine["keys"][3])))]
    assert {key: entry for key, entry in seeded.items() if key not in absent} == {
        key: entry for key, entry in loaded.items() if key not in absent
    }


def test_a_damaged_side_file_is_counted_and_reported(saved, scheme, monkeypatch):
    """Checksum failures reach the watchdog's corruption SLO; a foreign or absent file does not."""
    run_file, view, pairs, expected, entries = saved
    cache_file = matrix_cache_path(run_file)
    emitted = []
    monkeypatch.setattr(obs_events, "emit", lambda event, **fields: emitted.append((event, fields)))
    raw = bytearray(open(cache_file, "rb").read())

    engine = QueryEngine(scheme)
    engine.add_view(view)
    server = ProvenanceServer(engine)
    watchdog = server.attach_watchdog(start=False)
    watchdog.tick()
    assert server.attach(run_file)[1] == entries  # intact: warm, nothing counted
    engine.detach(DEFAULT_RUN)
    foreign = list(_FILE_HEADER.unpack_from(raw))
    foreign[2] ^= 0xDEADBEEF  # another specification's: refused, not damage
    with open(cache_file, "wb") as handle:
        handle.write(_FILE_HEADER.pack(*foreign) + raw[_FILE_HEADER.size :])
    assert server.attach(run_file)[1] == 0 and "specification" in str(server.last_warm_error)
    engine.detach(DEFAULT_RUN)
    assert _hotmx_corruptions(server) == 0 and not emitted
    assert not watchdog.tick()["corruption"]["breached"]

    raw[len(raw) // 2] ^= 0x04
    with open(cache_file, "wb") as handle:
        handle.write(raw)
    assert server.attach(run_file)[1] == 0
    assert isinstance(server.last_warm_error, CorruptionError)
    assert isinstance(server.stats.last_warm_error, CorruptionError)
    assert _hotmx_corruptions(server) == 1
    ((event, fields),) = emitted
    assert event == "corruption" and fields["path"] == cache_file and "checksum" in fields["reason"]
    assert watchdog.tick()["corruption"]["breached"]
    assert engine.depends_batch(pairs, view) == expected  # cold, and right


# -- hit-count persistence (since format v2) -----------------------------------


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
    """The per-entry formats (v1, and v2 with its hit column) are refused by version.

    A v2 file is what an older build leaves beside a run file: the server's
    warm path goes cold on it, names the version, and counts no corruption.
    """
    run_file, view, pairs, expected, entries = saved
    cache_file = matrix_cache_path(run_file)
    with open(cache_file, "rb") as handle:
        raw = bytearray(handle.read())
    magic_end = len(CACHE_MAGIC)
    version = int.from_bytes(raw[magic_end : magic_end + 4], "little")
    assert version == CACHE_VERSION == 3
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    v2_header = struct.Struct("<8sIQQQI")  # shorter than v3's: still "version", not "truncated"
    old_files = [
        bytes(raw[:magic_end]) + (1).to_bytes(4, "little") + bytes(raw[magic_end + 4 :]),
        v2_header.pack(CACHE_MAGIC, 2, 0, 0, 0, 0),
        v2_header.pack(CACHE_MAGIC, 2, 0, 0, 0, 1)
        + struct.pack("<HHQI", 1, 1, 1, 1) + b"vd" + struct.pack("<qqiiQ", 0, 1, 1, 1, 7) + b"\x80",
    ]
    for old in old_files:
        with open(cache_file, "wb") as handle:
            handle.write(old)
        with pytest.raises(SerializationError, match="version") as refused:
            load_hot_matrices(follower)
        assert not isinstance(refused.value, CorruptionError)

    engine = QueryEngine(scheme)
    engine.add_view(view)
    server = ProvenanceServer(engine)
    _, warmed = server.attach(run_file)
    assert warmed == 0 and "version 2" in str(server.last_warm_error)
    assert _hotmx_corruptions(server) == 0
    assert engine.depends_batch(pairs, view) == expected
