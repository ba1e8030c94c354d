"""Tests for the persistent hot-matrix cache (serve/matrix_cache.py)."""

from __future__ import annotations

import os
import shutil
import struct
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FVLScheme
from repro.core.pair_table import (
    ABSENT,
    NO_DEPENDENCY,
    VERDICT_FALSE,
    VERDICT_TRUE,
    PairTable,
    pair_paths,
)
from repro.core.run_labeler import RunLabeler
from repro.engine import DEFAULT_RUN, QueryEngine, grammar_fingerprint
from repro.errors import CorruptionError, LabelingError, SerializationError
from repro.model import (
    DataEdge,
    Production,
    SimpleWorkflow,
    WorkflowGrammar,
    WorkflowSpecification,
    default_view,
)
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
from repro.workloads import build_bioaid_specification, build_running_example, random_run, random_view

# The benchmark's inputs (``perf/inputs.py``), for each workload's own side file.
if str(Path(__file__).resolve().parents[2]) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
from perf import inputs as perf_inputs  # noqa: E402


pytestmark = pytest.mark.usefixtures("detach_engines")


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
    expected = reference.depends_batch(pairs, view)
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
    assert np.array_equal(leader.depends_batch(pairs, view), expected)
    entries = save_hot_matrices(leader, DEFAULT_RUN)
    assert entries > 0
    return run_file, view, pairs, expected, entries


def _table(engine, view):
    """The default shard's pair table for ``view``."""
    return engine.decoded_state(view).table(engine.shard_arena())


def _rows(engine, view):
    """``(id1, id2) -> (off, rows, cols, block, hits)`` of every row, in decision order.

    Every kind of row is listed — matrix, no-dependency, verdict and boundary
    (``ABSENT`` on a side) — with ``off`` 0 for a matrix or its sentinel and
    ``block`` the row's zero-padded bits as bytes.
    """
    table = _table(engine, view)
    at = np.argsort(table.order, kind="stable")
    columns = (np.minimum(table.off, 0), table.rows, table.cols)
    return {
        pair_paths(key): (*fields, block.tobytes(), hits)
        for key, *fields, hits, block in zip(
            table.keys[at].tolist(),
            *(column[at].tolist() for column in columns),
            table.hits[at].tolist(),
            table._blocks(at),
        )
    }


def _columns(engine, view):
    """Every column of the default shard's table, by name, for a whole-table comparison."""
    table = _table(engine, view)
    return {name: np.asarray(getattr(table, name)) for name in PairTable.__slots__}


def _hottest(entries):
    """``(key, hits)`` of the row with the most hits (the first decided, on a tie)."""
    key = max(entries, key=lambda k: entries[k][-1])
    return key, entries[key][-1]


def _write_raw(cache_file, body: bytes, header) -> None:
    """A cache file around ``body`` whose length and checksum fields are right."""
    fields = list(header)[:5]
    with open(cache_file, "wb") as handle:
        handle.write(_FILE_HEADER.pack(*fields, len(body), zlib.crc32(body)) + body)


def _parse(raw: bytes):
    """``(header fields, sections)`` of a v5 file, by the layout of the module docstring.

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
        name_len, _, n, ports, matrices = head
        section = {"head": head, "names": raw[offset : offset + name_len]}
        offset += name_len
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


def _kinds(section) -> dict:
    """Positions of a parsed section's rows by kind (interior matrix rows under "matrix")."""
    off = section["off"]
    id1, id2 = pair_paths(section["keys"])
    boundary = (id1 == ABSENT) | (id2 == ABSENT)
    return {
        "matrix": np.nonzero((off == 0) & ~boundary)[0],
        "boundary": np.nonzero(boundary)[0],
        "verdict": np.nonzero(off <= VERDICT_FALSE)[0],
    }


def _subsection(section, select) -> dict:
    """The section of ``section``'s rows at ascending ``select``, written as a saver would."""
    sub = {"names": section["names"], "head": list(section["head"])}
    for name, _ in _COLUMNS:
        sub[name] = section[name][select].copy()
    sub["order"] = np.argsort(np.argsort(sub["order"]))  # ranks among the kept rows
    blocks = np.cumsum(section["off"] == 0) - 1  # each matrix row's block
    sub["pool"] = section["pool"][blocks[select][sub["off"] == 0]]
    sub["head"][2], sub["head"][4] = len(select), len(sub["pool"])
    return sub


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
    assert np.array_equal(engine.depends_batch(pairs, view), expected)
    # Re-query one pair many times so its matrix is unambiguously hottest.
    hot_pair = pairs[0]
    for _ in range(5):
        engine.depends_batch([hot_pair] * 3, view)
    assert save_hot_matrices(engine, DEFAULT_RUN, max_entries=1) == 1

    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    assert load_hot_matrices(follower) == 1
    (key,) = _rows(follower, view)
    assert key == _hottest(_rows(engine, view))[0]


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
    early = _rows(engine, view)
    engine.depends_batch(second, view)
    entries = _rows(engine, view)
    assert len(early) >= 2 and len(entries) > len(early)
    assert {entry[-1] for entry in entries.values()} == {1}  # a perfect tie
    assert min(entries) not in early  # key order would start somewhere else
    assert list(entries)[: len(early)] == list(early)  # _rows lists in decision order

    budget = len(early) - 1
    assert save_hot_matrices(engine, DEFAULT_RUN, max_entries=budget) == budget
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    assert load_hot_matrices(follower) == budget
    seeded = _rows(follower, view)
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
    assert not _rows(follower, view)
    warmed = load_hot_matrices(follower)
    assert warmed == entries
    seeded = _rows(follower, view)
    assert len(seeded) == entries  # rows of every kind, not the decoder's alone
    assert np.array_equal(follower.depends_batch(pairs, view), expected)


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
    assert np.array_equal(follower.depends_batch(pairs, view), expected)  # cold but correct


def test_load_never_clobbers_decoded_matrices(saved, scheme):
    run_file, view, pairs, expected, entries = saved
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    assert np.array_equal(follower.depends_batch(pairs, view), expected)  # decode first
    decoded = _rows(follower, view)
    warmed = load_hot_matrices(follower)
    after = _rows(follower, view)
    for key, entry in decoded.items():
        assert after[key] == entry  # the live row survived the seeding, hits and all
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
    assert np.array_equal(follower.depends_batch(pairs, view), expected)


def test_load_rejects_foreign_specification(saved, scheme):
    """Another grammar's fingerprint is refused, and so is 0, which no saver writes.

    The header sits outside the body's checksum, and a verdict row answers a
    pair without a single port read: under a foreign specification it would
    answer the wrong grammar silently.
    """
    run_file, view, pairs, expected, _ = saved
    cache_file = matrix_cache_path(run_file)
    raw = bytearray(Path(cache_file).read_bytes())
    header = list(_FILE_HEADER.unpack_from(raw))
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    for fingerprint in (header[2] ^ 0xDEADBEEF, 0):  # another grammar's; none at all
        raw[: _FILE_HEADER.size] = _FILE_HEADER.pack(*header[:2], fingerprint, *header[3:])
        with open(cache_file, "wb") as handle:
            handle.write(raw)
        with pytest.raises(SerializationError, match="specification") as refused:
            load_hot_matrices(follower)
        assert not isinstance(refused.value, CorruptionError)
        assert not _rows(follower, view)


def test_load_rejects_newer_generation_cache(saved, scheme, tmp_path):
    run_file, view, pairs, expected, entries = saved
    stale_copy = tmp_path / "stale.fvl"
    shutil.copyfile(run_file, stale_copy)
    assert compact(run_file).compacted  # the real file moves to generation 1
    leader = QueryEngine(scheme)
    leader.attach(run_file)
    assert np.array_equal(leader.depends_batch(pairs, view), expected)
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

    raw = Path(cache_file).read_bytes()
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
    header = CACHE_MAGIC, CACHE_VERSION, grammar_fingerprint(scheme.index), 0, 0
    body = _STATE_HEADER.pack(2, 1, 0, 1, 0) + b"\xff\xfe"  # a name that is not UTF-8
    _write_raw(cache_file, body, header)
    with pytest.raises(SerializationError, match="corrupt matrix cache"):
        load_hot_matrices(follower)
    body = _STATE_HEADER.pack(0, 1, 2**32 - 1, 2**32 - 1, 2**32 - 1)  # absurd dims
    _write_raw(cache_file, body, header)
    with pytest.raises(SerializationError, match="truncated"):
        load_hot_matrices(follower)
    _write_raw(cache_file, body[:5], header)  # not even a section header
    with pytest.raises(SerializationError, match="corrupt matrix cache"):
        load_hot_matrices(follower)


def test_server_attach_swallows_corrupt_cache(saved, scheme, ask):
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
    assert np.array_equal(ask(server, "depends", pairs, view), expected)


def test_an_unreadable_side_file_attaches_cold(saved, scheme, ask):
    """A directory where the side file should be is refused like a stale cache.

    It used to raise out of ``ProvenanceServer.attach`` after the engine had
    registered the shard, so the run was attached but reported as failed, and
    a retry failed again with "already registered".
    """
    run_file, view, pairs, expected, _ = saved
    cache_file = matrix_cache_path(run_file)
    os.remove(cache_file)
    os.mkdir(cache_file)
    engine = QueryEngine(scheme)
    engine.add_view(view)
    server = ProvenanceServer(engine)
    assert server.attach(run_file) == (engine.mapped_store(), 0)
    assert isinstance(server.last_warm_error, SerializationError)
    assert not isinstance(server.last_warm_error, CorruptionError)
    assert _hotmx_corruptions(server) == 0
    assert np.array_equal(ask(server, "depends", pairs, view), expected)


def _rewired(specification: WorkflowSpecification, *, crossed: bool = True) -> WorkflowSpecification:
    """``specification`` with production 1's ``C -> c`` and ``C -> d`` edges crossed.

    On the running example, ``C,1 -> c,1`` and ``C,2 -> d,1`` become
    ``C,2 -> c,1`` and ``C,1 -> d,1``: the same modules at the same
    positions, the same port counts, another dependency structure.  With
    ``crossed=False`` the edges stay as they are, declared in reverse order.
    """
    grammar = specification.grammar
    body = grammar.production(1).rhs
    swap = {("C", 1, "c", 1): ("C", 2, "c", 1), ("C", 2, "d", 1): ("C", 1, "d", 1)}
    edges = []
    for edge in reversed(body.edges):
        fields = (edge.src_occurrence, edge.src_port, edge.dst_occurrence, edge.dst_port)
        edges.append(DataEdge(*swap.get(fields, fields)) if crossed else edge)
    assert len(set(edges) - set(body.edges)) == (2 if crossed else 0)
    rewired = Production(grammar.production(1).lhs, SimpleWorkflow(list(body.occurrences.items()), edges))
    assert rewired.rhs.topological_order == body.topological_order
    productions = (rewired, *grammar.productions[1:])
    return WorkflowSpecification(
        WorkflowGrammar(grammar.modules, grammar.composite_modules, grammar.start, productions),
        specification.dependencies,
    )


def test_a_rewired_grammar_is_another_specification(tmp_path):
    """Crossing two data edges changes the fingerprint; both file guards refuse the original's files.

    Under a fingerprint of module positions alone the two specifications
    collided, and a run file of one attached under the other answered wrong.
    The order edges are declared in is not part of it.
    """
    original = build_running_example()
    rewired = _rewired(original)
    schemes = FVLScheme(original), FVLScheme(rewired)
    assert grammar_fingerprint(schemes[0].index) != grammar_fingerprint(schemes[1].index)
    reordered = FVLScheme(_rewired(original, crossed=False)).index
    assert grammar_fingerprint(reordered) == grammar_fingerprint(schemes[0].index)

    files, runs = {}, {}
    for name, specification, scheme in zip(("original", "rewired"), (original, rewired), schemes):
        writer = QueryEngine(scheme)
        runs[name] = random_run(specification, 120, seed=5)
        writer.add_run(DEFAULT_RUN, runs[name])
        files[name] = tmp_path / f"{name}.fvl"
        writer.checkpoint(files[name])
    leader = QueryEngine(schemes[0])
    leader.attach(files["original"])
    view = default_view(original)
    items = sorted(ViewProjection(runs["original"].run, view).visible_items)
    leader.depends_batch(sample_query_pairs(items, 200, seed=6), view)
    assert save_hot_matrices(leader) > 0

    engine = QueryEngine(schemes[1])
    with pytest.raises(LabelingError, match="different specification"):
        engine.attach(files["original"])
    engine.add_view(default_view(rewired))
    engine.attach(files["rewired"])
    with pytest.raises(SerializationError, match="specification"):
        load_hot_matrices(engine, cache_path=matrix_cache_path(files["original"]))
    assert not engine.decoded_states() and engine.stats.labels_built == 0


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
    assert grammar_fingerprint(index) == index.fingerprint == 4232088418
    assert view_fingerprint(view) == view.fingerprint == 3603000836
    twin = random_view(spec, 8, seed=100, mode="grey", name="another-name")
    assert view_fingerprint(twin) == 3603000836  # the name is not part of it


# -- the format (v5): the file is the table's columns --------------------------


def test_parse_and_assemble_agree_with_the_saver(saved):
    """The test's own reading of the layout reproduces the file byte for byte."""
    run_file, *_ = saved
    raw = Path(matrix_cache_path(run_file)).read_bytes()
    header, sections = _parse(raw)
    body = _assemble(sections)
    assert raw == _FILE_HEADER.pack(*header[:5], len(body), zlib.crc32(body)) + body
    (section,) = sections
    assert section["names"] == b"hot-view"


def test_no_bit_flip_is_a_silent_wrong_answer(saved, scheme):
    """One flipped bit anywhere: a typed refusal and a cold attach, or the same answers.

    Offsets are spread over the file header, the section header, every column
    and the packed pool.  On the per-entry format of v2, which carried no
    checksum, flipped matrix bits loaded cleanly and answered wrongly.
    """
    run_file, view, pairs, expected, entries = saved
    cache_file = matrix_cache_path(run_file)
    raw = Path(cache_file).read_bytes()
    (section,) = _parse(raw)[1]
    kinds = _kinds(section)
    assert all(kinds[kind].size for kind in ("matrix", "verdict", "boundary")), kinds
    spans = {"file header": (0, _FILE_HEADER.size), **section["spans"]}
    assert set(spans) == {"file header", "head", "pool"} | {name for name, _ in _COLUMNS}
    flips = [
        (int(at), bit % 8)
        for lo, hi in spans.values()
        for bit, at in enumerate(np.linspace(lo, hi - 1, 32).astype(int))
    ]
    assert len(set(flips)) >= 200
    server, warmed = _served(scheme, run_file, view)
    intact = _columns(server.engine, view)
    assert warmed == entries == intact["keys"].size
    refused = 0
    # Each flip rewrites one byte in place and puts it back after.
    with open(cache_file, "r+b", buffering=0) as handle:
        for at, bit in flips:
            handle.seek(at)
            handle.write(bytes([raw[at] ^ (1 << bit)]))
            server, warmed = _served(scheme, run_file, view)
            if isinstance(server.last_warm_error, SerializationError):
                assert warmed == 0 and not _rows(server.engine, view)
                refused += 1
            else:  # a header field the checks read only one way (a lower watermark, say)
                assert at < _FILE_HEADER.size
                loaded = _columns(server.engine, view)
                for name, column in intact.items():
                    assert np.array_equal(loaded[name], column), f"bit {bit} of byte {at} loaded {name}"
            assert np.array_equal(server.engine.depends_batch(pairs, view), expected)
            handle.seek(at)
            handle.write(raw[at : at + 1])
    assert refused >= len(flips) - 16


def test_every_byte_of_a_small_section_is_covered(saved, scheme):
    run_file, view, pairs, expected, _ = saved
    leader = QueryEngine(scheme)
    leader.attach(run_file)
    assert np.array_equal(leader.depends_batch(pairs, view), expected)
    cache_file = matrix_cache_path(run_file)
    assert save_hot_matrices(leader, DEFAULT_RUN, max_entries=6) == 6
    raw = Path(cache_file).read_bytes()
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    with open(cache_file, "r+b", buffering=0) as handle:
        for at in range(_FILE_HEADER.size, len(raw)):
            handle.seek(at)
            handle.write(bytes([raw[at] ^ 0xFF]))
            with pytest.raises(CorruptionError, match="checksum"):
                load_hot_matrices(follower)
            handle.seek(at)
            handle.write(raw[at : at + 1])
    assert not _rows(follower, view)
    with open(cache_file, "wb") as handle:
        handle.write(raw)
    assert load_hot_matrices(follower) == 6
    assert np.array_equal(follower.depends_batch(pairs, view), expected)


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
    tables = [leader.decoded_state(view).table(arena) for view, _ in batches]
    decided = [np.argsort(table.order, kind="stable") for table in tables]  # every row, every kind
    keys = np.concatenate([table.keys for table in tables])
    assert np.any(np.concatenate([table.off for table in tables]) <= VERDICT_FALSE)
    assert np.any(np.logical_or(*(side == ABSENT for side in pair_paths(keys))))
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
        loaded = follower.decoded_state(view).table(follower.shard_arena())
        for column in ("ports", "keys", "rows", "cols", "hits"):
            assert np.array_equal(getattr(loaded, column), getattr(kept, column)), column
        assert np.array_equal(np.minimum(loaded.off, 0), np.minimum(kept.off, 0))
        everything = np.arange(len(kept))
        assert np.array_equal(loaded._blocks(everything), kept._blocks(everything))
        assert np.array_equal(loaded.keys[np.argsort(loaded.order)], table.keys[chosen])


@pytest.mark.parametrize("name", list(perf_inputs.WORKLOADS))
def test_a_loaded_section_is_the_table_its_columns_build(name, tmp_path):
    """What the loader makes of a section is ``PairTable.build`` over its columns.

    Each benchmark workload's leader answers its warm-up and serve-block
    frames and saves by default; every section of its file, loaded into an
    empty table, equals the table built from the file's columns — every
    column, dtype included — and owns a writable ``hits``.
    """
    inputs = perf_inputs.generate(perf_inputs.WORKLOADS[name], 42, scale=0.05)
    run_file = tmp_path / "served.fvl"
    writer = QueryEngine(FVLScheme(inputs.specification))
    writer.add_run(DEFAULT_RUN, inputs.derivation)
    writer.checkpoint(run_file)
    engines = [QueryEngine(writer.scheme), QueryEngine(FVLScheme(inputs.specification))]
    for engine in engines:
        for view in inputs.views:
            engine.add_view(view)
        engine.attach(run_file)
    leader, follower = engines
    for frame in inputs.warmup + inputs.block:
        if frame.kind == "depends":
            assert np.array_equal(leader.depends_batch(frame.ids, frame.view), frame.expected)
    assert save_hot_matrices(leader) == sum(len(_table(leader, view)) for view in inputs.views)
    _, sections = _parse(Path(matrix_cache_path(run_file)).read_bytes())
    assert load_hot_matrices(follower) == sum(section["head"][2] for section in sections)

    for section in sections:
        _, _, n, ports, matrices = section["head"]
        blocks = np.zeros((n, ports * ports), dtype=bool)
        blocks[section["off"] == 0] = section["pool"].reshape(matrices, -1)
        rest = (section[column] for column in ("rows", "cols", "off", "hits", "order"))
        built = PairTable.build(ports, section["keys"], blocks, *rest)
        loaded = _table(follower, section["names"].decode())
        assert loaded.ports == built.ports == ports
        for column in PairTable.__slots__[1:]:
            ours, theirs = getattr(loaded, column), getattr(built, column)
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), column
        assert loaded.hits.flags.writeable and loaded.hits.flags.owndata
    for frame in inputs.warmup:
        assert np.array_equal(follower.depends_batch(frame.ids, frame.view), frame.expected)


def test_a_default_save_keeps_every_row_and_the_budget_admits_the_best_ranked(saved, scheme):
    """No row cap: the saver keeps every decided row, and the engine's byte
    budget is the one bound — where it bites, a load takes the rows hottest
    first, not a prefix of the key space."""
    run_file, view, pairs, expected, _ = saved
    leader = QueryEngine(scheme)
    leader.attach(run_file)
    assert np.array_equal(leader.depends_batch(pairs, view), expected)
    for _ in range(3):  # the later half of the pairs is asked again: hotter rows, higher keys
        leader.depends_batch(pairs[len(pairs) // 2 :], view)
    assert save_hot_matrices(leader) == len(_table(leader, view))

    def follower(**options):
        engine = QueryEngine(scheme, **options)
        engine.add_view(view)
        engine.attach(run_file)
        return engine, load_hot_matrices(engine)

    everything, loaded = follower()
    table = _table(everything, view)
    assert loaded == len(table) == len(_table(leader, view))
    static = everything.stats.views.bytes - table.nbytes
    ranked = np.argsort(table.order)  # the saver's ranking: hits, then decision order
    assert not np.array_equal(np.sort(ranked[:10]), np.arange(10))
    for held in (1, 10, len(table) // 3):
        budget = static + int(np.sum(table.row_nbytes()[ranked[:held]]))
        engine, admitted = follower(state_budget_bytes=budget)
        assert admitted == held
        assert np.array_equal(_table(engine, view).keys, np.sort(table.keys[ranked[:held]]))
        assert np.array_equal(engine.depends_batch(pairs, view), expected)


def _as_sentinel(section, row, sentinel) -> None:
    """``row`` of a parsed section rewritten as ``sentinel`` the way a saver writes one: no shape, no block."""
    block = int(np.count_nonzero(section["off"][:row] == 0))
    section["off"][row] = sentinel
    section["rows"][row] = section["cols"][row] = 0
    section["pool"] = np.delete(section["pool"], block, axis=0)
    section["head"][4] -= 1


def _copied(section) -> dict:
    """A parsed section whose arrays and header a damage may change in place."""
    return {name: value.copy() if hasattr(value, "copy") else value for name, value in section.items()}


def _hostile(genuine, n_paths: int) -> dict:
    """Damages no saver writes, each done in place to a copy of a parsed ``genuine``
    section, and the message each is refused with (``None``: a cut file)."""
    _, _, entries, ports, _ = genuine["head"]
    kinds = _kinds(genuine)
    matrix = np.nonzero(genuine["off"] == 0)[0]  # interior and boundary: block k is row matrix[k]
    block, line, column = (int(at[0]) for at in np.nonzero(genuine["pool"]))  # some set bit
    verdict, boundary = kinds["verdict"][0], kinds["boundary"][0]
    # The last row with a producer path: changing its ids keeps the keys ascending.
    inner = int(np.nonzero(pair_paths(genuine["keys"])[0] != ABSENT)[0][-1])

    def descending(s):
        s["keys"] = s["keys"][::-1]

    def duplicate(s):
        s["keys"][1] = s["keys"][0]

    def tall(s):
        s["rows"][matrix[0]] = ports + 1

    def negative_shape(s):
        s["cols"][matrix[0]] = -1

    def verdict_with_a_shape(s):
        s["rows"][verdict] = s["cols"][verdict] = 1

    def boundary_under_a_sentinel(s):
        _as_sentinel(s, boundary, VERDICT_TRUE)

    def off_outside_the_domain(s):
        s["off"][verdict] = VERDICT_TRUE - 1

    def repeated_rank(s):
        s["order"][1] = s["order"][0]

    def rank_out_of_range(s):
        s["order"][np.argmax(s["order"])] = entries

    def one_block_short(s):
        s["head"][4] -= 1
        s["pool"] = s["pool"][:-1]

    def one_sentinel_more(s):
        s["off"][matrix[-1]] = -1

    def padding_bit(s):  # the shape shrinks from under a set bit
        s["cols"][matrix[block]] = column

    def padding_line(s):  # the rows do
        s["rows"][matrix[block]] = line

    def foreign_producer(s):
        s["keys"][inner] = n_paths << 32

    def foreign_consumer(s):
        s["keys"][inner] = (int(s["keys"][inner]) >> 32 << 32) | n_paths

    def beyond_but_not_absent(s):  # the one id past the trie a key may carry is ABSENT
        s["keys"][inner] = ((ABSENT - 1) << 32) | (int(s["keys"][inner]) & 0xFFFFFFFF)

    def negative_key(s):
        s["keys"][0] = -1

    def other_ports(s):
        s["head"][3] += 1
        s["pool"] = np.zeros((matrix.size, ports + 1, ports + 1), dtype=np.uint8)

    def negative_hits(s):
        s["hits"][0] = -1

    def rows_beyond_the_file(s):
        s["head"][2] += 1

    return {
        descending: "ascending",
        duplicate: "ascending",
        tall: "larger than",
        negative_shape: "larger than",
        verdict_with_a_shape: "sentinel row with a shape",
        boundary_under_a_sentinel: "boundary row",
        off_outside_the_domain: "neither a matrix nor a sentinel",
        repeated_rank: "permutation",
        rank_out_of_range: "permutation",
        one_block_short: "count of matrices",
        one_sentinel_more: "count of matrices",
        padding_bit: "outside a matrix",
        padding_line: "outside a matrix",
        foreign_producer: "unknown path id",
        foreign_consumer: "unknown path id",
        beyond_but_not_absent: "unknown path id",
        negative_key: "unknown path id",
        other_ports: "port blocks",
        negative_hits: "negative hits",
        rows_beyond_the_file: "truncated",
    }


def test_hostile_columns_under_a_valid_checksum_are_refused(saved, scheme):
    """Columns no saver writes, checksummed as if one had: typed refusals, nothing admitted."""
    run_file, view, pairs, expected, entries = saved
    cache_file = matrix_cache_path(run_file)
    header, (genuine,) = _parse(Path(cache_file).read_bytes())
    follower = QueryEngine(scheme)
    follower.add_view(view)
    mapped = follower.attach(run_file)
    kinds = _kinds(genuine)
    verdict, boundary = kinds["verdict"][0], kinds["boundary"][0]
    assert kinds["matrix"].size and np.count_nonzero(genuine["off"] == 0) == genuine["head"][4] < entries

    for damage, reason in _hostile(genuine, mapped.n_paths).items():
        section = _copied(genuine)
        damage(section)
        _write_raw(cache_file, _assemble([section]), header)
        with pytest.raises(CorruptionError, match=reason):  # never an IndexError or a ValueError
            load_hot_matrices(follower)
        assert not _rows(follower, view), damage.__name__
    _write_raw(cache_file, _assemble([genuine]) + b"\0", header)  # bytes behind the last section
    with pytest.raises(CorruptionError):
        load_hot_matrices(follower)
    _write_raw(cache_file, _assemble([genuine]), header)
    assert load_hot_matrices(follower) == entries
    loaded = _rows(follower, view)
    assert np.array_equal(follower.depends_batch(pairs, view), expected)

    def fresh_load(section) -> QueryEngine:
        _write_raw(cache_file, _assemble([section]), header)
        other = QueryEngine(scheme)
        other.add_view(view)
        other.attach(run_file)
        assert load_hot_matrices(other) == section["head"][2]
        return other

    # A verdict row and a boundary row written consistently, each a section of
    # its own, load as what the leader decided and answer with the kernel's rest.
    for row in (verdict, boundary):
        other = fresh_load(_subsection(genuine, [row]))
        key = pair_paths(int(genuine["keys"][row]))
        assert _rows(other, view) == {key: loaded[key]}
        assert np.array_equal(other.depends_batch(pairs, view), expected)

    # A no-dependency row written consistently (no block, no shape, one matrix
    # fewer) is the format's other decoder row and loads as one.
    section = _copied(genuine)
    changed = int(kinds["matrix"][0])
    _as_sentinel(section, changed, NO_DEPENDENCY)
    seeded = _rows(fresh_load(section), view)
    key = pair_paths(int(genuine["keys"][changed]))
    assert seeded[key][0] == NO_DEPENDENCY and loaded[key][0] == 0
    assert {k: entry for k, entry in seeded.items() if k != key} == {
        k: entry for k, entry in loaded.items() if k != key
    }


def test_a_hostile_second_section_is_refused_behind_a_genuine_first(saved, scheme, spec):
    """The damage table against the second of two sections: the message a lone
    damaged section gets, and nothing admitted from the genuine first one.

    The first section is the genuine one under a twin view — the same
    structure under another name, so the same fingerprint — whose keys are
    the second's: the second section starts below the first's last key.
    """
    run_file, view, pairs, expected, entries = saved
    cache_file = matrix_cache_path(run_file)
    header, (genuine,) = _parse(Path(cache_file).read_bytes())
    twin = random_view(spec, 6, seed=32, mode="grey", name="twin-view")
    assert view_fingerprint(twin) == view_fingerprint(view)
    first = dict(_copied(genuine), names=b"twin-view")
    first["head"][0] = len(first["names"])
    assert first["keys"][0] < genuine["keys"][-1]
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.add_view(twin)
    mapped = follower.attach(run_file)

    def refusal(sections) -> str:
        _write_raw(cache_file, _assemble(sections), header)
        with pytest.raises(CorruptionError) as refused:
            load_hot_matrices(follower)
        return str(refused.value)

    for damage, reason in _hostile(genuine, mapped.n_paths).items():
        section = _copied(genuine)
        damage(section)
        alone = refusal([section])
        assert reason in alone and refusal([first, section]) == alone, damage.__name__
        assert not _rows(follower, view) and not _rows(follower, twin), damage.__name__

    # Both genuine: each section's keys ascend, and the file loads whole.
    _write_raw(cache_file, _assemble([first, genuine]), header)
    assert load_hot_matrices(follower) == 2 * entries
    assert _rows(follower, twin) == _rows(follower, view)
    assert np.array_equal(follower.depends_batch(pairs, twin), expected)

    # A section of no rows, first or last, loads beside a genuine one.
    empty = _subsection(genuine, [])
    assert empty["head"][2] == empty["head"][4] == 0
    for sections in ([_subsection(first, []), genuine], [first, empty]):
        other = QueryEngine(scheme)
        other.add_view(view)
        other.add_view(twin)
        other.attach(run_file)
        _write_raw(cache_file, _assemble(sections), header)
        assert load_hot_matrices(other) == entries
        # Both sections prove their views: the empty one's holds no row.
        assert [len(_table(other, v)) for v in (twin, view)] == [s["head"][2] for s in sections]
        assert other.stats.labels_built == 0
        assert np.array_equal(other.depends_batch(pairs, view), expected)


def test_a_damaged_side_file_is_counted_and_reported(saved, scheme, monkeypatch):
    """Checksum failures reach the watchdog's corruption SLO; a foreign or absent file does not."""
    run_file, view, pairs, expected, entries = saved
    cache_file = matrix_cache_path(run_file)
    emitted = []
    monkeypatch.setattr(obs_events, "emit", lambda event, **fields: emitted.append((event, fields)))
    raw = bytearray(Path(cache_file).read_bytes())

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
    assert np.array_equal(engine.depends_batch(pairs, view), expected)  # cold, and right


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
    assert np.array_equal(leader.depends_batch(pairs, view), expected)
    hot_pair = pairs[0]
    for _ in range(5):
        leader.depends_batch([hot_pair] * 3, view)
    assert save_hot_matrices(leader, DEFAULT_RUN, max_entries=1) == 1
    leader_hottest_key, leader_hits = _hottest(_rows(leader, view))
    assert leader_hits > 1

    # The follower loads it, touches a *different* pair once, then re-saves
    # under the same 1-entry budget.  The seeded entry must out-rank it.
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    assert load_hot_matrices(follower) == 1
    ((seeded_key, (*_, seeded_hits)),) = _rows(follower, view).items()
    assert seeded_key == leader_hottest_key and seeded_hits == leader_hits
    cold_pair = pairs[1] if pairs[1] != hot_pair else pairs[2]
    follower.depends_batch([cold_pair], view)
    assert save_hot_matrices(follower, DEFAULT_RUN, max_entries=1) == 1

    # A third tier still sees the original hottest pair, with its hits.
    third = QueryEngine(scheme)
    third.add_view(view)
    third.attach(run_file)
    assert load_hot_matrices(third) == 1
    ((key, (*_, hits)),) = _rows(third, view).items()
    assert key == leader_hottest_key and hits >= leader_hits


def test_v1_cache_files_rejected_loudly(saved, scheme):
    """The per-entry formats (v1, and v2 with its hit column), v3 and v4 are refused by version.

    A v2, v3 or v4 file is what an older build leaves beside a run file: the
    server's warm path goes cold on it, names the version, and counts no
    corruption.  v4 named a label variant beside each section's view; v3 had
    v4's layout with matrix and no-dependency rows only.  An older reader
    refuses a v5 file by its version the same way.
    """
    run_file, view, pairs, expected, entries = saved
    cache_file = matrix_cache_path(run_file)
    with open(cache_file, "rb") as handle:
        raw = handle.read()
    magic_end = len(CACHE_MAGIC)
    version = int.from_bytes(raw[magic_end : magic_end + 4], "little")
    assert version == CACHE_VERSION == 5
    header, sections = _parse(raw)
    v4_body = b"".join(
        struct.pack("<HHQIII", len(section["names"]), len(b"default"), *section["head"][1:])
        + section["names"]
        + b"default"
        + _assemble([section])[_STATE_HEADER.size + len(section["names"]) :]
        for section in sections
    )
    follower = QueryEngine(scheme)
    follower.add_view(view)
    follower.attach(run_file)
    v2_header = struct.Struct("<8sIQQQI")  # shorter than v3's: still "version", not "truncated"
    old_files = [
        (old, _FILE_HEADER.pack(CACHE_MAGIC, old, *header[2:5], len(v4_body), zlib.crc32(v4_body)) + v4_body)
        for old in (1, 3, 4)  # v3 had v4's layout, without verdict and boundary rows
    ] + [
        (2, v2_header.pack(CACHE_MAGIC, 2, 0, 0, 0, 0)),
        (2, v2_header.pack(CACHE_MAGIC, 2, 0, 0, 0, 1)
         + struct.pack("<HHQI", 1, 1, 1, 1) + b"vd" + struct.pack("<qqiiQ", 0, 1, 1, 1, 7) + b"\x80"),
    ]
    for number, old in old_files:
        with open(cache_file, "wb") as handle:
            handle.write(old)
        with pytest.raises(SerializationError, match=f"version {number}") as refused:
            load_hot_matrices(follower)
        assert not isinstance(refused.value, CorruptionError)

    for number, old in (old_files[2], old_files[-1]):  # v4, then v2
        with open(cache_file, "wb") as handle:
            handle.write(old)
        engine = QueryEngine(scheme)
        engine.add_view(view)
        server = ProvenanceServer(engine)
        _, warmed = server.attach(run_file)
        assert warmed == 0 and f"version {number}" in str(server.last_warm_error)
        assert _hotmx_corruptions(server) == 0
    assert np.array_equal(engine.depends_batch(pairs, view), expected)
