"""Non-benchmark guards: the 40x query cliff, snapshot columns, per-key Python.

Before the engine, the space-efficient variant re-ran a graph search over a
production body on *every* matrix access of *every* query, leaving it 30-40x
slower than the materialised variants (see
``benchmarks/test_fig20_query_time.py``).  Two non-benchmark checks keep that
from coming back:

* a structural one — a cached batch recomputes the matrices of a retained
  production at most once, counted by instrumenting the computation itself
  (no timing involved, so no flakiness);
* a timing ratio — the warm batched space-efficient path stays within a
  generous constant factor of the warm default path (the regression being
  guarded against is a >25x cliff, so the bound has plenty of headroom).

Two more keep what left the write path and the cold query path from coming
back unnoticed, both counts, neither a timing:

* a chain of delta checkpoints holds the payload bytes of its compaction —
  a column rewritten in full by every checkpoint (as the interval columns
  were) multiplies them;
* a cold batch, on a mapped and on a live and still-growing shard, builds no
  interval index and makes no Python call per path pair: the matrix bank is
  asked once per distinct *factor*, and not at all for factors an earlier
  shard of the view resolved.

And three hold static view labelling to one closure per production body:

* labelling a view — any variant, matrix-free included — never runs the port
  graph's search and computes at most one closure per retained production
  (``lambda*`` and ``I``/``O``/``Z`` share it); a second view builds no layout;
* labelling a view builds no ``I``/``O``/``Z`` matrix: the label keeps the
  closures and copies a matrix out when it is first read, so the
  :class:`BoolMatrix` count is linear in the bodies, not quadratic;
* schemes and labels built and dropped over one specification leave no
  module-level container larger and no :class:`GrammarIndex` alive.

And two hold the side file (``.hotmx``) to the pair table's columns:

* saving and loading make a fixed number of calls per section, whatever the
  row count — no :class:`BoolMatrix` per row, no ``struct`` per entry;
* a warm attach over labelled views labels nothing, and an index's grammar
  fingerprint is rendered once however often it is attached, probed or saved.
"""

from __future__ import annotations

import gc
import sys
import time
import types
import weakref
import zlib

import numpy as np
import pytest

from repro import Derivation, FVLScheme, FVLVariant, QueryEngine
from repro.analysis import reachability
from repro.core.pair_table import PairTable
from repro.core.view_label import ViewLabel
from repro.engine import DEFAULT_RUN
from repro.engine import engine as engine_module
from repro.engine.kernel import MatrixBank
from repro.index import StructuralIndex
from repro.matrices import BoolMatrix
from repro.model.projection import ViewProjection
from repro.model.views import default_view
from repro.serve import ProvenanceServer, load_hot_matrices, save_hot_matrices
from repro.store import MappedRunStore, checkpoint_run, compact
from repro.workloads import (
    build_bioaid_specification,
    build_nested_chain_specification,
    random_run,
    random_view,
)

from repro.bench import sample_query_pairs


@pytest.fixture(scope="module")
def setup():
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 400, seed=9)
    view = random_view(spec, 8, seed=3, mode="grey", name="guard-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 300, seed=1)
    return scheme, derivation, view, pairs


def _fresh_engine(scheme, derivation) -> QueryEngine:
    engine = QueryEngine(scheme)
    engine.add_run(DEFAULT_RUN, derivation)
    return engine


def test_batch_runs_one_graph_search_per_production(setup, monkeypatch):
    scheme, derivation, view, pairs = setup
    searches = []
    original = ViewLabel._close_body

    def counting(self, k):
        searches.append(k)
        return original(self, k)

    monkeypatch.setattr(ViewLabel, "_close_body", counting)
    engine = _fresh_engine(scheme, derivation)
    engine.depends_batch(pairs, view, variant=FVLVariant.SPACE_EFFICIENT)
    retained = scheme.label_view(view, FVLVariant.SPACE_EFFICIENT).retained_productions
    assert searches, "the batch never exercised the space-efficient decode path"
    assert len(searches) <= len(retained), (
        f"{len(searches)} graph searches for {len(retained)} retained productions: "
        "the per-production memo is not being hit"
    )
    # A second batch over the warm engine must not search at all.
    searches.clear()
    engine.depends_batch(pairs, view, variant=FVLVariant.SPACE_EFFICIENT)
    assert searches == []


def test_labelling_a_view_is_one_closure_per_retained_production(
    monkeypatch, count_constructions
):
    def no_search(self, source):
        raise AssertionError("the labelling path searched the port graph")

    monkeypatch.setattr(reachability.WorkflowPortGraph, "reachable_from", no_search)
    layouts = count_constructions(reachability, "PortLayout")
    closures = []
    original = reachability.PortLayout.closure

    def counting(self, matrices):
        closures.append(self)
        return original(self, matrices)

    monkeypatch.setattr(reachability.PortLayout, "closure", counting)

    spec = build_bioaid_specification()  # fresh: no production has a layout yet
    scheme = FVLScheme(spec)
    # random_view checks safety, which lays out the bodies the view retains.
    view = random_view(spec, 6, seed=5, mode="black", name="guard-black")
    labellers = [
        lambda: scheme.label_view(view, FVLVariant.DEFAULT),
        lambda: scheme.label_view(view, FVLVariant.SPACE_EFFICIENT),
        lambda: scheme.label_view(view, FVLVariant.QUERY_EFFICIENT),
        lambda: scheme.label_view_matrix_free(view),
    ]
    built = len(layouts)
    for labeller in labellers:
        closures.clear()
        retained = labeller().retained_productions
        assert 0 < len(closures) <= len(retained)
        assert len(set(map(id, closures))) == len(closures)  # no body closed twice
        assert len(layouts) == built

    # The default view lays out the rest; no body is ever laid out twice, and a
    # view labelled afterwards, over this scheme or another, builds none.
    scheme.label_view(default_view(spec))
    productions = spec.grammar.productions
    assert built < len(layouts) == len(productions)
    assert all(production.port_layout is not None for production in productions)
    FVLScheme(spec).label_view(random_view(spec, 8, seed=3, mode="grey"))
    assert len(layouts) == len(productions)


def test_labelling_a_view_builds_no_label_function_matrix(monkeypatch):
    spec = build_nested_chain_specification(6, 30, 3)
    scheme = FVLScheme(spec)
    view = random_view(spec, 8, seed=100, mode="grey", name="guard-chain")
    built = []
    original = BoolMatrix.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(BoolMatrix, "__init__", counting)
    for variant in FVLVariant:
        built.clear()
        label = scheme.label_view(view, variant)
        bodies = [len(spec.grammar.production(k).rhs) for k in label.retained_productions]
        # One lambda* per module occurrence (atomic modules) or production
        # (the induced matrix): linear in the bodies.  Copying every I/O/Z
        # up front would add sum(m + m + m(m-1)/2) = 2,970 here.
        assert len(label.retained_productions) == 6 and max(bodies) == 30
        assert len(built) <= sum(1 + m for m in bodies), (variant, len(built))

    # Reading one function copies exactly that one; reading it again copies nothing.
    label = scheme.label_view(view, FVLVariant.DEFAULT)
    k = min(label.retained_productions)
    built.clear()
    first = label.z(k, 1, 2)
    assert len(built) == 1 and label.z(k, 1, 2) is first and len(built) == 1


def test_schemes_and_labels_leave_nothing_behind():
    spec = build_bioaid_specification()
    view = random_view(spec, 6, seed=5, mode="black", name="guard-black")

    def build():
        scheme = FVLScheme(spec)
        for variant in FVLVariant:
            scheme.label_view(view, variant)
        scheme.label_view_matrix_free(view)
        return weakref.ref(scheme.index)

    def module_level_sizes() -> dict:
        return {
            (name, attribute): len(value)
            for name, module in list(sys.modules.items())
            if name.startswith("repro")
            for attribute, value in list(vars(module).items())
            if isinstance(value, (dict, list, set))
        }

    build()  # whatever is filled once per process or per specification
    gc.collect()
    before = module_level_sizes()
    indexes = [build() for _ in range(20)]
    gc.collect()
    assert [ref() for ref in indexes] == [None] * 20
    assert module_level_sizes() == before


def test_space_efficient_batch_within_constant_factor_of_default(setup):
    scheme, derivation, view, pairs = setup
    engine = _fresh_engine(scheme, derivation)

    def best_of(variant, repeats=5) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            engine.depends_batch(pairs, view, variant=variant)
            best = min(best, time.perf_counter() - start)
        return best

    # Warm both decode states so only the steady-state batch path is timed.
    default_answers = engine.depends_batch(pairs, view, variant=FVLVariant.DEFAULT)
    space_answers = engine.depends_batch(
        pairs, view, variant=FVLVariant.SPACE_EFFICIENT
    )
    assert space_answers == default_answers
    default_time = best_of(FVLVariant.DEFAULT)
    space_time = best_of(FVLVariant.SPACE_EFFICIENT)
    # Warm, both paths do identical memoized work; 10x plus an absolute slack
    # for scheduler noise is far below the >25x cliff this test guards against.
    assert space_time <= 10 * default_time + 0.010, (
        f"space-efficient batch took {space_time * 1e3:.2f} ms vs "
        f"{default_time * 1e3:.2f} ms for the default variant"
    )


def _payload_bytes(run_file) -> int:
    with MappedRunStore(run_file) as mapped:
        return sum(extent.nbytes for _, extent in mapped.sections())


def test_delta_checkpoints_write_what_their_compaction_holds(setup, tmp_path):
    """Twelve checkpoints of a growing run: no column is rewritten by each of them.

    Payload bytes, from the manifests, so page padding plays no part.  With
    the three interval columns rewritten in full by every checkpoint the chain
    held 2.1x its compaction; deltas alone hold the same bytes (blob columns
    gain a separator per merged extent, hence the inequality).
    """
    scheme, derivation, _, _ = setup
    events = derivation.events
    run_file = tmp_path / "deltas.fvl"
    labeler = scheme.run_labeler()
    cuts = [len(events) * slice_ // 12 for slice_ in range(13)]
    for lo, hi in zip(cuts, cuts[1:]):
        for event in events[lo:hi]:
            labeler(event)
        checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    segmented = _payload_bytes(run_file)
    assert compact(run_file).segments_before == 12
    assert segmented <= 1.15 * _payload_bytes(run_file)


def test_cold_batch_builds_no_index_and_asks_the_bank_once_per_factor(setup, tmp_path, monkeypatch):
    scheme, derivation, view, _ = setup

    def no_index(*args, **kwargs):
        raise AssertionError("a query built an interval index")

    monkeypatch.setattr(StructuralIndex, "build", no_index)
    resolved = []
    original = MatrixBank._code

    def counting(self, key, state):
        resolved.append(key)
        return original(self, key, state)

    monkeypatch.setattr(MatrixBank, "_code", counting)

    # The same expansions, replayed into a run the engine labels as it grows.
    growing = Derivation(scheme.specification)
    engine = QueryEngine(scheme)
    labeler = engine.add_run("live", growing)
    view_label = scheme.label_view(view)
    visible = sorted(ViewProjection(derivation.run, view).visible_items)
    expansions = derivation.events[1:]

    def grow_and_ask(events):
        for event in events:
            growing.expand(event.parent.uid, event.production_index)
        items = [uid for uid in visible if uid <= growing.run.n_data_items]
        pairs = sample_query_pairs(items, 600, seed=len(items))
        expected = [
            scheme.depends(labeler.label(d1), labeler.label(d2), view_label) for d1, d2 in pairs
        ]
        resolved.clear()
        assert engine.depends_batch(pairs, view, run="live") == expected
        return pairs, expected

    half = len(expansions) // 2
    grow_and_ask(expansions[:half])
    bank = engine.decoded_state(view).static.bank
    cache = engine.decoded_state(view).decode_cache
    table = cache.table(engine.shard_arena("live"))
    # Every call is for a distinct factor (a chain step asks for its edge
    # once more), and there are far fewer factors than path pairs.
    assert 0 < len(resolved) <= 2 * len(set(resolved)) <= 2 * len(bank._codes)
    assert len(set(resolved)) < len(table) // 2
    pairs, expected = grow_and_ask(expansions[half:])  # the shard grew: new keys, no rebuild
    assert len(cache.table(engine.shard_arena("live"))) > len(table)

    # A mapped shard of the same run under the same view: every key is cold,
    # every factor known — the bank is not asked at all.
    run_file = tmp_path / "cold.fvl"
    engine.checkpoint(run_file, "live")
    engine.attach(run_file, "disk")
    resolved.clear()
    assert engine.depends_batch(pairs, view, run="disk") == expected
    assert resolved == []
    assert len(cache.table(engine.shard_arena("disk"))) > 0


@pytest.fixture(scope="module")
def hot(tmp_path_factory):
    """A mapped run whose one view holds several thousand decoder rows."""
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 2500, seed=9)
    view = random_view(spec, 8, seed=3, mode="grey", name="guard-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 20000, seed=1)
    writer = _fresh_engine(scheme, derivation)
    run_file = tmp_path_factory.mktemp("hot") / "hot.fvl"
    writer.checkpoint(run_file)
    leader = QueryEngine(scheme)
    leader.attach(run_file)
    expected = leader.depends_batch(pairs, view)
    return spec, leader, run_file, view, pairs, expected


def _calls(action) -> int:
    """Every call, Python or C (``struct``'s included), that ``action`` makes."""
    made = [0]

    def tally(frame, event, arg):
        made[0] += event in ("call", "c_call")

    sys.setprofile(tally)
    try:
        action()
    finally:
        sys.setprofile(None)
    return made[0]


def test_side_file_costs_calls_per_section_not_per_row(hot, tmp_path, monkeypatch):
    spec, leader, run_file, view, pairs, expected = hot
    followers, costs, counted = [], [], {}

    def per_row(*args, **kwargs):
        raise AssertionError("the side file was walked row by row")

    def counting(name):
        original = getattr(np, name)

        def wrapper(*args, **kwargs):
            counted[name] = counted.get(name, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    scheme = FVLScheme(spec)
    for _ in range(2):
        follower = QueryEngine(scheme)
        follower.add_view(view)
        follower.attach(run_file)
        follower.decoded_state(view)  # labelling the view is not the side file's cost
        followers.append(follower)
    save_hot_matrices(leader, cache_path=tmp_path / "first.hotmx")  # fingerprints, imports
    with monkeypatch.context() as patch:
        patch.setattr(BoolMatrix, "__init__", per_row)
        patch.setattr(PairTable, "matrix_rows", per_row)
        for name in ("frombuffer", "unpackbits", "packbits"):
            patch.setattr(np, name, counting(name))
        for rows, follower in zip((500, 4000), followers):
            cache_file = tmp_path / f"{rows}.hotmx"
            counted.clear()
            saving = _calls(
                lambda: save_hot_matrices(leader, cache_path=cache_file, max_entries=rows)
            )
            loading = _calls(lambda: load_hot_matrices(follower, cache_path=cache_file))
            assert counted == {"packbits": 1, "frombuffer": 7, "unpackbits": 1}  # one section
            costs.append((saving, loading))
    for rows, follower in zip((500, 4000), followers):
        assert len(follower.decoded_state(view).decode_cache.table(follower.shard_arena())) == rows
        assert follower.depends_batch(pairs, view) == expected
    (small_save, small_load), (large_save, large_load) = costs
    # Eight times the rows, the same calls (numpy may pick another sort path).
    assert large_save <= small_save + 8 and large_load <= small_load + 8, costs
    assert max(small_save, small_load) < 400, costs


def test_warm_attach_labels_nothing_and_renders_one_fingerprint(hot, monkeypatch):
    spec, leader, run_file, view, pairs, expected = hot
    save_hot_matrices(leader)
    scheme = FVLScheme(spec)  # a fresh index: nothing fingerprinted yet
    engine = QueryEngine(scheme)
    engine.add_view(view)
    engine.decoded_state(view)
    rendered = []

    def crc32(data):
        rendered.append(data)
        return zlib.crc32(data)

    def relabelled(*args, **kwargs):
        raise AssertionError("a warm attach labelled a view the engine had labelled")

    monkeypatch.setattr(engine_module, "zlib", types.SimpleNamespace(crc32=crc32))
    monkeypatch.setattr(FVLScheme, "label_view", relabelled)
    server = ProvenanceServer(engine)
    for _ in range(3):  # attach, the reopen probe, a save, a detach: one index, one rendering
        _, warmed = server.attach(run_file)
        assert warmed > 0 and server.last_warm_error is None
        assert engine.maybe_reopen() is False
        server.save_matrix_cache()
        engine.detach(DEFAULT_RUN)
    assert len(rendered) == 1
    assert engine_module.grammar_fingerprint(scheme.index) == engine_module.grammar_fingerprint(
        leader.scheme.index
    )
    assert len(rendered) == 1
