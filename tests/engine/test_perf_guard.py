"""Non-benchmark guards: the 40x query cliff, snapshot columns, per-key Python.

The space-efficient label re-runs a graph search over a production body on
*every* matrix access of *every* query, which leaves the one-pair API 30-40x
slower on it than on the materialised labels (see
``benchmarks/test_fig20_query_time.py``).  The engine serves one label per
view, whose closures it gathers from; a structural check keeps the search
out of its batches — counted by instrumenting the computation itself (no
timing involved, so no flakiness).

Three more keep what left the write path, the mapped read path and the cold
query path from coming back unnoticed, all counts, none a timing:

* a chain of delta checkpoints holds the payload bytes of its compaction —
  a column rewritten in full by every checkpoint (as the interval columns
  were) multiplies them;
* mapping a run file makes one typed ``np.frombuffer`` view per column
  dtype, on a 12-segment chain as on its compaction — a view per extent
  would make the follower's attach pay per segment;
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

And one holds the once-per-specification preprocessing to the composite part
of the grammar: building a scheme constructs a :class:`PGEdge` for each cycle
edge and no other, and its Tarjan walk visits each composite module once and
no atomic one.

And four hold the side file (``.hotmx``) to the pair table's columns:

* saving and loading make a fixed number of calls per section, whatever the
  row count — no :class:`BoolMatrix` per row, no ``struct`` per entry;
* a warm attach over labelled views labels nothing, and an index's grammar
  fingerprint is rendered once however often it is attached, probed or saved;
* on each benchmark workload, the frames a leader answered before saving are
  table hits after a warm attach: the file holds verdict, boundary and matrix
  rows, so neither the kernel nor the reference decoder runs, and no view is
  labelled — an admitted section proves its view safe; a visibility frame or
  a key the table misses then labels its view, once;
* at full scale on ``wire_large_recursive``, a default save holds every row
  the leader decided, so its successor's warm-up runs no kernel pass either.

And one holds the reference decoder to what it is, a fallback: on each
benchmark workload, a cold engine's warm-up, serve-block and view-add frames
never call it.  One more holds a warm batch's probe to one ``searchsorted``
of ascending needles, with answers bit-identical to ``FVLScheme.depends``,
and a cold batch's to one more probe after the merge.

And one holds a warm frame's bookkeeping to a count: a 256-pair frame served
on the event loop, untraced, takes the metrics registry's lock twice — the
step folds its own and its engine calls' counts with the admission counts
its record carried, and the record's finish folds the frame's own and the
sampler's; an intake peak that does not rise takes none — opens no
generator-based context manager, so an inactive ``trace_span`` builds
nothing, and makes at most a pinned number of calls into ``repro`` on the
loop thread.
"""

from __future__ import annotations

import contextlib
import gc
import os
import shutil
import socket
import struct
import sys
import threading
import time
import types
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import Derivation, FVLScheme, FVLVariant, QueryEngine
from repro.analysis import production_graph, reachability
from repro.analysis.reachability import RunReachabilityOracle
from repro.core.pair_table import ABSENT, VERDICT_FALSE, PairTable, pair_paths
from repro.core.view_label import ViewLabel
from repro.engine import DEFAULT_RUN
from repro.engine import engine as engine_module
from repro.engine import evaluate
from repro.engine.kernel import MatrixBank
from repro.index import StructuralIndex
from repro.matrices import BoolMatrix
from repro.model.projection import ViewProjection
from repro.model.views import default_view
from repro.net import AnswersReply, ProvenanceNetServer, decode_reply, encode_depends_request
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Sampler
from repro.serve import ProvenanceServer, load_hot_matrices, save_hot_matrices
from repro.store import MappedRunStore, checkpoint_run, compact, runfile
from repro.workloads import (
    build_bioaid_specification,
    build_nested_chain_specification,
    random_run,
    random_view,
)

from repro.bench import sample_query_pairs

# The benchmark's inputs (``perf/inputs.py``), for the workloads' own frames.
if str(Path(__file__).resolve().parents[2]) not in sys.path:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
from perf import inputs as perf_inputs  # noqa: E402

pytestmark = pytest.mark.usefixtures("detach_engines")


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


def test_batch_runs_no_graph_search(setup, monkeypatch):
    scheme, derivation, view, pairs = setup
    searches = []
    original = ViewLabel._close_body

    def counting(self, k):
        searches.append(k)
        return original(self, k)

    monkeypatch.setattr(ViewLabel, "_close_body", counting)
    # The probe counts: the space-efficient label searches on every read.
    scheme.label_view(view, FVLVariant.SPACE_EFFICIENT).closure_slices(
        min(scheme.label_view(view).retained_productions)
    )
    assert searches
    searches.clear()
    # The engine's label keeps every closure: cold or warm, a batch searches nothing.
    engine = _fresh_engine(scheme, derivation)
    engine.depends_batch(pairs, view)
    engine.depends_batch(pairs, view)
    assert searches == []


def test_a_warm_batch_searches_the_pair_table_with_ascending_needles(setup, monkeypatch):
    """A warm batch probes its pair table with one ``searchsorted`` of sorted needles.

    In pair order every binary search starts from the whole key column; in
    ascending order numpy starts each from where the previous one landed.
    """
    scheme, derivation, view, pairs = setup
    engine = _fresh_engine(scheme, derivation)
    engine.depends_batch(pairs, view)
    state = engine.decoded_state(view)
    table = state.table(engine.shard_arena())
    searched, probed = [], []
    search, probe = np.searchsorted, PairTable.probe

    def searching(a, v, *args, **kwargs):
        if a is table.keys:
            searched.append(np.array(v))
        return search(a, v, *args, **kwargs)

    def probing(self, keys):
        probed.append(np.array(keys))
        return probe(self, keys)

    monkeypatch.setattr(np, "searchsorted", searching)
    monkeypatch.setattr(PairTable, "probe", probing)
    answers = engine.depends_batch(pairs, view)
    assert state.table(engine.shard_arena()) is table  # warm: nothing was decided
    assert len(searched) == len(probed) == 1
    assert (np.diff(probed[0]) < 0).any()  # the batch's keys arrive in pair order
    assert (np.diff(searched[0]) >= 0).all()
    labeler, view_label = engine.run_labeler(), scheme.label_view(view)
    expected = [scheme.depends(labeler.label(d1), labeler.label(d2), view_label) for d1, d2 in pairs]
    assert answers.dtype == bool and answers.tolist() == expected


def test_a_cold_batch_probes_its_keys_once_more_after_the_merge(setup, monkeypatch):
    """A miss costs one probe of the batch's keys after the merge, not one per source.

    Before the decision and after it, the batch's keys; in between, the merge
    probes the decided keys against the table.  Over budget, the decisions
    the table did not take are probed in the fresh rows alone.
    """
    scheme, derivation, view, pairs = setup
    probed, probe = [], PairTable.probe

    def probing(self, keys):
        probed.append(len(keys))
        return probe(self, keys)

    monkeypatch.setattr(PairTable, "probe", probing)
    engine = _fresh_engine(scheme, derivation)
    engine.decoded_state(view)
    probed.clear()
    answers = engine.depends_batch(pairs, view)
    state = engine.decoded_state(view)
    table = state.table(engine.shard_arena())
    assert len(probed) == 3 and probed[0] == probed[2] and probed[1] == len(table)

    starved = QueryEngine(scheme, state_budget_bytes=1)
    starved.add_run(DEFAULT_RUN, derivation)
    starved.decoded_state(view)
    probed.clear()
    assert np.array_equal(starved.depends_batch(pairs, view), answers)
    assert len(starved.decoded_state(view).table(starved.shard_arena())) == 0
    assert len(probed) == 4 and probed[0] == probed[2] == probed[3]
    labeler, view_label = engine.run_labeler(), scheme.label_view(view)
    expected = [scheme.depends(labeler.label(d1), labeler.label(d2), view_label) for d1, d2 in pairs]
    assert answers.tolist() == expected


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


@pytest.mark.parametrize(
    "build", [build_bioaid_specification, lambda: build_nested_chain_specification(40, 30, 3)]
)
def test_preprocessing_builds_cycle_edges_only_and_walks_composite_modules(build, monkeypatch):
    spec = build()
    built, visited = [], []
    original_edge = production_graph.PGEdge.__init__
    original_successors = production_graph.ProductionGraph._successors

    def counting_edge(self, *args, **kwargs):
        built.append(1)
        original_edge(self, *args, **kwargs)

    def counting_successors(self, module):
        visited.append(module)
        return original_successors(self, module)

    monkeypatch.setattr(production_graph.PGEdge, "__init__", counting_edge)
    monkeypatch.setattr(production_graph.ProductionGraph, "_successors", counting_successors)
    scheme = FVLScheme(spec)
    # 0 on the chain grammar (no recursion); 7 on BioAID (one 2-cycle, five self-loops).
    assert len(built) == sum(len(cycle) for cycle in scheme.index.cycles)
    assert sorted(visited) == sorted(spec.grammar.composite_modules)


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


def test_mapping_makes_one_typed_view_per_dtype_whatever_the_segment_count(
    setup, tmp_path, monkeypatch
):
    """A 12-segment file and its compaction each map one typed view per dtype.

    Counted with ``np.frombuffer`` instrumented across the attach, every
    column's first read, a gather and ``columns()``: a view per extent would
    make the count grow with the segment count.
    """
    scheme, derivation, _, _ = setup
    events = derivation.events
    run_file = tmp_path / "views.fvl"
    labeler = scheme.run_labeler()
    cuts = [len(events) * slice_ // 12 for slice_ in range(13)]
    for lo, hi in zip(cuts, cuts[1:]):
        for event in events[lo:hi]:
            labeler(event)
        checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    merged = tmp_path / "merged.fvl"
    shutil.copyfile(run_file, merged)
    assert compact(merged).segments_before == 12
    calls = []
    original = np.frombuffer

    def counting(*args, **kwargs):
        calls.append(kwargs.get("dtype"))
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "frombuffer", counting)
    dtypes = {column.numpy_dtype for column in runfile.SCHEMA if column.dtype != runfile.BLOB}
    rows = np.arange(0, len(labeler.store), 7)
    for path, segments in ((run_file, 12), (merged, 1)):
        calls.clear()
        with MappedRunStore(path) as mapped:
            assert mapped.n_segments == segments
            mapped.store.gather_rows(rows)
            for table in (mapped.table, mapped.store, mapped.nodes):
                table.columns()
        # Every integer dtype of the schema is read, each through one view.
        assert len(calls) == len(dtypes) and set(calls) == dtypes


def test_cold_batch_builds_no_index_and_asks_the_bank_once_per_factor(setup, tmp_path, monkeypatch):
    scheme, derivation, view, _ = setup

    def no_index(*args, **kwargs):
        raise AssertionError("a query built an interval index")

    monkeypatch.setattr(StructuralIndex, "build", no_index)
    gathers = []
    original = MatrixBank._gather

    def counting(self, keys, state):
        gathers.append(keys.tolist())
        return original(self, keys, state)

    monkeypatch.setattr(MatrixBank, "_gather", counting)
    read = []

    def reading(name):
        accessor = getattr(ViewLabel, name)

        def counted(self, *key):
            read.append((name, *key))
            return accessor(self, *key)

        return counted

    for name in ("inputs", "outputs", "z"):
        monkeypatch.setattr(ViewLabel, name, reading(name))

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
        gathers.clear()
        read.clear()
        assert engine.depends_batch(pairs, view, run="live").tolist() == expected
        # At most one gather, whatever the pair count: the Zs, the I/O
        # factors the batch meets first and the cycle edges its recursion
        # chain products step over, together; and the DEFAULT label's
        # accessors are not asked: factors come out of its closures.
        assert len(gathers) <= 1 and read == []
        return pairs, expected

    half = len(expansions) // 2
    grow_and_ask(expansions[:half])
    bank = engine.decoded_state(view).static.bank
    state = engine.decoded_state(view)
    table = state.table(engine.shard_arena("live"))
    # Every factor is resolved once, and there are far fewer factors than path pairs.
    resolved = [key for keys in gathers for key in keys]
    assert 0 < len(resolved) == len(set(resolved)) <= len(bank._codes)
    assert len(resolved) < len(table) // 2
    pairs, expected = grow_and_ask(expansions[half:])  # the shard grew: new keys, no rebuild
    assert len(state.table(engine.shard_arena("live"))) > len(table)

    # A mapped shard of the same run under the same view: every key is cold,
    # every factor known — the bank is not asked at all.
    run_file = tmp_path / "cold.fvl"
    engine.checkpoint(run_file, "live")
    engine.attach(run_file, "disk")
    gathers.clear()
    assert engine.depends_batch(pairs, view, run="disk").tolist() == expected
    assert gathers == []
    assert len(state.table(engine.shard_arena("disk"))) > 0


@pytest.mark.parametrize("workload", list(perf_inputs.WORKLOADS))
def test_a_view_add_frame_never_reaches_the_reference_decoder(workload, monkeypatch):
    """Each benchmark workload's frames, boundary keys included, are the kernel's alone.

    Warm-up, serve-block and view-add frames: the reference decoder is never called.
    """
    inputs = perf_inputs.generate(perf_inputs.WORKLOADS[workload], 42, scale=0.05)
    referred = []
    original = evaluate._reference_matrix

    def counting(*args):
        referred.append(args[2:])
        return original(*args)

    monkeypatch.setattr(evaluate, "_reference_matrix", counting)
    engine = QueryEngine(FVLScheme(inputs.specification))
    engine.add_run(DEFAULT_RUN, inputs.derivation)
    for view in inputs.views:
        engine.add_view(view)
    for frame in inputs.warmup:
        assert np.array_equal(engine.depends_batch(frame.ids, frame.view), frame.expected)
    for frame in inputs.block:
        if frame.kind == "depends":
            answer = engine.depends_batch(frame.ids, frame.view)
        else:
            answer = engine.is_visible_batch(frame.ids, frame.view)
        assert np.array_equal(answer, frame.expected)
    for view, frame in zip(inputs.extra_views, inputs.add_frames):
        engine.add_view(view)
        assert np.array_equal(engine.depends_batch(frame.ids, frame.view), frame.expected)
        table = engine.decoded_state(view).table(engine.shard_arena())
        path1, path2 = pair_paths(table.keys)
        assert np.count_nonzero((path1 == ABSENT) | (path2 == ABSENT)) > 0  # boundary keys asked
    assert referred == []


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
    yield spec, leader, run_file, view, pairs, expected
    leader.detach(DEFAULT_RUN)


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
        assert len(follower.decoded_state(view).table(follower.shard_arena())) == rows
        assert np.array_equal(follower.depends_batch(pairs, view), expected)
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
        assert engine.reopen() is False
        server.save_matrix_cache()
        engine.detach(DEFAULT_RUN)
    assert len(rendered) == 1
    assert engine_module.grammar_fingerprint(scheme.index) == engine_module.grammar_fingerprint(
        leader.scheme.index
    )
    assert len(rendered) == 1


def _tables(engine, views) -> list:
    """The default shard's pair table of each of ``views``."""
    return [engine.decoded_state(view).table(engine.shard_arena()) for view in views]


def _row_kinds(table) -> set:
    """The kinds of row ``table`` holds: interior matrix, verdict, boundary."""
    path1, path2 = pair_paths(table.keys)
    boundary = (path1 == ABSENT) | (path2 == ABSENT)
    held = {
        "matrix": (table.off >= 0) & ~boundary,
        "verdict": table.off <= VERDICT_FALSE,
        "boundary": boundary,
    }
    return {kind for kind, rows in held.items() if rows.any()}


@pytest.mark.parametrize("workload", list(perf_inputs.WORKLOADS))
def test_a_warm_attach_answers_its_warm_up_from_the_table(workload, tmp_path, monkeypatch):
    """The frames a leader answered and saved are table hits for its successor.

    The side file holds every kind of row the leader decided, so a fresh
    process over it decides nothing on the same frames: no kernel pass, no
    reference decoder.
    """
    inputs = perf_inputs.generate(perf_inputs.WORKLOADS[workload], 42, scale=0.05)
    run_file = tmp_path / "served.fvl"
    writer = QueryEngine(FVLScheme(inputs.specification))
    writer.add_run(DEFAULT_RUN, inputs.derivation)
    writer.checkpoint(run_file)
    leader = QueryEngine(writer.scheme)
    for view in inputs.views:
        leader.add_view(view)
    leader.attach(run_file)
    for frame in inputs.warmup:
        assert np.array_equal(leader.depends_batch(frame.ids, frame.view), frame.expected)
    assert save_hot_matrices(leader) == sum(len(table) for table in _tables(leader, inputs.views))

    engine = QueryEngine(FVLScheme(inputs.specification))
    for view in inputs.views:
        engine.add_view(view)
    engine.attach(run_file)
    assert load_hot_matrices(engine) > 0
    for ours, theirs in zip(_tables(engine, inputs.views), _tables(leader, inputs.views)):
        assert _row_kinds(ours) == _row_kinds(theirs) and "verdict" in _row_kinds(ours)
    decided = []

    def forbidden(name, original):
        def counting(*args):
            decided.append(name)
            return original(*args)

        return counting

    monkeypatch.setattr(evaluate, "decide_many", forbidden("decide_many", evaluate.decide_many))
    monkeypatch.setattr(
        evaluate, "_reference_matrix", forbidden("_reference_matrix", evaluate._reference_matrix)
    )
    for frame in inputs.warmup:
        assert np.array_equal(engine.depends_batch(frame.ids, frame.view), frame.expected)
    assert decided == []
    # Every view was proven safe by its admitted section: none is labelled,
    # and no kernel pass built a bank.
    statics = [engine.decoded_state(view.name).static for view in inputs.views]
    assert engine.stats.labels_built == 0 and not any(static.banked for static in statics)

    # What reads a label builds it, once per view: a visibility frame on the
    # even views, keys the table misses (a kernel pass, which builds the
    # bank too) on the odd ones.
    run, rng = inputs.derivation.run, np.random.default_rng(7)
    uids = np.asarray(sorted(run.data_items), dtype=np.int64)
    for index, view in enumerate(inputs.views):
        oracle = RunReachabilityOracle(run, view, inputs.specification)
        before = engine.stats.labels_built
        if index % 2 == 0:
            asked = rng.choice(uids, 64)
            answers = engine.is_visible_batch(asked, view.name)
            assert answers.tolist() == [oracle.is_visible(int(uid)) for uid in asked]
        else:
            items = np.asarray(sorted(ViewProjection(run, view).visible_items), dtype=np.int64)
            pairs = rng.choice(items, (256, 2))
            decided.clear()
            answers = engine.depends_batch(pairs, view.name)
            assert answers.tolist() == [oracle.depends(int(a), int(b)) for a, b in pairs]
            assert decided == ["decide_many"]
        assert engine.stats.labels_built == before + 1
        assert statics[index].labelled and statics[index].banked == (index % 2 == 1)


def test_a_successor_of_a_default_save_decides_nothing_in_its_warm_up(tmp_path, monkeypatch):
    """At full scale, a default save carries every row the serving stack decided.

    ``wire_large_recursive``'s leader answers its warm-up and serve-block
    frames and saves with no row cap; a fresh process over that file answers
    the warm-up with no kernel pass and labels no view.  (Under a 4,096-row
    cap the warm-up missed ≈124 keys and ran one pass.)
    """
    inputs = perf_inputs.generate(perf_inputs.WORKLOADS["wire_large_recursive"], 42)
    run_file = tmp_path / "served.fvl"
    writer = QueryEngine(FVLScheme(inputs.specification))
    writer.add_run(DEFAULT_RUN, inputs.derivation)
    writer.checkpoint(run_file)
    engines = [QueryEngine(writer.scheme), QueryEngine(FVLScheme(inputs.specification))]
    for engine in engines:
        for view in inputs.views:
            engine.add_view(view)
    leader, successor = engines
    leader.attach(run_file)
    for frame in inputs.warmup + inputs.block:
        if frame.kind == "depends":
            assert np.array_equal(leader.depends_batch(frame.ids, frame.view), frame.expected)
        else:
            assert np.array_equal(leader.is_visible_batch(frame.ids, frame.view), frame.expected)
    saved = save_hot_matrices(leader)
    successor.attach(run_file)
    assert load_hot_matrices(successor) == saved
    decided = []
    decide_many = evaluate.decide_many

    def counting(*args):
        decided.append(len(args[-1]))  # the keys of one kernel pass
        return decide_many(*args)

    monkeypatch.setattr(evaluate, "decide_many", counting)
    for frame in inputs.warmup:
        assert np.array_equal(successor.depends_batch(frame.ids, frame.view), frame.expected)
    assert decided == [] and successor.stats.labels_built == 0
    assert not any(successor.decoded_state(view.name).static.banked for view in inputs.views)
    assert saved == sum(len(table) for table in _tables(leader, inputs.views)) > 4096


_FIRST_QUERY = """
import sys
from repro import FVLScheme, QueryEngine
from repro.bench import sample_query_pairs
from repro.engine import DEFAULT_RUN
from repro.model.projection import ViewProjection
from repro.workloads import build_bioaid_specification, random_run, random_view

spec = build_bioaid_specification()
derivation = random_run(spec, 200, seed=9)
view = random_view(spec, 8, seed=3, mode="grey", name="first")
items = sorted(ViewProjection(derivation.run, view).visible_items)
engine = QueryEngine(FVLScheme(spec))
engine.add_run(DEFAULT_RUN, derivation)
engine.add_view(view)
before = set(sys.modules)
engine.depends_batch(sample_query_pairs(items, 100, seed=1), view.name)
engine.is_visible_batch(items[:10], view.name)
print(sorted(set(sys.modules) - before))
"""


def test_a_process_first_query_imports_no_module():
    """A fresh process's first cold query and first label import nothing.

    After a warm restart that query is a client's: a plain ``np.unique``
    used to import ``numpy.ma`` (≈14 ms) on it.
    """
    import os
    import subprocess

    root = Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_QUERY],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class _CountingLock:
    """A registry lock that counts its acquisitions, from any thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.taken = 0

    def acquire(self, *args) -> bool:
        self.taken += 1
        return self._lock.acquire(*args)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


#: Calls the loop thread makes into ``repro`` for one warm 256-pair frame
#: (Python 3.11); the guard lets the count fall, never rise.
WARM_FRAME_CALLS = 92
#: Code that is a comprehension or a generator (3.12 inlines comprehensions).
_NOT_A_CALL = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")
_GENERATOR_FLAGS = 0x20 | 0x80 | 0x200  # CO_GENERATOR, CO_COROUTINE, CO_ASYNC_GENERATOR


class _LoopCalls:
    """A profile function counting the loop thread's calls into ``repro``.

    Installed with :func:`threading.setprofile` before the loop starts, it
    runs on the loop thread only.  A pass of the loop ends when it returns
    from ``_flush_writes``; ``passes`` holds the count of every pass that
    took a scheduling step, whatever the test thread does meanwhile.
    """

    def __init__(self) -> None:
        self.root = os.path.dirname(repro.__file__) + os.sep
        self.calls = 0
        self.stepped = False
        self.passes: list[int] = []

    def __call__(self, frame, event, _arg) -> None:
        code = frame.f_code
        if not code.co_filename.startswith(self.root):
            return
        if event == "call":
            if code.co_name not in _NOT_A_CALL and not code.co_flags & _GENERATOR_FLAGS:
                self.calls += 1
            self.stepped = self.stepped or code.co_name == "_process"
        elif event == "return" and code.co_name == "_flush_writes":
            if self.stepped:
                self.passes.append(self.calls)
            self.calls, self.stepped = 0, False


def test_a_warm_frame_takes_the_registry_lock_twice_and_makes_pinned_calls(
    setup, tmp_path, monkeypatch
):
    scheme, derivation, view, pairs = setup
    run_file = tmp_path / "guard.fvl"
    writer = _fresh_engine(scheme, derivation)
    writer.checkpoint(run_file)
    ids = np.asarray(pairs[:256], dtype=np.int64)
    expected = writer.depends_batch(ids, view).tolist()

    registry = MetricsRegistry()
    registry._lock = counting = _CountingLock()  # before any family holds the lock
    engine = QueryEngine(scheme, metrics=registry)
    engine.add_view(view)
    # A clock that stands still: the reopen probe fires on query counts
    # alone (the second frame's), never on a slow host's timing.
    server = ProvenanceServer(
        engine, sampler=Sampler(registry, sample_rate=0.0), clock=lambda: 0.0
    )
    server.attach(run_file, warm=False)
    opened = []
    original = contextlib._GeneratorContextManager.__init__

    def counted(self, *args, **kwargs):
        opened.append(args[0].__name__)
        original(self, *args, **kwargs)

    threads = []
    process = ProvenanceServer._process

    def recorded(self, batch):
        threads.append(threading.current_thread().name)
        return process(self, batch)

    monkeypatch.setattr(ProvenanceServer, "_process", recorded)
    frame = encode_depends_request(1, DEFAULT_RUN, view.name, None, ids)
    sock_path = tmp_path / "guard.sock"
    loop_calls = _LoopCalls()
    threading.setprofile(loop_calls)  # the loop thread starts with it
    try:
        with server, ProvenanceNetServer(server, unix_path=sock_path):
            threading.setprofile(None)
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.settimeout(10.0)
            raw.connect(str(sock_path))

            def exchange():
                raw.sendall(frame)
                data = b""
                while len(data) < 4 or len(data) < 4 + struct.unpack("<I", data[:4])[0]:
                    chunk = raw.recv(1 << 16)
                    assert chunk, "the server hung up"
                    data += chunk
                return decode_reply(data[4:])

            try:
                # Cold, then warm: every key is decided and every metric child
                # that a frame updates (the reopen probe's among them) exists.
                for _ in range(2):
                    assert exchange().answers.tolist() == expected
                counting.taken = 0
                with monkeypatch.context() as patch:
                    patch.setattr(contextlib._GeneratorContextManager, "__init__", counted)
                    reply = exchange()
                taken = counting.taken
                for _ in range(1000):  # the pass ends just after the reply left
                    if len(loop_calls.passes) == 3:
                        break
                    time.sleep(0.01)
            finally:
                raw.close()
    finally:
        threading.setprofile(None)
    engine.detach(DEFAULT_RUN)
    assert isinstance(reply, AnswersReply) and reply.answers.tolist() == expected
    assert threads == ["provenance-net"] * 3  # every frame was served on the loop
    assert taken == 2
    assert opened == []
    assert len(loop_calls.passes) == 3  # one pass of the loop per frame
    assert loop_calls.passes[2] <= WARM_FRAME_CALLS
