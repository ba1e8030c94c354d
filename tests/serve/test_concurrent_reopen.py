"""Generation-probe reopen under live traffic (serve + engine.reopen).

The ISSUE-5 follower contract: a reader process serving coalesced batches
through :class:`ProvenanceServer` must follow a writer's compaction — via
header-generation probes only, no in-process lifecycle manager — while
answers stay bit-identical across the remap.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import FVLScheme
from repro.core.run_labeler import RunLabeler
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.model.projection import ViewProjection
from repro.serve import BatchPolicy, ProvenanceServer, ReopenPolicy
from repro.store import checkpoint_run, compact
from repro.bench import sample_query_pairs
from repro.workloads import build_bioaid_specification, random_run, random_view


pytestmark = pytest.mark.usefixtures("detach_engines")


@pytest.fixture(scope="module")
def spec():
    return build_bioaid_specification()


@pytest.fixture(scope="module")
def scheme(spec):
    return FVLScheme(spec)


@pytest.fixture()
def segmented(scheme, spec, tmp_path):
    """A 4-segment run file, its view, query pairs, and reference answers."""
    derivation = random_run(spec, 300, seed=51)
    view = random_view(spec, 6, seed=52, mode="grey", name="reopen-serve-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 400, seed=53)
    run_file = tmp_path / "segmented.fvl"
    labeler = RunLabeler(scheme.index)
    events = derivation.events
    step = max(1, len(events) // 4)
    for lo in range(0, len(events), step):
        for event in events[lo : lo + step]:
            labeler(event)
        checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view)
    return run_file, view, pairs, expected


def test_reopen_probes_and_remaps(segmented, scheme):
    run_file, view, pairs, expected = segmented
    engine = QueryEngine(scheme)
    engine.attach(run_file)
    assert engine.reopen() is False  # same generation: a no-op probe
    assert compact(run_file).compacted
    assert engine.reopen() is True
    assert engine.mapped_store().generation == 1
    assert np.array_equal(engine.depends_batch(pairs, view), expected)
    assert engine.reopen() is False


def test_server_probe_follows_compaction_on_query_backoff(segmented, scheme, ask):
    """Inline mode: the Nth query triggers the probe which triggers the remap."""
    run_file, view, pairs, expected = segmented
    engine = QueryEngine(scheme)
    server = ProvenanceServer(
        engine, reopen=ReopenPolicy(after_queries=1, after_seconds=3600.0)
    )
    server.attach(run_file, warm=False)
    assert np.array_equal(ask(server, "depends", pairs[:1], view), expected[:1])
    assert compact(run_file).compacted
    assert engine.mapped_store().generation == 0  # not yet probed
    assert np.array_equal(ask(server, "depends", pairs[1:2], view), expected[1:2])
    assert engine.mapped_store().generation == 1  # probe fired on the answer
    stats = server.stats
    assert stats.probes >= 2 and stats.reopens == 1


def test_concurrent_batches_stay_bit_identical_across_compaction(segmented, scheme):
    """Reader threads hammer the server while the 'writer' compacts the file.

    Every answer returned before, during, and after the remap must equal the
    single-process reference — the remap must be invisible to clients.
    """
    run_file, view, pairs, expected = segmented
    engine = QueryEngine(scheme)
    server = ProvenanceServer(
        engine,
        policy=BatchPolicy(max_batch=256),
        reopen=ReopenPolicy(after_queries=50, after_seconds=0.01),
    )
    server.attach(run_file, warm=False)
    n_clients = 6
    rounds = 8
    errors: list = []
    mismatches: list = []
    compacted = threading.Event()

    def client(index: int) -> None:
        try:
            for round_no in range(rounds):
                futures = [server.submit_batch("depends", [pair], view) for pair in pairs]
                answers = [f.result(timeout=60).item() for f in futures]
                if answers != expected.tolist():
                    mismatches.append((index, round_no))
                if round_no == rounds // 2 and index == 0:
                    # Mid-traffic, the writer swaps in the compacted file.
                    assert compact(run_file).compacted
                    compacted.set()
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    with server:
        threads = [
            threading.Thread(target=client, args=(index,)) for index in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert not errors
    assert not mismatches
    assert compacted.is_set()
    # The server followed the writer: probes fired and the shard remapped.
    stats = server.stats
    assert stats.probes > 0
    assert stats.reopens == 1
    assert engine.mapped_store().generation == 1
    assert stats.answered == n_clients * rounds * len(pairs)
