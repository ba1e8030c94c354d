"""Readers follow a managed run file across compactions, one run at a time.

The lifecycle manager remaps the engine's attached readers of every managed
run's file at the end of each sweep (and after ``compact_run``), inside the
sweep's per-run containment: a reader that fails to remap keeps serving its
old mapping, the sweep's other runs still compact, the failure surfaces once
the sweep is done, it does not count against the *writer's* health, and the
next sweep retries.  Every refused remap — whoever asked for it — is one
``corruption_detected_total{layer="engine"}`` sample.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FVLScheme
from repro.core.run_labeler import RunLabeler
from repro.engine import DEFAULT_RUN, QueryEngine
from repro.engine import engine as engine_module
from repro.errors import CorruptionError
from repro.model.projection import ViewProjection
from repro.serve import ProvenanceServer, ReopenPolicy
from repro.service import CheckpointPolicy, RunLifecycleManager
from repro.store import checkpoint_run, run_file_info
from repro.bench import sample_query_pairs
from repro.workloads import build_bioaid_specification, random_run, random_view

pytestmark = pytest.mark.usefixtures("detach_engines")


@pytest.fixture(scope="module")
def spec():
    return build_bioaid_specification()


@pytest.fixture(scope="module")
def scheme(spec):
    return FVLScheme(spec)


def _segmented_run(scheme, derivation, path, segments: int) -> RunLabeler:
    """A labeler over the whole run, and its file as ``segments`` checkpoints."""
    labeler = RunLabeler(scheme.index)
    events = derivation.events
    for part in range(segments):
        for event in events[len(events) * part // segments : len(events) * (part + 1) // segments]:
            labeler(event)
        checkpoint_run(path, labeler.store, labeler.tree.nodes)
    assert run_file_info(path).n_segments == segments
    return labeler


def _corruption(engine) -> dict:
    return dict(engine.metrics.snapshot().get("corruption_detected_total", {}))


@pytest.fixture()
def scrub_fails(monkeypatch):
    """While ``armed[0]``, every mapping made with ``verify="attach"`` fails its scrub."""
    armed = [True]
    real = engine_module.MappedRunStore

    def mapping(path, verify="lazy"):
        if armed[0] and verify == "attach":
            raise CorruptionError(f"{path}: injected scrub failure")
        return real(path, verify=verify)

    monkeypatch.setattr(engine_module, "MappedRunStore", mapping)
    return armed


def test_a_failed_remap_is_contained_to_its_run_and_retried(
    scheme, spec, tmp_path, scrub_fails
):
    engine = QueryEngine(scheme)
    manager = RunLifecycleManager(
        engine,
        policy=CheckpointPolicy(
            every_events=10**9, every_seconds=None, compact_after_segments=2
        ),
    )
    paths = {}
    for run_id, seed in (("a", 61), ("b", 62)):
        paths[run_id] = tmp_path / f"{run_id}.fvl"
        labeler = _segmented_run(scheme, random_run(spec, 200, seed=seed), paths[run_id], 6)
        manager.manage(run_id, paths[run_id], labeler=labeler)
    engine.attach(paths["a"], run_id="reader-a")

    # a compacts, its reader's fresh mapping fails its scrub: b still
    # compacts in the same sweep, then the sweep raises the typed error.
    with pytest.raises(CorruptionError, match="injected"):
        manager.poll_once()
    assert run_file_info(paths["a"]).generation == 1
    assert run_file_info(paths["b"]).generation == 1
    assert manager.stats.compactions == 2
    assert engine.mapped_store("reader-a").generation == 0  # still serving
    # The reader failed, not the writer: a's health is untouched.
    assert manager.run_failure("a") is None
    assert manager.stats.run_failures == 0
    assert _corruption(engine) == {("engine",): 1, ("lifecycle",): 0}

    # The next sweep retries the remap (and nothing else is due).
    scrub_fails[0] = False
    sweep = manager.poll_once()
    assert sweep.compactions == [] and sweep.reopened == ["reader-a"]
    assert engine.mapped_store("reader-a").generation == 1
    assert manager.stats.reopens == 1
    assert manager.poll_once().reopened == []


@pytest.mark.parametrize("remap", ["engine.reopen", "server probe", "lifecycle sweep"])
def test_every_refused_remap_is_counted_once(
    scheme, spec, tmp_path, ask, publish_generation, remap
):
    derivation = random_run(spec, 200, seed=63)
    view = random_view(spec, 6, seed=64, mode="grey", name="remap-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 200, seed=65)
    run_file = tmp_path / "served.fvl"
    labeler = _segmented_run(scheme, derivation, run_file, 2)
    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view)

    engine = QueryEngine(scheme)
    if remap == "server probe":
        server = ProvenanceServer(
            engine, reopen=ReopenPolicy(after_queries=1, after_seconds=3600.0)
        )
        server.attach(run_file, warm=False)
        trigger = lambda: ask(server, "depends", pairs[:1], view)  # noqa: E731
    elif remap == "lifecycle sweep":
        engine.attach(run_file)
        manager = RunLifecycleManager(
            engine,
            policy=CheckpointPolicy(every_events=10**9, every_seconds=None),
        )
        manager.manage("writer", run_file, labeler=labeler)
        trigger = manager.poll_once
    else:
        engine.attach(run_file)
        trigger = engine.reopen
    old = engine.mapped_store()
    assert np.array_equal(engine.depends_batch(pairs, view), expected)
    before = _corruption(engine)

    publish_generation(run_file, flip=True)  # a damaged rewrite is swapped in
    with pytest.raises(CorruptionError):
        trigger()
    after = _corruption(engine)
    assert after.get(("engine",), 0) == before.get(("engine",), 0) + 1
    assert sum(after.values()) == sum(before.values()) + 1
    # The last good generation keeps answering, bit-identically.
    assert engine.mapped_store() is old and old.generation == 0
    assert np.array_equal(engine.depends_batch(pairs, view), expected)
