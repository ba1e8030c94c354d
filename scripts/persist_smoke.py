"""Persistence + run-lifecycle round-trip smoke check (CI bench-smoke job).

Two end-to-end contracts are asserted on a BioAID-like run:

1. **Persistence** (`repro.store.checkpoint` / `repro.store.mapped`): checkpoint (full, then an
   incremental delta of a continued derivation), attach the file as a
   read-only mmap-backed shard, and require `depends_batch` answers
   bit-identical to the in-memory shard.
2. **Lifecycle** (`repro.service` + `repro.store.compaction`): stream the
   run in slices under a `RunLifecycleManager` with an (N events, M seconds)
   policy — durability with zero explicit `checkpoint()` calls — then
   `compact()` the multi-segment file into one extent per column, hot-reopen
   a live attached reader onto the merged generation, and require
   `depends_batch` / `is_visible` answers bit-identical before and after.

Run with:  PYTHONPATH=src python scripts/persist_smoke.py
"""

from __future__ import annotations

import glob
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench import sample_query_pairs  # noqa: E402
from repro.core import FVLScheme, FVLVariant  # noqa: E402
from repro.core.run_labeler import RunLabeler  # noqa: E402
from repro.engine import DEFAULT_RUN, QueryEngine  # noqa: E402
from repro.model.projection import ViewProjection  # noqa: E402
from repro.service import CheckpointPolicy, RunLifecycleManager  # noqa: E402
from repro.store import MappedRunStore, checkpoint_run, compact, run_file_info  # noqa: E402
from repro.workloads import build_bioaid_specification, random_run, random_view  # noqa: E402


def check_persistence(scheme, derivation, view, pairs, expected) -> int:
    events = derivation.events
    cut = int(len(events) * 0.9)
    with tempfile.TemporaryDirectory(prefix="persist-smoke-") as tmp:
        run_file = os.path.join(tmp, "run.fvl")
        labeler = RunLabeler(scheme.index)
        for event in events[:cut]:
            labeler(event)
        first = checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
        for event in events[cut:]:
            labeler(event)
        delta = checkpoint_run(run_file, labeler.store, labeler.tree.nodes)
        assert first.created and delta.wrote_segment, (first, delta)
        assert delta.delta_items > 0, "continued derivation produced no delta rows"

        served = QueryEngine(scheme)
        mapped = served.attach(run_file, run_id=DEFAULT_RUN)
        assert mapped.n_segments == 2
        assert mapped.n_items == derivation.run.n_data_items
        got = served.depends_batch(pairs, view, variant=FVLVariant.DEFAULT)
        if not np.array_equal(got, expected):
            mismatches = int(np.count_nonzero(got != expected))
            print(f"FAIL: {mismatches}/{len(pairs)} answers differ after mmap reload")
            return 1
        # Sanity: node columns survived too.
        with MappedRunStore(run_file) as reread:
            assert reread.nodes is not None
            assert reread.nodes.max_fanout() == labeler.tree.max_fanout()
        print(
            f"persistence smoke OK: {len(pairs)} queries bit-identical after "
            f"checkpoint ({first.delta_items}+{delta.delta_items} items over "
            f"{mapped.n_segments} segments) and mmap reload"
        )
    return 0


def check_lifecycle(scheme, derivation, view, pairs, expected) -> int:
    events = derivation.events
    visible_uids = list(range(1, derivation.run.n_data_items + 1))
    with tempfile.TemporaryDirectory(prefix="lifecycle-smoke-") as tmp:
        run_file = os.path.join(tmp, "managed.fvl")
        engine = QueryEngine(scheme)
        manager = RunLifecycleManager(
            engine, policy=CheckpointPolicy(every_events=1, every_seconds=60.0)
        )
        labeler = RunLabeler(scheme.index)
        manager.manage("stream", run_file, labeler=labeler)
        # Stream in slices; every sweep flushes the due delta — durability
        # with zero explicit checkpoint() calls.
        step = max(1, len(events) // 6)
        for lo in range(0, len(events), step):
            for event in events[lo : lo + step]:
                labeler(event)
            manager.poll_once()
        info = run_file_info(run_file)
        assert info.n_items == derivation.run.n_data_items, info
        assert info.n_segments >= 4, info

        # A live reader attached to the segmented chain...
        reader = QueryEngine(scheme)
        mapped = reader.attach(run_file, run_id=DEFAULT_RUN)
        assert max(mapped.extents_per_column().values()) > 1
        before = reader.depends_batch(pairs, view, variant=FVLVariant.DEFAULT)
        visible_before = reader.is_visible_batch(visible_uids, view)
        if not np.array_equal(before, expected):
            print("FAIL: segmented lifecycle shard diverges from reference")
            return 1

        # ...survives compaction + hot reopen without a restart.
        result = compact(run_file)
        assert result.compacted and result.generation == 1, result
        assert reader.reopen_all(run_file) == [DEFAULT_RUN]
        shard = reader._shards[DEFAULT_RUN].mapped
        assert shard.n_segments == 1 and shard.generation == 1
        assert max(shard.extents_per_column().values()) == 1
        after = reader.depends_batch(pairs, view, variant=FVLVariant.DEFAULT)
        visible_after = reader.is_visible_batch(visible_uids, view)
        if not (
            np.array_equal(after, expected) and np.array_equal(visible_after, visible_before)
        ):
            print("FAIL: answers changed across compaction + reopen")
            return 1
        assert not glob.glob(run_file + ".compact-*"), "superseded temps not GC'd"
        print(
            f"lifecycle smoke OK: {manager.stats.checkpoints} policy checkpoints, "
            f"{result.segments_before} segments compacted to 1 "
            f"({result.space_amplification:.1f}x read amplification reclaimed), "
            f"hot reopen bit-identical for {len(pairs)} queries and "
            f"{len(visible_uids)} visibility checks"
        )
    return 0


def _setup():
    spec = build_bioaid_specification()
    scheme = FVLScheme(spec)
    derivation = random_run(spec, 800, seed=42)
    view = random_view(spec, 6, seed=7, mode="grey", name="smoke-view")
    items = sorted(ViewProjection(derivation.run, view).visible_items)
    pairs = sample_query_pairs(items, 1500, seed=3)
    return scheme, derivation, view, pairs


def main() -> int:
    scheme, derivation, view, pairs = _setup()

    reference = QueryEngine(scheme)
    reference.add_run(DEFAULT_RUN, derivation)
    expected = reference.depends_batch(pairs, view, variant=FVLVariant.DEFAULT)

    status = check_persistence(scheme, derivation, view, pairs, expected)
    if status:
        return status
    return check_lifecycle(scheme, derivation, view, pairs, expected)


if __name__ == "__main__":
    raise SystemExit(main())
