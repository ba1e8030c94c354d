"""Walkthrough of the batched provenance query engine.

The one-pair ``FVLScheme.depends`` API re-derives view-constant state on
every call; the :class:`~repro.engine.QueryEngine` amortizes that work across
a whole batch (and across batches, through its per-view LRU decode cache)
and shards independent runs; a mixed workload is one ``depends_batch`` per
``(run, view)`` group.

Run with::

    python examples/query_engine.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import QueryEngine
from repro.bench import prepare_bioaid, sample_query_pairs
from repro.model.projection import ViewProjection
from repro.workloads import random_run, random_view


def main() -> None:
    # 1. A BioAID-like workload (Section 6.1) and an engine around its scheme.
    #    The engine owns the runs: add_run labels each derivation once and
    #    keeps the labeler as a queryable shard.  Decoded view state — every
    #    view's, static label and per-run tables alike — lives under one byte
    #    budget (64 MiB is the default; two views on these runs hold ~0.1 MiB).
    workload = prepare_bioaid()
    engine = QueryEngine(workload.scheme, state_budget_bytes=64 << 20)
    run_a = random_run(workload.specification, 1000, seed=0)
    run_b = random_run(workload.specification, 1000, seed=1)
    engine.add_run("run-a", run_a)
    engine.add_run("run-b", run_b)

    # 2. Register views: a grey-box view with fine-grained dependencies and a
    #    coarse black-box view (every module's matrices all-true).
    grey = workload.views({"medium": 8}, mode="grey", seed=3)["medium"]
    coarse = random_view(workload.specification, 8, seed=200, mode="black", name="coarse")
    engine.add_view(grey)
    engine.add_view(coarse)

    # 3. Batched queries: the engine labels the view once, on its first
    #    batch, and decides every distinct pair of parse-tree paths once.
    items = sorted(ViewProjection(run_a.run, grey).visible_items)
    pairs = sample_query_pairs(items, 2000, seed=7)
    start = time.perf_counter()
    answers = engine.depends_batch(pairs, grey, run="run-a")
    elapsed = time.perf_counter() - start
    print(
        f"      cold batch: {len(pairs)} queries in {elapsed * 1e3:7.2f} ms "
        f"({elapsed / len(pairs) * 1e6:6.2f} us/query, {np.count_nonzero(answers)} positive)"
    )

    # 4. Re-running the same batch hits the warm decode cache.
    start = time.perf_counter()
    engine.depends_batch(pairs, grey, run="run-a")
    print(f"     warm re-run: {(time.perf_counter() - start) * 1e3:7.2f} ms")

    # 5. A mixed workload is one depends_batch per (run, view) group (the
    #    coarse view's uniform matrices are settled as verdict rows); each
    #    answers one bool array, in its pairs' order.
    items_b = sorted(ViewProjection(run_b.run, coarse).visible_items)
    groups = [
        (pairs[:500], grey, "run-a"),
        (sample_query_pairs(items_b, 500, seed=8), coarse, "run-b"),
    ]
    start = time.perf_counter()
    answers = np.concatenate(
        [engine.depends_batch(group, view, run=run) for group, view, run in groups]
    )
    print(
        f"    mixed groups: {len(answers)} queries over 2 runs in "
        f"{(time.perf_counter() - start) * 1e3:7.2f} ms ({np.count_nonzero(answers)} positive)"
    )

    # 6. Cache accounting: how often decoded view state was reused.
    stats = engine.stats
    print(
        f"view cache: {stats.views.hits} hits / {stats.views.misses} misses "
        f"({stats.views.hit_rate:.0%} hit rate), {stats.queries} queries total, "
        f"per run: {stats.queries_by_run}"
    )


if __name__ == "__main__":
    main()
