"""Walkthrough of the batched provenance query engine.

The one-pair ``FVLScheme.depends`` API re-derives view-constant state on
every call; the :class:`~repro.engine.QueryEngine` amortizes that work across
a whole batch (and across batches, through its per-view LRU decode cache),
shards independent runs, and answers heterogeneous query mixes with
``depends_many``.

Run with::

    python examples/query_engine.py
"""

from __future__ import annotations

import time

from repro import FVLVariant, QueryEngine
from repro.engine import DependsQuery
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

    # 3. Batched queries: the space-efficient variant stores only lambda* and
    #    is ~30-40x slower than the other variants one pair at a time, but the
    #    engine memoizes its per-production graph searches, so the batch runs
    #    at materialised-variant speed.
    items = sorted(ViewProjection(run_a.run, grey).visible_items)
    pairs = sample_query_pairs(items, 2000, seed=7)
    for variant in (FVLVariant.SPACE_EFFICIENT, FVLVariant.DEFAULT):
        start = time.perf_counter()
        answers = engine.depends_batch(pairs, grey, run="run-a", variant=variant)
        elapsed = time.perf_counter() - start
        print(
            f"{variant.value:>16}: {len(pairs)} queries in {elapsed * 1e3:7.2f} ms "
            f"({elapsed / len(pairs) * 1e6:6.2f} us/query, {sum(answers)} positive)"
        )

    # 4. Re-running the same batch hits the warm decode cache.
    start = time.perf_counter()
    engine.depends_batch(pairs, grey, run="run-a", variant=FVLVariant.SPACE_EFFICIENT)
    print(f"     warm re-run: {(time.perf_counter() - start) * 1e3:7.2f} ms")

    # 5. depends_many groups a mixed workload by (run, view, variant) and
    #    answers each group as one depends_batch (the coarse view's uniform
    #    matrices are settled as verdict rows, by the default variant).
    items_b = sorted(ViewProjection(run_b.run, coarse).visible_items)
    mixed = [DependsQuery(d1, d2, grey, run="run-a") for d1, d2 in pairs[:500]]
    mixed += [
        DependsQuery(d1, d2, coarse, run="run-b")
        for d1, d2 in sample_query_pairs(items_b, 500, seed=8)
    ]
    start = time.perf_counter()
    answers = engine.depends_many(mixed)
    print(
        f"    depends_many: {len(mixed)} mixed queries over 2 runs in "
        f"{(time.perf_counter() - start) * 1e3:7.2f} ms ({sum(answers)} positive)"
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
