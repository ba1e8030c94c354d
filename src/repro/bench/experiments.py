"""The experiment harness: one function per figure/table of Section 6.

Every function regenerates the corresponding figure's series (or table's
rows) and returns a :class:`~repro.bench.measure.ResultTable`; the
``repro.bench.reporting`` module renders them as text or CSV, and
``python -m repro.bench`` runs the whole suite.

Default parameters are scaled down so the full suite runs in minutes on a
laptop; pass larger ``run_sizes`` / ``samples`` / ``n_queries`` to approach
the paper's setup (runs of 1K–32K data items, 100 sample runs per point,
10^6 sample queries).  Absolute numbers differ from the paper (Java on a
2011-era desktop vs Python here); the *shapes* — who wins, by what factor,
what grows and what stays flat — are the reproduction target (see
EXPERIMENTS.md).
"""

from __future__ import annotations

import random
import time

from repro.analysis.reachability import RunReachabilityOracle
from repro.baselines import DRL_ORDER_HEADER_BITS
from repro.bench.measure import ResultTable, mean, time_call
from repro.bench.workloads import PreparedWorkload, prepare_bioaid, sample_query_pairs
from repro.core import FVLScheme, FVLVariant
from repro.engine import QueryEngine
from repro.io import LabelCodec
from repro.model import Derivation
from repro.model.projection import ViewProjection
from repro.workloads import (
    SyntheticConfig,
    build_synthetic_specification,
    random_run,
    random_view,
)

__all__ = [
    "fig17_data_label_length",
    "fig18_label_construction_time",
    "fig19_view_label_length",
    "fig20_query_time",
    "fig21_multiview_space",
    "fig22_multiview_time",
    "fig23_query_time_vs_drl",
    "fig24_nesting_depth",
    "fig25_module_degree",
    "fig26_batched_query_throughput",
    "table1_factors",
    "all_experiments",
]

DEFAULT_RUN_SIZES = (1000, 2000, 4000, 8000)
VIEW_SIZES = {"small": 2, "medium": 8, "large": 16}


# ---------------------------------------------------------------------------
# Figures 17 / 18 — overhead of labeling runs (FVL vs DRL, default view)
# ---------------------------------------------------------------------------


def _coarse_default_view(workload: PreparedWorkload, seed: int = 0):
    """A black-box view exposing every composite module (DRL's native setting)."""
    n = len(workload.specification.grammar.composite_modules)
    return random_view(
        workload.specification, n, seed=seed, mode="black", name="coarse-default"
    )


def fig17_data_label_length(
    workload: PreparedWorkload | None = None,
    run_sizes: tuple[int, ...] = DEFAULT_RUN_SIZES,
    samples: int = 2,
) -> ResultTable:
    """Figure 17: average and maximum data-label length (bits) vs run size."""
    workload = workload or prepare_bioaid()
    codec = workload.codec
    coarse = _coarse_default_view(workload)
    table = ResultTable(
        "Figure 17 - data label length (bits) vs run size",
        ["run_size", "FVL-avg", "FVL-max", "DRL-avg", "DRL-max"],
        notes="BioAID-like workflow; DRL labels the default (coarse) view.",
    )
    for size in run_sizes:
        fvl_avg, fvl_max, drl_avg, drl_max = [], [], [], []
        for seed in range(samples):
            derivation, labeler = workload.labeled_run(size, seed)
            bits = [
                codec.data_label_bits(labeler.label(d))
                for d in derivation.run.data_items
            ]
            fvl_avg.append(mean(bits))
            fvl_max.append(max(bits))
            drl_labeler = workload.drl.label_run(derivation, coarse)
            drl_bits = [
                codec.data_label_bits(label.core) + DRL_ORDER_HEADER_BITS
                for label in drl_labeler.labels.values()
            ]
            drl_avg.append(mean(drl_bits))
            drl_max.append(max(drl_bits))
        table.add_row(
            size,
            round(mean(fvl_avg), 2),
            round(mean(fvl_max), 2),
            round(mean(drl_avg), 2),
            round(mean(drl_max), 2),
        )
    return table


def fig18_label_construction_time(
    workload: PreparedWorkload | None = None,
    run_sizes: tuple[int, ...] = DEFAULT_RUN_SIZES,
    samples: int = 2,
) -> ResultTable:
    """Figure 18: total data-label construction time (ms) vs run size."""
    workload = workload or prepare_bioaid()
    coarse = _coarse_default_view(workload)
    table = ResultTable(
        "Figure 18 - data label construction time (ms) vs run size",
        ["run_size", "FVL_ms", "DRL_ms"],
    )
    for size in run_sizes:
        fvl_times, drl_times = [], []
        for seed in range(samples):
            derivation = workload.run(size, seed)
            fvl_times.append(time_call(lambda: workload.scheme.label_run(derivation)))
            drl_times.append(
                time_call(lambda: workload.drl.label_run(derivation, coarse))
            )
        table.add_row(
            size, round(mean(fvl_times) * 1e3, 2), round(mean(drl_times) * 1e3, 2)
        )
    return table


# ---------------------------------------------------------------------------
# Figures 19 / 20 — view labeling cost vs query efficiency (three FVL variants)
# ---------------------------------------------------------------------------


def fig19_view_label_length(
    workload: PreparedWorkload | None = None,
    view_sizes: dict[str, int] | None = None,
    seed: int = 11,
) -> ResultTable:
    """Figure 19: view-label length (KB) for small/medium/large views, 3 variants."""
    workload = workload or prepare_bioaid()
    views = workload.views(view_sizes or VIEW_SIZES, mode="grey", seed=seed)
    table = ResultTable(
        "Figure 19 - view label length (KB)",
        ["view", "Space-Efficient", "Default FVL", "Query-Efficient"],
    )
    times = []
    for name, view in views.items():
        sizes = {}
        for variant in (
            FVLVariant.SPACE_EFFICIENT,
            FVLVariant.DEFAULT,
            FVLVariant.QUERY_EFFICIENT,
        ):
            start = time.perf_counter()
            label = workload.scheme.label_view(view, variant)
            if variant is FVLVariant.DEFAULT:
                times.append(f"{name} {(time.perf_counter() - start) * 1e3:.2f}")
            sizes[variant] = label.size_bits() / 8.0 / 1024.0
        table.add_row(
            name,
            round(sizes[FVLVariant.SPACE_EFFICIENT], 4),
            round(sizes[FVLVariant.DEFAULT], 4),
            round(sizes[FVLVariant.QUERY_EFFICIENT], 4),
        )
    table.notes = "view_label_time_ms (Default FVL, one static labelling): " + ", ".join(times)
    return table


def _visible_items(derivation: Derivation, view) -> list[int]:
    projection = ViewProjection(derivation.run, view)
    return sorted(projection.visible_items)


def fig20_query_time(
    workload: PreparedWorkload | None = None,
    run_sizes: tuple[int, ...] = DEFAULT_RUN_SIZES,
    n_queries: int = 2000,
    seed: int = 11,
) -> ResultTable:
    """Figure 20: query time (microseconds) vs run size for the three FVL variants."""
    workload = workload or prepare_bioaid()
    views = workload.views(VIEW_SIZES, mode="grey", seed=seed)
    table = ResultTable(
        "Figure 20 - query time (us per query) vs run size",
        ["run_size", "Space-Efficient", "Default FVL", "Query-Efficient"],
        notes="random query pairs over random views (small/medium/large)",
    )
    for size in run_sizes:
        derivation, labeler = workload.labeled_run(size, 0)
        per_variant: dict[FVLVariant, float] = {}
        for variant in (
            FVLVariant.SPACE_EFFICIENT,
            FVLVariant.DEFAULT,
            FVLVariant.QUERY_EFFICIENT,
        ):
            view_labels = {
                name: workload.scheme.label_view(view, variant)
                for name, view in views.items()
            }
            rng = random.Random(seed)
            workset = []
            for name, view in views.items():
                items = _visible_items(derivation, view)
                pairs = sample_query_pairs(items, n_queries // len(views), seed=seed)
                workset.extend((pair, view_labels[name]) for pair in pairs)
            start = time.perf_counter()
            for (d1, d2), vlabel in workset:
                workload.scheme.depends(labeler.label(d1), labeler.label(d2), vlabel)
            elapsed = time.perf_counter() - start
            per_variant[variant] = elapsed / max(len(workset), 1) * 1e6
        table.add_row(
            size,
            round(per_variant[FVLVariant.SPACE_EFFICIENT], 2),
            round(per_variant[FVLVariant.DEFAULT], 2),
            round(per_variant[FVLVariant.QUERY_EFFICIENT], 2),
        )
    return table


# ---------------------------------------------------------------------------
# Figures 21 / 22 / 23 — advantage of view-adaptive labeling over DRL
# ---------------------------------------------------------------------------


def _black_box_views(workload: PreparedWorkload, n_views: int, size: int = 8):
    return [
        random_view(
            workload.specification,
            min(size, len(workload.specification.grammar.composite_modules)),
            seed=100 + i,
            mode="black",
            name=f"bb-{i}",
        )
        for i in range(n_views)
    ]


def fig21_multiview_space(
    workload: PreparedWorkload | None = None,
    run_size: int = 8000,
    max_views: int = 10,
) -> ResultTable:
    """Figure 21: total data-label length per item (bits) vs number of views."""
    workload = workload or prepare_bioaid()
    codec = workload.codec
    derivation, labeler = workload.labeled_run(run_size, 0)
    views = _black_box_views(workload, max_views)
    item_ids = sorted(derivation.run.data_items)
    fvl_bits = mean(codec.data_label_bits(labeler.label(d)) for d in item_ids)
    drl_per_view: list[float] = []
    for view in views:
        drl_labeler = workload.drl.label_run(derivation, view)
        drl_per_view.append(
            mean(
                codec.data_label_bits(label.core) + DRL_ORDER_HEADER_BITS
                for label in drl_labeler.labels.values()
            )
        )
    table = ResultTable(
        "Figure 21 - total data label length per item (bits) vs number of views",
        ["n_views", "FVL", "DRL"],
        notes=f"run of {derivation.run.n_data_items} items; medium black-box views",
    )
    for n in range(1, max_views + 1):
        table.add_row(n, round(fvl_bits, 2), round(sum(drl_per_view[:n]), 2))
    return table


def fig22_multiview_time(
    workload: PreparedWorkload | None = None,
    run_size: int = 8000,
    max_views: int = 10,
) -> ResultTable:
    """Figure 22: total data-label construction time (ms) vs number of views."""
    workload = workload or prepare_bioaid()
    derivation = workload.run(run_size, 0)
    views = _black_box_views(workload, max_views)
    fvl_time = time_call(lambda: workload.scheme.label_run(derivation))
    drl_times = [
        time_call(lambda v=view: workload.drl.label_run(derivation, v)) for view in views
    ]
    table = ResultTable(
        "Figure 22 - total data label construction time (ms) vs number of views",
        ["n_views", "FVL_ms", "DRL_ms"],
    )
    for n in range(1, max_views + 1):
        table.add_row(
            n, round(fvl_time * 1e3, 2), round(sum(drl_times[:n]) * 1e3, 2)
        )
    return table


def fig23_query_time_vs_drl(
    workload: PreparedWorkload | None = None,
    run_size: int = 8000,
    n_queries: int = 2000,
    view_sizes: dict[str, int] | None = None,
) -> ResultTable:
    """Figure 23: query time over coarse views — FVL, Matrix-Free FVL and DRL."""
    workload = workload or prepare_bioaid()
    derivation, labeler = workload.labeled_run(run_size, 0)
    sizes = view_sizes or VIEW_SIZES
    table = ResultTable(
        "Figure 23 - query time (us per query) over coarse-grained views",
        ["view", "FVL", "Matrix-Free FVL", "DRL"],
    )
    for index, (name, size) in enumerate(sizes.items()):
        view = random_view(
            workload.specification,
            min(size, len(workload.specification.grammar.composite_modules)),
            seed=200 + index,
            mode="black",
            name=f"{name}-coarse",
        )
        items = _visible_items(derivation, view)
        pairs = sample_query_pairs(items, n_queries, seed=index)
        full_label = workload.scheme.label_view(view, FVLVariant.QUERY_EFFICIENT)
        mf_label = workload.scheme.label_view_matrix_free(view)
        drl_labeler = workload.drl.label_run(derivation, view)

        def run_queries(fn) -> float:
            start = time.perf_counter()
            for d1, d2 in pairs:
                fn(d1, d2)
            return (time.perf_counter() - start) / max(len(pairs), 1) * 1e6

        fvl_us = run_queries(
            lambda d1, d2: workload.scheme.depends(
                labeler.label(d1), labeler.label(d2), full_label
            )
        )
        mf_us = run_queries(
            lambda d1, d2: workload.scheme.depends(
                labeler.label(d1), labeler.label(d2), mf_label
            )
        )
        drl_us = run_queries(
            lambda d1, d2: workload.drl.depends(
                drl_labeler.label(d1), drl_labeler.label(d2), view
            )
        )
        table.add_row(name, round(fvl_us, 2), round(mf_us, 2), round(drl_us, 2))
    return table


# ---------------------------------------------------------------------------
# Figure 26 (extension) — batched query throughput through the QueryEngine
# ---------------------------------------------------------------------------


def fig26_batched_query_throughput(
    workload: PreparedWorkload | None = None,
    run_size: int = 2000,
    n_queries: int = 2000,
    seed: int = 11,
) -> ResultTable:
    """Extension figure: per-query latency, one-pair API vs the batched engine.

    Not part of the paper — it quantifies the serving-layer caching this
    reproduction adds on top of the decoding predicate.  The space-efficient
    variant benefits the most: its per-query graph searches are view-constant
    and collapse into the engine's per-view memo.
    """
    workload = workload or prepare_bioaid()
    derivation, labeler = workload.labeled_run(run_size, 0)
    view = workload.views({"medium": 8}, mode="grey", seed=seed)["medium"]
    items = _visible_items(derivation, view)
    pairs = sample_query_pairs(items, n_queries, seed=seed)
    engine = QueryEngine(workload.scheme)
    engine.add_run("default", derivation)
    table = ResultTable(
        "Figure 26 - batched engine query time (us per query)",
        ["variant", "single_us", "batched_us", "speedup"],
        notes=f"{len(pairs)} queries over one medium grey view; engine cache warm",
    )
    for variant in (
        FVLVariant.SPACE_EFFICIENT,
        FVLVariant.DEFAULT,
        FVLVariant.QUERY_EFFICIENT,
    ):
        view_label = workload.scheme.label_view(view, variant)
        start = time.perf_counter()
        for d1, d2 in pairs:
            workload.scheme.depends(labeler.label(d1), labeler.label(d2), view_label)
        single_us = (time.perf_counter() - start) / len(pairs) * 1e6
        # Steady-state serving throughput: the first batch fills the decode
        # cache (view state, production memos, path groups), the timed one
        # measures the amortized path.
        engine.depends_batch(pairs, view, variant=variant)
        start = time.perf_counter()
        engine.depends_batch(pairs, view, variant=variant)
        batched_us = (time.perf_counter() - start) / len(pairs) * 1e6
        table.add_row(
            variant.value,
            round(single_us, 2),
            round(batched_us, 2),
            round(single_us / batched_us, 1) if batched_us else float("inf"),
        )
    return table


# ---------------------------------------------------------------------------
# Figures 24 / 25 and Table 1 — synthetic-family factor analysis
# ---------------------------------------------------------------------------


def _synthetic_metrics(
    config: SyntheticConfig,
    run_size: int,
    n_queries: int,
    seed: int = 0,
    depth_first: bool = False,
) -> dict[str, float]:
    """The five metrics of Table 1 for one synthetic configuration.

    ``depth_first`` expands the most recently created pending instance first,
    which drives the derivation into the nested recursion levels; Figure 24
    uses it so that runs actually exercise the configured nesting depth.
    """
    specification = build_synthetic_specification(config)
    scheme = FVLScheme(specification)
    codec = LabelCodec(scheme.index)
    chooser = (lambda rng, pending: pending[-1]) if depth_first else None
    derivation = random_run(
        specification, run_size, seed=seed, choose_pending=chooser
    )

    label_time = time_call(lambda: scheme.label_run(derivation))
    labeler = scheme.label_run(derivation)
    bits = [codec.data_label_bits(labeler.label(d)) for d in derivation.run.data_items]

    view = random_view(
        specification,
        len(specification.grammar.composite_modules),
        seed=seed,
        mode="grey",
        name="factor-view",
    )
    view_time = time_call(
        lambda: scheme.label_view(view, FVLVariant.QUERY_EFFICIENT)
    )
    view_label = scheme.label_view(view, FVLVariant.QUERY_EFFICIENT)

    items = _visible_items(derivation, view)
    pairs = sample_query_pairs(items, n_queries, seed=seed)
    start = time.perf_counter()
    for d1, d2 in pairs:
        scheme.depends(labeler.label(d1), labeler.label(d2), view_label)
    query_us = (time.perf_counter() - start) / max(len(pairs), 1) * 1e6

    return {
        "data_label_bits": mean(bits),
        "data_label_time_ms": label_time * 1e3,
        "view_label_bits": float(view_label.size_bits()),
        "view_label_time_ms": view_time * 1e3,
        "query_time_us": query_us,
    }


def fig24_nesting_depth(
    depths: tuple[int, ...] = (2, 4, 6, 8, 10),
    run_size: int = 4000,
    workflow_size: int = 12,
) -> ResultTable:
    """Figure 24: average data-label length (bits) vs nesting depth."""
    table = ResultTable(
        "Figure 24 - data label length (bits) vs nesting depth",
        ["nesting_depth", "FVL_avg_bits"],
    )
    for depth in depths:
        config = SyntheticConfig(
            workflow_size=workflow_size, nesting_depth=depth, recursion_length=2
        )
        metrics = _synthetic_metrics(config, run_size, n_queries=200, depth_first=True)
        table.add_row(depth, round(metrics["data_label_bits"], 2))
    return table


def fig25_module_degree(
    degrees: tuple[int, ...] = (2, 4, 6, 8, 10),
    run_size: int = 4000,
    workflow_size: int = 12,
    n_queries: int = 1000,
) -> ResultTable:
    """Figure 25: query time (microseconds) vs module input/output degree."""
    table = ResultTable(
        "Figure 25 - query time (us per query) vs module degree",
        ["module_degree", "query_time_us"],
    )
    for degree in degrees:
        config = SyntheticConfig(
            workflow_size=workflow_size, module_degree=degree, nesting_depth=4
        )
        metrics = _synthetic_metrics(config, run_size, n_queries=n_queries)
        table.add_row(degree, round(metrics["query_time_us"], 2))
    return table


def _impact(low: float, high: float) -> str:
    """Classify the impact of a factor by the ratio of metric values."""
    if low <= 0 or high <= 0:
        return "no impact"
    ratio = max(low, high) / min(low, high)
    if ratio >= 2.0:
        return "high impact"
    if ratio >= 1.3:
        return "low impact"
    return "no impact"


def table1_factors(
    run_size: int = 3000,
    n_queries: int = 400,
    workflow_size: int = 12,
) -> ResultTable:
    """Table 1: qualitative impact of the four synthetic factors on five metrics."""
    base = dict(
        workflow_size=workflow_size,
        module_degree=4,
        nesting_depth=4,
        recursion_length=2,
    )
    sweeps = {
        "workflow size": ("workflow_size", max(6, workflow_size // 2), workflow_size * 3),
        "module degree": ("module_degree", 2, 8),
        "nesting depth": ("nesting_depth", 2, 8),
        "recursion length": ("recursion_length", 1, 4),
    }
    metric_names = [
        "data_label_bits",
        "data_label_time_ms",
        "view_label_bits",
        "view_label_time_ms",
        "query_time_us",
    ]
    table = ResultTable(
        "Table 1 - impact of synthetic factors on view-adaptive labeling",
        [
            "factor",
            "data label length",
            "data label time",
            "view label length",
            "view label time",
            "query time",
        ],
    )
    for factor, (field_name, low_value, high_value) in sweeps.items():
        low_config = SyntheticConfig(**{**base, field_name: low_value})
        high_config = SyntheticConfig(**{**base, field_name: high_value})
        low = _synthetic_metrics(low_config, run_size, n_queries)
        high = _synthetic_metrics(high_config, run_size, n_queries)
        table.add_row(
            factor,
            *[_impact(low[name], high[name]) for name in metric_names],
        )
    return table


def all_experiments(quick: bool = True) -> list[ResultTable]:
    """Run every experiment (scaled down when ``quick``)."""
    workload = prepare_bioaid()
    run_sizes = (500, 1000, 2000) if quick else DEFAULT_RUN_SIZES
    run_size = 2000 if quick else 8000
    return [
        fig17_data_label_length(workload, run_sizes=run_sizes, samples=1),
        fig18_label_construction_time(workload, run_sizes=run_sizes, samples=1),
        fig19_view_label_length(workload),
        fig20_query_time(workload, run_sizes=run_sizes, n_queries=600),
        fig21_multiview_space(workload, run_size=run_size, max_views=10),
        fig22_multiview_time(workload, run_size=run_size, max_views=10),
        fig23_query_time_vs_drl(workload, run_size=run_size, n_queries=600),
        fig24_nesting_depth(depths=(2, 4, 6) if quick else (2, 4, 6, 8, 10), run_size=1500),
        fig25_module_degree(degrees=(2, 4, 6) if quick else (2, 4, 6, 8, 10), run_size=1500, n_queries=300),
        fig26_batched_query_throughput(workload, run_size=run_size, n_queries=600 if quick else 2000),
        table1_factors(run_size=1500 if quick else 3000, n_queries=200),
    ]
