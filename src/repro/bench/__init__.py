"""Benchmark harness: regenerates every figure and table of the paper's Section 6."""

from repro.bench.experiments import (
    all_experiments,
    fig17_data_label_length,
    fig18_label_construction_time,
    fig19_view_label_length,
    fig20_query_time,
    fig21_multiview_space,
    fig22_multiview_time,
    fig23_query_time_vs_drl,
    fig24_nesting_depth,
    fig25_module_degree,
    fig26_batched_query_throughput,
    table1_factors,
)
from repro.bench.measure import ResultTable, Timer, time_call
from repro.bench.reporting import format_table, format_tables, write_all_csv, write_csv
from repro.bench.workloads import PreparedWorkload, prepare_bioaid, sample_query_pairs

__all__ = [
    "ResultTable",
    "Timer",
    "time_call",
    "PreparedWorkload",
    "prepare_bioaid",
    "sample_query_pairs",
    "format_table",
    "format_tables",
    "write_csv",
    "write_all_csv",
    "all_experiments",
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
]
