"""Benchmark harness: measurement, canned pipelines, and reporting used by
the ``benchmarks/`` suite that reproduces the paper's tables and figures."""

from .harness import (
    BENCH_SCALE,
    EndToEndResult,
    GeneratedHistory,
    end_to_end,
    generate_gt_history,
    generate_mt_history,
    scaled,
)
from .metrics import Measurement, measure, measure_memory
from .reporting import format_table, print_series, print_table
from .suites import (
    e2e_benchmark,
    incremental_benchmark,
    make_disjoint_history,
    parallel_benchmark,
    write_benchmark_json,
)

__all__ = [
    "BENCH_SCALE",
    "EndToEndResult",
    "GeneratedHistory",
    "Measurement",
    "e2e_benchmark",
    "end_to_end",
    "format_table",
    "generate_gt_history",
    "generate_mt_history",
    "incremental_benchmark",
    "make_disjoint_history",
    "measure",
    "measure_memory",
    "parallel_benchmark",
    "print_series",
    "print_table",
    "scaled",
    "write_benchmark_json",
]
