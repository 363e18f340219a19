"""Paper-figure harness: measurement, canned pipelines, and reporting used by
the ``benchmarks/bench_*`` scripts that reproduce the paper's tables and
figures.  The repository's own performance is measured by
``benchmarks/pipeline``, which is not part of the installed package."""

from .harness import (
    BENCH_SCALE,
    EndToEndResult,
    GeneratedHistory,
    end_to_end,
    generate_gt_history,
    generate_mt_history,
    make_disjoint_history,
    scaled,
)
from .metrics import Measurement, measure, measure_memory
from .reporting import format_table, print_series, print_table

__all__ = [
    "BENCH_SCALE",
    "EndToEndResult",
    "GeneratedHistory",
    "Measurement",
    "end_to_end",
    "format_table",
    "generate_gt_history",
    "generate_mt_history",
    "make_disjoint_history",
    "measure",
    "measure_memory",
    "print_series",
    "print_table",
    "scaled",
]
