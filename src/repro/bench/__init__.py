"""Paper-figure harness: measurement, canned pipelines, and reporting used by
the ``benchmarks/bench_*`` scripts that reproduce the paper's tables and
figures.  The repository's own performance is measured by
``benchmarks/pipeline``, which is not part of the installed package."""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "BENCH_SCALE": ".harness",
    "EndToEndResult": ".harness",
    "GeneratedHistory": ".harness",
    "end_to_end": ".harness",
    "generate_gt_history": ".harness",
    "generate_mt_history": ".harness",
    "make_disjoint_history": ".harness",
    "scaled": ".harness",
    "Measurement": ".metrics",
    "measure": ".metrics",
    "format_table": ".reporting",
    "print_table": ".reporting",
})
