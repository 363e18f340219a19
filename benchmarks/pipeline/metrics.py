"""Declarations of the pipeline benchmark: workloads, metrics, bounds.

The one place that names things.  ``BENCHMARK.json`` at the repository
root, the tables in ``README.md`` and the names ``run.py`` emits are all
rendered from (or checked against) the tuples below::

    python3 benchmarks/pipeline/metrics.py --benchmark-json   # BENCHMARK.json
    python3 benchmarks/pipeline/metrics.py --readme-tables    # the README tables
"""

from __future__ import annotations

import json
import sys
from fnmatch import fnmatchcase
from typing import Dict, FrozenSet, List, NamedTuple

#: ``run_seconds`` of ``BENCHMARK.json``: about what the timed passes of one
#: run take on the 2-vCPU guest the pass counts below were sized on.  A
#: declared fact, not a setting: the pass counts are constants, so two
#: commits always take the same number of samples.
RUN_SECONDS = 20


class Workload(NamedTuple):
    name: str
    #: Work items in one pass, and the fixed number of passes.
    items: int
    passes: int
    what: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str


WORKLOADS = (
    Workload(
        "batch_accept", 6, 120,
        "load_history_segment(p) -> MTChecker().verify(cols, level).format() for 2 "
        "healthy 800-txn segments (Database('ser'), 16 sessions, 400 keys; seg A "
        "uniform, seg B zipf) x {SER, SI, SSER}; known answer: satisfied",
        "The tester's `repro check` path: core.index, the INT pre-pass and core.csr do "
        "~90% of the work; adapters, epochlog, incremental and the reject labeler do none.",
    ),
    Workload(
        "batch_reject", 4, 200,
        "same calls on 2 segments recorded from Database('si', FaultPlan(lost_update_rate"
        "=0.5)) x {SER -> cycle via to_multigraph/find_cycle/classify_cycle; SI -> "
        "LostUpdate via the DIVERGENCE early exit}; known answer: violated, that kind",
        "Time to counterexample: same index/csr layers used differently, plus the "
        "multigraph labeler that batch_accept bypasses entirely.",
    ),
    Workload(
        "collect_check", 4, 100,
        "AsyncCollector(AsyncSimulatedAdapter('si'), max_inflight=8).collect(workload) -> "
        "MTChecker().verify(result.columns, SI) for 4 generated 800-txn workloads; "
        "known answer: every planned transaction committed, satisfied",
        "The paper's end-to-end shape (generation + verification): adapters+db are about "
        "half of the item, core the other half; no disk.",
    ),
    Workload(
        "stream_watch", 7, 180,
        "one epoch of a healthy stream (7 epochs x 128 rows) through the service loop, "
        "closed loop, one thread: EpochLogWriter.append x 128 (the last one seals) -> "
        "EpochLog.refresh -> load_epoch -> CheckerSession.ingest_segment -> every 5th "
        "epoch checkpoint + save_checkpoint -> session.satisfied; window 512, SER",
        "The operator's `repro watch` path: history.epochlog writes beside reads and "
        "core.incremental in place of index/csr; checkpoint epochs set the tail.",
    ),
)

END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "best-of-6 cold start (fresh interpreter: import repro + first verdict) + "
        "best-of-6 (stream_watch: 4) in-process build of the timed items' inputs; wall clock",
    ),
    EndToEnd(
        "txns_per_s", "1/s", "higher", 0.20,
        "recorded transactions in the item list / sum of item quiet times, in reference time",
    ),
    EndToEnd(
        "verdict_ms_p50", "ms", "lower", 0.25,
        "nearest-rank p50 over items of quiet request->verdict latency, in reference time",
    ),
    EndToEnd(
        "verdict_ms_p90", "ms", "lower", 0.20,
        "nearest-rank p90 over items, in reference time (stream_watch: the checkpoint epoch)",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.05,
        "ru_maxrss of the measuring subprocess, which starts from artefacts on disk and "
        "ends with one untimed scale pass on a 40x input (stream_watch: a 20x stream)",
    ),
    EndToEnd(
        "stored_bytes_per_txn", "B", "lower", 0.01,
        "bytes the scale pass stores / its transactions. batch: the segment file; "
        "collect_check: result.columns.nbytes; stream_watch: live bytes in the .epochs "
        "directory at the end (epochs, manifest, kept checkpoints)",
    ),
)


def _layer(layer: str, *specs: str) -> List[PerLayer]:
    """``"name unit better"`` triples of one layer (module) of the pipeline."""
    return [PerLayer(*spec.split(), layer) for spec in specs]


PER_LAYER = tuple(
    _layer("cli", "cli.cold_start_ms ms lower")
    + _layer("workloads", "workloads.generate_ms ms lower")
    + _layer("db", "db.run_workload_ms ms lower", "db.abort_ratio ratio lower")
    + _layer(
        "adapters",
        "adapters.collect_ms ms lower", "adapters.committed count higher",
        "adapters.aborted count lower", "adapters.backpressure_stalls count lower",
    )
    + _layer(
        "history.columnar",
        "history.from_history_ms ms lower", "history.save_ms ms lower",
        "history.load_ms ms lower", "history.segment_bytes B lower",
        "history.columns_nbytes B lower",
    )
    + _layer(
        "history.epochlog",
        "epochlog.append_ms ms lower", "epochlog.seal_ms ms lower",
        "epochlog.refresh_ms ms lower", "epochlog.load_epoch_ms ms lower",
        "epochlog.save_checkpoint_ms ms lower", "epochlog.checkpoint_bytes B lower",
        "epochlog.log_bytes B lower", "epochlog.seals count higher",
    )
    + _layer(
        "core.index",
        "index.from_columns_ms ms lower", "index.int_violations_ms ms lower",
        "index.find_divergence_ms ms lower",
    )
    + _layer(
        "core.csr",
        "csr.build_dependency_ms ms lower", "csr.si_induced_ms ms lower",
        "csr.has_cycle_ms ms lower", "csr.nodes count lower", "csr.edges count lower",
    )
    + _layer(
        "core.graph",
        "graph.to_multigraph_ms ms lower", "graph.find_cycle_ms ms lower",
        "graph.classify_cycle_ms ms lower",
    )
    + _layer(
        "core (per level)",
        "core.verify_ser_ms ms lower", "core.verify_si_ms ms lower",
        "core.verify_sser_ms ms lower",
    )
    + _layer(
        "core.incremental",
        "incremental.ingest_segment_ms ms lower", "incremental.checkpoint_ms ms lower",
        "incremental.restore_ms ms lower", "incremental.result_ms ms lower",
    )
    + _layer(
        "parallel",
        "parallel.verify_w1_ms ms lower", "parallel.verify_w2_ms ms lower",
        "parallel.w1_over_serial ratio lower",
    )
    + _layer("obs", "obs.report_overhead_ratio ratio lower")
    + _layer("scale", "scale.verify_ms ms lower", "scale.us_per_txn_ratio ratio lower")
    + _layer(
        "harness",
        "host.calibration_ms ms lower", "host.noise_ratio ratio lower",
        "host.loadavg count lower", "trace.overhead_ratio ratio lower",
        "trace.unattributed_share ratio lower",
    )
)

#: layer -> (metrics it owns, end-to-end metrics it should move, where the
#: prediction is "no change").  Rendered into the README.
INTERACTIONS = (
    ("cli", "`setup_s` everywhere", "anything else"),
    ("workloads", "`setup_s` everywhere", "-"),
    ("db", "`setup_s` on `batch_*`, `stream_watch`; `txns_per_s` on `collect_check` "
           "(engine calls inside collection)", "`batch_*` timed metrics"),
    ("adapters", "`txns_per_s`, `verdict_ms_p50` on `collect_check`", "all other workloads"),
    ("history.columnar", "`setup_s` (build, save) and `stored_bytes_per_txn` on `batch_*` / "
                "`collect_check`; `load_ms` is <1% of a batch item", "`stream_watch`"),
    ("history.epochlog", "`stream_watch`: append/seal/refresh/load -> `verdict_ms_p50`, `txns_per_s`; "
                 "`save_checkpoint_ms` -> `verdict_ms_p90`, `txns_per_s`; bytes -> "
                 "`stored_bytes_per_txn`",
     "`save_checkpoint_ms` must not move `verdict_ms_p50`; nothing on `batch_*`, `collect_check`"),
    ("core.index", "`txns_per_s`, `verdict_ms_p50/p90` on `batch_accept`, `batch_reject` and the "
              "verify half of `collect_check`; `peak_rss_mb` via the scale pass",
     "`stream_watch` (the incremental path never builds an index)"),
    ("core.csr", "`batch_accept` all timed metrics (`verdict_ms_p90` is an SSER item: RT edges "
            "multiply `csr.edges`)", "`stream_watch`"),
    ("core.graph", "`batch_reject` only", "`batch_accept`, `collect_check`, `stream_watch`"),
    ("core (per level)", "rows of `batch_*` split by level", "-"),
    ("core.incremental", "`stream_watch`: ingest -> `verdict_ms_p50`, `txns_per_s`; "
                    "`checkpoint_ms` -> `verdict_ms_p90`; `peak_rss_mb` (window state)",
     "`batch_*`; `restore_ms` is off every end-to-end path (resume cost, informational)"),
    ("parallel", "none: probe only (`MTChecker(workers=1|2)` on `batch_accept`'s 40x input, "
                 "verdict equal to serial)", "-"),
    ("obs", "none (`verify(report=True)` / `verify()`, informational)", "-"),
    ("scale", "`peak_rss_mb`, `stored_bytes_per_txn`; flags optimisations that only pay at 40x "
              "(`stream_watch`: 20x, where `epochlog.refresh_ms` has 140 epochs to list)", "-"),
    ("harness", "none: they say how far to trust the run (`host.calibration_ms` is the reference "
                "loop's quiet time, the divisor of reference time)", "-"),
)

#: workload -> the per-layer metrics it never produces, as patterns: the
#: layers it bypasses.  Those read 0, the prediction "no change" made
#: visible.  ``run.py`` refuses any other declared metric it cannot state,
#: so a renamed span or a dropped counter fails the run and never reads 0.
BYPASSED = {
    "batch_accept": ("adapters.*", "epochlog.*", "graph.*", "incremental.*"),
    "batch_reject": (
        "adapters.*", "epochlog.*", "incremental.*", "parallel.*",
        # At SI the DIVERGENCE pre-pass exits before the induced graph; no SSER item.
        "csr.si_induced_ms", "core.verify_sser_ms",
    ),
    "collect_check": (
        "db.*", "history.from_history_ms", "history.save_ms", "history.load_ms",
        "history.segment_bytes", "epochlog.*", "graph.*", "incremental.*", "parallel.*",
        "obs.*", "core.verify_ser_ms", "core.verify_sser_ms",
    ),
    "stream_watch": (
        "adapters.*", "history.load_ms", "index.*", "csr.*", "graph.*", "core.verify_*",
        "parallel.*", "obs.*",
    ),
}


def workload(name: str) -> Workload:
    for entry in WORKLOADS:
        if entry.name == name:
            return entry
    raise KeyError(name)


def bypassed(name: str) -> FrozenSet[str]:
    """The per-layer metric names workload ``name`` leaves at 0."""
    return frozenset(
        m.name for m in PER_LAYER if any(fnmatchcase(m.name, pattern) for pattern in BYPASSED[name])
    )


def benchmark_json() -> Dict[str, object]:
    """The document committed as ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/pipeline/run.py"],
        "paths": ["benchmarks/pipeline"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def readme_tables() -> str:
    """The three README tables (end-to-end, workloads, per-layer) as markdown."""
    lines = ["| name | unit | better | bound | definition |", "|---|---|---|---|---|"]
    for m in END_TO_END:
        lines.append(f"| `{m.name}` | {m.unit} | {m.better} | {m.bound:.2f} | {m.definition} |")
    lines += ["", "| name | items x passes | what one item is | why it exists |", "|---|---|---|---|"]
    for w in WORKLOADS:
        lines.append(f"| `{w.name}` | {w.items} x {w.passes} | {w.what} | {w.why} |")
    lines += ["", "| layer | metrics | should move | should not move |", "|---|---|---|---|"]
    for layer, moves, not_moves in INTERACTIONS:
        names = ", ".join(f"`{m.name}`" for m in PER_LAYER if m.layer == layer)
        lines.append(f"| `{layer}` | {names} | {moves} | {not_moves} |")
    return "\n".join(lines)


if __name__ == "__main__":
    if sys.argv[1:] == ["--benchmark-json"]:
        print(json.dumps(benchmark_json(), indent=2))
    elif sys.argv[1:] == ["--readme-tables"]:
        print(readme_tables())
    else:
        sys.exit("usage: metrics.py --benchmark-json | --readme-tables")
