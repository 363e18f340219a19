"""Child processes of ``run.py``: ``build`` (set-up) and ``measure`` (the passes).

Both are started with ``PYTHONHASHSEED=0`` and talk to the parent through a
JSON file in the work directory.  ``measure`` starts from the artefacts
``build`` left on disk, so its peak RSS is the pipeline's, not the input
generator's.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

from repro import MTChecker, load_history_segment, obs
from repro.parallel.executor import shutdown_pool

from estimator import reference_loop
from spans import NullTracer, Tracer, layer_quiet, quiet_item_total, unattributed_share, write_jsonl
from workloads import BATCH, BUILDERS, FULL, LEVELS, SMOKE, open_runner

SIZES = {"full": FULL, "smoke": SMOKE}


def build(args: argparse.Namespace) -> Dict[str, Any]:
    """Build the inputs several times (they must hash identically), then finish."""
    size = SIZES[args.size]
    build_once, finish = BUILDERS[args.workload]
    repeats = size.stream_builds if args.workload == "stream_watch" else size.builds
    manifests = []
    for _ in range(repeats):
        gc.collect()
        manifests.append(build_once(args.workload, args.workdir, args.seed, size))
    if len({m["digest"] for m in manifests}) != 1:
        raise AssertionError(
            f"{args.workload}: {repeats} builds from seed {args.seed} hash differently"
        )
    manifest = manifests[-1]
    manifest["build_seconds"] = [m["seconds"] for m in manifests]
    manifest["stages"] = {
        stage: min(m["stages"][stage] for m in manifests) for stage in manifest["stages"]
    }
    finish(args.workload, args.workdir, args.seed, size, manifest)
    return manifest


def run_passes(runner, passes: int, tracer) -> Dict[str, Any]:
    """Run ``passes`` passes; every output is compared with pass 0's.

    The reference loop is timed before each pass, so its quiet time is taken
    from the same stretch of wall clock as the items'.
    """
    times: List[List[float]] = []
    latencies: List[List[float]] = []
    reference: List[float] = []
    failures: List[str] = []
    first = last = None
    for pass_no in range(passes):
        started = perf_counter()
        reference_loop()
        reference.append(perf_counter() - started)
        tracer.pass_no = pass_no
        if tracer.enabled:
            tracer.counts.clear()
        last = runner.run_pass(pass_no, tracer)
        times.append(last.item_seconds)
        latencies.append(last.latency_seconds)
        failures.extend(last.failures)
        if first is None:
            first = last
        elif last.outputs != first.outputs:
            failures.append(f"pass {pass_no}: output differs from pass 0")
    return {
        "times": times,
        "latencies": latencies,
        "reference": reference,
        "failures": failures,
        "attempted": passes * len(runner.items),
        "outputs": first.outputs,
        "counts": last.counts,
    }


def probe_obs(runner) -> float:
    """``verify(report=True)`` / ``verify()`` on the first item (best of 3 each)."""
    item = runner.items[0]
    columns = load_history_segment(runner.path_of(item))
    best = {False: float("inf"), True: float("inf")}
    for _ in range(3):
        for report in (False, True):
            gc.collect()
            started = perf_counter()
            MTChecker().verify(columns, LEVELS[item["level"]], report=report)
            best[report] = min(best[report], perf_counter() - started)
    return best[True] / best[False]


def probe_parallel(runner, failures: List[str]) -> Dict[str, float]:
    """``MTChecker(workers=1|2)`` on the scale input; verdicts must equal serial."""
    scale = runner.manifest["scale"]
    columns = load_history_segment(runner.workdir / scale["path"])
    best: Dict[Any, float] = {}
    rendered = {}
    try:
        for workers in (None, 1, 2):
            best[workers] = float("inf")
            for _ in range(2):
                gc.collect()
                started = perf_counter()
                result = MTChecker(workers=workers).verify(columns, LEVELS[scale["level"]])
                rendered[workers] = result.format()
                best[workers] = min(best[workers], perf_counter() - started)
    finally:
        shutdown_pool()
    if not rendered[None] == rendered[1] == rendered[2]:
        failures.append("parallel probe: sharded verdict differs from serial")
    return {
        "parallel.verify_w1_ms": best[1] * 1e3,
        "parallel.verify_w2_ms": best[2] * 1e3,
        "parallel.w1_over_serial": best[1] / best[None],
    }


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    obs.disable()
    manifest = json.loads((args.workdir / "build.json").read_text())
    host = {"loadavg_before": os.getloadavg()[0]}
    runner = open_runner(args.workload, args.workdir, manifest, SIZES[args.size])

    out = run_passes(runner, args.passes, NullTracer())
    out["item_ids"] = [str(item["id"]) for item in runner.items]
    out["item_rows"] = runner.item_rows

    if args.trace_passes:
        tracer = Tracer()
        traced = run_passes(runner, args.trace_passes, tracer)
        out["attempted"] += traced["attempted"]
        out["failures"] += traced["failures"]
        out["reference"] += traced["reference"]
        if traced["outputs"] != out["outputs"]:
            out["failures"].append("traced run: decomposed verdict differs from the single call")
        spans_file = args.results / f"pipeline-trace-{args.workload}.jsonl"
        write_jsonl(spans_file, tracer.spans)
        probes: Dict[str, float] = {}
        if args.workload in BATCH:
            probes["obs.report_overhead_ratio"] = probe_obs(runner)
        if args.workload == "batch_accept":
            probes.update(probe_parallel(runner, out["failures"]))
        out["trace"] = {
            "passes": args.trace_passes,
            "self_seconds": layer_quiet(tracer.spans),
            "total_seconds": layer_quiet(tracer.spans, own=False),
            "quiet_total": quiet_item_total(tracer.spans),
            "unattributed_share": unattributed_share(tracer.spans),
            "counts": {**traced["counts"], **tracer.counts},
            "probes": probes,
            "spans": len(tracer.spans),
            "spans_file": str(spans_file),
        }
        del tracer

    scale = runner.scale_pass()
    out["attempted"] += 1
    failure = scale.pop("failure")
    if failure:
        out["failures"].append(f"scale pass: {failure}")
    out["scale"] = scale
    del out["outputs"]
    host["loadavg_after"] = os.getloadavg()[0]
    out["host"] = host
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("build", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--results", type=Path)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--trace-passes", type=int, default=0)
    args = parser.parse_args()
    result = build(args) if args.mode == "build" else measure(args)
    (args.workdir / f"{args.mode}.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
