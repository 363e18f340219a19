#!/usr/bin/env python3
"""Pipeline benchmark: commit-to-verdict, end to end and layer by layer.

    python3 benchmarks/pipeline/run.py [--workload W] [--seed S] [--trace 0|1]
                                       [--smoke] [--out DIR]

Runs one workload (or all four), each in fresh subprocesses, prints every
metric by name with its unit, checks every verdict against its known
answer, writes a stamped result file for ``compare.py``, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
traced run gives the per-layer ones.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from estimator import host_speed, nearest_rank, noise_ratio, quiet_times, throughput  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS, bypassed, workload  # noqa: E402

COLD_STARTS = 6
#: Passes of the traced run (and of the untraced run it is compared with).
TRACE_PASSES = {"batch_accept": 20, "batch_reject": 30, "collect_check": 16, "stream_watch": 30}
CHILD_TIMEOUT = 170

#: What a tester's first command costs: a fresh interpreter, the import, and
#: one verdict.  The catalogue's WriteSkew history violates SER by definition.
COLD_START = (
    "import repro\n"
    "from repro import MTChecker, IsolationLevel, anomaly_history\n"
    "r = MTChecker().verify(anomaly_history('WriteSkew'), IsolationLevel.SERIALIZABILITY)\n"
    "print(r.satisfied, r.violation.kind.value)\n"
)


def child_env() -> Dict[str, str]:
    """Environment of every child: fixed hash seed, no failpoints, ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def cold_starts(env: Dict[str, str]) -> List[float]:
    seconds = []
    for _ in range(COLD_STARTS):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", COLD_START],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True,
        )
        seconds.append(time.perf_counter() - started)
        if done.stdout.split() != ["False", "WriteSkew"]:
            raise AssertionError(f"cold start: unexpected verdict {done.stdout!r}")
    return seconds


def run_worker(mode: str, env: Dict[str, str], workdir: Path, *options: object) -> Dict[str, Any]:
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, "--workdir", str(workdir), *map(str, options)],
        env=env, timeout=CHILD_TIMEOUT, check=True,
    )
    return json.loads((workdir / f"{mode}.json").read_text())


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def compute_metrics(cold: List[float], built: Dict[str, Any], measured: Dict[str, Any]) -> Dict[str, float]:
    """Every metric this run can state, by name.

    Times taken in the measuring process are stated in reference time (wall
    clock x the host's speed during the passes); set-up times, taken in other
    processes, and ratios of two times of this run are left as measured.
    """
    speed = host_speed(measured["reference"])
    raw = quiet_times(measured["times"])
    quiet = [seconds * speed for seconds in raw]
    latency = [seconds * speed for seconds in quiet_times(measured["latencies"])]
    rows = measured["item_rows"]
    scale = measured["scale"]
    base = scale["base_items"]
    values = {
        "setup_s": min(cold) + min(built["build_seconds"]),
        "txns_per_s": throughput(sum(rows), quiet),
        "verdict_ms_p50": nearest_rank(latency, 0.5) * 1e3,
        "verdict_ms_p90": nearest_rank(latency, 0.9) * 1e3,
        "peak_rss_mb": measured["peak_rss_kb"] / 1024,
        "stored_bytes_per_txn": scale["stored_bytes"] / scale["rows"],
        "scale.verify_ms": scale["seconds"] * 1e3 * speed,
        # What a transaction costs in the scale input over what it costs in the 1x items.
        "scale.us_per_txn_ratio": (scale["seconds"] / scale["rows"])
        / (sum(raw[i] for i in base) / sum(rows[i] for i in base)),
        "cli.cold_start_ms": min(cold) * 1e3,
        "host.calibration_ms": min(measured["reference"]) * 1e3,
        "host.noise_ratio": noise_ratio(measured["times"]),
        "host.loadavg": measured["host"]["loadavg_before"],
    }
    values.update({f"{stage}_ms": seconds * 1e3 for stage, seconds in built["stages"].items()})
    values.update(built["counts"])
    values.update(measured["counts"])
    trace = measured.get("trace")
    if trace:
        for name, seconds in trace["self_seconds"].items():
            values[f"{name}_ms"] = seconds * 1e3 * speed
        for name, seconds in trace["total_seconds"].items():
            if name.startswith("core.verify_"):
                values[f"{name}_ms"] = seconds * 1e3 * speed
        values.update(trace["counts"])
        for name, value in trace["probes"].items():
            values[name] = value * speed if name.endswith("_ms") else value
        values["trace.overhead_ratio"] = trace["quiet_total"] / sum(raw)
        values["trace.unattributed_share"] = trace["unattributed_share"]
    return values


def declared_values(name: str, declared, values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """The run's value of every declared metric; a layer ``name`` bypasses reads 0.

    Any other metric the harness cannot state is a bug in it (a renamed span,
    a dropped counter), and so is a bypassed layer that was measured after
    all: both raise, because a silent 0 would read as a win.
    """
    absent = bypassed(name)
    for metric in declared:
        if (metric.name in values) == (metric.name in absent):
            raise KeyError(
                f"{name}: {metric.name} is "
                + ("measured but declared bypassed" if metric.name in values else "not measured")
            )
    return {m.name: {"value": values.get(m.name, 0.0), "unit": m.unit} for m in declared}


def run_one(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Set up, measure and check one workload; returns the result document."""
    env = child_env()
    size = "smoke" if args.smoke else "full"
    passes = 3 if args.smoke else workload(name).passes
    trace_passes = 0 if not args.trace else 2 if args.smoke else TRACE_PASSES[name]
    if args.trace:
        # The traced run is compared with as many untraced passes.
        passes = trace_passes
    args.out.mkdir(parents=True, exist_ok=True)
    workdir = args.out / f"pipeline-work-{os.getpid()}"
    workdir.mkdir()
    try:
        cold = cold_starts(env)
        common = ("--workload", name, "--seed", args.seed, "--size", size)
        built = run_worker("build", env, workdir, *common)
        measured = run_worker(
            "measure", env, workdir, *common,
            "--passes", passes, "--trace-passes", trace_passes, "--results", args.out,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = compute_metrics(cold, built, measured)
    metrics = declared_values(name, PER_LAYER if args.trace else END_TO_END, values)
    quiet = quiet_times(measured["times"])
    return {
        "benchmark": "pipeline",
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "passes": passes,
        "inputs_sha256": built["digest"],
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": measured["host"]["loadavg_before"],
        "loadavg_after": measured["host"]["loadavg_after"],
        "correct": not measured["failures"],
        # Item executions + set-up builds + the scale pass.
        "attempted": measured["attempted"] + len(built["build_seconds"]),
        "failed": len(measured["failures"]),
        "failures": measured["failures"][:20],
        "metrics": metrics,
        "host": {
            "calibration_ms": values["host.calibration_ms"],
            "speed": host_speed(measured["reference"]),
            "noise_ratio": values["host.noise_ratio"],
        },
        "items": {
            "ids": measured["item_ids"],
            "rows": measured["item_rows"],
            "quiet_s": quiet,
            "latency_quiet_s": quiet_times(measured["latencies"]),
        },
        "pass_totals_s": [sum(row) for row in measured["times"]],
        "cold_start_s": cold,
        "build_s": built["build_seconds"],
    }


def report(document: Dict[str, Any], out: Path) -> None:
    name = document["workload"]
    for metric, entry in document["metrics"].items():
        print(f"{name}/{metric} = {entry['value']:.6g} {entry['unit']}")
    print(
        f"{name}: seed={document['seed']} inputs_sha256={document['inputs_sha256'][:16]} "
        f"passes={document['passes']} attempted={document['attempted']} "
        f"failed={document['failed']} noise_ratio={document['host']['noise_ratio']:.3f} "
        f"calibration_ms={document['host']['calibration_ms']:.2f}"
    )
    for failure in document["failures"]:
        print(f"{name}: FAILED {failure}")
    stamp = f"{name}-seed{document['seed']}-trace{document['trace']}-{time.time_ns()}"
    (out / f"pipeline-{stamp}.json").write_text(json.dumps(document, indent=1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    # The benchmark driver passes BENCHMARK.json's run_seconds; pass counts are constants.
    parser.add_argument("--seconds", help="accepted and ignored")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="3 passes over ~500-txn inputs")
    parser.add_argument("--out", type=Path, default=ROOT / "benchmarks" / "results")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC}/repro not found: nothing to measure", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    documents = []
    for name in names:
        document = run_one(name, args)
        report(document, args.out)
        documents.append(document)
    if args.workload:
        metrics = documents[0]["metrics"]
    else:
        metrics = {f"{d['workload']}/{m}": entry for d in documents for m, entry in d["metrics"].items()}
    failed = sum(d["failed"] for d in documents)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(d["attempted"] for d in documents),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
