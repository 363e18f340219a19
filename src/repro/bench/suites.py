"""Machine-readable benchmark suites shared by the CLI and ``benchmarks/``.

Two suites track the performance trajectory of the repository across PRs:

* :func:`parallel_benchmark` — serial vs sharded verification
  (``MTChecker(workers=N)``) on a large disjoint-key history, the workload
  the key-connectivity partitioner is built for;
* :func:`incremental_benchmark` — amortized streaming ingestion vs batch
  re-verification on a growing history.

``repro bench`` runs them and writes ``BENCH_parallel.json`` /
``BENCH_incremental.json`` (see :func:`write_benchmark_json`) so successive
PRs can diff the numbers; ``benchmarks/bench_parallel.py`` and
``benchmarks/bench_incremental.py`` wrap the same sweeps with
pytest-benchmark assertions.

Speedup expectations are hardware-dependent: the JSON records
``cpu_count`` alongside every run, and consumers must not expect a >1x
parallel speedup on single-core machines (process fan-out still works
there, it just timeshares).
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import time
from typing import Dict, List, Optional, Sequence

from .. import obs
from ..core.checker import MTChecker
from ..core.incremental import CheckerSession, stream_order
from ..core.model import History, Session, Transaction, read, write
from ..core.result import IsolationLevel
from .env import environment_metadata
from .harness import generate_mt_history

__all__ = [
    "make_disjoint_history",
    "parallel_benchmark",
    "incremental_benchmark",
    "e2e_benchmark",
    "service_benchmark",
    "collect_benchmark",
    "write_benchmark_json",
]

_LEVELS = {
    "ser": IsolationLevel.SERIALIZABILITY,
    "si": IsolationLevel.SNAPSHOT_ISOLATION,
    "sser": IsolationLevel.STRICT_SERIALIZABILITY,
}


def make_disjoint_history(
    *,
    num_groups: int = 8,
    sessions_per_group: int = 4,
    txns_per_session: int = 100,
    keys_per_group: int = 16,
    timestamps: bool = False,
) -> History:
    """Synthesise a valid serializable history over disjoint key groups.

    Each group owns its own key range and sessions; transactions are
    read-modify-write mini-transactions over the group's keys, generated as
    one serial interleaving per group, so the history satisfies SER/SI (and
    SSER when ``timestamps`` is set).  The key-connectivity partitioner
    splits it into exactly ``num_groups`` shards, which makes it the
    canonical near-linear-speedup workload for the sharded executor.
    """
    sessions: List[Session] = []
    txn_id = 1
    value = 1
    clock = 0.0
    for group in range(num_groups):
        keys = [f"g{group}:k{i}" for i in range(keys_per_group)]
        latest = {key: 0 for key in keys}
        group_sessions = [
            Session(session_id=group * sessions_per_group + s)
            for s in range(sessions_per_group)
        ]
        # One serial round-robin interleaving per group: every transaction
        # reads the current values of two neighbouring group keys and
        # installs a fresh value on the first.  The second (read-only) key
        # chains the group's keys into a single connected component, so the
        # partitioner yields exactly one shard per group.
        for turn in range(txns_per_session):
            for slot, session in enumerate(group_sessions):
                key = keys[(turn + slot) % keys_per_group]
                neighbour = keys[(turn + slot + 1) % keys_per_group]
                operations = [read(key, latest[key])]
                if neighbour != key:
                    operations.append(read(neighbour, latest[neighbour]))
                operations.append(write(key, value))
                txn = Transaction(
                    txn_id,
                    operations,
                    session_id=session.session_id,
                )
                if timestamps:
                    txn.start_ts = clock
                    txn.finish_ts = clock + 0.5
                    clock += 1.0
                latest[key] = value
                value += 1
                txn_id += 1
                session.transactions.append(txn)
        sessions.extend(group_sessions)
    history = History(sessions)
    history.ensure_initial_transaction()
    return history


def parallel_benchmark(
    *,
    smoke: bool = False,
    workers: Sequence[int] = (1, 2, 4),
    levels: Sequence[str] = ("ser", "si", "sser"),
    num_groups: int = 8,
    sizes: Optional[Sequence[int]] = None,
) -> Dict[str, object]:
    """Serial vs sharded verification on mmap-backed disjoint-key segments.

    The full run sweeps a ~50k-transaction tier and a 1M-transaction tier
    (the Cobra/PolySI-class regime the scale-out kernel targets); ``smoke``
    drops to ~1k transactions for CI.  Histories carry timestamps so SSER —
    the level that exercises the tree-reduction merge — is part of the
    sweep.  Every history is written to a ``.seg`` segment and checked via
    ``source_path`` references, the configuration ``repro check --workers``
    uses, so the numbers include (and expose) the real IPC costs: every
    ``speedup`` row records the pickled payload bytes shipped to workers,
    the parent index build (or reuse) time, and the SSER merge wall-clock,
    alongside the timings.

    Two row kinds come back, tagged ``kind``:

    * ``"speedup"`` — serial vs ``workers=N`` timings.  Parallel verdicts
      are asserted equal to serial before timings are reported
      (``verdicts_equal``).  Rows with ``workers > cpu_count`` are marked
      ``advisory: true`` and record the *effective* (clamped) worker count
      — the executor refuses to oversubscribe, so such rows measure the
      inline fallback, not a fictional fan-out; regression tooling must
      skip them.
    * ``"index-reuse"`` — the epoch-log re-check loop at the largest tier:
      cold ``HistoryIndex.from_columns`` build vs rehydrating the
      CRC-stamped ``INDEX.cache`` written beside the epochs.  ``reuse_ok``
      asserts the reload skipped index construction entirely (the build
      counter is unchanged) and came in under half the cold build time.
    """
    import shutil
    import tempfile
    import warnings as _warnings

    from ..history.columnar import ColumnarHistory, write_history_segment
    from ..parallel import check_parallel

    if sizes is None:
        sizes = [1_000] if smoke else [51_200, 1_000_000]
    sessions_per_group = 4

    cpu_count = os.cpu_count() or 1
    rows: List[Dict[str, object]] = []
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-parallel-")
    try:
        for size in sizes:
            txns_per_session = max(1, size // (num_groups * sessions_per_group))
            history = make_disjoint_history(
                num_groups=num_groups,
                sessions_per_group=sessions_per_group,
                txns_per_session=txns_per_session,
                timestamps=True,
            )
            num_txns = history.num_transactions()
            segment_path = os.path.join(tmpdir, f"bench-{size}.seg")
            write_history_segment(history, segment_path)
            del history
            gc.collect()
            columns = ColumnarHistory.load(segment_path, mmap=True)

            size_workers = [w for w in workers if size <= 100_000 or w in (1, 4)]
            for level_name in levels:
                level = _LEVELS[level_name]
                started = time.perf_counter()
                serial = MTChecker().verify(columns, level)
                serial_seconds = time.perf_counter() - started
                for count in size_workers:
                    with _warnings.catch_warnings(), obs.scoped() as reg:
                        _warnings.simplefilter("ignore", RuntimeWarning)
                        started = time.perf_counter()
                        result = check_parallel(
                            columns,
                            level,
                            workers=count,
                            source_path=segment_path,
                        )
                        elapsed = time.perf_counter() - started
                    verdicts_equal = (
                        result.satisfied == serial.satisfied
                        and result.num_transactions == serial.num_transactions
                    )
                    assert verdicts_equal, (level_name, count)
                    advisory = count > cpu_count
                    rows.append(
                        {
                            "kind": "speedup",
                            "level": level_name.upper(),
                            "txns": num_txns,
                            "workers": count,
                            "workers_effective": int(reg.value("repro_executor_workers_effective")),
                            "cpu_count": cpu_count,
                            "advisory": advisory,
                            **(
                                {
                                    "note": (
                                        f"requested {count} workers on a "
                                        f"{cpu_count}-core machine; the executor "
                                        "clamped the fan-out, so this row measures "
                                        "the inline fallback — re-measure on >= "
                                        f"{count} cores before citing it"
                                    )
                                }
                                if advisory
                                else {}
                            ),
                            "serial_s": round(serial_seconds, 4),
                            "parallel_s": round(elapsed, 4),
                            "speedup": round(serial_seconds / max(elapsed, 1e-9), 2),
                            "verdict": result.satisfied,
                            "verdicts_equal": verdicts_equal,
                            "shards": int(reg.value("repro_executor_shards")),
                            # Recorded only on a multi-shard fan-out / an SSER merge.
                            "payload_bytes": int(
                                reg.value("repro_executor_payload_bytes") or 0
                            ),
                            "index_build_s": round(
                                reg.value("repro_executor_index_build_seconds") or 0.0, 4
                            ),
                            "merge_s": round(
                                reg.value("repro_executor_merge_seconds") or 0.0, 4
                            ),
                        }
                    )

            if size == max(sizes):
                rows.append(
                    _index_reuse_row(
                        columns, os.path.join(tmpdir, f"epochs-{size}.epochs")
                    )
                )
            del columns
            gc.collect()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return {
        "suite": "parallel",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "sizes": list(sizes),
        "num_groups": num_groups,
        "rows": rows,
    }


def _reuse_probe(epochs_dir: str, mode: str, queue) -> None:
    """Child-process probe: time one cold index build or one cache reload.

    Runs in a freshly spawned interpreter so both measurements start from
    the same pristine heap — exactly the state a real checker process is
    in when it opens an epoch log.  Measuring both in one long-lived bench
    process instead would be noise: by that point its allocator arenas are
    fragmented by millions of earlier allocations, and the same decode
    loops run an order of magnitude slower than they do for actual users.
    """
    from ..core.index import HistoryIndex
    from ..history.epochlog import EpochLog

    log = EpochLog.open(epochs_dir)
    log_columns = log.to_columns()
    builds_before = HistoryIndex.builds
    started = time.perf_counter()
    if mode == "cold":
        index = HistoryIndex.from_columns(log_columns)
        elapsed = time.perf_counter() - started
        log.cache_index(index)
    else:
        index = log.cached_index(log_columns)
        elapsed = time.perf_counter() - started
    queue.put(
        {
            "seconds": elapsed,
            "txns": log_columns.num_transactions,
            "loaded": index is not None,
            "skipped_build": HistoryIndex.builds == builds_before,
            "num_committed": -1 if index is None else index.num_committed,
        }
    )


def _index_reuse_row(columns, epochs_dir: str) -> Dict[str, object]:
    """Measure cold index build vs cached-index rehydration on an epoch log."""
    from ..history.epochlog import EpochLogWriter

    with EpochLogWriter(epochs_dir, epoch_transactions=4096) as writer:
        for txn in columns.iter_transactions():
            writer.append(txn)

    ctx = multiprocessing.get_context("spawn")

    def probe(mode: str) -> Dict[str, object]:
        queue = ctx.Queue()
        proc = ctx.Process(target=_reuse_probe, args=(epochs_dir, mode, queue))
        proc.start()
        try:
            result = queue.get(timeout=3600)
        finally:
            proc.join()
        assert proc.exitcode == 0, (mode, proc.exitcode)
        return result

    # Several trials each, best-of taken: single-trial wall clocks on a
    # shared/virtualised box swing 2-3x, and the minimum is the standard
    # noise-robust estimator for CPU-bound work.
    cold_probes = [probe("cold") for _ in range(2)]
    warm_probes = [probe("warm") for _ in range(3)]

    cold_seconds = min(float(p["seconds"]) for p in cold_probes)
    reuse_seconds = min(float(p["seconds"]) for p in warm_probes)
    num_txns = int(cold_probes[0]["txns"])
    skipped_build = all(
        bool(p["loaded"]) and bool(p["skipped_build"]) for p in warm_probes
    )
    assert skipped_build
    assert all(
        p["num_committed"] == cold_probes[0]["num_committed"]
        for p in warm_probes
    )
    reuse_ok = skipped_build and reuse_seconds < 0.5 * cold_seconds
    # The ratio only means something once the build is non-trivial: at
    # smoke scale (~1k txns) the cache's fixed open/parse cost can exceed
    # the whole cold build, so the < 0.5x bar is asserted at full size.
    if num_txns >= 50_000:
        assert reuse_ok, (reuse_seconds, cold_seconds)
    return {
        "kind": "index-reuse",
        "txns": num_txns,
        "cold_build_s": round(cold_seconds, 4),
        "reuse_s": round(reuse_seconds, 4),
        "reuse_ratio": round(reuse_seconds / max(cold_seconds, 1e-9), 3),
        "skipped_build": skipped_build,
        "reuse_ok": reuse_ok,
    }


def incremental_benchmark(
    *,
    smoke: bool = False,
    checkpoints: Optional[Sequence[int]] = None,
) -> Dict[str, object]:
    """Amortized streaming ingestion vs batch re-verification cost."""
    if checkpoints is None:
        checkpoints = [200, 500, 1000] if smoke else [500, 1000, 2000, 3500, 5000]
    txns_per_session = max(checkpoints) // 10 + 60
    generated = generate_mt_history(
        isolation="si",
        num_sessions=10,
        txns_per_session=txns_per_session,
        num_objects=60,
        distribution="zipf",
        seed=11,
    )
    history = generated.history
    stream = [txn for txn in stream_order(history) if not txn.is_initial]
    session = CheckerSession(IsolationLevel.SNAPSHOT_ISOLATION)
    if history.initial_transaction is not None:
        session.ingest(history.initial_transaction)

    rows: List[Dict[str, object]] = []
    ingested = 0
    for n in [c for c in checkpoints if c <= len(stream)]:
        for txn in stream[ingested:n]:
            session.ingest(txn)
        ingested = n
        incremental_total = session.result().elapsed_seconds or 0.0

        prefix = _prefix_history(history, stream, n)
        started = time.perf_counter()
        batch = MTChecker().verify(prefix, IsolationLevel.SNAPSHOT_ISOLATION)
        batch_seconds = time.perf_counter() - started
        assert batch.satisfied == session.satisfied
        rows.append(
            {
                "n": n,
                "inc_total_s": round(incremental_total, 4),
                "inc_us_per_txn": round(1e6 * incremental_total / n, 2),
                "batch_check_s": round(batch_seconds, 4),
                "batch_us_per_txn": round(1e6 * batch_seconds / n, 2),
            }
        )
    return {
        "suite": "incremental",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "level": "si",
        "rows": rows,
    }


def e2e_benchmark(
    *,
    smoke: bool = False,
    sessions: int = 4,
    txns_per_session: Optional[int] = None,
    num_objects: int = 32,
) -> Dict[str, object]:
    """End-to-end collect + check throughput through the adapter layer.

    Each row drives a concurrent (one-thread-per-session) collection
    through one adapter configuration — SQLite in both journal modes and
    the simulated SI engine — then batch-checks the recorded history, and
    reports the collection and verification throughput separately.  Every
    verdict is asserted (clean engines must satisfy their level; the chaos
    row must be caught) before timings are trusted.
    """
    from ..adapters import make_adapter
    from ..adapters.collector import Collector
    from ..workloads.mt_generator import MTWorkloadGenerator

    if txns_per_session is None:
        txns_per_session = 60 if smoke else 500

    configs = [
        # (label, make_adapter kwargs, check level, expect_satisfied)
        ("sqlite-immediate", dict(name="sqlite", mode="immediate", wal=False), "ser", True),
        ("sqlite-wal", dict(name="sqlite", mode="immediate", wal=True), "ser", True),
        ("sqlite-sser", dict(name="sqlite", mode="immediate", wal=True), "sser", True),
        ("simulated-si", dict(name="simulated", isolation="si"), "si", True),
        ("sqlite-chaos-lost-write", dict(name="sqlite", chaos="lost-write", chaos_rate=0.2), "ser", False),
    ]
    workload = MTWorkloadGenerator(
        num_sessions=sessions,
        txns_per_session=txns_per_session,
        num_objects=num_objects,
        distribution="zipf",
        seed=13,
    ).generate()

    rows: List[Dict[str, object]] = []
    for label, kwargs, level_name, expect_satisfied in configs:
        with make_adapter(**kwargs) as adapter:
            started = time.perf_counter()
            collected = Collector(adapter).collect(workload)
            collect_seconds = time.perf_counter() - started
        started = time.perf_counter()
        verdict = MTChecker().verify(collected.history, _LEVELS[level_name])
        check_seconds = time.perf_counter() - started
        assert verdict.satisfied == expect_satisfied, (label, verdict.violation)
        committed = collected.stats.committed
        rows.append(
            {
                "adapter": collected.adapter_name,
                "config": label,
                "level": level_name.upper(),
                "sessions": sessions,
                "committed": committed,
                "aborted": collected.stats.aborted,
                "collect_s": round(collect_seconds, 4),
                "collect_txn_per_s": round(committed / max(collect_seconds, 1e-9), 1),
                "check_s": round(check_seconds, 4),
                "check_txn_per_s": round(committed / max(check_seconds, 1e-9), 1),
                "verdict": verdict.satisfied,
            }
        )
    return {
        "suite": "e2e",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "sessions": sessions,
        "txns_per_session": txns_per_session,
        "rows": rows,
    }


def service_benchmark(
    *,
    smoke: bool = False,
    sizes: Optional[Sequence[int]] = None,
) -> Dict[str, object]:
    """Resumable verification service: checkpoint resume vs full replay.

    For each history size, a timestamped disjoint-key history is written as
    a durable epoch log (~25 epochs), then verified twice through the same
    windowed streaming checker:

    * **full replay** — a fresh session ingests every epoch from 0, the
      cost a restarted service pays without checkpoints;
    * **resume** — the session restarts from the checkpoint a live service
      would have written at the last epoch boundary before the crash
      (decode + :meth:`CheckerSession.restore` + the tail epoch), the cost
      the epoch log's checkpoint machinery reduces it to.

    Both verdicts are asserted byte-identical (``CheckResult.format``)
    before timings are trusted, so the speedup column never trades
    correctness for latency.  The window bounds the checkpoint to O(window)
    state, which is what makes resume O(tail) instead of O(history).
    """
    import tempfile
    from pathlib import Path

    from ..history.epochlog import EpochLog, EpochLogWriter

    if sizes is None:
        sizes = [2_000] if smoke else [100_000]
    level = IsolationLevel.SERIALIZABILITY
    window = 512 if smoke else 2048

    rows: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as tmp:
        for total_txns in sizes:
            history = make_disjoint_history(
                num_groups=8,
                sessions_per_group=4,
                txns_per_session=max(1, total_txns // 32),
                keys_per_group=16,
                timestamps=True,
            )
            num_txns = history.num_transactions()
            epoch_txns = max(1, num_txns // 25)
            log_dir = Path(tmp) / f"history-{total_txns}.epochs"
            with EpochLogWriter(log_dir, epoch_transactions=epoch_txns) as writer:
                for txn in stream_order(history):
                    writer.append(txn)
            log = EpochLog.open(log_dir)
            num_epochs = len(log)
            assert num_epochs >= 2, "service benchmark needs a resumable tail"

            # Untimed: the checkpoint a live service running with
            # --checkpoint-every 1 would have on disk when killed right
            # after sealing the last epoch boundary.
            session = CheckerSession(level, window=window)
            ingested = 0
            for entry, segment in log.iter_segments():
                if entry.epoch == num_epochs - 1:
                    break
                session.ingest_segment(segment)
                ingested += segment.num_transactions - (1 if segment.has_initial else 0)
            ckpt_path = log.save_checkpoint(
                session.checkpoint(), epochs=num_epochs - 1, transactions=ingested
            )
            del session

            gc.collect()
            started = time.perf_counter()
            full = CheckerSession(level, window=window)
            for _entry, segment in log.iter_segments():
                full.ingest_segment(segment)
            full_result = full.result()
            full_seconds = time.perf_counter() - started

            gc.collect()
            started = time.perf_counter()
            ckpt = log.latest_checkpoint()
            assert ckpt is not None and ckpt.epochs == num_epochs - 1
            resumed = CheckerSession.restore(ckpt.state)
            for _entry, segment in log.iter_segments(ckpt.epochs):
                resumed.ingest_segment(segment)
            resume_result = resumed.result()
            resume_seconds = time.perf_counter() - started

            assert full_result.format() == resume_result.format(), total_txns
            rows.append(
                {
                    "txns": num_txns,
                    "epochs": num_epochs,
                    "epoch_txns": epoch_txns,
                    "window": window,
                    "level": "SER",
                    "full_replay_s": round(full_seconds, 4),
                    "resume_s": round(resume_seconds, 4),
                    "speedup": round(full_seconds / max(resume_seconds, 1e-9), 2),
                    "checkpoint_bytes": ckpt_path.stat().st_size,
                    "verdict": full_result.satisfied,
                    "verdicts_equal": full_result.format() == resume_result.format(),
                }
            )
    return {
        "suite": "service",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "sizes": list(sizes),
        "rows": rows,
    }


def collect_benchmark(
    *,
    smoke: bool = False,
    session_counts: Optional[Sequence[int]] = None,
    max_inflight: int = 64,
    isolation: str = "si",
) -> Dict[str, object]:
    """Threaded vs async collection throughput on the simulated adapter.

    Both collectors execute the *same* generated workload against the same
    engine and must produce histories with identical verdicts; only then
    are the timings reported.  Two regimes per session count:

    * ``"steady"`` — 5 transactions per session: thread spawn amortises,
      so this measures per-transaction overhead (locks, object
      materialisation vs direct-to-column rows).
    * ``"churn"`` — 1 transaction per session, the ISSUE's session-churn
      shape: a thread-per-session collector pays spawn/teardown per
      transaction while the async worker pool reuses ``max_inflight``
      coroutines, which is where the ≥3x headline lives.

    The full run sweeps 1k/5k/10k sessions; ``smoke`` drops to 64/256 for
    CI.  Rows record both wall clocks, throughputs, the speedup, and
    ``verdicts_equal`` (asserted before timing is trusted).
    """
    from ..adapters import (
        AsyncCollector,
        AsyncSimulatedAdapter,
        Collector,
        SimulatedAdapter,
    )
    from ..history.columnar import ColumnarHistory
    from ..workloads.mt_generator import MTWorkloadGenerator

    if session_counts is None:
        session_counts = [64, 256] if smoke else [1_000, 5_000, 10_000]
    level = _LEVELS[isolation]

    rows: List[Dict[str, object]] = []
    for sessions in session_counts:
        for regime, txns_per_session in (("steady", 5), ("churn", 1)):
            workload = MTWorkloadGenerator(
                num_sessions=sessions,
                txns_per_session=txns_per_session,
                num_objects=max(sessions * 2, 64),
                distribution="uniform",
                seed=7,
            ).generate()

            gc.collect()
            started = time.perf_counter()
            threaded = Collector(SimulatedAdapter(isolation)).collect(workload)
            threaded_s = time.perf_counter() - started

            gc.collect()
            started = time.perf_counter()
            asynced = AsyncCollector(
                AsyncSimulatedAdapter(isolation), max_inflight=max_inflight
            ).collect(workload)
            async_s = time.perf_counter() - started

            threaded_verdict = MTChecker().verify(
                ColumnarHistory.from_history(threaded.history), level
            )
            async_verdict = MTChecker().verify(asynced.columns, level)
            verdicts_equal = threaded_verdict.satisfied == async_verdict.satisfied
            assert verdicts_equal, (sessions, regime)
            assert async_verdict.satisfied, (sessions, regime)

            rows.append(
                {
                    "kind": "collect",
                    "regime": regime,
                    "sessions": sessions,
                    "txns_per_session": txns_per_session,
                    "max_inflight": max_inflight,
                    "isolation": isolation.upper(),
                    "threaded_s": round(threaded_s, 4),
                    "async_s": round(async_s, 4),
                    "threaded_txns_s": round(threaded.stats.committed / max(threaded_s, 1e-9), 1),
                    "async_txns_s": round(asynced.stats.committed / max(async_s, 1e-9), 1),
                    "speedup": round(threaded_s / max(async_s, 1e-9), 2),
                    "committed_threaded": threaded.stats.committed,
                    "committed_async": asynced.stats.committed,
                    "aborted_threaded": threaded.stats.aborted,
                    "aborted_async": asynced.stats.aborted,
                    "backpressure_stalls": asynced.backpressure_stalls,
                    "verdict": async_verdict.satisfied,
                    "verdicts_equal": verdicts_equal,
                }
            )
    return {
        "suite": "collect",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "session_counts": list(session_counts),
        "max_inflight": max_inflight,
        "rows": rows,
    }


def _prefix_history(history: History, stream: Sequence[Transaction], n: int) -> History:
    """The history induced by the first ``n`` streamed transactions."""
    sessions: Dict[int, Session] = {}
    for txn in stream[:n]:
        sessions.setdefault(txn.session_id, Session(txn.session_id)).transactions.append(txn)
    return History(
        sessions=[sessions[sid] for sid in sorted(sessions)],
        initial_transaction=history.initial_transaction,
    )


def write_benchmark_json(payload: Dict[str, object], path: str) -> None:
    """Persist one suite's payload as deterministic, diff-friendly JSON.

    Every file is stamped with the environment it was measured on
    (:func:`repro.bench.env.environment_metadata`) so numbers from
    different machines are never compared as if they were peers.
    """
    payload = dict(payload)
    payload.setdefault("env", environment_metadata())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
