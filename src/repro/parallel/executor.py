"""Multiprocessing fan-out over history shards.

:func:`check_parallel` is the parallel counterpart of the serial
``check_ser`` / ``check_si`` pipeline:

1. partition the history into key-connected shards
   (:mod:`repro.parallel.partition`);
2. check every shard independently — in ``workers`` OS processes when
   ``workers > 1``, inline otherwise (shard order and per-shard work are
   identical either way, so worker counts never change the result);
3. conjoin the shard verdicts (:mod:`repro.parallel.merge`).

SSER (and LIN) check serially on the one index: the real-time order
relates transactions in every shard, so a sharded check would rebuild the
whole history's graph anyway.

**Persistent worker pool.**  The pool is a single persistent
:class:`~concurrent.futures.ProcessPoolExecutor` reused across
``check_parallel`` calls (grown on demand, torn down via
:func:`shutdown_pool` / atexit).  Every shard payload is the shard's column
slice as raw buffers; nothing is cached in a worker: a shard's index is one
linear ``from_columns`` pass over its rows.

Invariant: **sharded verdicts equal serial verdicts on every history** —
the randomized equivalence suites (``tests/test_parallel.py``,
``tests/test_scaleout.py``, ``tests/test_columnar.py``) enforce it across
SER/SI, every simulated engine and injected faults.

The pool is a best-effort optimisation: a pool that cannot spawn or that
loses a worker is torn down and the unfinished shards run inline, and
worker counts beyond ``os.cpu_count()`` are clamped (with a warning) since
extra processes would only timeshare.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Tuple, Union

from .. import obs
from ..obs import metrics as _obs_metrics
from ..resilience import failpoints as _failpoints
from ..resilience.failpoints import fail_point
from ..core.checkers import GRAPH_CHECKED_LEVELS, check_level, raise_if_not_mt
from ..core.index import HistoryIndex
from ..core.model import History
from ..core.result import CheckResult, IsolationLevel
from ..history.columnar import ColumnarHistory, WireColumns
from .merge import ShardOutcome, merge_shard_results
from .partition import Shard, partition_columns

__all__ = ["check_parallel", "make_payload", "shutdown_pool"]

#: One shard task shipped to a worker process: the shard's index, its
#: columnar wire buffers and the level to check.  Contains no
#: ``Transaction``s.  An optional fourth element (``with_metrics``) asks the
#: worker to record its shard work into a fresh telemetry registry and ship
#: the snapshot back on the outcome; three-element payloads remain valid
#: (telemetry off).
_Payload = Tuple[int, WireColumns, IsolationLevel]

#: Below this many committed transactions the pool is pure overhead
#: (process dispatch + pickling dwarf the shard checks), so fan-out runs
#: inline regardless of the requested worker count.  Results are identical
#: either way; only where the shard checks execute changes.
_MIN_POOL_TXNS = 4096

# ----------------------------------------------------------------------
# Persistent pool (parent side)
# ----------------------------------------------------------------------
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def _cpu_count() -> int:
    return os.cpu_count() or 1


def _pool_worker_init() -> None:
    """Pool-worker initializer: re-arm failpoints from the environment.

    Fork inherits the parent's armed plan but *not* fresh fire counters,
    and spawn inherits nothing; re-arming from ``REPRO_FAILPOINTS`` here
    gives every worker its own deterministic plan regardless of start
    method — and lets chaos suites arm worker-only rules by exporting the
    spec without arming the parent.
    """
    if not _failpoints.activate_from_env():
        _failpoints.deactivate()


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared worker pool, created lazily and grown on demand.

    Reusing one pool across ``check_parallel`` calls keeps the spawn cost
    out of every call after the first.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS < workers:
        _POOL.shutdown(wait=True)
        _POOL = None
    if _POOL is None:
        fail_point("executor.pool.spawn")
        _POOL = ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_worker_init
        )
        _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent pool (tests, interpreter exit, and the
    pipeline benchmark's ``probe_parallel``, which imports it)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
    _POOL = None
    _POOL_WORKERS = 0


atexit.register(shutdown_pool)


def check_parallel(
    history: Union[History, ColumnarHistory],
    level: IsolationLevel,
    *,
    workers: int = 1,
    strict_mt: bool = False,
    index: Optional[HistoryIndex] = None,
) -> CheckResult:
    """Verify a history against ``level`` via the sharded pipeline.

    Args:
        history: the MT history to verify — a
            :class:`~repro.core.model.History`, or a
            :class:`~repro.history.columnar.ColumnarHistory` segment
            (exactly like ``MTChecker.verify``).  Either way shards are
            sliced from the columns; no ``Transaction`` crosses a process
            boundary.
        level: SER or SI fan out over shards; SSER and LIN (checked as
            SSER on plain histories) run ``check_level`` on the one index,
            because the real-time order crosses every shard.
        workers: number of OS processes to fan shard checks out over;
            ``1`` runs the same shard checks inline (identical result).
            Counts beyond ``os.cpu_count()`` are clamped with a warning —
            extra processes would only timeshare the same cores — and
            histories below :data:`_MIN_POOL_TXNS` committed transactions
            run inline regardless (the pool would be pure overhead).
        strict_mt: validate the history against Definition 9 up front and
            raise :class:`~repro.core.checkers.MTHistoryError` on failure.
        index: pre-built :class:`~repro.core.index.HistoryIndex` of
            ``history`` (built here when absent); its ``columns`` drive the
            partitioner.

    Scale-out metrics for the call (``repro_executor_workers_effective``,
    ``_shards``, ``_inline``, ``_payload_bytes``, ``_index_build_seconds``
    when the index is built here) are recorded in the :mod:`repro.obs`
    registry; read them under ``with obs.scoped() as reg``.
    """
    if level not in GRAPH_CHECKED_LEVELS:
        raise ValueError(f"unsupported isolation level for sharded checking: {level}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if history is None:
        raise ValueError("a history (or its columnar segment) must be provided")
    if level is IsolationLevel.LINEARIZABILITY:
        level = IsolationLevel.STRICT_SERIALIZABILITY
    obs.inc("repro_executor_checks_total")

    requested = workers
    cpu = _cpu_count()
    if workers > cpu:
        warnings.warn(
            f"workers={workers} exceeds this machine's {cpu} CPU core(s); "
            f"clamping to {cpu} (extra processes would only timeshare)",
            RuntimeWarning,
            stacklevel=2,
        )
        workers = cpu

    started = time.perf_counter()
    if index is None:
        with obs.phase("index_build"):
            index = HistoryIndex.build(history)
        obs.set_gauge(
            "repro_executor_index_build_seconds", time.perf_counter() - started
        )

    if strict_mt:
        raise_if_not_mt(index)

    obs.set_gauge("repro_executor_workers_requested", requested)
    if level is IsolationLevel.STRICT_SERIALIZABILITY:
        # RT relates transactions in every shard: the one graph to check is
        # the whole history's, so it is built once, here, on this index.
        obs.set_gauge("repro_executor_workers_effective", 1)
        obs.set_gauge("repro_executor_inline", 1)
        return check_level(history, level, index=index)

    with obs.phase("partition"):
        shards = partition_columns(index.columns, index=index)
    effective = workers
    if effective > 1 and index.num_committed < _MIN_POOL_TXNS:
        effective = 1
    obs.set_gauge("repro_executor_workers_effective", effective)
    obs.set_gauge("repro_executor_shards", len(shards))
    obs.set_gauge("repro_executor_inline", 1 if effective <= 1 else 0)
    if len(shards) == 1:
        # Fully connected history: the serial pipeline on the shared index
        # is already optimal (and strict validation has been done above).
        return check_level(history, level, index=index)

    with_metrics = obs.enabled()
    payloads: List[_Payload] = [
        make_payload(shard, level, with_metrics=with_metrics) for shard in shards
    ]
    if with_metrics:
        payload_bytes = sum(len(pickle.dumps(p)) for p in payloads)
        obs.set_gauge("repro_executor_payload_bytes", payload_bytes)
        obs.inc("repro_executor_payload_bytes_total", payload_bytes)
    with obs.phase("shard_checks"):
        outcomes = _execute(payloads, effective)
    for outcome in outcomes:
        obs.merge(outcome.metrics)

    result = merge_shard_results(level, outcomes)
    result.elapsed_seconds = time.perf_counter() - started
    return result


def make_payload(
    shard: Shard,
    level: IsolationLevel,
    *,
    with_metrics: bool = False,
) -> _Payload:
    """The process-boundary task for one shard: columnar buffers only.

    The payload pickles the shard's column slice as raw bytes, never as
    ``Transaction`` objects.

    ``with_metrics=True`` appends a fourth payload element asking the worker
    to record its shard work (txns checked, index builds) into
    a fresh registry and attach the snapshot to the returned outcome; the
    parent folds the snapshots into its own registry.  Three-element
    payloads stay valid — telemetry stays off in the worker.
    """
    body = (shard.index, shard.columns.to_wire(), level)
    return body + (True,) if with_metrics else body


# ----------------------------------------------------------------------
# Worker-side machinery
# ----------------------------------------------------------------------
def _run_shard(payload: _Payload) -> ShardOutcome:
    """Check one shard; module-level so process pools can import it.

    Payloads carrying the ``with_metrics`` flag run under a fresh private
    registry — never the process-global one, so an inline run cannot
    double-count into the parent's — whose snapshot ships back on
    ``ShardOutcome.metrics`` for the parent to fold in.
    """
    if len(payload) > 3 and payload[3]:
        reg = _obs_metrics.MetricsRegistry()
        parent = _obs_metrics.swap_active(reg)
        try:
            outcome = _run_shard_body(payload)
            outcome.metrics = reg.snapshot()
        finally:
            _obs_metrics.swap_active(parent)
        fail_point("executor.wire.return")
        return outcome
    outcome = _run_shard_body(payload)
    fail_point("executor.wire.return")
    return outcome


def _run_shard_body(payload: _Payload) -> ShardOutcome:
    fail_point("executor.shard.task")
    shard_index, wire, level = payload[:3]
    shard_idx_obj = HistoryIndex.from_columns(ColumnarHistory.from_wire(wire))
    obs.inc("repro_executor_shard_checks_total")
    obs.inc("repro_executor_shard_txns_total", shard_idx_obj.num_committed)
    result = check_level(None, level, index=shard_idx_obj)
    return ShardOutcome(
        shard_index=shard_index,
        num_transactions=result.num_transactions,
        violations=list(result.violations),
    )


def _execute(payloads: List[_Payload], workers: int) -> List[ShardOutcome]:
    """Fan the shard checks out over the pool; finish what is left inline.

    Outcomes are collected as they complete, so a fault in one shard keeps
    the others' results.  Any pool error (a refused spawn, a killed worker,
    a broken pool) counts one ``repro_resilience_pool_faults_total``, tears
    the pool down, and the unfinished shards run on this process.  Shard
    checks are pure, so every path yields identical outcomes.
    """
    global _POOL, _POOL_WORKERS
    results: Dict[int, ShardOutcome] = {}
    if workers > 1 and len(payloads) > 1:
        kind = "spawn"
        try:
            pool = _get_pool(workers)
            futures = {pool.submit(_run_shard, p): i for i, p in enumerate(payloads)}
            kind = "broken"
            for future in as_completed(futures):
                results[futures[future]] = future.result()
        except (OSError, BrokenProcessPool):
            obs.inc("repro_resilience_pool_faults_total", kind=kind)
            if _POOL is not None:
                try:
                    _POOL.shutdown(wait=False, cancel_futures=True)
                except Exception:
                    pass
            _POOL, _POOL_WORKERS = None, 0
    for i, payload in enumerate(payloads):
        if i not in results:
            results[i] = _run_shard(payload)
    return [results[i] for i in range(len(payloads))]
