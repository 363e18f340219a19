"""Multiprocessing fan-out over history shards.

:func:`check_parallel` is the parallel counterpart of the serial
``check_ser`` / ``check_si`` / ``check_sser`` pipeline:

1. partition the history into key-connected shards
   (:mod:`repro.parallel.partition`);
2. check every shard independently — in ``workers`` OS processes when
   ``workers > 1``, inline otherwise (shard order and per-shard work are
   identical either way, so worker counts never change the result);
3. merge the shard verdicts (:mod:`repro.parallel.merge`); SSER
   additionally reassembles the shard graphs under the global real-time
   order — pairwise, as a reduction tree scheduled across the same pool,
   so merge cost is O(log shards) wall-clock.

**Persistent worker pool.**  The pool is a single persistent
:class:`~concurrent.futures.ProcessPoolExecutor` reused across
``check_parallel`` calls (grown on demand, torn down via
:func:`shutdown_pool` / atexit).  Every shard payload is the shard's column
slice as raw buffers; nothing is cached in a worker: a shard's index is one
linear ``from_columns`` pass over its rows.

Invariant: **sharded verdicts equal serial verdicts on every history** —
the randomized equivalence suites (``tests/test_parallel.py``,
``tests/test_scaleout.py``, ``tests/test_columnar.py``) enforce it across
SER/SI/SSER, every simulated engine, injected faults, and every
reduction-tree shape.

The pool is a best-effort optimisation: environments where processes
cannot be spawned (sandboxes, restricted containers) transparently fall
back to inline execution, and worker counts beyond ``os.cpu_count()`` are
clamped (with a warning) since extra processes would only timeshare.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Tuple, Union

from .. import obs
from ..obs import metrics as _obs_metrics
from ..resilience import CircuitBreaker, Deadline, RetryPolicy
from ..resilience import failpoints as _failpoints
from ..resilience.failpoints import fail_point
from ..core.checkers import GRAPH_CHECKED_LEVELS, check_level, raise_if_not_mt
from ..core.csr import WireCSR
from ..core.graph import build_dependency
from ..core.index import HistoryIndex
from ..core.model import History
from ..core.result import CheckResult, IsolationLevel
from ..history.columnar import ColumnarHistory, WireColumns
from .merge import (
    ShardOutcome,
    finalize_sser_wires,
    merge_csr_wires,
    merge_shard_results,
)
from .partition import DEFAULT_MAX_SHARDS, Shard, partition_columns

__all__ = ["check_parallel", "make_payload", "shutdown_pool"]

#: One shard task shipped to a worker process: the shard's columnar wire
#: buffers plus the check configuration ``(level, transitive_ww)``.
#: Contains no ``Transaction``s.  An optional fifth element
#: (``with_metrics``) asks the worker to record its shard work into a fresh
#: telemetry registry and ship the snapshot back on the outcome;
#: four-element payloads remain valid (telemetry off).
_Payload = Tuple[int, WireColumns, IsolationLevel, bool]

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
#: Gates pool (re)creation after faults.  Replaces the old sticky
#: ``_POOL_BROKEN`` flag: a transient fault (one worker SIGKILLed, a
#: sandbox hiccup) no longer disables fan-out for the rest of the
#: process — the breaker re-admits a probe after ``reset_after`` and the
#: pool self-heals.  Persistent faults (spawning impossible) trip it
#: open and execution degrades to inline, exactly as before.
_POOL_BREAKER = CircuitBreaker(failure_threshold=3, reset_after=30.0, name="executor_pool")
#: Backoff between pool-respawn attempts inside one ``check_parallel``
#: call; after these attempts the remaining shards run inline.
_POOL_RETRY = RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.5, seed=0)


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
    """Tear down the persistent pool (tests, interpreter exit)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
    _POOL = None
    _POOL_WORKERS = 0
    _POOL_BREAKER.reset()


atexit.register(shutdown_pool)


def _pool_fault(kind: str) -> None:
    """Record one pool fault and tear the (possibly poisoned) pool down.

    The breaker decides policy: under :data:`_POOL_BREAKER`'s threshold
    the next attempt simply respawns the pool; past it, :func:`_execute`
    and :func:`_reduce_wires` degrade to inline execution until the
    breaker's reset window re-admits a probe.
    """
    global _POOL, _POOL_WORKERS
    obs.inc("repro_resilience_pool_faults_total", kind=kind)
    _POOL_BREAKER.record_failure()
    if _POOL is not None:
        try:
            _POOL.shutdown(wait=False)
        except Exception:
            pass
    _POOL = None
    _POOL_WORKERS = 0


def check_parallel(
    history: Union[History, ColumnarHistory],
    level: IsolationLevel,
    *,
    workers: int = 1,
    strict_mt: bool = False,
    transitive_ww: bool = False,
    index: Optional[HistoryIndex] = None,
    max_shards: Optional[int] = DEFAULT_MAX_SHARDS,
    task_timeout: Optional[float] = None,
) -> CheckResult:
    """Verify a history against ``level`` via the sharded pipeline.

    Args:
        history: the MT history to verify — a
            :class:`~repro.core.model.History`, or a
            :class:`~repro.history.columnar.ColumnarHistory` segment
            (exactly like ``MTChecker.verify``).  Either way shards are
            sliced from the columns; no ``Transaction`` crosses a process
            boundary.
        level: SER, SI, SSER, or LIN (checked as SSER on plain histories).
        workers: number of OS processes to fan shard checks out over;
            ``1`` runs the same shard checks inline (identical result).
            Counts beyond ``os.cpu_count()`` are clamped with a warning —
            extra processes would only timeshare the same cores — and
            histories below :data:`_MIN_POOL_TXNS` committed transactions
            run inline regardless (the pool would be pure overhead).
        strict_mt: validate the history against Definition 9 up front and
            raise :class:`~repro.core.checkers.MTHistoryError` on failure.
        transitive_ww: forward the unoptimized BUILDDEPENDENCY variant to
            every shard check.
        index: pre-built :class:`~repro.core.index.HistoryIndex` of
            ``history`` (built here when absent); its ``columns`` drive the
            partitioner.
        max_shards: cap on the shard fan-out (fixed, never worker-derived).
        task_timeout: per-dispatch deadline, seconds: when the pool has
            not returned every outstanding shard within this budget the
            dispatch is considered hung (a stuck or killed worker), the
            pool is torn down and respawned, and the unfinished shards are
            re-submitted — bounded by the module retry policy — before
            falling back to inline execution.  ``None`` (default) waits
            indefinitely, as before.  Verdicts are identical on every
            recovery path (shard checks are pure).

    Scale-out metrics for the call (``repro_executor_workers_effective``,
    ``_shards``, ``_inline``, ``_payload_bytes``, ``_index_build_seconds``
    when the index is built here, ``_merge_seconds``) are recorded in the
    :mod:`repro.obs` registry; read them under ``with obs.scoped() as reg``.
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

    with obs.phase("partition"):
        shards = partition_columns(index.columns, index=index, max_shards=max_shards)
    effective = workers
    inline_small = effective > 1 and index.num_committed < _MIN_POOL_TXNS
    if inline_small:
        effective = 1
    obs.set_gauge("repro_executor_workers_requested", requested)
    obs.set_gauge("repro_executor_workers_effective", effective)
    obs.set_gauge("repro_executor_shards", len(shards))
    obs.set_gauge("repro_executor_inline", 1 if effective <= 1 else 0)
    if len(shards) == 1:
        # Fully connected history: the serial pipeline on the shared index
        # is already optimal (and strict validation has been done above).
        return check_level(history, level, transitive_ww=transitive_ww, index=index)

    with_metrics = obs.enabled()
    payloads: List[_Payload] = [
        make_payload(shard, level, transitive_ww, with_metrics=with_metrics)
        for shard in shards
    ]
    if with_metrics:
        payload_bytes = sum(len(pickle.dumps(p)) for p in payloads)
        obs.set_gauge("repro_executor_payload_bytes", payload_bytes)
        obs.inc("repro_executor_payload_bytes_total", payload_bytes)
    with obs.phase("shard_checks"):
        outcomes = _execute(payloads, effective, task_timeout=task_timeout)
    outcomes.sort(key=lambda o: o.shard_index)
    for outcome in outcomes:
        obs.merge(outcome.metrics)

    elapsed = time.perf_counter() - started
    if level is IsolationLevel.STRICT_SERIALIZABILITY:
        pre = merge_shard_results(level, outcomes, elapsed_seconds=elapsed)
        if not pre.satisfied:
            # An INT/provenance violation in any shard settles the verdict
            # before the merged graph is assembled, mirroring the serial
            # pre-pass-first ordering.
            pre.num_transactions = index.num_committed
            return pre
        merge_started = time.perf_counter()
        with obs.phase("merge"):
            wires = [o.csr for o in outcomes if o.csr is not None]
            wires = _reduce_wires(wires, effective)
            result = finalize_sser_wires(
                wires,
                index,
                num_transactions=sum(o.num_transactions for o in outcomes),
                elapsed_seconds=elapsed,
            )
        obs.set_gauge(
            "repro_executor_merge_seconds", time.perf_counter() - merge_started
        )
    else:
        result = merge_shard_results(level, outcomes, elapsed_seconds=elapsed)
    result.elapsed_seconds = time.perf_counter() - started
    return result


def make_payload(
    shard: Shard,
    level: IsolationLevel,
    transitive_ww: bool,
    *,
    with_metrics: bool = False,
) -> _Payload:
    """The process-boundary task for one shard: columnar buffers only.

    The payload pickles the shard's column slice as raw bytes, never as
    ``Transaction`` objects.

    ``with_metrics=True`` appends a fifth payload element asking the worker
    to record its shard work (txns checked, index builds) into
    a fresh registry and attach the snapshot to the returned outcome; the
    parent folds the snapshots into its own registry.  Four-element
    payloads stay valid — telemetry stays off in the worker.
    """
    body = (shard.index, shard.columns.to_wire(), level, transitive_ww)
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
    if len(payload) > 4 and payload[4]:
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
    shard_index, wire, level, transitive_ww = payload[:4]
    shard_idx_obj = HistoryIndex.from_columns(ColumnarHistory.from_wire(wire))
    obs.inc("repro_executor_shard_checks_total")
    obs.inc("repro_executor_shard_txns_total", shard_idx_obj.num_committed)

    if level is IsolationLevel.STRICT_SERIALIZABILITY:
        int_violations = shard_idx_obj.int_violations()
        if int_violations:
            return ShardOutcome(
                shard_index=shard_index,
                num_transactions=shard_idx_obj.num_committed,
                violations=list(int_violations),
            )
        # The shard's RT-free graph, shipped as raw buffers: four bytes per
        # edge column.  RT crosses shards, so the parent adds it at the merge.
        csr = build_dependency(
            None,
            with_rt=False,
            transitive_ww=transitive_ww,
            index=shard_idx_obj,
            dense=True,
        )
        return ShardOutcome(
            shard_index=shard_index,
            num_transactions=shard_idx_obj.num_committed,
            csr=csr.to_wire(),
        )

    result = check_level(None, level, transitive_ww=transitive_ww, index=shard_idx_obj)
    return ShardOutcome(
        shard_index=shard_index,
        num_transactions=result.num_transactions,
        violations=list(result.violations),
    )


def _merge_pair(pair: Tuple[WireCSR, WireCSR]) -> WireCSR:
    """Pool task: one tree-reduction step over two shard wires."""
    return merge_csr_wires(pair[0], pair[1])


def _execute(
    payloads: List[_Payload],
    workers: int,
    *,
    task_timeout: Optional[float] = None,
) -> List[ShardOutcome]:
    """Fan the shard checks out; recover from pool faults; finish inline.

    The recovery ladder, each rung bounded:

    1. submit all unfinished shards to the pool, collecting results as
       they complete (a fault in one shard does not discard the others);
    2. on a broken pool, a spawn failure, or a ``task_timeout`` expiry,
       tear the pool down (:func:`_pool_fault`), back off per
       :data:`_POOL_RETRY`, respawn, and resubmit only the unfinished
       shards — unless :data:`_POOL_BREAKER` has opened;
    3. whatever remains after the retry budget runs inline on this
       process.  Shard checks are pure, so every path yields identical
       outcomes.
    """
    results: Dict[int, ShardOutcome] = {}
    pending = list(range(len(payloads)))
    if workers > 1 and len(payloads) > 1:
        delays = _POOL_RETRY.delays()
        while pending and _POOL_BREAKER.allow():
            deadline = (
                Deadline(task_timeout) if task_timeout is not None else None
            )
            try:
                pool = _get_pool(workers)
                futures = {
                    pool.submit(_run_shard, payloads[i]): i for i in pending
                }
            except (OSError, BrokenProcessPool):
                # Process spawning unavailable (sandbox / resource limits).
                _pool_fault("spawn")
                futures = {}
            fault: Optional[str] = None
            not_done = set(futures)
            while not_done and fault is None:
                done, not_done = wait(
                    not_done,
                    timeout=deadline.remaining() if deadline else None,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    obs.inc(
                        "repro_resilience_deadline_exceeded_total",
                        component="executor",
                    )
                    for future in not_done:
                        future.cancel()
                    fault = "timeout"
                    break
                for future in done:
                    try:
                        results[futures[future]] = future.result()
                    except (OSError, BrokenProcessPool):
                        # A dead worker poisons every sibling future; the
                        # results already collected stay good.
                        fault = "broken"
                        break
            pending = [i for i in range(len(payloads)) if i not in results]
            if not pending:
                _POOL_BREAKER.record_success()
                return [results[i] for i in range(len(payloads))]
            if fault is not None:
                _pool_fault(fault)
            delay = next(delays, None)
            if delay is None:
                break
            obs.inc("repro_resilience_retries_total", component="executor")
            time.sleep(delay)
    # Inline completion: the sharded pipeline still runs — on this process.
    for i in pending:
        results[i] = _run_shard(payloads[i])
    return [results[i] for i in range(len(payloads))]


def _reduce_wires(wires: List[WireCSR], workers: int) -> List[WireCSR]:
    """Tree-reduce shard CSR wires down to (at most) one root wire.

    Each round pairs *adjacent* wires — ``(0,1), (2,3), …`` with an odd
    tail passing through — and merges the pairs concurrently in the pool,
    so a 32-shard merge takes 5 rounds of parallel pairwise work instead
    of one serial 32-way pass.  Adjacent pairing preserves the global edge
    concatenation order, so every tree shape (odd counts, single-wire
    degenerate trees, inline execution) finalizes to byte-identical edge
    columns and labeled cycles.
    """
    rounds = 0
    while len(wires) > 1:
        rounds += 1
        pairs = [(wires[i], wires[i + 1]) for i in range(0, len(wires) - 1, 2)]
        tail = [wires[-1]] if len(wires) % 2 else []
        if workers > 1 and len(pairs) > 1 and _POOL_BREAKER.allow():
            try:
                merged = list(_get_pool(workers).map(_merge_pair, pairs))
                _POOL_BREAKER.record_success()
            except (OSError, BrokenProcessPool):
                _pool_fault("merge")
                merged = [merge_csr_wires(a, b) for a, b in pairs]
        else:
            merged = [merge_csr_wires(a, b) for a, b in pairs]
        wires = merged + tail
    obs.set_gauge("repro_executor_merge_rounds", rounds)
    return wires
