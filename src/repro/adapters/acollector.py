"""The async collection plane: coroutine session multiplexing at scale.

The threaded :class:`~repro.adapters.collector.Collector` spends one OS
thread per in-flight session and materialises a
:class:`~repro.core.model.Transaction` per attempt.  :class:`AsyncCollector`
is the collector for adapters that speak the coroutine protocol
(:class:`~repro.adapters.aio.AsyncDatabaseAdapter`; sync adapters stay with
the threaded collector, :func:`repro.adapters.collect_history` picks).  It
keeps the exact recording contract — it shares
:class:`~repro.adapters.collector.CollectorBase` with the threaded
collector, so clock stamping, txn-id allocation, unique written values and
deadline bookkeeping literally cannot drift — but changes the execution
model on both axes:

* **Coroutines, not threads.**  N logical sessions run as coroutines over
  a bounded worker budget (``max_inflight``) on one event-loop thread.
* **Columns, not objects.**  Finished attempts are published as flat row
  tuples into a bounded ``asyncio.Queue`` and drained straight into a
  :class:`~repro.history.columnar.ColumnarHistory` — no ``Transaction`` or
  ``Operation`` object exists on the accept path.  A slow consumer (a
  :class:`~repro.history.columnar.SegmentWriter` sealing, an
  ``EpochLogWriter`` fsyncing) fills the queue and the publishing
  coroutines stall on ``put`` — backpressure all the way into the drivers.

Ordering soundness: a publisher ticks the shared clock for ``finish_ts``
and enqueues the row with **no intervening await**, so on the single
event-loop thread queue order equals finish-timestamp order and hooks
observe transactions exactly as they would from the threaded collector.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..core.model import (
    History,
    Operation,
    OpType,
    STATUS_CODES,
    STATUS_FROM_CODE,
    Transaction,
    TransactionStatus,
)
from ..db.errors import TransactionAborted
from ..history.columnar import OP_READ, OP_WRITE, ColumnarHistory
from ..resilience.failpoints import fail_point
from ..storage.clock import LogicalClock
from ..workloads.runner import RunStats
from ..workloads.spec import TransactionSpec, Workload
from .aio import AsyncDatabaseAdapter
from .collector import CollectorBase

__all__ = ["AsyncCollector", "AsyncCollectionResult"]

_COMMITTED = STATUS_CODES[TransactionStatus.COMMITTED]
_ABORTED = STATUS_CODES[TransactionStatus.ABORTED]
_UNKNOWN = STATUS_CODES[TransactionStatus.UNKNOWN]

#: One published row: (txn_id, session_id, status_code, start_ts,
#: finish_ts, op_kinds, op_keys, op_values) — parallel op lists, values
#: already resolved (reads observing nothing record ``initial_value``).
Row = Tuple[int, int, int, float, float, List[int], List[str], List[int]]


@dataclass
class _AsyncInFlight:
    """Published state of a session's current attempt (deadline watchdog)."""

    txn_id: int
    session_id: int
    start_ts: float
    started_mono: float
    op_kinds: List[int]
    op_keys: List[str]
    op_values: List[int]


@dataclass
class AsyncCollectionResult:
    """A columnar history collected by :class:`AsyncCollector`.

    The history never existed as objects — ``columns`` is the primary
    artifact and feeds :meth:`repro.core.checker.MTChecker.verify`
    directly; :attr:`history` materialises on demand for legacy consumers.
    """

    columns: ColumnarHistory
    stats: RunStats
    adapter_name: str = ""
    #: Sessions abandoned by the deadline watchdog (recorded as UNKNOWN).
    unknown: int = 0
    #: Times a publisher found the row queue full and had to stall.
    backpressure_stalls: int = 0

    @property
    def history(self) -> History:
        return self.columns.to_history()


class AsyncCollector(CollectorBase):
    """Asyncio workload driver over an :class:`~repro.adapters.aio.AsyncDatabaseAdapter`.

    Construction arguments shared with the threaded collector mean the
    same things (``max_inflight`` sessions run at once, here as
    coroutines); the addition:

    Args:
        queue_depth: bound of the finished-row queue between the session
            coroutines and the column drain — the backpressure valve.
    """

    # All collector bookkeeping runs on the event-loop thread, so the base
    # class's locked id/value helpers are pure overhead here — bind the
    # lock-free variants instead.  The logic itself stays shared.
    _allocate_txn_id = CollectorBase._allocate_txn_id_unlocked
    _next_value = CollectorBase._next_value_unlocked

    def __init__(
        self,
        adapter: AsyncDatabaseAdapter,
        *,
        queue_depth: int = 1024,
        **kwargs,
    ) -> None:
        if not isinstance(adapter, AsyncDatabaseAdapter):
            raise TypeError(
                "AsyncCollector drives AsyncDatabaseAdapter; a sync adapter "
                "goes to Collector (collect_history picks for you)"
            )
        if queue_depth <= 0:
            raise ValueError(f"queue_depth must be positive, got {queue_depth}")
        super().__init__(adapter, **kwargs)
        self.queue_depth = queue_depth
        self._stalls = 0
        # Ticks also only ever happen on the loop thread; swap the locked
        # clock for its plain monotonic base.
        self._clock = LogicalClock()
        self._rows: Optional["asyncio.Queue[Optional[Row]]"] = None
        self._columns: Optional[ColumnarHistory] = None

    # ------------------------------------------------------------------
    def collect(self, workload: Workload) -> AsyncCollectionResult:
        """Run :meth:`collect_async` to completion on a private loop."""
        return asyncio.run(self.collect_async(workload))

    async def collect_async(self, workload: Workload) -> AsyncCollectionResult:
        """Execute the workload as session coroutines; return the columns."""
        started = time.perf_counter()
        stats = RunStats()
        adapter = self.adapter
        if self.setup_keys:
            await adapter.setup(workload.keys, self.initial_value)

        columns = ColumnarHistory()
        # ⊥T must install what the database actually holds initially, or a
        # healthy engine would be flagged with spurious ThinAirReads.
        columns.seed_initial(workload.keys, self.initial_value)
        self._columns = columns
        self._stalls = 0
        # The queue exists to backpressure a downstream consumer; with no
        # hook installed the columns *are* the sink and rows go straight to
        # them — publishing costs one append, no queue, no drain.
        rows: Optional["asyncio.Queue[Optional[Row]]"] = (
            asyncio.Queue(maxsize=self.queue_depth)
            if self.on_transaction is not None
            else None
        )
        self._rows = rows
        drain = (
            asyncio.create_task(self._drain(rows, columns))
            if rows is not None
            else None
        )
        traffic = workload.traffic
        num_sessions = len(workload.sessions)
        watchdog = None
        if self.txn_deadline is not None:
            # Watchdog mode needs one cancellable task per session (the
            # deadline abandons exactly one session); bound concurrency
            # with a semaphore.
            semaphore = (
                asyncio.Semaphore(self.max_inflight)
                if num_sessions > self.max_inflight
                else None
            )
            tasks = {
                sid: asyncio.create_task(
                    self._session(adapter, sid, list(specs), semaphore, stats, traffic),
                    name=f"acollector-session-{sid}",
                )
                for sid, specs in enumerate(workload.sessions)
            }
            watchdog = asyncio.create_task(self._watchdog(tasks))
            runners = list(tasks.values())
        else:
            # Fast path: a fixed pool of ``max_inflight`` workers pulls
            # sessions off a shared iterator — task creation and
            # scheduling cost O(max_inflight), not O(sessions), which is
            # what keeps session-churn workloads cheap at 10k+ sessions.
            pending = iter(enumerate(workload.sessions))
            runners = [
                asyncio.create_task(
                    self._worker(adapter, pending, stats, traffic),
                    name=f"acollector-worker-{i}",
                )
                for i in range(min(self.max_inflight, num_sessions))
            ]
        results = await asyncio.gather(*runners, return_exceptions=True)
        if watchdog is not None:
            watchdog.cancel()
            try:
                await watchdog
            except asyncio.CancelledError:
                pass
        if rows is not None and drain is not None:
            await rows.put(None)  # drain sentinel: everything before it is flushed
            await drain
        errors = [
            exc
            for exc in results
            if isinstance(exc, BaseException)
            and not isinstance(exc, asyncio.CancelledError)
        ]
        if errors:
            raise errors[0]

        stats.wall_seconds = time.perf_counter() - started
        stats.logical_time = self._clock.now()
        if obs.enabled() and stats.wall_seconds > 0:
            obs.set_gauge(
                "repro_acollector_txns_per_second",
                stats.committed / stats.wall_seconds,
            )
        return AsyncCollectionResult(
            columns=columns,
            stats=stats,
            adapter_name=adapter.capabilities().name,
            unknown=len(self._abandoned),
            backpressure_stalls=self._stalls,
        )

    # ------------------------------------------------------------------
    # Session coroutines
    # ------------------------------------------------------------------
    async def _worker(
        self,
        adapter: AsyncDatabaseAdapter,
        pending,
        stats: RunStats,
        traffic,
    ) -> None:
        # Single-threaded loop: plain iterator sharing is race-free.
        for session_id, specs in pending:
            await self._run_session(adapter, session_id, list(specs), stats, traffic)

    async def _session(
        self,
        adapter: AsyncDatabaseAdapter,
        session_id: int,
        specs: List[TransactionSpec],
        semaphore: Optional[asyncio.Semaphore],
        stats: RunStats,
        traffic,
    ) -> None:
        if semaphore is not None:
            async with semaphore:
                await self._run_session(adapter, session_id, specs, stats, traffic)
        else:
            await self._run_session(adapter, session_id, specs, stats, traffic)

    async def _run_session(
        self,
        adapter: AsyncDatabaseAdapter,
        session_id: int,
        specs: List[TransactionSpec],
        stats: RunStats,
        traffic,
    ) -> None:
        session = await adapter.session(session_id)
        obs.gauge_add("repro_collector_sessions_in_flight", 1)
        try:
            for spec_index, spec in enumerate(specs):
                if traffic is not None:
                    idle = self._arrival_delay(traffic, session_id, spec_index)
                    if idle > 0:
                        await asyncio.sleep(idle)
                # The op shape of a spec is invariant across retries (only
                # observed/issued values change), so flatten it once here
                # instead of re-walking PlannedOperation objects per attempt.
                plan = [(op.is_read, op.key) for op in spec.operations]
                op_kinds = [OP_READ if is_read else OP_WRITE for is_read, _ in plan]
                op_keys = [key for _, key in plan]
                delays = None  # built lazily: most transactions never retry
                while True:
                    committed, retryable = await self._attempt(
                        session, session_id, plan, op_kinds, op_keys, stats
                    )
                    if session_id in self._abandoned:
                        # The watchdog recorded UNKNOWN and stopped
                        # counting on us; go silent.
                        return
                    if committed or not retryable:
                        break
                    if delays is None:
                        delays = self._retry_delays(session_id, spec_index)
                    delay = next(delays, None)
                    if delay is None:
                        break
                    obs.inc("repro_collector_retries_total")
                    obs.inc("repro_resilience_backoff_seconds_total", delay)
                    stats.retries += 1
                    if delay > 0:
                        await asyncio.sleep(delay)
        except asyncio.CancelledError:
            # Cancelled by the deadline watchdog after it recorded the
            # UNKNOWN row; ending quietly keeps gather() clean.
            return
        finally:
            obs.gauge_add("repro_collector_sessions_in_flight", -1)
            if session_id not in self._abandoned:  # never await a wedged adapter again
                try:
                    await session.aclose()
                except Exception:  # noqa: BLE001 - close is best effort
                    pass

    async def _attempt(
        self,
        session,
        session_id: int,
        plan: List[Tuple[bool, str]],
        op_kinds: List[int],
        op_keys: List[str],
        stats: RunStats,
    ) -> Tuple[bool, bool]:
        """One transaction attempt, recorded as a flat row.

        ``plan``/``op_kinds``/``op_keys`` are the spec's precomputed op
        shape (shared across retries); only ``op_values`` is built here.
        Returns ``(committed, retryable)`` exactly like the threaded
        collector's ``_attempt``.
        """
        fail_point("collector.txn.attempt")
        start_ts = self._clock.tick()
        txn_id = self._allocate_txn_id()
        op_values: List[int] = []
        values_append = op_values.append
        if self.txn_deadline is not None:
            self._in_flight[session_id] = _AsyncInFlight(
                txn_id,
                session_id,
                start_ts,
                time.monotonic(),
                op_kinds,
                op_keys,
                op_values,
            )
        retryable = True
        initial_value = self.initial_value
        try:
            try:
                await session.begin()
                for is_read, key in plan:
                    if is_read:
                        value = await session.read(key)
                        # An absent object reads as the initial value ⊥T installed.
                        values_append(initial_value if value is None else value)
                    else:
                        value = self._next_value(session_id)
                        await session.write(key, value)
                        values_append(value)
                await session.commit()
                status_code = _COMMITTED
            except TransactionAborted as exc:
                await session.abort()  # idempotent; most adapters rolled back
                status_code = _ABORTED
                retryable = getattr(exc, "retryable", True)
        finally:
            if self.txn_deadline is not None:
                self._in_flight.pop(session_id, None)
        if session_id in self._abandoned:
            # The watchdog already recorded this session's attempt as
            # UNKNOWN; a late finish must not double-record.
            return False, False
        committed = status_code == _COMMITTED
        num_ops = len(op_values)
        if num_ops < len(plan):
            # Aborted mid-transaction: record only the ops that executed.
            op_kinds = op_kinds[:num_ops]
            op_keys = op_keys[:num_ops]
        stats.operations += num_ops
        if obs.enabled():
            obs.inc("repro_collector_ops_total", num_ops)
            obs.inc(
                "repro_collector_txns_total",
                status="committed" if committed else "aborted",
            )
        if committed:
            stats.committed += 1
        else:
            stats.aborted += 1
            if retryable:
                obs.inc("repro_collector_retryable_aborts_total")
            if not self.record_aborted:
                return committed, retryable
        # Tick-then-publish with no await between them: publish order ==
        # finish order, so the columns (and any hook) see finish_ts-sorted
        # rows.
        finish_ts = self._clock.tick()
        rows = self._rows
        if rows is None:
            self._columns.append_row(
                txn_id, session_id, status_code, start_ts, finish_ts,
                op_kinds, op_keys, op_values,
            )
        else:
            await self._publish(
                rows,
                (txn_id, session_id, status_code, start_ts, finish_ts,
                 op_kinds, op_keys, op_values),
            )
        return committed, retryable

    async def _publish(
        self, rows: "asyncio.Queue[Optional[Row]]", row: Row
    ) -> None:
        try:
            rows.put_nowait(row)  # common case: capacity available
        except asyncio.QueueFull:
            # Backpressure: the drain (SegmentWriter sealing, a slow hook)
            # is behind; this coroutine stalls until a slot frees up.
            self._stalls += 1
            obs.inc("repro_acollector_backpressure_stalls_total")
            await rows.put(row)

    # ------------------------------------------------------------------
    # Drain task: queue -> columns (+ hooks), in finish order
    # ------------------------------------------------------------------
    async def _drain(
        self, rows: "asyncio.Queue[Optional[Row]]", columns: ColumnarHistory
    ) -> None:
        hook = self.on_transaction
        # SegmentWriter-style hooks take flat rows and stay object-free;
        # legacy Transaction hooks get rows materialised off the hot path.
        raw_hook = getattr(hook, "append_raw", None)
        track = obs.enabled()
        while True:
            row = await rows.get()
            while row is not None:
                txn_id, session_id, status_code, start_ts, finish_ts, kinds, keys, values = row
                columns.append_raw(
                    txn_id, session_id, status_code, start_ts, finish_ts,
                    zip(kinds, keys, values),
                )
                if raw_hook is not None:
                    raw_hook(
                        txn_id, session_id, status_code, start_ts, finish_ts,
                        zip(kinds, keys, values),
                    )
                elif hook is not None:
                    hook(self._materialize(row))
                if track:
                    obs.set_gauge("repro_acollector_queue_depth", rows.qsize())
                # Drain everything already queued before yielding back to
                # the loop: one task switch flushes a whole batch of rows.
                try:
                    row = rows.get_nowait()
                except asyncio.QueueEmpty:
                    break
            else:
                return

    @staticmethod
    def _materialize(row: Row) -> Transaction:
        txn_id, session_id, status_code, start_ts, finish_ts, kinds, keys, values = row
        operations = [
            Operation(OpType.WRITE if kind else OpType.READ, key, value)
            for kind, key, value in zip(kinds, keys, values)
        ]
        return Transaction(
            txn_id=txn_id,
            operations=operations,
            session_id=session_id,
            status=STATUS_FROM_CODE[status_code],
            start_ts=start_ts,
            finish_ts=finish_ts,
        )

    # ------------------------------------------------------------------
    # Deadline watchdog
    # ------------------------------------------------------------------
    async def _watchdog(self, tasks: Dict[int, "asyncio.Task"]) -> None:
        """Abandon sessions whose current attempt outlived ``txn_deadline``.

        Unlike the threaded watchdog — which can only stop *waiting* on a
        wedged thread — cancelling the session task actually unwinds the
        coroutine.  The attempt is recorded as ``UNKNOWN`` (the honest
        status: the commit may still land) from its published in-flight
        state.
        """
        poll = max(min(self.txn_deadline / 4.0, 0.05), 0.001)
        while True:
            await asyncio.sleep(poll)
            now = time.monotonic()
            hung = [
                record
                for record in list(self._in_flight.values())
                if now - record.started_mono >= self.txn_deadline
            ]
            for record in hung:
                if not self._mark_abandoned(record):
                    continue
                obs.inc(
                    "repro_resilience_deadline_exceeded_total",
                    component="acollector",
                )
                task = tasks.get(record.session_id)
                if task is not None:
                    task.cancel()
                finish_ts = self._clock.tick()
                # The in-flight kinds/keys are the full spec shape; only
                # the ops that actually executed have values — record those.
                values = list(record.op_values)
                done = len(values)
                row = (
                    record.txn_id,
                    record.session_id,
                    _UNKNOWN,
                    record.start_ts,
                    finish_ts,
                    list(record.op_kinds[:done]),
                    list(record.op_keys[:done]),
                    values,
                )
                rows = self._rows
                if rows is None:
                    self._columns.append_raw(row[0], row[1], row[2], row[3], row[4],
                                             zip(row[5], row[6], row[7]))
                else:
                    await self._publish(rows, row)
