"""Coroutine session multiplexing: the collector for ``await``-able adapters.

:class:`AsyncCollector` drives adapters that speak the coroutine protocol
(:class:`~repro.adapters.aio.AsyncDatabaseAdapter`; sync adapters go to the
threaded :class:`~repro.adapters.collector.Collector`, and
:func:`repro.adapters.collect_history` picks).  It records through
:class:`~repro.adapters.collector.CollectorBase` exactly as the threaded
collector does — same clock, ids, unique values, in-flight table and row
method, into the same :class:`~repro.history.columnar.ColumnarHistory`, no
``Transaction`` built unless a hook asks for one — and differs only in how
a session waits: ``max_inflight`` worker coroutines pull sessions off one
iterator on one event-loop thread, each attempt awaits the adapter, and a
hung session is let go by cancelling its worker's task, which (unlike a
wedged thread) actually unwinds it; the worker then moves on to its next
session.
"""

from __future__ import annotations

import asyncio
from typing import List, Tuple

from .. import obs
from ..db.errors import TransactionAborted
from ..history.columnar import OP_WRITE
from ..resilience.failpoints import fail_point
from ..workloads.spec import TransactionSpec, Workload
from .aio import AsyncDatabaseAdapter
from .collector import _ABORTED, _COMMITTED, CollectionResult, CollectorBase

__all__ = ["AsyncCollector"]


class AsyncCollector(CollectorBase):
    """Asyncio workload driver over an :class:`~repro.adapters.aio.AsyncDatabaseAdapter`.

    Construction arguments are the threaded collector's and mean the same
    things (``max_inflight`` sessions run at once, here as coroutines).
    """

    adapter: AsyncDatabaseAdapter

    def __init__(self, adapter: AsyncDatabaseAdapter, **kwargs) -> None:
        if not isinstance(adapter, AsyncDatabaseAdapter):
            raise TypeError(
                "AsyncCollector drives AsyncDatabaseAdapter; a sync adapter "
                "goes to Collector (collect_history picks for you)"
            )
        super().__init__(adapter, **kwargs)

    # ------------------------------------------------------------------
    def collect(self, workload: Workload) -> CollectionResult:
        """Run :meth:`collect_async` to completion on a private loop."""
        return asyncio.run(self.collect_async(workload))

    async def collect_async(self, workload: Workload) -> CollectionResult:
        """Execute the workload as session coroutines; return the columns."""
        self._open_run(workload.keys)
        if self.setup_keys:
            await self.adapter.setup(workload.keys, self.initial_value)
        # A fixed pool of workers pulls sessions off one iterator: task
        # creation and scheduling cost O(max_inflight), not O(sessions).
        pending = iter(enumerate(workload.sessions))
        workers = [
            asyncio.create_task(
                self._worker(pending, workload.traffic), name=f"acollector-worker-{i}"
            )
            for i in range(min(self.max_inflight, len(workload.sessions)))
        ]
        watchdog = None
        if self.txn_deadline is not None:
            watchdog = asyncio.create_task(self._watchdog())
        results = await asyncio.gather(*workers, return_exceptions=True)
        if watchdog is not None:
            watchdog.cancel()
            try:
                await watchdog
            except asyncio.CancelledError:
                pass
        errors = [exc for exc in results if isinstance(exc, BaseException)]
        if errors:
            raise errors[0]
        return self._close_run()

    async def _watchdog(self) -> None:
        """Cancel the task of every session the recorder abandons."""
        while True:
            await asyncio.sleep(self._poll)
            for attempt in self._abandon_hung():
                attempt.runner.cancel()

    # ------------------------------------------------------------------
    # Session coroutines
    # ------------------------------------------------------------------
    async def _worker(self, pending, traffic) -> None:
        # One event-loop thread: sharing a plain iterator is race-free.
        runner = asyncio.current_task()
        for session_id, specs in pending:
            await self._run_session(session_id, specs, traffic, runner)

    async def _run_session(
        self, session_id: int, specs: List[TransactionSpec], traffic, runner
    ) -> None:
        session = await self.adapter.session(session_id)
        obs.gauge_add("repro_collector_sessions_in_flight", 1)
        try:
            for spec_index, spec in enumerate(specs):
                idle = self._arrival_delay(traffic, session_id, spec_index)
                if idle > 0:
                    await asyncio.sleep(idle)
                kinds, keys = self._shape(spec)
                delays = None  # built on the first retry: most never retry
                while True:
                    committed, retryable = await self._attempt(
                        session, session_id, kinds, keys, runner
                    )
                    if session_id in self._abandoned:
                        return  # an adapter swallowed the cancellation
                    if committed or not retryable:
                        break
                    delays = delays or self._retry_delays(session_id, spec_index)
                    delay = self._backoff(delays)
                    if delay is None:
                        break
                    if delay > 0:
                        await asyncio.sleep(delay)
        except asyncio.CancelledError:
            if session_id not in self._abandoned:
                raise
            # The watchdog recorded the attempt UNKNOWN and cancelled this
            # task; the worker goes on to its next session.
        finally:
            obs.gauge_add("repro_collector_sessions_in_flight", -1)
            if session_id not in self._abandoned:  # never await a wedged adapter again
                try:
                    await session.aclose()
                except Exception:  # noqa: BLE001 - close is best effort
                    pass

    async def _attempt(
        self, session, session_id: int, kinds: List[int], keys: List[str], runner
    ) -> Tuple[bool, bool]:
        """One transaction attempt, recorded as one row.

        Returns ``(committed, retryable)`` exactly like the threaded
        collector's ``_attempt``.
        """
        fail_point("collector.txn.attempt")
        attempt = self._begin(session_id, kinds, keys, runner)
        values = attempt.values
        status = None
        retryable = True
        try:
            await session.begin()
            for kind, key in zip(kinds, keys):
                if kind == OP_WRITE:
                    value = self._next_value(session_id)
                    await session.write(key, value)
                else:
                    value = await session.read(key)
                    if value is None:  # an absent object reads as ⊥T's value
                        value = self.initial_value
                values.append(value)
            await session.commit()
            status = _COMMITTED
        except TransactionAborted as exc:
            await session.abort()  # idempotent; most adapters already rolled back
            status = _ABORTED
            retryable = getattr(exc, "retryable", True)
            if retryable:
                obs.inc("repro_collector_retryable_aborts_total")
        finally:
            self._record(attempt, status)
        return status == _COMMITTED, retryable
