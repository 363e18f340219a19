"""Concurrent history collection over any database adapter.

The serial :class:`~repro.workloads.runner.WorkloadRunner` *simulates*
concurrency by interleaving session steps; real engines need real
concurrency.  :class:`Collector` runs the workload's sessions on a bounded
pool of OS threads (``max_inflight`` of them, one session per thread at a
time) through a :class:`~repro.adapters.base.DatabaseAdapter`, records what
each client observed, and assembles the per-session logs into one
:class:`~repro.core.model.History` — Steps 1–3 of the paper's end-to-end
workflow (Figure 2), against an arbitrary engine.  It is the collector for
every *sync* adapter; a native :class:`~repro.adapters.aio.AsyncDatabaseAdapter`
goes to :class:`~repro.adapters.acollector.AsyncCollector`, and
:func:`repro.adapters.collect_history` picks between the two from the
adapter it is handed.

Guarantees the checker relies on:

* **Unique written values** (Definition 9): a process-wide counter assigns
  every write ``session_id * 10_000_000 + n``, the same scheme as the
  serial runner; the collector additionally verifies no value is ever
  issued twice.
* **Real-time intervals**: one shared, lock-protected
  :class:`~repro.storage.clock.LogicalClock` is ticked immediately before
  ``begin`` and immediately after ``commit``/abort, so every recorded
  ``[start_ts, finish_ts]`` interval contains the transaction's actual
  execution and the derived RT order is sound for SSER checking.
* **Retry parity with the simulator**: any
  :class:`~repro.db.errors.TransactionAborted` (simulator conflicts, SQLite
  busy/locked via :func:`~repro.db.errors.retryable_sqlite_abort`, chaos
  aborts) is recorded as an aborted attempt and retried with fresh values,
  up to ``max_retries`` times.
* **Stream compatibility**: the ``on_transaction`` hook fires under a lock
  in finish-timestamp order, so a
  :class:`~repro.history.serialization.HistoryStreamWriter` (JSONL), a
  :class:`~repro.history.columnar.SegmentWriter` (binary columnar segment
  — the checker's zero-copy fast path, persisted when the writer closes),
  or a streaming :class:`~repro.core.incremental.CheckerSession` can
  consume the history live, exactly as with the serial runner.  (``repro
  collect --output x.seg`` writes the segment from the assembled history
  after the run completes.)
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from .. import obs
from ..core.model import (
    History,
    Operation,
    Session,
    Transaction,
    TransactionStatus,
    make_initial_transaction,
    read,
    write,
)
from ..db.errors import TransactionAborted
from ..history.columnar import ColumnarHistory
from ..resilience import RetryPolicy
from ..resilience.failpoints import fail_point
from ..storage.clock import LogicalClock
from ..workloads.runner import RunStats
from ..workloads.spec import TransactionSpec, Workload
from .aio import AsyncDatabaseAdapter
from .base import AdapterError, DatabaseAdapter

__all__ = [
    "ThreadSafeClock",
    "CollectorBase",
    "Collector",
    "CollectionResult",
]


class ThreadSafeClock:
    """A :class:`~repro.storage.clock.LogicalClock` behind a lock.

    Ticks happen at the wall-clock moments events occur and the clock is
    strictly monotonic across threads, so stamped intervals order exactly
    like the real-time events they bracket.
    """

    def __init__(self, base: Optional[LogicalClock] = None) -> None:
        self._base = base if base is not None else LogicalClock()
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._base.now()

    def tick(self, amount: Optional[float] = None) -> float:
        with self._lock:
            return self._base.tick(amount)


class CollectorBase:
    """Recording contract shared by the threaded and async collectors.

    One implementation of everything the checker's soundness rests on —
    the shared monotonic clock, transaction-id allocation, the globally
    unique write-value counter (Definition 9), the per-transaction
    decorrelated retry schedule, and the abandoned-session bookkeeping
    behind the deadline watchdogs — so the thread and coroutine front
    ends cannot drift on the invariants.  Subclasses add only their
    scheduling model: OS threads (:class:`Collector`) or coroutines
    (:class:`~repro.adapters.acollector.AsyncCollector`), ``max_inflight``
    sessions at a time in either.
    """

    def __init__(
        self,
        adapter,
        *,
        max_retries: int = 3,
        record_aborted: bool = True,
        on_transaction: Optional[Callable[[Transaction], object]] = None,
        setup_keys: bool = True,
        initial_value: int = 0,
        retry_policy: Optional[RetryPolicy] = None,
        txn_deadline: Optional[float] = None,
        max_inflight: int = 256,
    ) -> None:
        if max_inflight <= 0:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        self.adapter = adapter
        self.max_inflight = max_inflight
        self.max_retries = max_retries
        self.record_aborted = record_aborted
        self.on_transaction = on_transaction
        self.setup_keys = setup_keys
        self.initial_value = initial_value
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=max_retries + 1,
            base_delay=0.002,
            max_delay=0.05,
            seed=0,
        )
        self.txn_deadline = txn_deadline
        self._clock = ThreadSafeClock()
        self._id_lock = threading.Lock()
        self._record_lock = threading.Lock()
        self._next_txn_id = 1
        self._value_counter = 0
        self._issued_values: Set[int] = set()
        self._in_flight: Dict[int, object] = {}
        self._abandoned: Set[int] = set()

    # ------------------------------------------------------------------
    # Shared-state helpers
    # ------------------------------------------------------------------
    def _allocate_txn_id(self) -> int:
        with self._id_lock:
            return self._allocate_txn_id_unlocked()

    def _allocate_txn_id_unlocked(self) -> int:
        """Lock-free id allocation for single-threaded (event loop) use."""
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        return txn_id

    def _next_value(self, session_id: int) -> int:
        with self._id_lock:
            return self._next_value_unlocked(session_id)

    def _next_value_unlocked(self, session_id: int) -> int:
        """Globally unique write values (client id + shared counter), with
        the MT uniqueness invariant enforced rather than assumed.  The
        lock-free variant exists for callers whose bookkeeping is confined
        to one thread (the async collector's event loop)."""
        self._value_counter += 1
        value = session_id * 10_000_000 + self._value_counter
        if value == self.initial_value:
            # The pre-populated value already belongs to ⊥T; re-issuing
            # it would break unique written values (session 0's values
            # are the bare counter, so e.g. initial_value=7 collides
            # with its 7th write — a timing-dependent FutureRead).
            self._value_counter += 1
            value = session_id * 10_000_000 + self._value_counter
        if value in self._issued_values:
            raise AdapterError(
                f"unique-written-value invariant violated: {value} issued twice"
            )
        self._issued_values.add(value)
        return value

    def _retry_delays(self, session_id: int, spec_index: int):
        """Fresh, deterministic backoff schedule per transaction:
        contending sessions decorrelate instead of re-colliding in
        lock-step the way immediate retries did."""
        return self.retry_policy.delays(seed=session_id * 1_000_003 + spec_index)

    def _mark_abandoned(self, record) -> bool:
        """Claim the abandonment of the session ``record`` belongs to.

        Returns ``True`` when ``record`` is still the session's in-flight
        attempt; it is dropped under the record lock, so neither a second
        watchdog pass nor the attempt finishing late (or having finished a
        moment before the claim) can record the transaction twice.
        """
        with self._record_lock:
            if self._in_flight.get(record.session_id) is not record:
                return False
            del self._in_flight[record.session_id]
            self._abandoned.add(record.session_id)
            return True

    @staticmethod
    def _arrival_delay(traffic, session_id: int, txn_index: int) -> float:
        """Seconds a session idles before its next transaction — the
        workload's :class:`~repro.workloads.spec.TrafficShape` arrival
        process (0 when the workload is unshaped)."""
        if traffic is None:
            return 0.0
        return traffic.delay_before(session_id, txn_index)


@dataclass
class CollectionResult:
    """A concurrently recorded history plus execution statistics."""

    history: History
    stats: RunStats
    adapter_name: str = ""
    #: Transactions whose outcome was never learned: the adapter hung past
    #: ``txn_deadline`` and the session was abandoned with the attempt
    #: recorded as :attr:`TransactionStatus.UNKNOWN`.
    unknown: int = 0

    @functools.cached_property
    def columns(self) -> ColumnarHistory:
        """The history as columnar rows — what the checker and the file
        writers consume, and what an ``AsyncCollectionResult`` holds."""
        return ColumnarHistory.from_history(self.history)


@dataclass
class _InFlightTxn:
    """What a worker thread has published about its current attempt.

    The deadline monitor in :meth:`Collector.collect` reads these to
    build the ``UNKNOWN`` record for a hung transaction; ``operations``
    is the live list the worker appends to (snapshot-copied under the
    record lock when abandoning) and ``thread`` is the worker the monitor
    stops waiting for.
    """

    txn_id: int
    session_id: int
    start_ts: float
    started_mono: float
    operations: List[Operation]
    thread: threading.Thread


class Collector(CollectorBase):
    """Multi-threaded workload driver over a sync database adapter.

    ``min(sessions, max_inflight)`` worker threads pull sessions off one
    shared iterator, so a session is a serial stream of transactions on
    one thread and at most ``max_inflight`` of them contend for the engine
    at a time — a thread per session at 3 000 SQLite sessions starves most
    of them into exhausting their retries.  A session is opened, run and
    closed on the thread that pulled it, which keeps thread-affine clients
    (``sqlite3`` connections) happy.

    Args:
        adapter: the database under test (a sync
            :class:`~repro.adapters.base.DatabaseAdapter`).
        max_retries: retries per aborted transaction (fresh values each).
        record_aborted: include aborted attempts in the history (needed for
            AbortedRead detection; checkers ignore them otherwise).
        on_transaction: live hook, called with every recorded transaction
            in finish-timestamp order (see module docstring).
        setup_keys: pre-install the workload's keys via ``adapter.setup``
            so the history's ``⊥T`` matches the database's initial state.
        initial_value: value installed for each pre-populated key.
        retry_policy: backoff between retries of one aborted transaction
            (its attempt cap tops up ``max_retries``).  The default backs
            off 2ms → 50ms with decorrelated jitter — enough to break the
            lock-step re-collision of immediate retries without slowing a
            healthy run measurably.
        txn_deadline: seconds one transaction attempt may run before the
            session is declared hung: the attempt is recorded with
            :attr:`TransactionStatus.UNKNOWN` (its outcome genuinely is
            unknown — the commit may still land), :meth:`collect` stops
            waiting on that thread and starts a replacement worker, so a
            wedged adapter connection can neither hang the run nor shrink
            the pool.  ``None`` disables the watchdog.
        max_inflight: sessions running at once (= worker threads).
    """

    adapter: DatabaseAdapter

    def __init__(self, adapter: DatabaseAdapter, **kwargs) -> None:
        if isinstance(adapter, AsyncDatabaseAdapter):
            raise TypeError(
                "Collector drives sync adapters from threads; an "
                "AsyncDatabaseAdapter goes to AsyncCollector (collect_history "
                "picks for you)"
            )
        super().__init__(adapter, **kwargs)

    # ------------------------------------------------------------------
    def collect(self, workload: Workload) -> CollectionResult:
        """Execute the workload concurrently and return the history."""
        started = time.perf_counter()
        stats = RunStats()
        if self.setup_keys:
            self.adapter.setup(workload.keys, self.initial_value)

        session_logs = [Session(session_id=sid) for sid in range(len(workload.sessions))]
        errors: List[BaseException] = []
        pending = iter(enumerate(workload.sessions))
        worker_ids = itertools.count()

        def next_session():
            with self._id_lock:
                return next(pending, None)

        def start_worker() -> threading.Thread:
            thread = threading.Thread(
                target=self._worker,
                args=(next_session, session_logs, stats, errors, workload.traffic),
                name=f"collector-worker-{next(worker_ids)}",
                daemon=True,
            )
            thread.start()
            return thread

        threads = [
            start_worker()
            for _ in range(min(len(workload.sessions), self.max_inflight))
        ]
        if self.txn_deadline is None:
            for thread in threads:
                thread.join()
        else:
            self._join_with_deadline(set(threads), session_logs, start_worker)
        if errors:
            raise errors[0]

        history = History(sessions=session_logs)
        # ⊥T must install what the database actually holds initially, or a
        # healthy engine would be flagged with spurious ThinAirReads.
        history.initial_transaction = make_initial_transaction(
            workload.keys, value=self.initial_value
        )
        stats.wall_seconds = time.perf_counter() - started
        stats.logical_time = self._clock.now()
        return CollectionResult(
            history=history,
            stats=stats,
            adapter_name=self.adapter.capabilities().name,
            unknown=len(self._abandoned),
        )

    def _join_with_deadline(
        self,
        live: Set[threading.Thread],
        session_logs: List[Session],
        start_worker: Callable[[], threading.Thread],
    ) -> None:
        """Wait for the worker threads, abandoning any session that hangs.

        A session whose current attempt has been in flight longer than
        ``txn_deadline`` is *abandoned*: the attempt is recorded as
        ``UNKNOWN`` from its published in-flight state and its thread is
        dropped from the wait set (it is a daemon — a wedged adapter call
        cannot be interrupted from outside, only outwaited or outlived),
        so the run completes instead of blocking forever in ``join``.  A
        replacement worker takes its place (and exits at once when no
        session is pending), so the sessions still queued keep their
        ``max_inflight`` threads.
        """
        poll = max(min(self.txn_deadline / 4.0, 0.05), 0.001)
        while live:
            live = {thread for thread in live if thread.is_alive()}
            now = time.monotonic()
            with self._record_lock:
                hung = [
                    record
                    for record in self._in_flight.values()
                    if now - record.started_mono >= self.txn_deadline
                ]
            for record in hung:
                if self._abandon_session(record, session_logs[record.session_id]):
                    live.discard(record.thread)
                    live.add(start_worker())
            if live:
                time.sleep(poll)

    def _abandon_session(self, record: _InFlightTxn, log: Session) -> bool:
        """Record a hung attempt as ``UNKNOWN`` and stop tracking its session.

        ``UNKNOWN`` is the honest status: the commit may still land after
        we stop waiting.  Checkers reason only about committed
        transactions, so the record is conservative — it can hide a
        violation the hung commit would have exposed, never invent one.
        Returns ``False`` when the attempt finished before it could be
        claimed (it recorded itself; nothing was abandoned).
        """
        if not self._mark_abandoned(record):
            return False
        obs.inc("repro_resilience_deadline_exceeded_total", component="collector")
        with self._record_lock:
            txn = Transaction(
                txn_id=record.txn_id,
                operations=list(record.operations),
                session_id=record.session_id,
                status=TransactionStatus.UNKNOWN,
                start_ts=record.start_ts,
                finish_ts=self._clock.tick(),
            )
            log.transactions.append(txn)
            if self.on_transaction is not None:
                self.on_transaction(txn)
        return True

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------
    def _worker(
        self,
        next_session: Callable[[], Optional[tuple]],
        session_logs: List[Session],
        stats: RunStats,
        errors: List[BaseException],
        traffic,
    ) -> None:
        while True:
            item = next_session()
            if item is None:
                return
            session_id, specs = item
            self._run_session(
                session_id, specs, session_logs[session_id], stats, errors, traffic
            )
            if session_id in self._abandoned:
                return  # the deadline monitor already started the replacement

    def _run_session(
        self,
        session_id: int,
        specs: List[TransactionSpec],
        log: Session,
        stats: RunStats,
        errors: List[BaseException],
        traffic=None,
    ) -> None:
        try:
            session = self.adapter.session(session_id)
        except BaseException as exc:  # noqa: BLE001 - reported to collect()
            errors.append(exc)
            return
        obs.gauge_add("repro_collector_sessions_in_flight", 1)
        try:
            for spec_index, spec in enumerate(specs):
                idle = self._arrival_delay(traffic, session_id, spec_index)
                if idle > 0:
                    time.sleep(idle)
                delays = self._retry_delays(session_id, spec_index)
                while True:
                    committed, retryable = self._attempt(session, session_id, spec, log, stats)
                    if session_id in self._abandoned:
                        # The run stopped waiting on this session (deadline
                        # watchdog); go silent rather than mutate shared
                        # state behind a completed collect().
                        return
                    if committed or not retryable:
                        break
                    delay = next(delays, None)
                    if delay is None:
                        break
                    obs.inc("repro_collector_retries_total")
                    obs.inc(
                        "repro_resilience_backoff_seconds_total", delay
                    )
                    with self._record_lock:
                        stats.retries += 1
                    if delay > 0:
                        time.sleep(delay)
        except BaseException as exc:  # noqa: BLE001 - reported to collect()
            errors.append(exc)
        finally:
            obs.gauge_add("repro_collector_sessions_in_flight", -1)
            session.close()

    def _attempt(self, session, session_id: int, spec, log: Session, stats: RunStats):
        """Run one transaction attempt and record it.

        Returns ``(committed, retryable)``: whether the attempt committed,
        and — when it aborted — whether the engine marked the abort as
        worth retrying (permanent failures are recorded but not re-run).
        """
        fail_point("collector.txn.attempt")
        start_ts = self._clock.tick()
        txn_id = self._allocate_txn_id()
        operations: List[Operation] = []
        if self.txn_deadline is not None:
            record = _InFlightTxn(
                txn_id, session_id, start_ts, time.monotonic(), operations,
                threading.current_thread(),
            )
            with self._record_lock:
                self._in_flight[session_id] = record
        retryable = True
        try:
            try:
                session.begin()
                for planned in spec.operations:
                    if planned.is_read:
                        value = session.read(planned.key)
                        # An absent object reads as the initial value ⊥T installed.
                        operations.append(
                            read(planned.key, value if value is not None else self.initial_value)
                        )
                    else:
                        value = self._next_value(session_id)
                        session.write(planned.key, value)
                        operations.append(write(planned.key, value))
                session.commit()
                status = TransactionStatus.COMMITTED
            except TransactionAborted as exc:
                session.abort()  # idempotent; most adapters already rolled back
                status = TransactionStatus.ABORTED
                retryable = getattr(exc, "retryable", True)
                if retryable:
                    obs.inc("repro_collector_retryable_aborts_total")
        finally:
            if self.txn_deadline is not None:
                with self._record_lock:
                    self._in_flight.pop(session_id, None)
        self._record(
            txn_id, session_id, operations, status, start_ts, log, stats,
            num_ops=len(operations),
        )
        return status is TransactionStatus.COMMITTED, retryable

    # ------------------------------------------------------------------
    # Shared-state helpers
    # ------------------------------------------------------------------
    def _record(
        self,
        txn_id: int,
        session_id: int,
        operations: List[Operation],
        status: TransactionStatus,
        start_ts: float,
        log: Session,
        stats: RunStats,
        *,
        num_ops: int,
    ) -> None:
        # One lock around the finish stamp, the log append, the stats update,
        # and the hook call: hooks observe transactions in finish_ts order.
        if obs.enabled():
            obs.inc("repro_collector_ops_total", num_ops)
            obs.inc(
                "repro_collector_txns_total",
                status=(
                    "committed"
                    if status is TransactionStatus.COMMITTED
                    else "aborted"
                ),
            )
        with self._record_lock:
            if session_id in self._abandoned:
                # The deadline monitor already recorded this session's
                # transaction as UNKNOWN and collect() may have returned;
                # a late-finishing attempt must not mutate shared state.
                return
            finish_ts = self._clock.tick()
            stats.operations += num_ops
            if status is TransactionStatus.COMMITTED:
                stats.committed += 1
            else:
                stats.aborted += 1
                if not self.record_aborted:
                    return
            txn = Transaction(
                txn_id=txn_id,
                operations=operations,
                session_id=session_id,
                status=status,
                start_ts=start_ts,
                finish_ts=finish_ts,
            )
            log.transactions.append(txn)
            if self.on_transaction is not None:
                self.on_transaction(txn)
