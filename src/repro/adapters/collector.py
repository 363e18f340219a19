"""Concurrent history collection over any database adapter.

The serial :class:`~repro.workloads.runner.WorkloadRunner` *simulates*
concurrency by interleaving session steps; real engines need real
concurrency.  This module holds the one recorder both collectors share
(:class:`CollectorBase`) and the driver for every *sync* adapter:
:class:`Collector` runs the workload's sessions on a bounded pool of OS
threads (``max_inflight`` of them, one session per thread at a time).  A
native :class:`~repro.adapters.aio.AsyncDatabaseAdapter` goes to
:class:`~repro.adapters.acollector.AsyncCollector` instead, and
:func:`repro.adapters.collect_history` picks between the two from the
adapter it is handed.  Either way the run records what each client
observed as rows of one :class:`~repro.history.columnar.ColumnarHistory` —
Steps 1–3 of the paper's end-to-end workflow (Figure 2), against an
arbitrary engine.

Guarantees the checker relies on, all kept by :class:`CollectorBase`,
whose methods run one at a time:

* **Unique written values** (Definition 9): a process-wide counter assigns
  every write ``session_id * 10_000_000 + n``, the same scheme as the
  serial runner; the collector additionally verifies no value is ever
  issued twice.
* **Real-time intervals**: one :class:`~repro.storage.clock.LogicalClock`
  is ticked immediately before ``begin`` and immediately after
  ``commit``/abort, so every recorded ``[start_ts, finish_ts]`` interval
  contains the transaction's actual execution and the derived RT order is
  sound for SSER checking.
* **Retry parity with the simulator**: any
  :class:`~repro.db.errors.TransactionAborted` (simulator conflicts, SQLite
  busy/locked via :func:`~repro.db.errors.retryable_sqlite_abort`, chaos
  aborts) is recorded as an aborted attempt and retried with fresh values,
  up to ``max_retries`` times.
* **One row per attempt, in finish order**: an attempt is recorded by
  whoever takes it out of the in-flight table — its own session when it
  finishes, or the deadline watchdog (as ``UNKNOWN``) when it hangs — in
  the same critical section that stamps its finish tick.  Rows, and the
  ``on_transaction`` hook (a
  :class:`~repro.history.serialization.HistoryStreamWriter`, a
  :class:`~repro.history.columnar.ColumnarHistory`, a streaming
  :class:`~repro.core.incremental.CheckerSession`), therefore see
  transactions in finish-timestamp order, exactly as with the serial
  runner.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from .. import obs
from ..core.model import STATUS_CODES, History, Transaction, TransactionStatus
from ..db.errors import TransactionAborted
from ..history.columnar import OP_READ, OP_WRITE, ColumnarHistory
from ..resilience import RetryPolicy
from ..resilience.failpoints import fail_point
from ..storage.clock import LogicalClock
from ..workloads.runner import RunStats
from ..workloads.spec import PlannedOpKind, TransactionSpec, Workload
from .aio import AsyncDatabaseAdapter
from .base import AdapterError, DatabaseAdapter

__all__ = [
    "CollectorBase",
    "Collector",
    "CollectionResult",
]

_COMMITTED = STATUS_CODES[TransactionStatus.COMMITTED]
_ABORTED = STATUS_CODES[TransactionStatus.ABORTED]
_UNKNOWN = STATUS_CODES[TransactionStatus.UNKNOWN]
_PLANNED_READ = PlannedOpKind.READ


@dataclass
class CollectionResult:
    """A concurrently recorded history plus execution statistics.

    ``columns`` is the recorded artifact and feeds
    :meth:`repro.core.checker.MTChecker.verify` directly; :attr:`history`
    materialises objects on demand.
    """

    columns: ColumnarHistory
    stats: RunStats
    adapter_name: str = ""
    #: Transactions whose outcome was never learned: the adapter hung past
    #: ``txn_deadline`` and the session was abandoned with the attempt
    #: recorded as :attr:`TransactionStatus.UNKNOWN`.
    unknown: int = 0
    #: Always 0: no collector queues rows any more.  Kept because the
    #: pipeline benchmark still reports it.
    backpressure_stalls: int = 0

    @property
    def history(self) -> History:
        return self.columns.to_history()


@dataclass(slots=True)
class _InFlight:
    """A session's current attempt: what its row is made of, and what a
    deadline watchdog sees of it.

    ``kinds``/``keys`` are the spec's whole op shape and ``values`` the
    live list the session appends to as operations execute, so a row keeps
    the first ``len(values)`` of each.  ``runner`` is the thread or task
    running the session: what the watchdog lets go.
    """

    txn_id: int
    session_id: int
    start_ts: float
    kinds: List[int]
    keys: List[str]
    values: List[int]
    runner: object
    started_mono: float = 0.0


class CollectorBase:
    """The recorder shared by the threaded and coroutine collectors.

    One implementation of everything the checker's soundness rests on —
    the monotonic clock, transaction-id allocation, the globally unique
    write-value counter (Definition 9), the per-transaction decorrelated
    retry schedule, the in-flight table behind the deadline watchdogs, and
    the one method that turns an attempt into a row.  A subclass adds
    only how a session waits: a sync or ``await`` attempt body,
    ``time.sleep`` or ``asyncio.sleep``, and how a hung session is let go
    (:class:`Collector` replaces its thread,
    :class:`~repro.adapters.acollector.AsyncCollector` cancels its task).

    One discipline keeps the shared state sound: the recorder's methods
    run one at a time, and none of them waits on the adapter.  Coroutine
    sessions get that for free (one event-loop thread, no ``await`` inside
    a recorder call); worker threads take :attr:`Collector._lock` around
    each call.  So the finish tick, the row, the stats and the hook of one
    attempt are never interleaved with another's.
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
        if txn_deadline is not None and not txn_deadline > 0:  # NaN fails too
            raise ValueError(f"txn_deadline must be positive, got {txn_deadline}")
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
        #: How often a deadline watchdog looks for hung attempts.
        self._poll = (
            None if txn_deadline is None else max(min(txn_deadline / 4.0, 0.05), 0.001)
        )
        self._clock = LogicalClock()
        self._next_txn_id = 1
        self._value_counter = 0
        self._issued_values: Set[int] = set()
        self._in_flight: Dict[int, _InFlight] = {}
        self._abandoned: Set[int] = set()
        self._columns = ColumnarHistory()
        self._stats = RunStats()
        self._started = 0.0

    # ------------------------------------------------------------------
    # One run
    # ------------------------------------------------------------------
    def _open_run(self, keys: List[str]) -> None:
        """Fresh columns and stats; ``⊥T`` installs what the database
        holds initially, or a healthy engine would be flagged with
        spurious ThinAirReads."""
        self._started = time.perf_counter()
        self._columns = ColumnarHistory()
        self._columns.seed_initial(keys, self.initial_value)
        self._stats = RunStats()

    def _close_run(self) -> CollectionResult:
        stats = self._stats
        stats.wall_seconds = time.perf_counter() - self._started
        stats.logical_time = self._clock.now()
        return CollectionResult(
            columns=self._columns,
            stats=stats,
            adapter_name=self.adapter.capabilities().name,
            unknown=len(self._abandoned),
        )

    # ------------------------------------------------------------------
    # One attempt
    # ------------------------------------------------------------------
    @staticmethod
    def _shape(spec: TransactionSpec) -> Tuple[List[int], List[str]]:
        """A spec's op kinds and keys: fixed across retries, where only the
        values change."""
        operations = spec.operations
        return (
            [OP_READ if op.kind is _PLANNED_READ else OP_WRITE for op in operations],
            [op.key for op in operations],
        )

    def _begin(
        self, session_id: int, kinds: List[int], keys: List[str], runner: object
    ) -> _InFlight:
        """Stamp an attempt's start and give it a txn id; with a deadline,
        publish it to the watchdog."""
        attempt = _InFlight(
            self._next_txn_id, session_id, self._clock.tick(), kinds, keys, [], runner
        )
        self._next_txn_id += 1
        if self.txn_deadline is not None:
            attempt.started_mono = time.monotonic()
            self._in_flight[session_id] = attempt
        return attempt

    def _next_value(self, session_id: int) -> int:
        """Globally unique write values (client id + shared counter), with
        the MT uniqueness invariant enforced rather than assumed."""
        self._value_counter += 1
        value = session_id * 10_000_000 + self._value_counter
        if value == self.initial_value:
            # The pre-populated value already belongs to ⊥T; re-issuing it
            # would break unique written values (session 0's values are the
            # bare counter, so e.g. initial_value=7 collides with its 7th
            # write — a timing-dependent FutureRead).
            self._value_counter += 1
            value = session_id * 10_000_000 + self._value_counter
        if value in self._issued_values:
            raise AdapterError(
                f"unique-written-value invariant violated: {value} issued twice"
            )
        self._issued_values.add(value)
        return value

    def _record(self, attempt: _InFlight, status: Optional[int]) -> bool:
        """Turn ``attempt`` into a row, unless someone already has.

        The one row-recording path.  Its session calls it when the attempt
        finishes (``status`` committed or aborted; ``None`` when it raised,
        which records nothing).  With a deadline, whoever takes the attempt
        out of the in-flight table records it: the session, or the
        watchdog when it hangs (``UNKNOWN`` — the honest status, since the
        commit may still land; checkers reason only about committed rows,
        so it can hide a violation the hung commit would have exposed,
        never invent one), and a late finish then records nothing.  The
        finish tick, the append, the stats, the metrics and the hook happen
        in one call, so rows and hook calls come in ``finish_ts`` order.
        Returns whether this call took the attempt.
        """
        session_id = attempt.session_id
        if self.txn_deadline is not None:
            if self._in_flight.get(session_id) is not attempt:
                return False
            del self._in_flight[session_id]
        if status is None:
            return False
        finish_ts = self._clock.tick()
        values = attempt.values
        if status == _UNKNOWN:
            values = values[:]  # a hung thread may still be appending
        done = len(values)
        kinds, keys = attempt.kinds, attempt.keys
        if done < len(kinds):  # ended early: only the ops that ran
            kinds, keys = kinds[:done], keys[:done]
        if status == _UNKNOWN:
            self._abandoned.add(session_id)
            obs.inc("repro_resilience_deadline_exceeded_total", component="collector")
        else:
            stats = self._stats
            stats.operations += done
            committed = status == _COMMITTED
            if committed:
                stats.committed += 1
            else:
                stats.aborted += 1
            if obs.enabled():
                obs.inc("repro_collector_ops_total", done)
                obs.inc(
                    "repro_collector_txns_total",
                    status="committed" if committed else "aborted",
                )
            if not (committed or self.record_aborted):
                return True
        columns = self._columns
        columns.append_row(
            attempt.txn_id, session_id, status, attempt.start_ts, finish_ts,
            kinds, keys, values,
        )
        if self.on_transaction is not None:
            self.on_transaction(columns.transaction_at(len(columns) - 1))
        return True

    def _abandon_hung(self) -> List[_InFlight]:
        """Record every attempt in flight past ``txn_deadline`` as
        ``UNKNOWN``; returns those this call took, whose runners the
        caller lets go (an attempt that finished in the meantime recorded
        itself and is not among them)."""
        now = time.monotonic()
        hung = [
            attempt
            for attempt in self._in_flight.values()
            if now - attempt.started_mono >= self.txn_deadline
        ]
        return [attempt for attempt in hung if self._record(attempt, _UNKNOWN)]

    # ------------------------------------------------------------------
    # Between attempts
    # ------------------------------------------------------------------
    def _retry_delays(self, session_id: int, spec_index: int) -> Iterator[float]:
        """Fresh, deterministic backoff schedule per transaction:
        contending sessions decorrelate instead of re-colliding in
        lock-step the way immediate retries did."""
        return self.retry_policy.delays(seed=session_id * 1_000_003 + spec_index)

    def _backoff(self, delays: Iterator[float]) -> Optional[float]:
        """The pause before the next retry, or ``None`` once retries are
        spent."""
        delay = next(delays, None)
        if delay is not None:
            obs.inc("repro_collector_retries_total")
            obs.inc("repro_resilience_backoff_seconds_total", delay)
            self._stats.retries += 1
        return delay


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
            the pool.  ``None`` disables the watchdog; anything else must
            be positive.
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
        #: Held around every recorder call (and the shared session
        #: iterator): the worker threads take turns through it.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def collect(self, workload: Workload) -> CollectionResult:
        """Execute the workload concurrently and return the history."""
        self._open_run(workload.keys)
        if self.setup_keys:
            self.adapter.setup(workload.keys, self.initial_value)

        errors: List[BaseException] = []
        pending = iter(enumerate(workload.sessions))
        worker_ids = itertools.count()

        def next_session():
            with self._lock:
                return next(pending, None)

        def start_worker() -> threading.Thread:
            thread = threading.Thread(
                target=self._worker,
                args=(next_session, errors, workload.traffic),
                name=f"collector-worker-{next(worker_ids)}",
                daemon=True,
            )
            thread.start()
            return thread

        live = {
            start_worker()
            for _ in range(min(len(workload.sessions), self.max_inflight))
        }
        if self.txn_deadline is None:
            for thread in live:
                thread.join()
        else:
            # A wedged adapter call cannot be interrupted from outside, only
            # outwaited: a hung session's (daemon) thread leaves the wait
            # set and a replacement worker takes its slot (exiting at once
            # when no session is pending), so the run completes with its
            # pool intact.
            while live:
                with self._lock:
                    hung = self._abandon_hung()
                for attempt in hung:
                    live.discard(attempt.runner)
                    live.add(start_worker())
                live = {thread for thread in live if thread.is_alive()}
                if live:
                    time.sleep(self._poll)
        if errors:
            raise errors[0]
        return self._close_run()

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------
    def _worker(
        self,
        next_session: Callable[[], Optional[tuple]],
        errors: List[BaseException],
        traffic,
    ) -> None:
        while True:
            item = next_session()
            if item is None:
                return
            session_id, specs = item
            self._run_session(session_id, specs, errors, traffic)
            if session_id in self._abandoned:
                return  # the deadline watch already started the replacement

    def _run_session(
        self,
        session_id: int,
        specs: List[TransactionSpec],
        errors: List[BaseException],
        traffic,
    ) -> None:
        try:
            session = self.adapter.session(session_id)
        except BaseException as exc:  # noqa: BLE001 - reported to collect()
            errors.append(exc)
            return
        runner = threading.current_thread()
        obs.gauge_add("repro_collector_sessions_in_flight", 1)
        try:
            for spec_index, spec in enumerate(specs):
                if traffic is not None:
                    idle = traffic.delay_before(session_id, spec_index)
                    if idle > 0:
                        time.sleep(idle)
                kinds, keys = self._shape(spec)
                delays = None  # built on the first retry: most never retry
                while True:
                    committed, retryable = self._attempt(
                        session, session_id, kinds, keys, runner
                    )
                    if session_id in self._abandoned:
                        # The run stopped waiting on this session; go silent
                        # rather than mutate shared state behind a
                        # completed collect().
                        return
                    if committed or not retryable:
                        break
                    delays = delays or self._retry_delays(session_id, spec_index)
                    with self._lock:
                        delay = self._backoff(delays)
                    if delay is None:
                        break
                    if delay > 0:
                        time.sleep(delay)
        except BaseException as exc:  # noqa: BLE001 - reported to collect()
            errors.append(exc)
        finally:
            obs.gauge_add("repro_collector_sessions_in_flight", -1)
            session.close()

    def _attempt(
        self, session, session_id: int, kinds: List[int], keys: List[str], runner
    ) -> Tuple[bool, bool]:
        """Run one transaction attempt and record it.

        Returns ``(committed, retryable)``: whether the attempt committed,
        and — when it aborted — whether the engine marked the abort as
        worth retrying (permanent failures are recorded but not re-run).
        """
        fail_point("collector.txn.attempt")
        lock = self._lock
        with lock:
            attempt = self._begin(session_id, kinds, keys, runner)
        values = attempt.values
        status = None
        retryable = True
        try:
            session.begin()
            for kind, key in zip(kinds, keys):
                if kind == OP_WRITE:
                    with lock:
                        value = self._next_value(session_id)
                    session.write(key, value)
                else:
                    value = session.read(key)
                    if value is None:  # an absent object reads as ⊥T's value
                        value = self.initial_value
                values.append(value)
            session.commit()
            status = _COMMITTED
        except TransactionAborted as exc:
            session.abort()  # idempotent; most adapters already rolled back
            status = _ABORTED
            retryable = getattr(exc, "retryable", True)
            if retryable:
                obs.inc("repro_collector_retryable_aborts_total")
        finally:
            with lock:
                self._record(attempt, status)
        return status == _COMMITTED, retryable
