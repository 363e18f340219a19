"""Workload execution: interleave sessions against the database simulator
and record the resulting history.

This implements Steps 1–3 of the black-box checking workflow (Figure 2):
clients send transactional requests to the database, record requests and
results, and the per-session logs are combined into one
:class:`~repro.core.model.History` handed to the checker.

Concurrency model
-----------------
The simulator is single-threaded, so concurrency is modelled by a scheduler
that repeatedly picks a runnable session at random and lets it execute the
*next step* of its current transaction (begin, one operation, or commit).
Transactions from different sessions therefore genuinely overlap: they hold
snapshots/locks across other sessions' operations, which is what produces
conflicts, aborts, and retries — more of them for longer (GT) transactions,
as in the paper's Figure 11.

Aborted transactions are retried with fresh unique write values up to
``max_retries`` times, mirroring how real checkers obtain histories with
sufficiently many committed transactions.

For *real* databases (and genuine thread-level concurrency over any
engine), the adapter layer provides the counterpart of this runner:
:class:`repro.adapters.collector.Collector` drives the same workloads
through a :class:`~repro.adapters.base.DatabaseAdapter` on a pool of
session threads, preserving the same recording contract (unique values,
begin/commit intervals, retryable-abort handling, ``on_transaction``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.model import History, Operation, Session, Transaction, TransactionStatus, read, write
from ..db.database import Database
from ..db.errors import TransactionAborted
from .spec import TransactionSpec, Workload

__all__ = ["RunStats", "WorkloadRunner", "run_workload"]


@dataclass
class RunStats:
    """Statistics of one workload execution."""

    committed: int = 0
    aborted: int = 0
    retries: int = 0
    operations: int = 0
    wall_seconds: float = 0.0
    #: Final logical time of the database clock (a proxy for database work).
    logical_time: float = 0.0

    @property
    def abort_rate(self) -> float:
        """Aborted attempts over all finished attempts (committed + aborted)."""
        finished = self.committed + self.aborted
        return self.aborted / finished if finished else 0.0


@dataclass
class _SessionState:
    """Progress of one client session through its workload."""

    session_id: int
    specs: List[TransactionSpec]
    next_spec: int = 0
    current_ctx: Optional[object] = None
    current_spec: Optional[TransactionSpec] = None
    current_ops: List[Operation] = field(default_factory=list)
    next_op: int = 0
    retries_left: int = 0
    session_log: Session = None  # type: ignore[assignment]

    def done(self) -> bool:
        return self.current_spec is None and self.next_spec >= len(self.specs)


class WorkloadRunner:
    """Executes a workload against a database and records the history.

    Args:
        database: the database under test.
        max_retries: how many times an aborted transaction is retried
            (each retry uses fresh unique write values).
        record_aborted: include aborted attempts in the recorded history
            (needed to detect AbortedRead; checkers ignore them otherwise).
        seed: scheduler RNG seed (controls the interleaving).
        on_transaction: live-checking hook, called with every recorded
            transaction (committed and, when ``record_aborted``, aborted) in
            global commit order.  Pass a
            :class:`~repro.core.incremental.CheckerSession` to verify the
            workload while it runs instead of after the fact; any other
            callable (e.g. a
            :class:`~repro.history.serialization.HistoryStreamWriter`)
            works too.
    """

    def __init__(
        self,
        database: Database,
        *,
        max_retries: int = 3,
        record_aborted: bool = True,
        seed: int = 0,
        on_transaction: Optional[Callable[[Transaction], object]] = None,
    ) -> None:
        self.database = database
        self.max_retries = max_retries
        self.record_aborted = record_aborted
        self.seed = seed
        self.on_transaction = on_transaction
        self._value_counter = 0

    # ------------------------------------------------------------------
    def run(self, workload: Workload) -> "RunResult":
        """Execute the workload and return the recorded history and stats."""
        started = time.perf_counter()
        rng = random.Random(self.seed)
        stats = RunStats()

        states: List[_SessionState] = []
        for session_id, specs in enumerate(workload.sessions):
            state = _SessionState(session_id=session_id, specs=list(specs))
            state.session_log = Session(session_id=session_id)
            states.append(state)

        runnable = [s for s in states if not s.done()]
        while runnable:
            state = rng.choice(runnable)
            self._step(state, stats)
            runnable = [s for s in states if not s.done()]

        history = History(
            sessions=[s.session_log for s in states],
        )
        history.ensure_initial_transaction(workload.keys)
        stats.wall_seconds = time.perf_counter() - started
        stats.logical_time = self.database.now()
        return RunResult(history=history, stats=stats)

    # ------------------------------------------------------------------
    def _step(self, state: _SessionState, stats: RunStats) -> None:
        """Execute one step (begin / operation / commit) of a session."""
        db = self.database
        if state.current_spec is None:
            state.current_spec = state.specs[state.next_spec]
            state.next_spec += 1
            state.retries_left = self.max_retries
            self._begin_attempt(state)
            return

        spec = state.current_spec
        ctx = state.current_ctx
        try:
            if state.next_op < len(spec.operations):
                planned = spec.operations[state.next_op]
                state.next_op += 1
                if planned.is_read:
                    value = db.read(ctx, planned.key)
                    state.current_ops.append(read(planned.key, value if value is not None else 0))
                else:
                    value = self._next_value(state.session_id)
                    db.write(ctx, planned.key, value)
                    state.current_ops.append(write(planned.key, value))
                stats.operations += 1
            else:
                commit_ts = db.commit(ctx)
                self._record(state, TransactionStatus.COMMITTED, finish_ts=commit_ts)
                stats.committed += 1
                state.current_spec = None
        except TransactionAborted:
            self._record(state, TransactionStatus.ABORTED, finish_ts=db.now())
            stats.aborted += 1
            if state.retries_left > 0:
                state.retries_left -= 1
                stats.retries += 1
                self._begin_attempt(state)
            else:
                state.current_spec = None

    def _begin_attempt(self, state: _SessionState) -> None:
        state.current_ctx = self.database.begin(state.session_id)
        state.current_ops = []
        state.next_op = 0

    def _record(
        self, state: _SessionState, status: TransactionStatus, finish_ts: float
    ) -> None:
        ctx = state.current_ctx
        if status is TransactionStatus.ABORTED and not self.record_aborted:
            return
        txn = Transaction(
            txn_id=ctx.txn_id,
            operations=list(state.current_ops),
            session_id=state.session_id,
            status=status,
            start_ts=ctx.start_ts,
            finish_ts=finish_ts,
        )
        state.session_log.transactions.append(txn)
        if self.on_transaction is not None:
            self.on_transaction(txn)

    def _next_value(self, session_id: int) -> int:
        """Globally unique write values: client id plus a local counter."""
        self._value_counter += 1
        return session_id * 10_000_000 + self._value_counter


@dataclass
class RunResult:
    """A recorded history plus execution statistics."""

    history: History
    stats: RunStats


def run_workload(
    database: Database,
    workload: Workload,
    *,
    max_retries: int = 3,
    record_aborted: bool = True,
    seed: int = 0,
    on_transaction: Optional[Callable[[Transaction], object]] = None,
) -> RunResult:
    """Convenience wrapper around :class:`WorkloadRunner`."""
    runner = WorkloadRunner(
        database,
        max_retries=max_retries,
        record_aborted=record_aborted,
        seed=seed,
        on_transaction=on_transaction,
    )
    return runner.run(workload)
