"""The transactional key-value database simulator.

This is the "black box" the workload runners stress: an in-memory,
single-process database with pluggable isolation engines (snapshot
isolation, optimistic serializable, strict two-phase locking, read
committed) and optional fault injection.  Clients interact through the
usual ``begin`` / ``read`` / ``write`` / ``commit`` / ``abort`` interface
and only observe operation results and abort errors — exactly the
information that ends up in a recorded history.

The simulator is single-threaded; concurrency comes from the workload
runner interleaving the sessions' operations.  A logical clock advances on
every database call, and transaction begin/commit times are expressed in
that clock, providing the real-time order needed for SSER checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

from ..core.result import IsolationLevel
from ..storage.clock import LogicalClock
from ..storage.locks import LockManager
from ..storage.mvcc import VersionedStore
from .engine import IsolationEngine
from .errors import TransactionAborted, TransactionStateError
from .faults import FaultPlan, FaultyEngine
from .rc import ReadCommittedEngine
from .s2pl import StrictTwoPhaseLockingEngine
from .ser import SerializableEngine
from .si import SnapshotIsolationEngine
from .transaction import TransactionContext, TxnState

__all__ = ["Database", "DatabaseStats", "ENGINE_REGISTRY", "engine_for_level"]

_ACTIVE = TxnState.ACTIVE


#: Registry of engine names to engine classes.
ENGINE_REGISTRY = {
    "si": SnapshotIsolationEngine,
    "snapshot-isolation": SnapshotIsolationEngine,
    "serializable": SerializableEngine,
    "ser": SerializableEngine,
    "occ": SerializableEngine,
    "s2pl": StrictTwoPhaseLockingEngine,
    "sser": StrictTwoPhaseLockingEngine,
    "read-committed": ReadCommittedEngine,
    "rc": ReadCommittedEngine,
}


def engine_for_level(level: IsolationLevel) -> str:
    """Default engine name for an isolation level."""
    return {
        IsolationLevel.READ_COMMITTED: "read-committed",
        IsolationLevel.SNAPSHOT_ISOLATION: "si",
        IsolationLevel.SERIALIZABILITY: "serializable",
        IsolationLevel.STRICT_SERIALIZABILITY: "s2pl",
        IsolationLevel.LINEARIZABILITY: "s2pl",
    }[level]


@dataclass
class DatabaseStats:
    """Counters the experiments report on (abort rates, operation counts)."""

    begun: int = 0
    committed: int = 0
    aborted: int = 0
    reads: int = 0
    writes: int = 0
    injected_anomalies: Dict[str, int] = field(default_factory=dict)

    @property
    def abort_rate(self) -> float:
        """Fraction of finished transactions that aborted."""
        finished = self.committed + self.aborted
        return self.aborted / finished if finished else 0.0


class Database:
    """An in-memory transactional KV store with a pluggable isolation engine.

    Args:
        isolation: engine name (see :data:`ENGINE_REGISTRY`) or an
            :class:`~repro.core.result.IsolationLevel`.
        keys: objects to pre-populate with ``initial_value`` (the ``⊥T``
            writes); objects may also be created lazily by writes.
        initial_value: value installed for each pre-populated object.
        faults: optional :class:`~repro.db.faults.FaultPlan` turning the
            database into a buggy one.
        operation_cost: logical-clock ticks consumed by each operation;
            commit consumes one extra tick.
    """

    def __init__(
        self,
        isolation: Union[str, IsolationLevel] = "si",
        *,
        keys: Optional[Iterable[str]] = None,
        initial_value: int = 0,
        faults: Optional[FaultPlan] = None,
        operation_cost: float = 1.0,
    ) -> None:
        if isinstance(isolation, IsolationLevel):
            isolation = engine_for_level(isolation)
        if isolation not in ENGINE_REGISTRY:
            raise ValueError(
                f"unknown isolation engine {isolation!r}; known: {sorted(ENGINE_REGISTRY)}"
            )
        self.isolation_name = isolation
        self.clock = LogicalClock()
        self.store = VersionedStore()
        self.locks = LockManager()
        engine: IsolationEngine = ENGINE_REGISTRY[isolation](self.store, self.clock, self.locks)
        if faults is not None and faults.any_enabled:
            engine = FaultyEngine(engine, faults)
        self.engine = engine
        self.operation_cost = operation_cost
        self.stats = DatabaseStats()
        self._next_txn_id = 1
        self._active: Dict[int, TransactionContext] = {}
        if keys is not None:
            self.store.load_initial(keys, value=initial_value)

    # ------------------------------------------------------------------
    # Client interface
    # ------------------------------------------------------------------
    def begin(self, session_id: int = 0) -> TransactionContext:
        """Start a new transaction on behalf of ``session_id``."""
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        start_ts = self.clock.tick(self.operation_cost)
        ctx = TransactionContext(txn_id=txn_id, session_id=session_id, start_ts=start_ts)
        self.engine.begin(ctx)
        self._active[txn_id] = ctx
        self.stats.begun += 1
        return ctx

    def read(self, ctx: TransactionContext, key: str) -> Optional[int]:
        """Read ``key``; returns ``None`` when the object does not exist."""
        if ctx.state is not _ACTIVE:
            self._require_active(ctx)
        self.clock.tick(self.operation_cost)
        self.stats.reads += 1
        try:
            return self.engine.read(ctx, key)
        except TransactionAborted:
            self._finish_abort(ctx)
            raise

    def write(self, ctx: TransactionContext, key: str, value: int) -> None:
        """Buffer a write of ``value`` to ``key``."""
        if ctx.state is not _ACTIVE:
            self._require_active(ctx)
        self.clock.tick(self.operation_cost)
        self.stats.writes += 1
        try:
            self.engine.write(ctx, key, value)
        except TransactionAborted:
            self._finish_abort(ctx)
            raise

    def commit(self, ctx: TransactionContext) -> float:
        """Commit the transaction; returns the commit timestamp.

        Raises :class:`TransactionAborted` when validation fails, in which
        case the transaction is rolled back.
        """
        if ctx.state is not _ACTIVE:
            self._require_active(ctx)
        try:
            self.engine.prepare_commit(ctx)
        except TransactionAborted:
            self._finish_abort(ctx)
            raise
        commit_ts = self.clock.tick(self.operation_cost)
        ctx.commit_ts = commit_ts
        self.engine.apply_commit(ctx, commit_ts)
        self.engine.cleanup(ctx)
        ctx.state = TxnState.COMMITTED
        self._active.pop(ctx.txn_id, None)
        self.stats.committed += 1
        return commit_ts

    def abort(self, ctx: TransactionContext) -> None:
        """Abort the transaction at the client's request."""
        if not ctx.is_active:
            return
        self._finish_abort(ctx)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def committed_value(self, key: str) -> Optional[int]:
        """The latest committed value of ``key`` (for tests and examples)."""
        version = self.store.latest(key)
        return version.value if version else None

    def now(self) -> float:
        return self.clock.now()

    @property
    def injected_anomalies(self) -> Dict[str, int]:
        """Defects the fault injector actually fired (empty for a correct DB)."""
        if isinstance(self.engine, FaultyEngine):
            return dict(self.engine.injections)
        return {}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_active(self, ctx: TransactionContext) -> None:
        if not ctx.is_active:
            raise TransactionStateError(
                f"transaction T{ctx.txn_id} is {ctx.state.value}; expected active"
            )

    def _finish_abort(self, ctx: TransactionContext) -> None:
        abort_ts = self.clock.tick(self.operation_cost)
        if isinstance(self.engine, FaultyEngine):
            self.engine.apply_abort(ctx, abort_ts)
        self.engine.cleanup(ctx)
        ctx.state = TxnState.ABORTED
        self._active.pop(ctx.txn_id, None)
        self.stats.aborted += 1
        self.stats.injected_anomalies = self.injected_anomalies
