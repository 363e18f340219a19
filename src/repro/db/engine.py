"""Abstract isolation engine interface for the database simulator.

Every isolation level supported by :class:`repro.db.Database` is implemented
as an engine exposing ``begin`` / ``read`` / ``write`` / ``commit`` /
``abort``.  Engines share the versioned store and logical clock owned by the
database; they differ in which version a read observes and in the validation
performed at commit time.
"""

from __future__ import annotations

import abc
from typing import Optional

from ..storage.clock import LogicalClock
from ..storage.locks import LockManager
from ..storage.mvcc import VersionedStore
from .transaction import TransactionContext

__all__ = ["IsolationEngine"]


class IsolationEngine(abc.ABC):
    """Base class of the pluggable concurrency-control engines."""

    #: Human-readable engine name used in statistics and error messages.
    name: str = "abstract"

    def __init__(self, store: VersionedStore, clock: LogicalClock, locks: LockManager) -> None:
        self.store = store
        self.clock = clock
        self.locks = locks

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def begin(self, ctx: TransactionContext) -> None:
        """Initialise engine-specific state for a new transaction."""
        ctx.snapshot_ts = self.clock.now()

    @abc.abstractmethod
    def read(self, ctx: TransactionContext, key: str) -> Optional[int]:
        """Read ``key`` on behalf of ``ctx``; may raise ``TransactionAborted``."""

    @abc.abstractmethod
    def write(self, ctx: TransactionContext, key: str, value: int) -> None:
        """Buffer a write of ``key`` on behalf of ``ctx``."""

    @abc.abstractmethod
    def prepare_commit(self, ctx: TransactionContext) -> None:
        """Validate the transaction; raise ``TransactionAborted`` to reject it."""

    def apply_commit(self, ctx: TransactionContext, commit_ts: float) -> None:
        """Install the transaction's writes at ``commit_ts``."""
        for key, value in ctx.write_set.items():
            self.store.install(key, value, commit_ts, ctx.txn_id)

    def cleanup(self, ctx: TransactionContext) -> None:
        """Release engine resources after commit or abort: the locks the
        transaction took, if it took any (only the lock-based engine does)."""
        if ctx.keys_locked:
            self.locks.release_all(ctx.txn_id, ctx.keys_locked)

    # ------------------------------------------------------------------
    # Helpers shared by snapshot-based engines
    # ------------------------------------------------------------------
    def _read_own_write(self, ctx: TransactionContext, key: str) -> Optional[int]:
        """Return the transaction's own buffered write for ``key``, if any."""
        return ctx.write_set.get(key)
