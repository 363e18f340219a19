"""Exceptions raised by the transactional database simulator.

:class:`TransactionAborted` doubles as the *retryable-abort* contract shared
with the real-database adapters (:mod:`repro.adapters`): any engine —
simulated or real — signals "this transaction lost a conflict, retry it with
fresh values" by raising it (or a subclass), and both the serial
:class:`~repro.workloads.runner.WorkloadRunner` and the concurrent
:class:`~repro.adapters.collector.Collector` handle it identically.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "DatabaseError",
    "TransactionAborted",
    "TransactionStateError",
    "SQLITE_RETRYABLE_MARKERS",
    "retryable_sqlite_abort",
]


class DatabaseError(Exception):
    """Base class for simulator errors."""


class TransactionAborted(DatabaseError):
    """The database aborted the transaction (conflict, lock conflict, ...).

    Mirrors the serialization-failure / deadlock errors a production database
    returns to the client, which the workload runner handles by retrying.
    """

    #: Whether the client should retry the transaction (with fresh unique
    #: write values).  Conflict aborts are retryable by definition; subclasses
    #: may override for permanent failures.
    retryable = True

    def __init__(self, txn_id: int, reason: str) -> None:
        super().__init__(f"transaction T{txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


class TransactionStateError(DatabaseError):
    """An operation was issued on a transaction in the wrong state
    (e.g. reading after commit)."""


#: Substrings of ``sqlite3.OperationalError`` messages that signal lock /
#: busy contention — transient conflicts a client resolves by retrying, the
#: exact counterpart of the simulator's conflict aborts.  State errors
#: ("cannot start a transaction within a transaction", ...) are deliberately
#: absent: retrying cannot fix a protocol bug, so they must propagate.
SQLITE_RETRYABLE_MARKERS = (
    "database is locked",
    "database table is locked",
    "database is busy",
    "busy",
)


def retryable_sqlite_abort(exc: BaseException) -> Optional[TransactionAborted]:
    """Map a SQLite busy/locked error onto the retryable-abort path.

    Returns a :class:`TransactionAborted` carrying the original message when
    ``exc`` is a lock-contention ``sqlite3.OperationalError`` (so collector
    retries mirror simulator abort handling), or ``None`` for errors that
    must propagate (corruption, misuse, syntax, ...).
    """
    import sqlite3  # stdlib; imported lazily to keep the simulator sqlite-free

    if not isinstance(exc, sqlite3.OperationalError):
        return None
    message = str(exc).lower()
    if any(marker in message for marker in SQLITE_RETRYABLE_MARKERS):
        abort = TransactionAborted(-1, f"sqlite: {exc}")  # the driver error names no transaction
        abort.__cause__ = exc
        return abort
    return None
