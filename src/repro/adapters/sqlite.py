"""A real database behind the adapter protocol: stdlib ``sqlite3``.

SQLite is the one genuinely independent transactional engine every CI
machine already has, which makes it the zero-dependency way to exercise the
*end-to-end* claim: mini-transaction workloads run over a real client
protocol against a real storage engine, and only the observed history
reaches the checker.

Engine characteristics that matter for checking:

* SQLite serializes writers (one write transaction at a time), so histories
  collected from a healthy SQLite satisfy serializability — and strict
  serializability, since commits are totally ordered in real time.
* ``BEGIN IMMEDIATE`` takes the write lock up front: conflicts surface as
  ``database is locked`` at ``begin``.  ``BEGIN DEFERRED`` takes locks
  lazily: conflicts surface mid-transaction or at commit.  Both are mapped
  onto the retryable-abort path by
  :func:`repro.db.errors.retryable_sqlite_abort`.
* WAL mode allows readers to proceed concurrently with one writer; rollback
  journal mode serializes more coarsely.  Both modes are supported so the
  end-to-end suite can exercise either.

Each :class:`SQLiteSession` owns one connection in autocommit mode
(``isolation_level=None``) and drives transactions explicitly, so the
recorded begin/commit points are the ones the engine actually saw.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
from typing import Iterable, Optional

from ..db.errors import retryable_sqlite_abort
from ..resilience import RetryPolicy
from ..resilience.failpoints import FailpointError, fail_point
from .base import (
    AdapterAborted,
    AdapterCapabilities,
    AdapterSession,
    AdapterStateError,
    DatabaseAdapter,
)

__all__ = ["SQLiteAdapter", "SQLiteSession"]

_BEGIN_MODES = ("immediate", "deferred")


class SQLiteSession(AdapterSession):
    """One SQLite connection driving explicit transactions."""

    def __init__(self, path: str, *, mode: str, busy_timeout_ms: int) -> None:
        # One connection per session, created in the thread that uses it.
        self._conn = sqlite3.connect(path, timeout=busy_timeout_ms / 1000.0)
        self._conn.isolation_level = None  # autocommit: we issue BEGIN ourselves
        self._conn.execute(f"PRAGMA busy_timeout = {int(busy_timeout_ms)}")
        self._mode = mode
        self._in_txn = False

    def begin(self) -> None:
        if self._in_txn:
            raise AdapterStateError("begin() inside an open transaction")
        self._execute(f"BEGIN {self._mode.upper()}")
        self._in_txn = True

    def read(self, key: str) -> Optional[int]:
        self._require_txn("read")
        row = self._execute("SELECT value FROM kv WHERE key = ?", (key,)).fetchone()
        return None if row is None else int(row[0])

    def write(self, key: str, value: int) -> None:
        self._require_txn("write")
        self._execute(
            "INSERT INTO kv (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value),
        )

    def commit(self) -> None:
        self._require_txn("commit")
        try:
            # The chaos hook: an armed ``sqlite.commit`` rule surfaces as a
            # retryable abort below, exercising the collector's real
            # backoff-and-retry path against a real engine.
            fail_point("sqlite.commit")
            self._execute("COMMIT")
        except FailpointError as exc:
            self.abort()
            self._in_txn = False
            raise AdapterAborted(f"injected commit failure: {exc}") from exc
        except Exception:
            self.abort()
            raise
        self._in_txn = False

    def abort(self) -> None:
        if not self._in_txn:
            return
        self._in_txn = False
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.OperationalError:
            pass  # the failed statement already rolled the transaction back

    def close(self) -> None:
        self.abort()
        self._conn.close()

    # ------------------------------------------------------------------
    def _execute(self, sql: str, params: tuple = ()):  # type: ignore[type-arg]
        try:
            return self._conn.execute(sql, params)
        except sqlite3.OperationalError as exc:
            abort = retryable_sqlite_abort(exc)
            if abort is None:
                raise
            # Lock contention: roll back and surface as a retryable abort,
            # mirroring the simulator's conflict-abort handling.
            self.abort()
            raise AdapterAborted(abort.reason) from exc

    def _require_txn(self, op: str) -> None:
        if not self._in_txn:
            raise AdapterStateError(f"{op}() outside a transaction")


class SQLiteAdapter(DatabaseAdapter):
    """KV adapter over a SQLite database file.

    Args:
        path: database file; ``None`` creates (and owns) a temp file, removed
            by :meth:`teardown`.  ``:memory:`` is rejected — in-memory SQLite
            databases are per-connection, so sessions would not share state.
        mode: ``"immediate"`` (write lock at begin) or ``"deferred"``.
        wal: enable write-ahead logging (readers proceed under one writer).
        busy_timeout_ms: how long a session waits on a lock before the
            engine reports busy and the operation becomes a retryable abort.
    """

    #: Admin statements (schema, setup, teardown reads) run outside the
    #: recorded history, so a busy engine is retried here with backoff
    #: rather than surfacing to the workload as a spurious failure.
    busy_retry = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.25, seed=0)

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        mode: str = "immediate",
        wal: bool = False,
        busy_timeout_ms: int = 2_000,
    ) -> None:
        if mode not in _BEGIN_MODES:
            raise ValueError(f"mode must be one of {_BEGIN_MODES}, got {mode!r}")
        if path == ":memory:":
            raise ValueError("in-memory SQLite databases cannot be shared across sessions")
        self._owns_path = path is None
        if path is None:
            fd, path = tempfile.mkstemp(prefix="repro-e2e-", suffix=".sqlite3")
            os.close(fd)
        self.path = path
        self.mode = mode
        self.wal = wal
        self.busy_timeout_ms = busy_timeout_ms
        self._admin(
            "CREATE TABLE IF NOT EXISTS kv (key TEXT PRIMARY KEY, value INTEGER NOT NULL)"
        )

    def capabilities(self) -> AdapterCapabilities:
        return AdapterCapabilities(
            name=f"sqlite[{self.mode}{',wal' if self.wal else ''}]",
            # Writers are serialized and commits are real-time ordered.
            isolation_levels=("SER", "SI", "SSER"),
            concurrent_sessions=True,
            real_time=True,
        )

    def session(self, session_id: int) -> SQLiteSession:
        return SQLiteSession(
            self.path, mode=self.mode, busy_timeout_ms=self.busy_timeout_ms
        )

    def setup(self, keys: Iterable[str], initial_value: int = 0) -> None:
        self._admin(
            "INSERT INTO kv (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            many=[(key, initial_value) for key in keys],
        )

    def teardown(self) -> None:
        if self._owns_path and os.path.exists(self.path):
            os.remove(self.path)
            for suffix in ("-wal", "-shm"):
                leftover = self.path + suffix
                if os.path.exists(leftover):
                    os.remove(leftover)

    def committed_value(self, key: str) -> Optional[int]:
        row = self._admin("SELECT value FROM kv WHERE key = ?", (key,), fetch=True)
        return None if row is None else int(row[0])

    # ------------------------------------------------------------------
    def _admin(self, sql: str, params: tuple = (), *, many=None, fetch: bool = False):
        """Run one administrative statement on a fresh, promptly-closed
        connection (the journal-mode pragma is applied here, once per file).
        Busy/locked errors are retried with backoff (``busy_retry``)."""
        return self.busy_retry.run(
            lambda: self._admin_once(sql, params, many=many, fetch=fetch),
            retry_on=sqlite3.OperationalError,
            should_retry=lambda exc: retryable_sqlite_abort(exc) is not None,
            component="sqlite_admin",
        )

    def _admin_once(self, sql: str, params: tuple, *, many, fetch: bool):
        conn = sqlite3.connect(self.path, timeout=self.busy_timeout_ms / 1000.0)
        try:
            journal = "WAL" if self.wal else "DELETE"
            conn.execute(f"PRAGMA journal_mode = {journal}")
            with conn:  # one transaction around the statement
                if many is not None:
                    conn.executemany(sql, many)
                    return None
                cursor = conn.execute(sql, params)
                return cursor.fetchone() if fetch else None
        finally:
            conn.close()
