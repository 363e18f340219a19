"""Async database adapters: the coroutine face of the adapter protocol.

A client library that speaks ``await`` needs no thread per in-flight
session: :class:`~repro.adapters.acollector.AsyncCollector` multiplexes
sessions as coroutines on one event loop, and this module supplies the
protocol it drives:

* :class:`AsyncAdapterSession` / :class:`AsyncDatabaseAdapter` — the
  ``await``-able mirror of :class:`~repro.adapters.base.AdapterSession` /
  :class:`~repro.adapters.base.DatabaseAdapter`.
* :class:`AsyncSimulatedAdapter` — the one adapter over the in-process
  simulator.  The event loop serializes all sessions' calls by
  construction (no lock needed); with ``op_delay > 0`` each operation
  yields to the loop afterwards, so transactions from different coroutines
  interleave mid-flight — the serial runner's "concurrency = interleaving
  of atomic steps" model, driven by the collector.

Nothing adapts the sync protocol to this one.  Hopping every adapter call
onto a per-session thread and back was slower than running the session on
that thread (up to 1.75× on SQLite; table in docs/ARCHITECTURE.md), so a
sync :class:`~repro.adapters.base.DatabaseAdapter` is driven by the
threaded :class:`~repro.adapters.collector.Collector` and
:func:`repro.adapters.collect_history` picks by adapter kind.  Chaos has a
face on each side (:mod:`repro.adapters.chaos`).
"""

from __future__ import annotations

import abc
import asyncio
from typing import Iterable, Optional, Union

from ..core.result import IsolationLevel
from ..db.database import Database
from ..db.errors import TransactionAborted
from ..db.faults import FaultPlan, FaultyEngine
from .base import AdapterAborted, AdapterCapabilities, AdapterStateError

__all__ = [
    "AsyncAdapterSession",
    "AsyncDatabaseAdapter",
    "AsyncSimulatedAdapter",
    "AsyncSimulatedSession",
]

#: Levels histories from each (correct) engine are expected to satisfy.
_ENGINE_LEVELS = {
    "si": ("SI",),
    "snapshot-isolation": ("SI",),
    "serializable": ("SER", "SI"),
    "ser": ("SER", "SI"),
    "occ": ("SER", "SI"),
    "s2pl": ("SSER", "SER", "SI"),
    "sser": ("SSER", "SER", "SI"),
    "read-committed": (),
    "rc": (),
}


class AsyncAdapterSession(abc.ABC):
    """One client session driving transactions with coroutines.

    The contract mirrors :class:`~repro.adapters.base.AdapterSession`
    verbatim — including the abort-on-failure and idempotent-abort rules —
    with every call awaitable.  A session is owned by one coroutine and is
    not safe for concurrent awaits.
    """

    @abc.abstractmethod
    async def begin(self) -> None:
        """Start a transaction."""

    @abc.abstractmethod
    async def read(self, key: str) -> Optional[int]:
        """Read ``key`` inside the open transaction (``None`` = absent)."""

    @abc.abstractmethod
    async def write(self, key: str, value: int) -> None:
        """Write ``key`` inside the open transaction."""

    @abc.abstractmethod
    async def commit(self) -> None:
        """Commit; raises :class:`~repro.db.errors.TransactionAborted`
        (usually :class:`~repro.adapters.base.AdapterAborted`) on failure."""

    @abc.abstractmethod
    async def abort(self) -> None:
        """Roll back the open transaction (idempotent)."""

    async def aclose(self) -> None:
        """Release the session's resources (default: abort leftovers)."""
        await self.abort()


class AsyncDatabaseAdapter(abc.ABC):
    """Factory of async sessions over one logical database."""

    @abc.abstractmethod
    def capabilities(self) -> AdapterCapabilities:
        """Static description of the adapter (shared with the sync side)."""

    @abc.abstractmethod
    async def session(self, session_id: int) -> AsyncAdapterSession:
        """Open the session for client ``session_id``."""

    async def setup(self, keys: Iterable[str], initial_value: int = 0) -> None:
        """Install the initial value for each key (the history's ``⊥T``)."""

    async def teardown(self) -> None:
        """Release adapter-owned resources (temp files, engines)."""

    async def __aenter__(self) -> "AsyncDatabaseAdapter":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.teardown()


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------
class AsyncSimulatedSession(AsyncAdapterSession):
    """One simulator session; calls run inline on the event loop thread."""

    def __init__(
        self, database: Database, session_id: int, op_delay: float = 0.0
    ) -> None:
        self._db = database
        self._session_id = session_id
        self._op_delay = op_delay
        self._ctx = None

    async def begin(self) -> None:
        if self._ctx is not None:
            raise AdapterStateError("begin() inside an open transaction")
        self._ctx = self._db.begin(self._session_id)
        if self._op_delay > 0.0:
            # Modeled latency: yield right after the snapshot is taken so
            # other live coroutines begin/commit before this transaction
            # finishes — transactions genuinely overlap (and conflict).
            # With zero modeled latency nothing ever *waits*, and a
            # cooperative scheduler that has nothing to wait for runs the
            # transaction straight through: no gratuitous task switch, no
            # context save/restore.
            await asyncio.sleep(self._op_delay)

    async def read(self, key: str) -> Optional[int]:
        ctx = self._ctx
        if ctx is None:
            self._no_txn("read")
        try:
            value = self._db.read(ctx, key)
        except TransactionAborted as exc:
            self._aborted(exc)
        if self._op_delay > 0.0:
            await asyncio.sleep(self._op_delay)
        return value

    async def write(self, key: str, value: int) -> None:
        ctx = self._ctx
        if ctx is None:
            self._no_txn("write")
        try:
            self._db.write(ctx, key, value)
        except TransactionAborted as exc:
            self._aborted(exc)
        if self._op_delay > 0.0:
            await asyncio.sleep(self._op_delay)

    async def commit(self) -> None:
        ctx = self._ctx
        if ctx is None:
            self._no_txn("commit")
        try:
            self._db.commit(ctx)
        except TransactionAborted as exc:
            self._aborted(exc)
        self._ctx = None

    async def abort(self) -> None:
        ctx, self._ctx = self._ctx, None
        if ctx is not None:
            self._db.abort(ctx)

    # ------------------------------------------------------------------
    @staticmethod
    def _no_txn(op: str) -> None:
        raise AdapterStateError(f"{op}() outside a transaction")

    def _aborted(self, exc: TransactionAborted) -> None:
        # The database already rolled the transaction back; re-badge the
        # abort so protocol-level callers can catch AdapterAborted too.
        self._ctx = None
        raise AdapterAborted(exc.reason, exc.txn_id) from exc


class AsyncSimulatedAdapter(AsyncDatabaseAdapter):
    """The adapter over the in-process simulator: every engine (SI,
    serializable, S2PL, read committed) and every
    :class:`~repro.db.faults.FaultPlan` behind the coroutine protocol.

    Single-threaded by construction: every engine call runs on the event
    loop thread, so no lock is needed and none is taken — which is why
    coroutine collection ran 2.4–10× faster than the threaded adapter this
    one replaced (no lock convoy, no thread scheduling; tables in
    docs/ARCHITECTURE.md).  Wrap it in
    :class:`~repro.adapters.chaos.AsyncChaosAdapter` for protocol faults.

    Args:
        isolation: engine name or :class:`~repro.core.result.IsolationLevel`
            (as accepted by :class:`~repro.db.database.Database`).
        faults: optional fault plan making the simulated database buggy.
        database: supply a pre-built database instead (overrides the other
            arguments); useful for tests that inspect engine state.
        op_delay: seconds each operation takes to "return" (an
            ``asyncio.sleep``, so other coroutines run meanwhile) —
            models per-operation client latency and makes transactions of
            different sessions overlap (conflicts, aborts, fault-injection
            opportunities).  0 disables it.
    """

    def __init__(
        self,
        isolation: Union[str, IsolationLevel] = "si",
        *,
        faults: Optional[FaultPlan] = None,
        database: Optional[Database] = None,
        op_delay: float = 0.0,
    ) -> None:
        self.database = (
            database if database is not None else Database(isolation, faults=faults)
        )
        self.op_delay = op_delay

    def capabilities(self) -> AdapterCapabilities:
        name = self.database.isolation_name
        faulty = isinstance(self.database.engine, FaultyEngine)
        return AdapterCapabilities(
            name=f"simulated[{name}{',faulty' if faulty else ''}]",
            isolation_levels=() if faulty else _ENGINE_LEVELS.get(name, ()),
            concurrent_sessions=True,  # coroutines; calls serialized by the loop
            real_time=True,
        )

    async def session(self, session_id: int) -> AsyncSimulatedSession:
        return AsyncSimulatedSession(self.database, session_id, self.op_delay)

    async def setup(self, keys: Iterable[str], initial_value: int = 0) -> None:
        self.database.store.load_initial(keys, value=initial_value)

    def committed_value(self, key: str) -> Optional[int]:
        return self.database.committed_value(key)
