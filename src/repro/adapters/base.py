"""The database-adapter protocol: one client interface over any engine.

The paper's pipeline is *end-to-end*: workloads execute against a real
database over its client protocol, the observed requests/results become a
history, and the checker never sees anything the client did not.  This
module defines the seam that makes the rest of the repository
database-agnostic:

* a :class:`DatabaseAdapter` hands out per-session :class:`AdapterSession`
  objects (one client connection each) and advertises
  :class:`AdapterCapabilities`;
* an :class:`AdapterSession` speaks the minimal transactional KV protocol —
  ``begin`` / ``read`` / ``write`` / ``commit`` / ``abort`` — which is all a
  mini-transaction workload needs;
* :class:`AdapterError` / :class:`AdapterAborted` form the error taxonomy.
  :class:`AdapterAborted` subclasses the simulator's
  :class:`~repro.db.errors.TransactionAborted`, so the retry loop in the
  concurrent :class:`~repro.adapters.collector.Collector` and the serial
  :class:`~repro.workloads.runner.WorkloadRunner` treat a SQLite busy
  timeout, an OCC validation failure, and an injected chaos abort the same
  way.

Concrete adapters: :class:`~repro.adapters.sqlite.SQLiteAdapter` (a real
engine, stdlib only) and :class:`~repro.adapters.chaos.ChaosAdapter`
(protocol-boundary fault injection over any sync adapter).  The in-process
engines of :mod:`repro.db` speak the coroutine mirror of this protocol
(:class:`~repro.adapters.aio.AsyncSimulatedAdapter`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ..db.errors import TransactionAborted

__all__ = [
    "AdapterError",
    "AdapterAborted",
    "AdapterStateError",
    "AdapterCapabilities",
    "AdapterSession",
    "DatabaseAdapter",
]


class AdapterError(Exception):
    """Base class for errors crossing the adapter protocol boundary."""


class AdapterAborted(AdapterError, TransactionAborted):
    """The engine aborted the transaction; the client may retry.

    Inherits :class:`~repro.db.errors.TransactionAborted` so one ``except``
    clause covers simulator conflict aborts surfacing through
    :class:`~repro.adapters.aio.AsyncSimulatedAdapter` and real-engine
    aborts (SQLite busy/locked, serialization failures) alike.
    """

    def __init__(self, reason: str, txn_id: int = -1, *, retryable: bool = True) -> None:
        TransactionAborted.__init__(self, txn_id, reason)
        self.retryable = retryable


class AdapterStateError(AdapterError):
    """The protocol was used out of order (e.g. a read outside a transaction)."""


@dataclass(frozen=True)
class AdapterCapabilities:
    """What an adapter's engine can do — consulted before collection.

    Attributes:
        name: engine identifier for logs and benchmark rows.
        isolation_levels: short names of the isolation levels histories
            collected from this adapter are expected to satisfy (strongest
            guarantees the engine provides), e.g. ``("SER", "SI")``.
        concurrent_sessions: whether sessions may run at once (the
            simulator interleaves coroutine sessions on one thread; real
            engines genuinely run them in parallel).
        real_time: whether collected begin/commit intervals are meaningful
            for SSER checking.
    """

    name: str
    isolation_levels: Tuple[str, ...] = ()
    concurrent_sessions: bool = True
    real_time: bool = True

    def supports(self, level_short_name: str) -> bool:
        """Whether histories from this engine should satisfy the level."""
        return level_short_name.upper() in self.isolation_levels


class AdapterSession(abc.ABC):
    """One client session: a sequence of transactions over one connection.

    A session is *not* thread-safe; the collector drives each session from
    exactly one thread.  Implementations must raise :class:`AdapterAborted`
    (or any :class:`~repro.db.errors.TransactionAborted`) when the engine
    rejects the transaction, after rolling the transaction back — the caller
    only retries, it never cleans up.
    """

    @abc.abstractmethod
    def begin(self) -> None:
        """Start a transaction."""

    @abc.abstractmethod
    def read(self, key: str) -> Optional[int]:
        """Read ``key`` inside the current transaction (``None`` = absent)."""

    @abc.abstractmethod
    def write(self, key: str, value: int) -> None:
        """Write ``value`` to ``key`` inside the current transaction."""

    @abc.abstractmethod
    def commit(self) -> None:
        """Commit the current transaction (raises on conflict)."""

    @abc.abstractmethod
    def abort(self) -> None:
        """Roll back the current transaction (idempotent)."""

    def close(self) -> None:
        """Release the session's connection (default: nothing to release)."""

    # ------------------------------------------------------------------
    def __enter__(self) -> "AdapterSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class DatabaseAdapter(abc.ABC):
    """Factory of sessions over one database instance.

    Lifecycle: ``setup(keys)`` installs the initial values (the ``⊥T``
    writes), ``session(session_id)`` creates client sessions — safe to call
    from the thread that will use the session — and ``teardown()`` releases
    the database.  Adapters are usable as context managers.
    """

    @abc.abstractmethod
    def capabilities(self) -> AdapterCapabilities:
        """Describe the engine behind this adapter."""

    @abc.abstractmethod
    def session(self, session_id: int) -> AdapterSession:
        """Open a new client session (one connection per session)."""

    def setup(self, keys: Iterable[str], initial_value: int = 0) -> None:
        """Install ``initial_value`` for each key (default: no-op)."""

    def teardown(self) -> None:
        """Release database resources (default: no-op)."""

    def committed_value(self, key: str) -> Optional[int]:  # pragma: no cover - optional
        """The latest committed value of ``key``, when introspectable."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def __enter__(self) -> "DatabaseAdapter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.teardown()
