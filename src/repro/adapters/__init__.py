"""Database adapters and the concurrent collection pipeline.

This subpackage is the *end-to-end* layer of the reproduction: it executes
mini-transaction workloads against real databases (not only the in-process
simulator) over a generic client protocol, records what the clients
observed — unique write values, real-time begin/commit intervals — and
hands the resulting history to :class:`~repro.core.checker.MTChecker`.

* :mod:`repro.adapters.base` — the :class:`DatabaseAdapter` /
  :class:`AdapterSession` protocol and the :class:`AdapterError` taxonomy;
* :mod:`repro.adapters.sqlite` — a real engine via stdlib ``sqlite3``;
* :mod:`repro.adapters.simulated` — the simulator's engines (and fault
  plans) behind the same protocol;
* :mod:`repro.adapters.chaos` — protocol-boundary fault injection for
  true-positive detections against healthy engines;
* :mod:`repro.adapters.collector` — the session driver for sync adapters
  (a bounded pool of threads);
* :mod:`repro.adapters.aio` / :mod:`repro.adapters.acollector` — the
  coroutine adapter protocol and the session driver for adapters that
  speak it.

Use :func:`make_adapter` to construct adapters by name (the CLI's
``repro collect --adapter ...`` resolves through it) and
:func:`collect_history` to run a workload through the collector the
adapter calls for.
"""

from __future__ import annotations

from typing import Optional

from .base import (
    AdapterAborted,
    AdapterCapabilities,
    AdapterError,
    AdapterSession,
    AdapterStateError,
    DatabaseAdapter,
)
from .chaos import CHAOS_FAULTS, ChaosAdapter, ChaosPlan, ChaosSession
from .collector import (
    CollectionResult,
    Collector,
    CollectorBase,
    ThreadSafeClock,
)
from .simulated import SimulatedAdapter, SimulatedSession
from .sqlite import SQLiteAdapter, SQLiteSession
from .aio import (
    AsyncAdapterSession,
    AsyncDatabaseAdapter,
    AsyncSimulatedAdapter,
    AsyncSimulatedSession,
)
from .acollector import AsyncCollectionResult, AsyncCollector

__all__ = [
    "ADAPTER_NAMES",
    "AdapterAborted",
    "AdapterCapabilities",
    "AdapterError",
    "AdapterSession",
    "AdapterStateError",
    "AsyncAdapterSession",
    "AsyncCollectionResult",
    "AsyncCollector",
    "AsyncDatabaseAdapter",
    "AsyncSimulatedAdapter",
    "AsyncSimulatedSession",
    "CHAOS_FAULTS",
    "ChaosAdapter",
    "ChaosPlan",
    "ChaosSession",
    "CollectionResult",
    "Collector",
    "CollectorBase",
    "DatabaseAdapter",
    "SQLiteAdapter",
    "SQLiteSession",
    "SimulatedAdapter",
    "SimulatedSession",
    "ThreadSafeClock",
    "collect_history",
    "make_adapter",
]

#: Adapter names resolvable by :func:`make_adapter` (and the CLI).
ADAPTER_NAMES = ("sqlite", "simulated")


def make_adapter(
    name: str,
    *,
    isolation: str = "si",
    faults=None,
    path: Optional[str] = None,
    mode: str = "immediate",
    wal: bool = False,
    busy_timeout_ms: int = 2_000,
    chaos: Optional[str] = None,
    chaos_rate: float = 0.2,
    seed: int = 0,
) -> DatabaseAdapter:
    """Build an adapter by name, optionally wrapped in a :class:`ChaosAdapter`.

    Args:
        name: ``"sqlite"`` or ``"simulated"`` (see :data:`ADAPTER_NAMES`).
        isolation: simulated only — engine name for the simulator.
        faults: simulated only — a :class:`~repro.db.faults.FaultPlan`.
        path / mode / wal / busy_timeout_ms: sqlite only — see
            :class:`~repro.adapters.sqlite.SQLiteAdapter`.
        chaos: optional protocol fault to inject (see
            :data:`~repro.adapters.chaos.CHAOS_FAULTS`).
        chaos_rate: probability per opportunity for the chosen chaos fault.
        seed: RNG seed for the chaos plan.
    """
    if name == "sqlite":
        adapter: DatabaseAdapter = SQLiteAdapter(
            path, mode=mode, wal=wal, busy_timeout_ms=busy_timeout_ms
        )
    elif name == "simulated":
        adapter = SimulatedAdapter(isolation, faults=faults)
    else:
        raise ValueError(f"unknown adapter {name!r}; known: {', '.join(ADAPTER_NAMES)}")
    if chaos is not None:
        adapter = ChaosAdapter(adapter, ChaosPlan.for_fault(chaos, rate=chaos_rate, seed=seed))
    return adapter


def collect_history(adapter, workload, **kwargs):
    """Run ``workload`` against ``adapter`` through the collector it calls for.

    An :class:`AsyncDatabaseAdapter` is driven by coroutines
    (:class:`AsyncCollector`), anything else by a thread pool
    (:class:`Collector`): each is the faster driver on its own side and
    neither can drive the other's adapters.  ``kwargs`` go to the collector;
    both results carry ``columns``, ``history``, ``stats``, ``adapter_name``
    and ``unknown``.
    """
    collector = AsyncCollector if isinstance(adapter, AsyncDatabaseAdapter) else Collector
    return collector(adapter, **kwargs).collect(workload)
