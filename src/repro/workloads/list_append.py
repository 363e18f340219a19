"""Elle-style list-append workloads and histories.

Jepsen's Elle checker primarily consumes *list-append* histories: objects
are lists, transactions either append an element or read the whole list,
and reading a list of ``n`` values reveals the version order of the ``n``
appends.  The paper compares MTC against Elle under both list-append and
read-write-register GT workloads (Figures 13 and 14).

This module provides the list-append workload generator, an execution
harness that runs it against the database simulator (appends are executed
as read-modify-writes over tuple values), and the dedicated history
representation consumed by :mod:`repro.baselines.elle`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..db.database import Database
from ..db.errors import TransactionAborted
from .distributions import KeyDistribution, make_distribution

__all__ = [
    "AppendOp",
    "ReadListOp",
    "ElleTransaction",
    "ElleHistory",
    "ListAppendWorkloadGenerator",
    "run_list_append_workload",
]


@dataclass(frozen=True)
class AppendOp:
    """Append ``value`` to the list stored at ``key``."""

    key: str
    value: int

    def __str__(self) -> str:
        return f"append({self.key},{self.value})"


@dataclass(frozen=True)
class ReadListOp:
    """Read the whole list stored at ``key``; ``result`` is filled at runtime."""

    key: str
    result: Tuple[int, ...] = ()

    def __str__(self) -> str:
        return f"r({self.key},{list(self.result)})"


@dataclass
class ElleTransaction:
    """A committed or aborted list-append transaction."""

    txn_id: int
    session_id: int
    ops: List[object] = field(default_factory=list)
    committed: bool = True
    start_ts: Optional[float] = None
    finish_ts: Optional[float] = None

    def appends(self) -> List[AppendOp]:
        return [op for op in self.ops if isinstance(op, AppendOp)]

    def reads(self) -> List[ReadListOp]:
        return [op for op in self.ops if isinstance(op, ReadListOp)]


@dataclass
class ElleHistory:
    """A list-append history: per-session sequences of transactions."""

    sessions: List[List[ElleTransaction]] = field(default_factory=list)
    keys: List[str] = field(default_factory=list)

    def transactions(self, committed_only: bool = True) -> List[ElleTransaction]:
        return [
            txn
            for session in self.sessions
            for txn in session
            if txn.committed or not committed_only
        ]

    def __len__(self) -> int:
        return len(self.transactions(committed_only=False))


@dataclass(frozen=True)
class _PlannedElleOp:
    kind: str  # "append" | "r"
    key: str


class ListAppendWorkloadGenerator:
    """Randomized list-append workload generator (Jepsen/Elle style).

    Each transaction contains up to ``max_txn_len`` operations, each being an
    append or a read of a randomly chosen object.
    """

    def __init__(
        self,
        num_sessions: int = 10,
        txns_per_session: int = 100,
        num_objects: int = 10,
        max_txn_len: int = 4,
        append_fraction: float = 0.5,
        distribution: str = "uniform",
        seed: int = 0,
    ) -> None:
        self.num_sessions = num_sessions
        self.txns_per_session = txns_per_session
        self.num_objects = num_objects
        self.max_txn_len = max(1, max_txn_len)
        self.append_fraction = append_fraction
        self.seed = seed
        if isinstance(distribution, KeyDistribution):
            self.distribution = distribution
        else:
            self.distribution = make_distribution(distribution, num_objects)

    def keys(self) -> List[str]:
        return [f"l{i}" for i in range(self.num_objects)]

    def generate(self) -> List[List[List[_PlannedElleOp]]]:
        """Per-session lists of planned transactions (lists of planned ops)."""
        rng = random.Random(self.seed)
        sessions: List[List[List[_PlannedElleOp]]] = []
        for _ in range(self.num_sessions):
            session: List[List[_PlannedElleOp]] = []
            for _ in range(self.txns_per_session):
                length = rng.randint(1, self.max_txn_len)
                ops = []
                for _ in range(length):
                    key = f"l{self.distribution.choose(rng)}"
                    kind = "append" if rng.random() < self.append_fraction else "r"
                    ops.append(_PlannedElleOp(kind, key))
                session.append(ops)
            sessions.append(session)
        return sessions


def run_list_append_workload(
    database: Database,
    generator: ListAppendWorkloadGenerator,
    *,
    seed: int = 0,
) -> Tuple[ElleHistory, Dict[str, float]]:
    """Execute a list-append workload against the simulator.

    Appends are implemented as read-modify-writes on tuple-valued objects
    (read the current tuple, write the tuple with the element appended), so
    the database's isolation engine resolves conflicts exactly as it would
    for register workloads.

    Returns the recorded :class:`ElleHistory` and a small stats dict with
    ``committed``, ``aborted``, and ``wall_seconds``.
    """
    started = time.perf_counter()
    rng = random.Random(seed)
    plan = generator.generate()
    keys = generator.keys()

    # Per-session state machines; sessions are interleaved at the level of
    # individual operations so that transactions from different sessions
    # genuinely overlap (and conflict) inside the database.
    class _State:
        def __init__(self, session_id: int, specs: List[List[_PlannedElleOp]]) -> None:
            self.session_id = session_id
            self.specs = specs
            self.next_spec = 0
            self.ctx = None
            self.current: Optional[List[_PlannedElleOp]] = None
            self.ops: List[object] = []
            self.next_op = 0
            self.retries_left = 0

        def done(self) -> bool:
            return self.current is None and self.next_spec >= len(self.specs)

    states = [_State(sid, list(session)) for sid, session in enumerate(plan)]
    sessions: List[List[ElleTransaction]] = [[] for _ in plan]
    value_counter = 0
    committed = aborted = 0

    def record(state: "_State", success: bool, finish_ts: float) -> None:
        sessions[state.session_id].append(
            ElleTransaction(
                txn_id=state.ctx.txn_id,
                session_id=state.session_id,
                ops=list(state.ops),
                committed=success,
                start_ts=state.ctx.start_ts,
                finish_ts=finish_ts,
            )
        )

    def begin_attempt(state: "_State") -> None:
        state.ctx = database.begin(state.session_id)
        state.ops = []
        state.next_op = 0

    def step(state: "_State") -> None:
        nonlocal value_counter, committed, aborted
        if state.current is None:
            state.current = state.specs[state.next_spec]
            state.next_spec += 1
            state.retries_left = 3  # retries of an aborted transaction, each with fresh append values
            begin_attempt(state)
            return
        try:
            if state.next_op < len(state.current):
                planned_op = state.current[state.next_op]
                state.next_op += 1
                current = database.read(state.ctx, planned_op.key)
                current_tuple = tuple(current) if current else ()
                if planned_op.kind == "append":
                    value_counter += 1
                    value = state.session_id * 10_000_000 + value_counter
                    database.write(state.ctx, planned_op.key, current_tuple + (value,))
                    state.ops.append(AppendOp(planned_op.key, value))
                else:
                    state.ops.append(ReadListOp(planned_op.key, current_tuple))
            else:
                finish = database.commit(state.ctx)
                record(state, True, finish)
                committed += 1
                state.current = None
        except TransactionAborted:
            record(state, False, database.now())
            aborted += 1
            if state.retries_left > 0:
                state.retries_left -= 1
                begin_attempt(state)
            else:
                state.current = None

    runnable = [s for s in states if not s.done()]
    while runnable:
        step(rng.choice(runnable))
        runnable = [s for s in states if not s.done()]

    history = ElleHistory(sessions=sessions, keys=keys)
    stats = {
        "committed": float(committed),
        "aborted": float(aborted),
        "wall_seconds": time.perf_counter() - started,
    }
    return history, stats
