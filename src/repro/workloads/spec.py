"""Workload specifications: planned transactions before execution.

A workload is a set of sessions, each being a sequence of
:class:`TransactionSpec` objects.  A spec lists the operations the client
*intends* to issue — reads name only the object (the value is whatever the
database returns), writes name the object and leave the concrete value to
the runner, which assigns globally unique values (client id + local counter,
as in the paper and in existing checkers).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = [
    "PlannedOpKind",
    "PlannedOperation",
    "TransactionSpec",
    "TrafficShape",
    "Workload",
    "make_traffic_shape",
    "TRAFFIC_SHAPE_NAMES",
]

#: Traffic-shape names accepted by :func:`make_traffic_shape` and the CLI.
TRAFFIC_SHAPE_NAMES = ("steady", "bursty", "churn")


class PlannedOpKind(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class PlannedOperation:
    """One operation of a planned transaction."""

    kind: PlannedOpKind
    key: str

    @property
    def is_read(self) -> bool:
        return self.kind is PlannedOpKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is PlannedOpKind.WRITE


@dataclass
class TransactionSpec:
    """A planned transaction: the ordered list of operations to issue."""

    operations: List[PlannedOperation] = field(default_factory=list)

    def keys(self) -> List[str]:
        return sorted({op.key for op in self.operations})

    def num_reads(self) -> int:
        return sum(1 for op in self.operations if op.is_read)

    def num_writes(self) -> int:
        return sum(1 for op in self.operations if op.is_write)

    def is_mini(self) -> bool:
        """Whether the spec obeys the mini-transaction shape (Definition 8)."""
        if self.num_reads() not in (1, 2) or self.num_writes() > 2:
            return False
        read_keys = set()
        for op in self.operations:
            if op.is_read:
                read_keys.add(op.key)
            elif op.key not in read_keys:
                return False
        return True

    def __len__(self) -> int:
        return len(self.operations)


@dataclass(frozen=True)
class TrafficShape:
    """An arrival process for the collectors: *when* sessions issue work.

    The planned operations are untouched — a shape only inserts idle time
    before transactions, reproducing production access patterns that stress
    a collector very differently from the default closed loop:

    * ``think_time`` — mean of an exponential think time before every
      transaction (open-loop arrivals instead of back-to-back issue).
    * ``burst_len``/``burst_gap`` — bursty clients: ``burst_len``
      transactions issued back to back, then ``burst_gap`` seconds of
      silence (0 disables bursting).
    * ``churn_stagger`` — session churn: each session starts at a random
      offset in ``[0, churn_stagger)`` seconds, so the set of live
      sessions ramps and overlaps instead of starting as one thundering
      herd.

    Delays are deterministic per ``(seed, session_id, txn_index)``, so a
    shaped workload replays identically across collectors.
    """

    name: str = "steady"
    think_time: float = 0.0
    burst_len: int = 0
    burst_gap: float = 0.0
    churn_stagger: float = 0.0
    seed: int = 0

    def delay_before(self, session_id: int, txn_index: int) -> float:
        """Seconds the session should idle before transaction ``txn_index``."""
        rng = random.Random(
            (self.seed << 32) ^ (session_id * 2_654_435_761) ^ txn_index
        )
        delay = 0.0
        if txn_index == 0 and self.churn_stagger > 0:
            delay += rng.uniform(0.0, self.churn_stagger)
        if self.think_time > 0:
            delay += rng.expovariate(1.0 / self.think_time)
        if self.burst_len > 0 and txn_index > 0 and txn_index % self.burst_len == 0:
            delay += self.burst_gap
        return delay


def make_traffic_shape(
    name: str,
    *,
    think_time: float = 0.0,
    churn_stagger: float = 0.25,
    seed: int = 0,
) -> TrafficShape:
    """Factory for the named shapes (see :data:`TRAFFIC_SHAPE_NAMES`)."""
    normalized = name.lower()
    if normalized == "steady":
        return TrafficShape("steady", think_time=think_time, seed=seed)
    if normalized == "bursty":
        return TrafficShape(
            "bursty",
            think_time=think_time,
            burst_len=8,
            burst_gap=0.05,
            seed=seed,
        )
    if normalized == "churn":
        return TrafficShape(
            "churn", think_time=think_time, churn_stagger=churn_stagger, seed=seed
        )
    raise ValueError(
        f"unknown traffic shape {name!r}; known: {', '.join(TRAFFIC_SHAPE_NAMES)}"
    )


@dataclass
class Workload:
    """A full workload: per-session lists of transaction specs."""

    sessions: List[List[TransactionSpec]]
    keys: List[str]
    name: str = "workload"
    #: Optional arrival process applied by the collectors (``None`` keeps
    #: the default closed loop: every session issues back to back).
    traffic: Optional[TrafficShape] = None

    @property
    def num_sessions(self) -> int:
        return len(self.sessions)

    @property
    def num_transactions(self) -> int:
        return sum(len(session) for session in self.sessions)
