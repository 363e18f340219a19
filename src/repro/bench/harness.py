"""Experiment harness: canned history-generation and end-to-end pipelines.

Every benchmark in ``benchmarks/`` builds on the same few building blocks:

* :func:`generate_mt_history` — run an MT workload against the simulator
  under a given isolation engine and return the recorded history (the
  MT-history counterpart of the paper's PostgreSQL-generated histories);
* :func:`generate_gt_history` — likewise for Cobra-style GT workloads;
* :func:`make_disjoint_history` — a synthetic valid history, one shard per
  key group (sharding tests, docs, examples);
* :func:`end_to_end` — run generation and verification with a given checker
  and report the time/memory decomposition of Figures 10 and 17;
* :data:`BENCH_SCALE` — a global scale factor (env var ``REPRO_BENCH_SCALE``)
  so the full suite stays laptop-sized by default while allowing larger runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..core.model import History, Session, Transaction, read, write
from ..core.result import CheckResult
from ..db.database import Database
from ..db.faults import FaultPlan
from ..workloads.gt_generator import GTWorkloadGenerator
from ..workloads.mt_generator import MTWorkloadGenerator
from ..workloads.runner import RunStats, run_workload
from .metrics import Measurement, measure

__all__ = [
    "BENCH_SCALE",
    "scaled",
    "GeneratedHistory",
    "generate_mt_history",
    "make_disjoint_history",
    "generate_gt_history",
    "EndToEndResult",
    "end_to_end",
]

#: Global scale factor applied to benchmark workload sizes.  ``1.0`` is the
#: laptop-friendly default; the paper-scale sweeps need roughly 10-100x.
BENCH_SCALE: float = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(value: int, minimum: int = 1) -> int:
    """Scale a workload-size parameter by :data:`BENCH_SCALE`."""
    return max(minimum, int(value * BENCH_SCALE))


@dataclass
class GeneratedHistory:
    """A recorded history together with its generation statistics."""

    history: History
    stats: RunStats
    generation_seconds: float


def generate_mt_history(
    *,
    isolation: str = "si",
    num_sessions: int = 10,
    txns_per_session: int = 100,
    num_objects: int = 100,
    distribution: str = "uniform",
    faults: Optional[FaultPlan] = None,
    seed: int = 0,
) -> GeneratedHistory:
    """Execute an MT workload on the simulator and record the history."""
    generator = MTWorkloadGenerator(
        num_sessions=num_sessions,
        txns_per_session=txns_per_session,
        num_objects=num_objects,
        distribution=distribution,
        seed=seed,
    )
    workload = generator.generate()
    database = Database(isolation, keys=workload.keys, faults=faults)
    result = run_workload(database, workload, seed=seed + 1)
    return GeneratedHistory(
        history=result.history,
        stats=result.stats,
        generation_seconds=result.stats.wall_seconds,
    )


def make_disjoint_history(
    *,
    num_groups: int = 8,
    sessions_per_group: int = 4,
    txns_per_session: int = 100,
    keys_per_group: int = 16,
    timestamps: bool = False,
) -> History:
    """Synthesise a valid serializable history over disjoint key groups.

    Each group owns its own key range and sessions; transactions are
    read-modify-write mini-transactions over the group's keys, generated as
    one serial interleaving per group, so the history satisfies SER/SI (and
    SSER when ``timestamps`` is set).  The key-connectivity partitioner
    splits it into exactly ``num_groups`` shards, which makes it the
    canonical near-linear-speedup workload for the sharded executor.
    """
    sessions: List[Session] = []
    txn_id = 1
    value = 1
    clock = 0.0
    for group in range(num_groups):
        keys = [f"g{group}:k{i}" for i in range(keys_per_group)]
        latest = {key: 0 for key in keys}
        group_sessions = [
            Session(session_id=group * sessions_per_group + s)
            for s in range(sessions_per_group)
        ]
        # One serial round-robin interleaving per group: every transaction
        # reads the current values of two neighbouring group keys and
        # installs a fresh value on the first.  The second (read-only) key
        # chains the group's keys into a single connected component, so the
        # partitioner yields exactly one shard per group.
        for turn in range(txns_per_session):
            for slot, session in enumerate(group_sessions):
                key = keys[(turn + slot) % keys_per_group]
                neighbour = keys[(turn + slot + 1) % keys_per_group]
                operations = [read(key, latest[key])]
                if neighbour != key:
                    operations.append(read(neighbour, latest[neighbour]))
                operations.append(write(key, value))
                txn = Transaction(
                    txn_id,
                    operations,
                    session_id=session.session_id,
                )
                if timestamps:
                    txn.start_ts = clock
                    txn.finish_ts = clock + 0.5
                    clock += 1.0
                latest[key] = value
                value += 1
                txn_id += 1
                session.transactions.append(txn)
        sessions.extend(group_sessions)
    history = History(sessions)
    history.ensure_initial_transaction()
    return history


def generate_gt_history(
    *,
    isolation: str = "si",
    num_sessions: int = 10,
    txns_per_session: int = 100,
    num_objects: int = 100,
    ops_per_txn: int = 10,
    distribution: str = "uniform",
    faults: Optional[FaultPlan] = None,
    seed: int = 0,
) -> GeneratedHistory:
    """Execute a Cobra-style GT workload on the simulator."""
    generator = GTWorkloadGenerator(
        num_sessions=num_sessions,
        txns_per_session=txns_per_session,
        num_objects=num_objects,
        ops_per_txn=ops_per_txn,
        distribution=distribution,
        seed=seed,
    )
    workload = generator.generate()
    database = Database(isolation, keys=workload.keys, faults=faults)
    result = run_workload(database, workload, seed=seed + 1)
    return GeneratedHistory(
        history=result.history,
        stats=result.stats,
        generation_seconds=result.stats.wall_seconds,
    )


@dataclass
class EndToEndResult:
    """Time/memory decomposition of one end-to-end checking run."""

    label: str
    generation_seconds: float
    verification_seconds: float
    verification_memory_mb: float
    abort_rate: float
    satisfied: bool

    @property
    def total_seconds(self) -> float:
        return self.generation_seconds + self.verification_seconds

    def row(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "gen_s": round(self.generation_seconds, 4),
            "verify_s": round(self.verification_seconds, 4),
            "total_s": round(self.total_seconds, 4),
            "mem_mb": round(self.verification_memory_mb, 2),
            "abort_rate": round(self.abort_rate, 3),
            "valid": self.satisfied,
        }


def end_to_end(
    label: str,
    generated: GeneratedHistory,
    verifier: Callable[[History], CheckResult],
) -> EndToEndResult:
    """Verify a generated history, measuring verification time and memory."""
    measurement: Measurement = measure(lambda: verifier(generated.history))
    result: CheckResult = measurement.value
    return EndToEndResult(
        label=label,
        generation_seconds=generated.generation_seconds,
        verification_seconds=measurement.seconds,
        verification_memory_mb=measurement.peak_memory_mb,
        abort_rate=generated.stats.abort_rate,
        satisfied=result.satisfied,
    )
