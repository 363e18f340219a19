"""Catalog of the 14 isolation anomalies captured by mini-transactions.

The paper's Figure 5 / Table I list 14 well-documented anomalies from the
contemporary specification frameworks (Adya, Cerone & Gotsman, Biswas & Enea,
Plume) and show that each can be exhibited by a mini-transaction history.
This module reconstructs each anomaly as a small, self-contained
:class:`~repro.core.model.History` made only of mini-transactions, together
with the ground truth of which strong isolation levels it violates.  The
catalog drives both the anomaly-coverage tests and the Table I benchmark,
and doubles as a library of ready-made counterexample templates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from .model import History, Transaction, TransactionStatus, read, write
from .result import AnomalyKind

__all__ = ["AnomalySpec", "anomaly_catalog", "anomaly_history", "ANOMALY_NAMES"]


@dataclass(frozen=True)
class AnomalySpec:
    """One entry of the anomaly catalog.

    Attributes:
        kind: the anomaly class.
        description: the Table I description.
        build: zero-argument constructor of the canonical MT history.
        violates_si: whether the history violates snapshot isolation.
        violates_ser: whether the history violates serializability (and
            therefore also strict serializability).
        intra_transactional: whether the anomaly is detected by the INT
            pre-pass (Figure 5a-5g) rather than by a dependency cycle.
    """

    kind: AnomalyKind
    description: str
    build: Callable[[], History]
    violates_si: bool
    violates_ser: bool
    intra_transactional: bool = False


def _txn(txn_id: int, *ops, status: TransactionStatus = TransactionStatus.COMMITTED) -> Transaction:
    return Transaction(txn_id=txn_id, operations=list(ops), status=status)


# ----------------------------------------------------------------------
# Figure 5a-5g: intra-transactional / read-provenance anomalies
# ----------------------------------------------------------------------
def thin_air_read() -> History:
    """A transaction reads a value out of thin air (Figure 5a)."""
    t1 = _txn(1, read("x", 5))
    return History.from_transactions([[t1]], initial_keys=["x"])


def aborted_read() -> History:
    """A transaction reads a value from an aborted transaction (Figure 5b)."""
    t1 = _txn(1, read("x", 0), write("x", 1), status=TransactionStatus.ABORTED)
    t2 = _txn(2, read("x", 1))
    return History.from_transactions([[t1], [t2]], initial_keys=["x"])


def future_read() -> History:
    """A transaction reads from a write occurring later in itself (Figure 5c)."""
    t1 = _txn(1, read("x", 7), write("x", 7))
    return History.from_transactions([[t1]], initial_keys=["x"])


def not_my_last_write() -> History:
    """A transaction reads its own, but not the last, write (Figure 5d)."""
    t1 = _txn(1, read("x", 0), write("x", 1), write("x", 2), read("x", 1))
    return History.from_transactions([[t1]], initial_keys=["x"])


def not_my_own_write() -> History:
    """A transaction fails to read its own preceding write (Figure 5e)."""
    t1 = _txn(1, read("x", 0), write("x", 2), read("x", 1))
    t2 = _txn(2, read("x", 0), write("x", 1))
    return History.from_transactions([[t1], [t2]], initial_keys=["x"])


def intermediate_read() -> History:
    """A transaction reads a value later overwritten by its writer (Figure 5f)."""
    t1 = _txn(1, read("x", 1))
    t2 = _txn(2, read("x", 0), write("x", 1), write("x", 2))
    return History.from_transactions([[t1], [t2]], initial_keys=["x"])


def non_repeatable_reads() -> History:
    """Repeated reads of one object return different values (Figure 5g)."""
    t0 = _txn(1, read("x", 1), read("x", 2))
    t1 = _txn(2, read("x", 0), write("x", 1))
    t2 = _txn(3, read("x", 0), write("x", 2))
    return History.from_transactions([[t0], [t1], [t2]], initial_keys=["x"])


# ----------------------------------------------------------------------
# Figure 5h-5n: inter-transactional anomalies (dependency cycles)
# ----------------------------------------------------------------------
def session_guarantee_violation() -> History:
    """A later transaction in a session misses its predecessor's effect (5h)."""
    t1 = _txn(1, read("x", 0), write("x", 1))
    t2 = _txn(2, read("x", 1), write("x", 2))
    t3 = _txn(3, read("x", 1))
    return History.from_transactions([[t1, t2, t3]], initial_keys=["x"])


def non_monotonic_read() -> History:
    """T3 reads y from T2 and then x from T1, overwritten by T2 (5i)."""
    t1 = _txn(1, read("x", 0), write("x", 1))
    t2 = _txn(2, read("x", 1), write("x", 2), read("y", 0), write("y", 1))
    t3 = _txn(3, read("y", 1), read("x", 1))
    return History.from_transactions([[t1], [t2], [t3]], initial_keys=["x", "y"])


def fractured_read() -> History:
    """T1 updates x and y, but the reader observes only the x update (5j)."""
    t_x = _txn(1, read("x", 0), write("x", 1))
    t_y = _txn(2, read("y", 0), write("y", 3))
    t1 = _txn(3, read("x", 1), write("x", 2), read("y", 3), write("y", 4))
    t2 = _txn(4, read("x", 2), read("y", 0))
    return History.from_transactions([[t_x, t_y], [t1], [t2]], initial_keys=["x", "y"])


def causality_violation() -> History:
    """T3 sees T2's effect on y but misses T1's effect on x, seen by T2 (5k)."""
    t1 = _txn(1, read("x", 0), write("x", 1))
    t2 = _txn(2, read("x", 1), read("y", 0), write("y", 1))
    t3 = _txn(3, read("x", 0), read("y", 1))
    return History.from_transactions([[t1], [t2], [t3]], initial_keys=["x", "y"])


def long_fork() -> History:
    """Two readers observe the two concurrent writes in opposite orders (5l)."""
    t1 = _txn(1, read("x", 0), write("x", 1))
    t2 = _txn(2, read("y", 0), write("y", 1))
    t3 = _txn(3, read("x", 1), read("y", 0))
    t4 = _txn(4, read("x", 0), read("y", 1))
    return History.from_transactions([[t1], [t2], [t3], [t4]], initial_keys=["x", "y"])


def lost_update() -> History:
    """Two concurrent RMWs of the same object; one update is lost (5m)."""
    t1 = _txn(1, read("x", 0), write("x", 1))
    t2 = _txn(2, read("x", 0), write("x", 2))
    t3 = _txn(3, read("x", 2))
    return History.from_transactions([[t1], [t2], [t3]], initial_keys=["x"])


def write_skew() -> History:
    """Both transactions read x and y, then write one object each (5n)."""
    t1 = _txn(1, read("x", 0), read("y", 0), write("x", 1))
    t2 = _txn(2, read("x", 0), read("y", 0), write("y", 1))
    return History.from_transactions([[t1], [t2]], initial_keys=["x", "y"])


#: Mapping from catalog name to AnomalySpec, in Table I order.
def anomaly_catalog() -> Dict[str, AnomalySpec]:
    """The full catalog of the 14 anomalies of Table I, in order."""
    specs: List[AnomalySpec] = [
        AnomalySpec(
            AnomalyKind.THIN_AIR_READ,
            "A transaction reads a value out of thin air.",
            thin_air_read,
            violates_si=True,
            violates_ser=True,
            intra_transactional=True,
        ),
        AnomalySpec(
            AnomalyKind.ABORTED_READ,
            "A transaction reads a value from an aborted transaction.",
            aborted_read,
            violates_si=True,
            violates_ser=True,
            intra_transactional=True,
        ),
        AnomalySpec(
            AnomalyKind.FUTURE_READ,
            "A transaction reads from a write that occurs later in the same transaction.",
            future_read,
            violates_si=True,
            violates_ser=True,
            intra_transactional=True,
        ),
        AnomalySpec(
            AnomalyKind.NOT_MY_LAST_WRITE,
            "A transaction reads from its own but not the last write on the same object.",
            not_my_last_write,
            violates_si=True,
            violates_ser=True,
            intra_transactional=True,
        ),
        AnomalySpec(
            AnomalyKind.NOT_MY_OWN_WRITE,
            "A transaction does not read from its own write on the same object.",
            not_my_own_write,
            violates_si=True,
            violates_ser=True,
            intra_transactional=True,
        ),
        AnomalySpec(
            AnomalyKind.INTERMEDIATE_READ,
            "A transaction reads a value later overwritten by the transaction that wrote it.",
            intermediate_read,
            violates_si=True,
            violates_ser=True,
            intra_transactional=True,
        ),
        AnomalySpec(
            AnomalyKind.NON_REPEATABLE_READS,
            "A transaction reads multiple times from the same object but receives different values.",
            non_repeatable_reads,
            violates_si=True,
            violates_ser=True,
            intra_transactional=True,
        ),
        AnomalySpec(
            AnomalyKind.SESSION_GUARANTEE_VIOLATION,
            "A transaction misses the effect of the preceding transaction in the same session.",
            session_guarantee_violation,
            violates_si=True,
            violates_ser=True,
        ),
        AnomalySpec(
            AnomalyKind.NON_MONOTONIC_READ,
            "T3 reads y from T2 and then reads x from T1, but T2 has overwritten T1 on x.",
            non_monotonic_read,
            violates_si=True,
            violates_ser=True,
        ),
        AnomalySpec(
            AnomalyKind.FRACTURED_READ,
            "T1 updates both x and y, but the reader observes only the update to x.",
            fractured_read,
            violates_si=True,
            violates_ser=True,
        ),
        AnomalySpec(
            AnomalyKind.CAUSALITY_VIOLATION,
            "T3 sees the effect of T2 on y but misses the effect of T1, seen by T2, on x.",
            causality_violation,
            violates_si=True,
            violates_ser=True,
        ),
        AnomalySpec(
            AnomalyKind.LONG_FORK,
            "Two readers observe the two concurrent writes in opposite orders.",
            long_fork,
            violates_si=True,
            violates_ser=True,
        ),
        AnomalySpec(
            AnomalyKind.LOST_UPDATE,
            "Concurrent transactions write to the same object; one write is lost.",
            lost_update,
            violates_si=True,
            violates_ser=True,
        ),
        AnomalySpec(
            AnomalyKind.WRITE_SKEW,
            "Concurrent transactions read both x and y, then write to x and y respectively.",
            write_skew,
            violates_si=False,
            violates_ser=True,
        ),
    ]
    return {spec.kind.value: spec for spec in specs}


#: The canonical catalog names, in Table I order.
ANOMALY_NAMES: List[str] = list(anomaly_catalog().keys())


def anomaly_history(name: str) -> History:
    """Build the canonical MT history for the anomaly with the given name."""
    catalog = anomaly_catalog()
    if name not in catalog:
        raise KeyError(f"unknown anomaly {name!r}; known: {sorted(catalog)}")
    return catalog[name].build()
