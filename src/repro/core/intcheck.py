"""Internal-consistency (INT) checking and read-provenance anomalies.

Algorithm 1 in the paper assumes the input history satisfies the INT axiom:
within a transaction, a read from an object returns the same value as the
last write to, or read from, this object inside the transaction.  In
practice (footnote 1) the checker first scans the history for

* intra-transactional anomalies — FutureRead, NotMyLastWrite, NotMyOwnWrite,
  NonRepeatableReads — and
* read-provenance anomalies — ThinAirRead, AbortedRead, IntermediateRead —

before constructing the dependency graph.  This module implements that
pre-pass.  It relies on the unique-value assumption of MT histories: every
value can be attributed to exactly one writing transaction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .model import History, Operation, Transaction
from .result import AnomalyKind, Violation

__all__ = [
    "WriteIndex",
    "build_write_index",
    "check_internal_consistency",
    "transaction_int_violations",
    "provenance_violation",
]


class WriteIndex:
    """Index from ``(key, value)`` to the transaction that wrote it.

    Distinguishes *final* writes (the last write of a transaction on a key —
    the only writes other transactions may legitimately observe) from
    *intermediate* writes (overwritten within the same transaction), and
    records whether the writer committed.
    """

    def __init__(self) -> None:
        self._final: Dict[Tuple[str, Optional[int]], Transaction] = {}
        self._intermediate: Dict[Tuple[str, Optional[int]], Transaction] = {}

    def add_transaction(self, txn: Transaction) -> None:
        last_write: Dict[str, Operation] = {}
        for op in txn.operations:
            if op.is_write:
                if op.key in last_write:
                    prev = last_write[op.key]
                    self._intermediate[(prev.key, prev.value)] = txn
                last_write[op.key] = op
        for op in last_write.values():
            self._final[(op.key, op.value)] = txn

    def final_writer(self, key: str, value: Optional[int]) -> Optional[Transaction]:
        """The transaction whose final write on ``key`` has ``value``."""
        return self._final.get((key, value))

    def intermediate_writer(self, key: str, value: Optional[int]) -> Optional[Transaction]:
        """The transaction that wrote ``value`` to ``key`` as a non-final write."""
        return self._intermediate.get((key, value))


def build_write_index(history: History) -> WriteIndex:
    """Index every write in the history (committed, aborted, and initial)."""
    index = WriteIndex()
    for txn in history.transactions(include_initial=True):
        index.add_transaction(txn)
    return index


def check_internal_consistency(
    history: History,
    *,
    write_index: Optional[WriteIndex] = None,
) -> List[Violation]:
    """Check the INT axiom and read-provenance anomalies for a history.

    Returns the list of violations found (empty if the history is internally
    consistent and every read can be attributed to the committed final write
    of some transaction or to the reader's own preceding write).

    This is the object-level reference of the pre-pass (and dbcop's);
    the batch pipeline runs the same per-transaction classification on the
    rows its column scan flagged (see :func:`_check_transaction`).
    """
    lookup = write_index if write_index is not None else build_write_index(history)
    violations: List[Violation] = []
    for txn in history.committed_transactions(include_initial=False):
        violations.extend(_check_transaction(txn, lookup))
    return violations


def _check_transaction(txn: Transaction, index: WriteIndex) -> List[Violation]:
    """Every INT/provenance violation of one committed transaction.

    :class:`~repro.core.index.HistoryIndex` calls this for *candidate* rows
    only.  Its column scan flags a row exactly when one of the two rules
    listed at :func:`transaction_int_violations` holds, or this one, so an
    unflagged row provably reports nothing here:

    * an external-position read with no value, or whose value has no final
      writer (ThinAirRead / IntermediateRead), or whose final writer
      aborted (AbortedRead).
    """
    violations = transaction_int_violations(txn)
    for op in _external_position_reads(txn):
        if _is_future_read(txn, op):
            continue  # already reported by the intra-transactional pass
        violation = provenance_violation(txn, op, index)
        if violation is not None:
            violations.append(violation)
    return violations


def transaction_int_violations(txn: Transaction) -> List[Violation]:
    """The intra-transactional part of the INT pre-pass for one transaction.

    Detects FutureRead, NotMyLastWrite, NotMyOwnWrite, and
    NonRepeatableReads — every anomaly that can be established from the
    transaction's own operations, without consulting the rest of the
    history.  Read-provenance anomalies (ThinAirRead, AbortedRead,
    IntermediateRead) additionally need a :class:`WriteIndex`; classify
    those with :func:`provenance_violation`, or incrementally via
    :class:`repro.core.incremental.IncrementalChecker`.

    Both row scans (the batch index's and the streaming checker's) call
    this for *candidate* rows only: a row is flagged exactly when one of
    these holds, so an unflagged row provably reports nothing here:

    * a read whose last same-key operation in the row holds another value
      (NotMyLastWrite / NotMyOwnWrite / NonRepeatableReads);
    * an external-position read (first operation of the row on its key)
      whose value the row itself writes, finally or not (FutureRead).

    Example:
        >>> from repro.core.model import Transaction, read, write
        >>> from repro.core.intcheck import transaction_int_violations
        >>> txn = Transaction(1, [read("x", 7), write("x", 7)])
        >>> [v.kind.value for v in transaction_int_violations(txn)]
        ['FutureRead']
    """
    violations: List[Violation] = []
    # Last operation on each key inside the transaction, in program order.
    last_op_on_key: Dict[str, Operation] = {}
    position_writes_seen: Dict[str, int] = {}
    for op in txn.operations:
        if op.is_write:
            position_writes_seen[op.key] = position_writes_seen.get(op.key, 0) + 1
            last_op_on_key[op.key] = op
            continue

        prev = last_op_on_key.get(op.key)
        if prev is not None:
            violations.extend(_check_internal_read(txn, op, prev, position_writes_seen))
        elif _is_future_read(txn, op):
            violations.append(
                Violation(
                    kind=AnomalyKind.FUTURE_READ,
                    description=(
                        f"read {op} observes value {op.value}, which the same "
                        f"transaction only writes later"
                    ),
                    txn_ids=[txn.txn_id],
                    key=op.key,
                )
            )
        last_op_on_key[op.key] = op
    return violations


def _external_position_reads(txn: Transaction) -> List[Operation]:
    """Reads that occur before any other operation of ``txn`` on their key."""
    seen: Dict[str, bool] = {}
    result: List[Operation] = []
    for op in txn.operations:
        if op.key not in seen and op.is_read:
            result.append(op)
        seen[op.key] = True
    return result


def _is_future_read(txn: Transaction, op: Operation) -> bool:
    """Whether ``op`` observes a value ``txn`` itself only writes later."""
    return any(
        w.is_write and w.key == op.key and w.value == op.value
        for w in txn.operations
    )


def _check_internal_read(
    txn: Transaction,
    op: Operation,
    prev: Operation,
    writes_seen: Dict[str, int],
) -> List[Violation]:
    """Check a read that follows a prior operation on the same key in ``txn``."""
    if op.value == prev.value:
        return []
    own_final = txn.final_write(op.key)
    own_values = [w.value for w in txn.operations if w.is_write and w.key == op.key]
    kind: AnomalyKind
    if prev.is_write:
        # The read should have returned the preceding write's value.
        if op.value in own_values:
            # It returned one of its own writes, but not the last preceding one.
            kind = AnomalyKind.NOT_MY_LAST_WRITE
            description = (
                f"read {op} returned an own write that is not the last preceding "
                f"write {prev} on object {op.key}"
            )
        else:
            kind = AnomalyKind.NOT_MY_OWN_WRITE
            description = (
                f"read {op} ignored the transaction's own preceding write {prev} "
                f"on object {op.key}"
            )
    else:
        # Two reads of the same object with no intervening own write
        # returned different values.
        kind = AnomalyKind.NON_REPEATABLE_READS
        description = (
            f"reads of object {op.key} returned different values "
            f"({prev.value} then {op.value}) with no intervening own write"
        )
    del own_final  # classification above only needs own_values
    return [
        Violation(
            kind=kind,
            description=description,
            txn_ids=[txn.txn_id],
            key=op.key,
        )
    ]


def provenance_violation(
    txn: Transaction, op: Operation, index: WriteIndex
) -> Optional[Violation]:
    """Classify the provenance of one external read against a write index.

    ``op`` is the first operation of ``txn`` on its key (no preceding read or
    write on that key), so by INT it must observe the committed final write
    of some other transaction (or the initial value).  Returns ``None`` when
    the read is attributable to such a writer, or the AbortedRead /
    IntermediateRead / ThinAirRead violation otherwise.  FutureRead is an
    intra-transactional anomaly and is reported by
    :func:`transaction_int_violations` instead.

    Example:
        >>> from repro.core.intcheck import WriteIndex, provenance_violation
        >>> from repro.core.model import Transaction, read
        >>> txn = Transaction(1, [read("x", 99)])
        >>> provenance_violation(txn, txn.operations[0], WriteIndex()).kind.value
        'ThinAirRead'
    """
    writer = index.final_writer(op.key, op.value)
    if writer is not None and writer.txn_id != txn.txn_id:
        if writer.aborted:
            return Violation(
                kind=AnomalyKind.ABORTED_READ,
                description=(
                    f"read {op} observes a value written by aborted "
                    f"transaction T{writer.txn_id}"
                ),
                txn_ids=[txn.txn_id, writer.txn_id],
                key=op.key,
            )
        return None

    intermediate = index.intermediate_writer(op.key, op.value)
    if intermediate is not None and intermediate.txn_id != txn.txn_id:
        return Violation(
            kind=AnomalyKind.INTERMEDIATE_READ,
            description=(
                f"read {op} observes an intermediate value of "
                f"T{intermediate.txn_id}, which later overwrote it"
            ),
            txn_ids=[txn.txn_id, intermediate.txn_id],
            key=op.key,
        )

    return Violation(
        kind=AnomalyKind.THIN_AIR_READ,
        description=(
            f"read {op} observes value {op.value}, which no transaction wrote"
        ),
        txn_ids=[txn.txn_id],
        key=op.key,
    )
