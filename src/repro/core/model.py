"""Core data model: operations, transactions, sessions, and histories.

This module defines the vocabulary of black-box isolation checking used
throughout the library (paper, Section II):

* an :class:`Operation` is a read ``R(x, v)`` or write ``W(x, v)`` on an
  object (key) ``x`` with value ``v``;
* a :class:`Transaction` is a sequence of operations (the *program order*)
  issued by one client, together with its commit status and, optionally,
  wall-clock start/finish timestamps;
* a :class:`History` groups transactions into sessions and exposes the
  session order ``SO`` and the real-time order ``RT`` that the checking
  algorithms consume.

Every history implicitly (or explicitly) contains an *initial transaction*
``⊥T`` that installs the initial value of every object and precedes all
other transactions in the session order.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from operator import gt
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, TypeVar

__all__ = [
    "OpType",
    "Operation",
    "TransactionStatus",
    "Transaction",
    "Session",
    "History",
    "INITIAL_TXN_ID",
    "INITIAL_VALUE",
    "STATUS_CODES",
    "STATUS_FROM_CODE",
    "history_from_stream",
    "stream_order",
    "read",
    "write",
]

T = TypeVar("T")

#: Identifier reserved for the initial transaction ``⊥T``.
INITIAL_TXN_ID = -1

#: Value installed by the initial transaction for every object.
INITIAL_VALUE = 0


class OpType(enum.Enum):
    """The two kinds of operations a transaction may issue."""

    READ = "r"
    WRITE = "w"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OpType.{self.name}"


@dataclass(frozen=True)
class Operation:
    """A single read or write operation.

    Attributes:
        op_type: whether this is a read or a write.
        key: the object the operation accesses.
        value: the value read or written.  For reads issued by a workload
            (before execution) the value may be ``None`` and is filled in by
            the database when the history is recorded.
    """

    op_type: OpType
    key: str
    value: Optional[int] = None

    @property
    def is_read(self) -> bool:
        return self.op_type is OpType.READ

    @property
    def is_write(self) -> bool:
        return self.op_type is OpType.WRITE

    def __str__(self) -> str:
        letter = "R" if self.is_read else "W"
        return f"{letter}({self.key},{self.value})"


def read(key: str, value: Optional[int] = None) -> Operation:
    """Convenience constructor for a read operation ``R(key, value)``."""
    return Operation(OpType.READ, key, value)


def write(key: str, value: int) -> Operation:
    """Convenience constructor for a write operation ``W(key, value)``."""
    return Operation(OpType.WRITE, key, value)


class TransactionStatus(enum.Enum):
    """Outcome of a transaction as observed by the issuing client."""

    COMMITTED = "committed"
    ABORTED = "aborted"
    #: The client never learned the outcome (e.g. a timeout); such
    #: transactions must be treated as possibly committed.
    UNKNOWN = "unknown"


#: Stable small-integer codes for :class:`TransactionStatus` — the single
#: source of truth for the columnar segment encoding
#: (:mod:`repro.history.columnar`) and every consumer that decodes its
#: ``statuses`` column.  Append-only: existing codes are part of the
#: on-disk segment format.
STATUS_CODES: Dict[TransactionStatus, int] = {
    TransactionStatus.COMMITTED: 0,
    TransactionStatus.ABORTED: 1,
    TransactionStatus.UNKNOWN: 2,
}

#: Inverse of :data:`STATUS_CODES`: ``STATUS_FROM_CODE[code] -> status``.
STATUS_FROM_CODE: Tuple[TransactionStatus, ...] = tuple(
    status for status, _ in sorted(STATUS_CODES.items(), key=lambda item: item[1])
)


@dataclass
class Transaction:
    """A transaction: a program-ordered sequence of operations.

    The notation ``T ⊢ W(x, v)`` from the paper ("the last value written by
    ``T`` on ``x`` is ``v``") is exposed as :meth:`final_write`, and
    ``T ⊢ R(x, v)`` ("``T`` reads ``v`` from ``x`` before writing to it") as
    :meth:`external_read`.
    """

    txn_id: int
    operations: List[Operation] = field(default_factory=list)
    session_id: int = 0
    status: TransactionStatus = TransactionStatus.COMMITTED
    start_ts: Optional[float] = None
    finish_ts: Optional[float] = None

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def is_initial(self) -> bool:
        """Whether this is the special initializing transaction ``⊥T``."""
        return self.txn_id == INITIAL_TXN_ID

    @property
    def committed(self) -> bool:
        return self.status is TransactionStatus.COMMITTED

    @property
    def aborted(self) -> bool:
        return self.status is TransactionStatus.ABORTED

    def reads(self) -> Iterator[Operation]:
        """Iterate over the read operations in program order."""
        return (op for op in self.operations if op.is_read)

    def writes(self) -> Iterator[Operation]:
        """Iterate over the write operations in program order."""
        return (op for op in self.operations if op.is_write)

    def keys(self) -> Set[str]:
        """All objects accessed by this transaction."""
        return {op.key for op in self.operations}

    def keys_read(self) -> Set[str]:
        return {op.key for op in self.operations if op.is_read}

    def keys_written(self) -> Set[str]:
        return {op.key for op in self.operations if op.is_write}

    # ------------------------------------------------------------------
    # Paper notation: T ⊢ W(x, v) and T ⊢ R(x, v)
    # ------------------------------------------------------------------
    def final_write(self, key: str) -> Optional[int]:
        """Return ``v`` such that ``T ⊢ W(key, v)``, or ``None``.

        This is the *last* value the transaction writes to ``key``; it is the
        value other transactions may observe once ``T`` commits.
        """
        value: Optional[int] = None
        for op in self.operations:
            if op.is_write and op.key == key:
                value = op.value
        return value

    def writes_to(self, key: str) -> bool:
        """Whether the transaction contains any write on ``key``."""
        return any(op.is_write and op.key == key for op in self.operations)

    def external_read(self, key: str) -> Optional[int]:
        """Return ``v`` such that ``T ⊢ R(key, v)``, or ``None``.

        This is the value of the *first valued* read of ``key`` that occurs
        before any write of ``key`` within the transaction, i.e. the value
        the transaction observed from the rest of the system — by
        definition ``external_reads().get(key)``.
        """
        return self.external_reads().get(key)

    def external_reads(self) -> Dict[str, int]:
        """All external reads of the transaction as a ``{key: value}`` map."""
        result: Dict[str, int] = {}
        written: Set[str] = set()
        for op in self.operations:
            if op.is_write:
                written.add(op.key)
            elif op.key not in written and op.key not in result:
                if op.value is not None:
                    result[op.key] = op.value
        return result

    def final_writes(self) -> Dict[str, int]:
        """All final writes of the transaction as a ``{key: value}`` map."""
        result: Dict[str, int] = {}
        for op in self.operations:
            if op.is_write and op.value is not None:
                result[op.key] = op.value
        return result

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def append(self, op: Operation) -> None:
        """Append an operation at the end of the program order."""
        self.operations.append(op)

    def __len__(self) -> int:
        return len(self.operations)

    def __str__(self) -> str:
        ops = ", ".join(str(op) for op in self.operations)
        name = "⊥T" if self.is_initial else f"T{self.txn_id}"
        return f"{name}[{ops}]"


@dataclass
class Session:
    """A sequence of transactions issued by a single client."""

    session_id: int
    transactions: List[Transaction] = field(default_factory=list)

    def append(self, txn: Transaction) -> None:
        txn.session_id = self.session_id
        self.transactions.append(txn)

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)


class History:
    """A history ``H = (T, SO, RT)`` (paper, Definition 2).

    The session order ``SO`` is derived from the per-session transaction
    sequences; the real-time order ``RT`` is derived from the transactions'
    start and finish timestamps (``T1 RT→ T2`` iff ``T1`` finishes before
    ``T2`` starts).  The initial transaction, when present, precedes every
    other transaction in the session order.
    """

    def __init__(
        self,
        sessions: Optional[Sequence[Session]] = None,
        *,
        initial_transaction: Optional[Transaction] = None,
    ) -> None:
        self.sessions: List[Session] = list(sessions) if sessions else []
        self.initial_transaction: Optional[Transaction] = initial_transaction
        self._txn_index: Optional[Dict[int, Transaction]] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_transactions(
        cls,
        sessions: Sequence[Sequence[Transaction]],
        *,
        initial_keys: Optional[Iterable[str]] = None,
        initial_transaction: Optional[Transaction] = None,
    ) -> "History":
        """Build a history from per-session transaction lists.

        Args:
            sessions: one sequence of transactions per session, in session
                order.
            initial_keys: if given (and no explicit initial transaction is
                supplied), an initial transaction writing ``INITIAL_VALUE``
                to each listed key is synthesised.
            initial_transaction: explicit ``⊥T`` to use.
        """
        session_objs = []
        for sid, txns in enumerate(sessions):
            session = Session(session_id=sid)
            for txn in txns:
                session.append(txn)
            session_objs.append(session)
        if initial_transaction is None and initial_keys is not None:
            initial_transaction = make_initial_transaction(initial_keys)
        return cls(session_objs, initial_transaction=initial_transaction)

    def add_session(self, session: Session) -> None:
        self.sessions.append(session)
        self._txn_index = None

    def ensure_initial_transaction(self, keys: Optional[Iterable[str]] = None) -> None:
        """Synthesise ``⊥T`` for all keys accessed in the history if absent."""
        if self.initial_transaction is not None:
            return
        if keys is None:
            keys = self.keys()
        self.initial_transaction = make_initial_transaction(keys)
        self._txn_index = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def transactions(self, include_initial: bool = True) -> List[Transaction]:
        """All transactions in the history (committed and aborted)."""
        txns: List[Transaction] = []
        if include_initial and self.initial_transaction is not None:
            txns.append(self.initial_transaction)
        for session in self.sessions:
            txns.extend(session.transactions)
        return txns

    def committed_transactions(self, include_initial: bool = True) -> List[Transaction]:
        """All committed transactions (the ones the checkers reason about)."""
        return [
            t
            for t in self.transactions(include_initial=include_initial)
            if t.committed
        ]

    def transaction_by_id(self, txn_id: int) -> Transaction:
        if self._txn_index is None:
            self._txn_index = {t.txn_id: t for t in self.transactions()}
        return self._txn_index[txn_id]

    def keys(self) -> Set[str]:
        """All objects accessed anywhere in the history."""
        result: Set[str] = set()
        for txn in self.transactions(include_initial=False):
            result.update(txn.keys())
        if self.initial_transaction is not None:
            result.update(self.initial_transaction.keys())
        return result

    def num_transactions(self, include_initial: bool = False) -> int:
        return len(self.transactions(include_initial=include_initial))

    # ------------------------------------------------------------------
    # Orders
    # ------------------------------------------------------------------
    def session_order(self, committed_only: bool = True) -> List[Tuple[Transaction, Transaction]]:
        """Adjacent session-order pairs (transitive edges are implied).

        The initial transaction precedes the first transaction of every
        session.  Following the optimization noted in the paper
        (Section IV-D), only adjacent pairs are returned; the transitive
        closure never needs to be materialised for acyclicity checking.
        """
        pairs: List[Tuple[Transaction, Transaction]] = []
        for session in self.sessions:
            txns = [
                t
                for t in session.transactions
                if (t.committed or not committed_only)
            ]
            if self.initial_transaction is not None and txns:
                pairs.append((self.initial_transaction, txns[0]))
            for prev, nxt in zip(txns, txns[1:]):
                pairs.append((prev, nxt))
        return pairs

    def real_time_order(
        self, committed_only: bool = True, reduced: bool = True
    ) -> List[Tuple[Transaction, Transaction]]:
        """Real-time order pairs, ``T1 RT→ T2`` iff ``T1.finish < T2.start``.

        Args:
            committed_only: restrict to committed transactions.
            reduced: return the transitive reduction of the interval order
                instead of the full quadratic relation.  Reachability (and
                hence acyclicity of any graph containing these edges) is
                preserved, because RT is an interval order and the reduction
                of a partial order preserves its reachability relation.
                Needs every interval to start no later than it finishes.
        """
        txns = [
            t
            for t in self.transactions(include_initial=False)
            if (t.committed or not committed_only)
            and t.start_ts is not None
            and t.finish_ts is not None
        ]
        if reduced:
            pairs = interval_order_reduction([(t.start_ts, t.finish_ts, t) for t in txns])
        else:
            pairs = [
                (a, b)
                for a, b in itertools.permutations(txns, 2)
                if a.finish_ts < b.start_ts  # type: ignore[operator]
            ]
        if self.initial_transaction is not None and txns:
            # ⊥T precedes every timestamped transaction in real time.
            first = min(txns, key=lambda t: t.start_ts)  # type: ignore[arg-type]
            pairs.append((self.initial_transaction, first))
        return pairs

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_transactions(include_initial=False)

    def __repr__(self) -> str:
        return (
            f"History(sessions={len(self.sessions)}, "
            f"transactions={self.num_transactions()})"
        )


def history_from_stream(transactions: Iterable[Transaction]) -> History:
    """Group a session-preserving transaction stream into a :class:`History`.

    The canonical reconstruction convention shared by every stream-shaped
    source (JSONL loads, columnar segments, lazily materialised indexes):
    ``⊥T`` becomes the initial transaction, the rest are grouped by session
    id with per-stream order preserved, and sessions are listed in
    ascending id order.
    """
    sessions: Dict[int, Session] = {}
    initial: Optional[Transaction] = None
    for txn in transactions:
        if txn.is_initial:
            initial = txn
            continue
        session = sessions.setdefault(txn.session_id, Session(txn.session_id))
        session.transactions.append(txn)
    return History(
        sessions=[sessions[sid] for sid in sorted(sessions)],
        initial_transaction=initial,
    )


def stream_order(history: History) -> Iterator[Transaction]:
    """Yield a history's transactions in a canonical streaming order.

    The initial transaction (when present) comes first; sessions are then
    merged by finish timestamp when every transaction carries one (the order
    a commit-log tail would deliver), falling back to round-robin
    interleaving.  Per-session order is always preserved, which is the one
    ordering requirement of :class:`IncrementalChecker`.

    This is the door every route takes from a :class:`History` to a verdict
    (``ColumnarHistory.from_history``, ``HistoryIndex.build``,
    ``ingest_history``), and past it a session *is* its id: a history whose
    ``sessions`` list repeats a session id, or lists a transaction under a
    session whose id differs from the transaction's own ``session_id``,
    raises ``ValueError`` instead of meaning different things downstream.
    :func:`history_from_stream` is the inverse.
    """
    # One pass: validate the sessions, snapshot their queues, and learn
    # whether a timestamp merge is possible — all before the first yield, so
    # a malformed history raises before any consumer has ingested a row.
    queues: List[List[Transaction]] = []
    seen_sessions: Set[int] = set()
    timestamped = True
    for session in history.sessions:
        sid = session.session_id
        if sid in seen_sessions:
            raise ValueError(
                f"malformed history: session id {sid} is listed more than once "
                f"(a session is identified by its id)"
            )
        seen_sessions.add(sid)
        queue = list(session.transactions)
        for txn in queue:
            if txn.session_id != sid:
                raise ValueError(
                    f"malformed history: session {sid} lists transaction "
                    f"T{txn.txn_id}, which carries session id {txn.session_id}"
                )
            if txn.finish_ts is None:
                timestamped = False
        queues.append(queue)
    if history.initial_transaction is not None:
        yield history.initial_transaction
    if timestamped:
        heap = [
            (queue[0].finish_ts, sid, 0)
            for sid, queue in enumerate(queues)
            if queue
        ]
        heapq.heapify(heap)
        while heap:
            _, sid, idx = heapq.heappop(heap)
            yield queues[sid][idx]
            if idx + 1 < len(queues[sid]):
                heapq.heappush(heap, (queues[sid][idx + 1].finish_ts, sid, idx + 1))
    else:
        pending = [(queue, 0) for queue in queues if queue]
        while pending:
            next_round = []
            for queue, idx in pending:
                yield queue[idx]
                if idx + 1 < len(queue):
                    next_round.append((queue, idx + 1))
            pending = next_round


def make_initial_transaction(keys: Iterable[str], value: int = INITIAL_VALUE) -> Transaction:
    """Create the initial transaction ``⊥T`` writing ``value`` to each key."""
    txn = Transaction(txn_id=INITIAL_TXN_ID, session_id=-1)
    for key in sorted(set(keys)):
        txn.append(write(key, value))
    return txn


def interval_order_reduction(
    entries: Sequence[Tuple[float, float, T]],
) -> List[Tuple[T, T]]:
    """Transitive reduction of the real-time (interval) order.

    ``entries`` are ``(start, finish, payload)`` triples; the result pairs
    the payloads.  ``A → B`` is kept iff ``A.finish < B.start`` and there
    is no ``C`` with ``A.finish < C.start`` and ``C.finish < B.start``.
    Equivalently, among the predecessors of ``B`` (all ``A`` with
    ``A.finish < B.start``), only those whose finish time is at least the
    maximum *start* time of any predecessor are immediate.  Both sorts key
    on a single timestamp, so equal stamps keep their entry order.  Every
    ``start <= finish`` (:func:`refuse_inverted_intervals`), else it drops pairs.
    """
    by_finish = sorted(entries, key=lambda e: e[1])
    by_start = sorted(entries, key=lambda e: e[0])

    pairs: List[Tuple[T, T]] = []
    finish_idx = 0
    max_start_of_preds = float("-inf")
    # Predecessor pool, kept as a list; we only need those with
    # finish >= max_start_of_preds, so we prune lazily.
    preds: List[Tuple[float, float, T]] = []
    for b in by_start:
        while finish_idx < len(by_finish) and by_finish[finish_idx][1] < b[0]:
            cand = by_finish[finish_idx]
            preds.append(cand)
            if cand[0] > max_start_of_preds:
                max_start_of_preds = cand[0]
            finish_idx += 1
        if not preds:
            continue
        # Prune predecessors that can no longer be immediate for any later b.
        preds = [a for a in preds if a[1] >= max_start_of_preds]
        for a in preds:
            pairs.append((a[2], b[2]))
    return pairs


def refuse_inverted_intervals(
    txn_ids: Sequence[int], starts: Sequence[float], finishes: Sequence[float]
) -> None:
    """Raise ``ValueError`` naming the first of these parallel rows that
    finishes before it starts (a missing stamp, NaN, compares false)."""
    if any(map(gt, starts, finishes)):
        row = list(map(gt, starts, finishes)).index(True)
        raise ValueError(f"malformed history: transaction {txn_ids[row]} finishes at "
                         f"{float(finishes[row])} before it starts at {float(starts[row])}")
