"""Streaming incremental verification: online MTC checking.

The batch checkers rebuild the whole dependency graph per call; re-verifying
after each of ``n`` transactions would cost Θ(n²).  The online counterpart:

* :class:`PearceKellyOrder` keeps a topological order of the check graph
  under edge insertions (Pearce & Kelly, JEA 2006), paying only for the
  *affected region* — the nodes whose order has to move.
* :class:`IncrementalChecker` ingests transactions (or columnar segments)
  and hands each edge — WR/WW/RW from per-version *slots*, SO from session
  tails, RT through a timeline of time nodes — to that order, whose
  adjacency carries the labels.  It reports each violation at the
  transaction whose ingestion created it; a
  :class:`~repro.core.graph.DependencyGraph` exists only on request
  (:attr:`IncrementalChecker.graph`).
* :class:`CheckerSession` is the checker :meth:`repro.core.checker.MTChecker.session`
  hands out, also a live ``on_transaction`` hook for the workload runner.

Equivalence invariant
---------------------
For any ingestion order that preserves per-session order, the verdict over
a complete history equals the batch ``check_ser`` / ``check_si`` /
``check_sser`` one (the counterexample may differ in shape, never in
existence).
Reads may arrive before their writers: they are *pending* until it shows
up, and reads that never resolve are ThinAirRead in :meth:`result`, as in
the batch INT pre-pass.

Real time (SSER)
----------------
``A.finish < B.start`` is not added as transaction pairs (the reduction
alone can hold n²/4).  Each distinct ``(stamp, kind)`` is one *time node*
of the order, a start before a finish at one stamp.  The finish nodes form
a *chain*; a start node hangs from the member before it.  A stamped ``A``
adds ``node(start A) → A → node(finish A)``, so a path runs from ``A`` to
``B`` through time nodes iff ``A`` finishes before ``B`` starts: two edges
per transaction, in any arrival order.  A reported cycle contracts each run
of time nodes into one ``RT`` edge.  A row that finishes before it starts
is refused before anything changes (``ValueError``), as batch refuses it.

Bounded-window mode
-------------------
With ``window=W`` a transaction is collected once ``W`` newer ones arrived.
It can never rejoin a cycle if the stream is *W-bounded*: writers come
before their readers, and a read sees a version still the latest on its
object or overwritten at most ``W`` transactions ago.  A version is *sealed*
when its first overwriter is collected; a read of it breaks the bound and
counts in :attr:`IncrementalChecker.stale_reads` (nonzero: the verdict is
not complete).  Sealed markers are capped (FIFO, ``max(4·W, 1024)``), so
memory is O(window + live keys); a read of an expired one is ThinAirRead,
which is louder.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left, insort
from collections import defaultdict, deque
from itertools import accumulate, chain, count, pairwise, product
from typing import (
    TYPE_CHECKING, Any, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple,
)

from .. import obs
from .checkers import classify_cycle
from .graph import DependencyGraph, Edge, EdgeType, best_label
from .intcheck import transaction_int_violations
from .model import (
    INITIAL_TXN_ID, STATUS_CODES, STATUS_FROM_CODE, History, Transaction, TransactionStatus,
    make_initial_transaction, refuse_inverted_intervals, stream_order,
)
from .result import AnomalyKind, CheckResult, IsolationLevel, Violation

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..history.columnar import ColumnarHistory

__all__ = [
    "PearceKellyOrder", "IncrementalChecker", "CheckerSession", "stream_order", "CHECKPOINT_STATE_FORMAT",
]

#: Format tag of :meth:`IncrementalChecker.checkpoint` state dictionaries.
CHECKPOINT_STATE_FORMAT = "repro-checker-state-v5"

#: Isolation levels the incremental checker supports.
GRAPH_LEVELS = (
    IsolationLevel.SERIALIZABILITY, IsolationLevel.SNAPSHOT_ISOLATION, IsolationLevel.STRICT_SERIALIZABILITY,
)


class PearceKellyOrder:
    """Online topological order maintenance (the Pearce–Kelly algorithm).

    Inserting ``u -> v`` with ``ord[u] < ord[v]`` is free; otherwise only
    the *affected region* — the nodes between ``ord[v]`` and ``ord[u]``
    forward-reachable from ``v`` or backward-reachable from ``u`` — is
    re-sorted.  An insertion that would close a cycle returns it (the node
    path ``v -> … -> u``) and is *not* made, so checking continues past it.

    The order is also the labeled multigraph of the edges it accepted:
    ``_succ[u][v]`` lists the labels of ``u -> v``.  Adjacency keeps
    insertion order (no sets), so traversal — and each reported path — is a
    function of the insertion sequence that survives a checkpoint.

    Example:
        >>> topo = PearceKellyOrder()
        >>> topo.add_edge(1, 2) is None and topo.add_edge(2, 3, "WR") is None
        True
        >>> topo.add_edge(3, 1)
        [1, 2, 3]
        >>> topo.labels(2, 3), topo.labels(3, 1)
        (['WR'], [])
    """

    def __init__(self) -> None:
        self._ord: Dict[int, int] = {}
        self._succ: Dict[int, Dict[int, List[Any]]] = {}
        self._pred: Dict[int, Dict[int, None]] = {}
        self._counter = 0
        self._fractions: Set[float] = set()  # the indices between two counter values
        #: Nodes visited by affected-region reorderings (plain int — this is
        #: the hot path, so telemetry reads it lazily rather than per edge).
        self.reorder_visits = 0

    def __contains__(self, node: int) -> bool:
        return node in self._ord

    def __len__(self) -> int:
        return len(self._ord)

    def add_node(self, node: Any, low: Any = None, high: Any = None) -> None:
        """Add ``node`` last in the order, or, when ``high`` is a node, between
        ``low`` (``None``: any) and ``high`` on a free fraction of an index, so
        that edges ``low → node → high`` cost no reorder."""
        if node in self._ord:
            return
        index: float = self._counter
        if high in self._ord:
            top = self._ord[high]
            bottom = self._ord[low] if low is not None else top - 1
            mid = (bottom + top) / 2
            while mid.is_integer() and bottom < mid:
                mid = (bottom + mid) / 2
            if bottom < mid < top and mid not in self._fractions:
                index = mid
                self._fractions.add(mid)
        self._counter += index == self._counter
        self._ord[node] = index
        self._succ[node] = {}
        self._pred[node] = {}

    def order_of(self, node: int) -> int:
        """The node's current topological index (smaller sorts earlier)."""
        return self._ord[node]

    def has_edge(self, source: int, target: int) -> bool:
        return target in self._succ.get(source, ())

    def labels(self, source: int, target: int) -> List[Any]:
        """The labels ``source -> target`` holds (empty when not an edge)."""
        return self._succ.get(source, {}).get(target, [])

    def edges(self) -> Iterator[Tuple[int, int, List[Any]]]:
        """Every edge as ``(source, target, labels)``, in adjacency order."""
        for source, targets in self._succ.items():
            for target, labels in targets.items():
                yield source, target, labels

    def add_edge(self, source: int, target: int, label: Any = None) -> Optional[List[int]]:
        """Insert ``source -> target`` under ``label``; return a cycle instead
        if one forms.

        Returns ``None`` on success (a new label on an existing edge is
        recorded for free, one it already holds changes nothing).  On a
        would-be cycle, returns the node path from ``target`` to ``source``
        (the rejected ``source -> target`` closes it), order unchanged.
        """
        targets = self._succ.get(source)
        if targets is None:
            self.add_node(source)
            targets = self._succ[source]
        labels = targets.get(target)
        if labels is not None:
            if label not in labels:
                labels.append(label)
            return None
        if source == target:
            return [source]
        order = self._ord
        if target not in order:
            self.add_node(target)
        lower, upper = order[target], order[source]
        if upper < lower:
            targets[target] = [label]
            self._pred[target][source] = None
            return None

        # Forward pass: nodes reachable from ``target`` within the affected
        # index range.  Meeting ``source`` means the new edge closes a cycle.
        parent: Dict[int, Optional[int]] = {target: None}
        forward: List[int] = []
        stack = [target]
        while stack:
            node = stack.pop()
            forward.append(node)
            for nxt in self._succ[node]:
                if nxt == source:
                    path = [source]
                    current: Optional[int] = node
                    while current is not None:
                        path.append(current)
                        current = parent[current]
                    path.reverse()
                    return path
                if nxt not in parent and order[nxt] < upper:
                    parent[nxt] = node
                    stack.append(nxt)

        # Backward pass: nodes that reach ``source`` within the range.
        backward_seen: Set[int] = {source}
        backward: List[int] = []
        stack = [source]
        while stack:
            node = stack.pop()
            backward.append(node)
            for prv in self._pred[node]:
                if prv not in backward_seen and order[prv] > lower:
                    backward_seen.add(prv)
                    stack.append(prv)

        # Re-map the affected nodes onto their own (sorted) index pool with
        # the backward region ordered entirely before the forward region.
        self.reorder_visits += len(forward) + len(backward)
        backward.sort(key=order.__getitem__)
        forward.sort(key=order.__getitem__)
        pool = sorted(order[node] for node in backward + forward)
        for node, index in zip(backward + forward, pool):
            order[node] = index

        targets[target] = [label]
        self._pred[target][source] = None
        return None

    def remove_edge(self, source: int, target: int) -> None:
        """Drop ``source -> target`` if it is an edge; the order stays valid."""
        if self._succ[source].pop(target, None) is not None:
            del self._pred[target][source]

    def remove_node(self, node: int) -> None:
        """Remove a node and its incident edges, in O(degree) (window GC)."""
        if node not in self._ord:
            return
        for nxt in self._succ.pop(node):
            self._pred[nxt].pop(node, None)
        for prv in self._pred.pop(node):
            self._succ[prv].pop(node, None)
        self._fractions.discard(self._ord.pop(node))


class _Slot:
    """Bookkeeping for one written version ``(key, value)``: its WR/WW/RW
    edges are determined by who wrote, read and overwrote it."""

    __slots__ = ("code", "writer_id", "writer_status", "intermediate_id",
                 "readers", "overwriters", "rmw_seen", "pending")

    def __init__(self, code: int) -> None:
        #: The version's key in the slot table (see ``_RADIX``).
        self.code = code
        self.writer_id: Optional[int] = None
        self.writer_status: Optional[TransactionStatus] = None
        self.intermediate_id: Optional[int] = None
        #: Committed readers with a WR edge from the writer.
        self.readers: List[int] = []
        #: Committed RMW readers with a WW edge from the writer.
        self.overwriters: List[int] = []
        #: ``(txn_id, value written)`` of every committed RMW reader,
        #: tracked independently of writer resolution for DIVERGENCE.
        self.rmw_seen: List[Tuple[int, Optional[int]]] = []
        #: ``(txn_id, writes_key)`` readers ingested before any writer.
        self.pending: List[Tuple[int, bool]] = []


#: Marker replacing a slot whose version aged out of the streaming window.
_SEALED = object()

#: A version ``(key, value)`` is the int ``value * _RADIX + key id`` (the
#: checker's dense key ids); a version without a value takes value 0 and the
#: key id ``_VALUELESS + id``.  One small int per version, nothing to allocate.
_RADIX = 1 << 32
_VALUELESS = 1 << 31

#: ``status`` of a checkpointed slot row that is not a writer's status code:
#: no writer yet, or a version sealed by the window (checkpointed as
#: ``_SEALED_ROW``, a row holding nothing).
_NO_WRITER, _SEALED_STATUS = -1, -2
_SEALED_ROW = _Slot(0)
#: Labels are ``(EdgeType value, key)`` tuples of plain strings: they compare
#: in C, where an ``Enum`` member hashes through a Python call.
_EDGE_TYPES = {member.value: member for member in EdgeType}
#: Edge types in label-code order: a checkpoint writes a label as the int
#: ``type·(len(keys)+1) + key id+1`` (key 0: the label has none).
_LABEL_TYPES = tuple(_EDGE_TYPES)
_RT, _SO, _WR, _WW, _RW, _COMPOSED = (
    EdgeType[name].value for name in ("RT", "SO", "WR", "WW", "RW", "COMPOSED")
)
_REAL_TIME = (_RT, None)

#: A time node is its own key, a ``(stamp, kind)`` tuple (no transaction id
#: is a tuple); a start sorts before a finish at one stamp.
_START, _FINISH = 0, 1
# Module constants: an ``Enum`` class attribute costs a descriptor call per read.
_COMMITTED, _ABORTED = TransactionStatus.COMMITTED, TransactionStatus.ABORTED

#: Typecode of each checkpoint column that is not ``q`` (ids, values, counts).
_TYPECODES = {"ord": "d", "stamp": "d", "status": "b", "kind": "b", "pending_writes": "b"}


def _typed(typecode: str, values: List[Any]) -> Any:
    """A fresh typed column of ``values``; one that overflows ``typecode``
    stays the list (it is written as JSON), never truncated."""
    try:
        return array(typecode, values)
    except OverflowError:
        return values


def _ragged(lists: List[List[Any]]) -> Tuple[array, List[Any]]:
    """One list per row as a count column and the flat list of their items."""
    return array("q", [len(items) for items in lists]), list(chain.from_iterable(lists))


def _column(table: Dict[str, Any], name: str) -> Any:
    """Column ``name`` of one state table: an array of its typecode, or the
    list of numbers a column that overflowed it was written as."""
    column = table[name]
    typecode = _TYPECODES.get(name, "q")
    if isinstance(column, array) and column.typecode == typecode:
        return column
    numbers = (int, float) if typecode == "d" else (int,)
    if not isinstance(column, list) or not all(type(v) in numbers for v in column):
        raise TypeError(f"column {name!r} must be a {typecode!r} array")
    return column


def _rows(table: Dict[str, Any], *names: str) -> Iterator[Tuple[Any, ...]]:
    """Zip the named parallel columns of one state table back into rows."""
    return zip(*(_column(table, name) for name in names), strict=True)


def _versions(table: Dict[str, Any], name: str, num_keys: int) -> Any:
    """A column of checkpointed version codes, every key id validated."""
    codes = _column(table, name)
    if max(map((_VALUELESS - 1).__and__, codes), default=-1) >= num_keys:  # the low 31 bits: the key id
        raise ValueError(f"{name} names an unknown key id")
    return codes


def _ragged_rows(counts: Any, flat: List[Any], name: str) -> List[List[Any]]:
    """Cut ``flat`` into one fresh list per row, ``counts`` long each (validated)."""
    if min(counts, default=0) < 0 or sum(counts) != len(flat):
        raise ValueError(f"the {name} counts disagree with its column")
    flat = list(flat)
    return [flat[start:end] for start, end in pairwise(accumulate(counts, initial=0))]


def _sparse(table: Dict[str, Any], name: str, size: int) -> Any:
    """A side table's row column: increasing rows of a ``size``-row column."""
    rows = _column(table, name)
    if list(rows) != sorted(set(rows)) or rows and not 0 <= rows[0] <= rows[-1] < size:
        raise ValueError(f"{name} is not a set of rows below {size}")
    return rows


def _labels(codes: Any, key_names: List[str]) -> List[Tuple[str, Optional[str]]]:
    """The ``(type, key)`` labels of a column of label codes (validated)."""
    names: List[Optional[str]] = [None, *key_names]
    span = len(names)
    if codes and not 0 <= min(codes) <= max(codes) < len(_LABEL_TYPES) * span:
        raise ValueError("unknown edge label code")
    table = {code: (_LABEL_TYPES[code // span], names[code % span]) for code in set(codes)}
    return [table[code] for code in codes]


def _transaction_steps(cycle: List[int]) -> List[Tuple[int, int, bool]]:
    """A cycle of the order (a node path from a transaction, closed by
    ``cycle[-1] → cycle[0]``) as ``(tail, head, via_time)`` steps between
    transactions: each run of time nodes is contracted into one step."""
    steps, tail, via_time = [], cycle[0], False
    for node in chain(cycle[1:], cycle[:1]):
        if type(node) is tuple:
            via_time = True
        else:
            steps.append((tail, node, via_time))
            tail, via_time = node, False
    return steps


class IncrementalChecker:
    """Online MTC verification: the batch pipeline — INT pre-pass,
    BUILDDEPENDENCY, acyclicity — run per transaction.  INT anomalies are
    reported at ingest; reads resolve against per-version slots; every edge
    goes, labels and all, into a :class:`PearceKellyOrder`; at SI the induced
    graph ``(SO ∪ WR ∪ WW) ; RW?`` is composed edge by edge.

    A committed transaction whose id is still a live node is refused
    (``ValueError("malformed history: duplicate transaction id N")``): two
    transactions under one id would share a node.  Under ``window`` an id
    that eviction already removed is no longer recognised as a repeat.

    Example:
        >>> from repro import IsolationLevel, Transaction, read, write
        >>> from repro.core.incremental import IncrementalChecker
        >>> checker = IncrementalChecker(IsolationLevel.SERIALIZABILITY,
        ...                              initial_keys=["x"])
        >>> checker.ingest(Transaction(1, [read("x", 0), write("x", 1)]))
        []
        >>> bad = checker.ingest(Transaction(2, [read("x", 0), write("x", 2)],
        ...                                  session_id=1))
        >>> [v.kind.value for v in bad]
        ['LostUpdate']
        >>> checker.result().satisfied
        False

    Args:
        level: SERIALIZABILITY, SNAPSHOT_ISOLATION, or
            STRICT_SERIALIZABILITY (timestamps required for the latter).
        initial_keys: synthesise and ingest the initial transaction ``⊥T``
            over these keys (alternatively ingest one explicitly first).
        window: bounded-window mode — keep only the most recent ``window``
            transactions in the graph; see the module docstring for the
            staleness contract.
    """

    def __init__(
        self, level: IsolationLevel, *, initial_keys: Optional[Iterable[str]] = None,
        window: Optional[int] = None,
    ) -> None:
        if level not in GRAPH_LEVELS:
            raise ValueError(
                f"incremental checking supports {', '.join(l.short_name for l in GRAPH_LEVELS)}; "
                f"got {level}"
            )
        if window is not None and window < 1:
            raise ValueError("window must be a positive transaction count")
        self.level = level
        self.window = window
        self._si = level is IsolationLevel.SNAPSHOT_ISOLATION
        self._sser = level is IsolationLevel.STRICT_SERIALIZABILITY

        # The check graph with its labels (the induced graph at SI).
        # ``_refused`` maps ``(source, target)`` to the labels of the edges
        # the order would not take (each closed a cycle), so duplicate
        # detection and cycle labeling still see them.
        self._topo = PearceKellyOrder()
        self._refused: Dict[Tuple[int, int], List[Tuple[str, Optional[str]]]] = {}
        self._key_ids: Dict[str, int] = {}
        self._key_names: List[str] = []
        self._slots: Dict[int, object] = {}
        self._last_in_session: Dict[int, int] = {}
        self._has_initial = False
        self._violations: List[Violation] = []
        self._num_committed = 0
        self._elapsed = 0.0

        # SI composition state (insertion-ordered dicts, as in the order).
        self._base_preds: Dict[int, Dict[int, None]] = defaultdict(dict)
        self._rw_succ: Dict[int, List[Tuple[int, Optional[str]]]] = defaultdict(list)

        # SSER: the time nodes in sorted order, and the finish nodes (the chain).
        self._timeline: List[Tuple[float, int]] = []
        self._chain: List[Tuple[float, int]] = []

        # Bounded-window GC state.  ``_overwrote`` maps a transaction to the
        # versions it read-modified: those slots are sealed at its eviction,
        # as every new reader would add an RW in-edge to the collected
        # overwriter.  An evicted node is one absent from the order.  Sealed
        # markers sit in a FIFO capped at ``max(4 * window, 1024)``; a read
        # of an expired one reports ThinAirRead, not a stale read.
        self._arrivals: Deque[int] = deque()
        self._overwrote: Dict[int, List[int]] = {}
        self._sealed_fifo: Deque[int] = deque()
        self._sealed_cap = max(4 * window, 1024) if window is not None else 0
        #: Reads of a version the window already sealed (see the module docstring).
        self.stale_reads = 0
        #: Transactions garbage-collected so far.
        self.evicted_count = 0

        if initial_keys is not None:
            self.ingest(make_initial_transaction(initial_keys))

    @property
    def graph(self) -> DependencyGraph:
        """The dependency graph over the live transactions, built per access:
        the order's labels plus the refused edges, at SI the RW edges in place
        of their compositions, at SSER the reduced real-time pairs."""
        graph = DependencyGraph(node for node in self._topo._ord if type(node) is not tuple)
        for source, target, labels in chain(self._topo.edges(), self._refused_edges()):
            if type(source) is tuple or type(target) is tuple:
                continue
            for etype, key in labels:
                if etype != _COMPOSED:
                    graph.add_edge(source, target, _EDGE_TYPES[etype], key)
        for node in self._timeline:
            if node[1] == _FINISH:  # the reduced real-time pairs
                sources = [v for v in self._topo._pred[node] if type(v) is not tuple]
                for source, target in product(sources, self._real_time_neighbours(node, True)):
                    graph.add_edge(source, target, EdgeType.RT)
        for source, successors in self._rw_succ.items():
            for target, key in successors:
                if target in self._topo:
                    graph.add_edge(source, target, EdgeType.RW, key)
        return graph

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, txn: Transaction) -> List[Violation]:
        """Ingest one transaction; return the violations it triggered.  Aborted
        (and unknown-outcome) ones only register their writes; ThinAirRead is
        confirmed only at :meth:`result`, as the writer may be in flight.
        A row that finishes before it starts raises ``ValueError``."""
        if txn.start_ts is not None and txn.finish_ts is not None:
            refuse_inverted_intervals((txn.txn_id,), (txn.start_ts,), (txn.finish_ts,))
        started = time.perf_counter()
        before = len(self._violations)
        ops = txn.operations
        self._ingest_row(
            txn.txn_id, txn.session_id, txn.status, range(len(ops)),
            [op.is_write for op in ops], [self._key_id(op.key) for op in ops],
            [op.value for op in ops], txn, None, 0,
        )
        self._elapsed += time.perf_counter() - started
        return self._violations[before:]

    def ingest_round(self, txns: Iterable[Transaction]) -> List[Violation]:
        """Ingest a batch of transactions; return all violations triggered."""
        return [violation for txn in txns for violation in self.ingest(txn)]

    def ingest_segment(
        self, segment: "ColumnarHistory", *,
        on_row_violations: Optional[Callable[[int, List[Violation]], object]] = None,
    ) -> List[Violation]:
        """Bulk-ingest one columnar segment epoch; return its violations.

        ``on_row_violations(row, violations)`` is invoked after any row whose
        ingestion triggered violations (the CLI tags its output with it).
        The columnar :meth:`ingest_round`, over the same per-row routine:
        the columns become plain lists once and the key ids are mapped once;
        a ``Transaction`` is made only for a row holding an INT candidate.
        A row that finishes before it starts raises ``ValueError`` first.
        """
        refuse_inverted_intervals(segment.txn_ids, segment.start_ts, segment.finish_ts)
        started = time.perf_counter()
        violations = self._violations
        before = len(violations)
        key_ids = [self._key_id(name) for name in segment.key_names]
        kinds = list(segment.op_kinds)
        keys = [key_ids[kid] for kid in segment.op_keys]
        values: List[Optional[int]] = list(segment.op_values)
        if 0 in segment.op_has_value:
            values = [v if has else None for v, has in zip(values, segment.op_has_value)]
        offsets = list(segment.op_offsets)
        rows = zip(segment.txn_ids, segment.session_ids, segment.statuses)
        for row, (txn_id, session_id, status) in enumerate(rows):
            row_before = len(violations)
            self._ingest_row(
                txn_id, session_id, STATUS_FROM_CODE[status],
                range(offsets[row], offsets[row + 1]), kinds, keys, values, None, segment, row,
            )
            if on_row_violations is not None and len(violations) > row_before:
                on_row_violations(row, violations[row_before:])
        self._elapsed += time.perf_counter() - started
        self.publish_metrics()
        return violations[before:]

    def _key_id(self, key: str) -> int:
        """The checker's dense id of ``key`` (interned on first sight)."""
        kid = self._key_ids.get(key)
        if kid is None:
            kid = self._key_ids[key] = len(self._key_names)
            self._key_names.append(key)
        return kid

    def _ingest_row(
        self, txn_id: int, session_id: int, status: TransactionStatus,
        ops: range, kinds: List[Any], keys: List[int], values: List[Optional[int]],
        txn: Optional[Transaction], segment: Optional["ColumnarHistory"], row: int,
    ) -> None:
        """The per-transaction routine behind :meth:`ingest` and segment rows.

        The row's operations sit at positions ``ops`` of ``kinds`` / ``keys``
        (checker key ids) / ``values``; ``txn`` is ``None`` for a segment row,
        whose object (INT candidates) and stamps (SSER) are fetched on demand.
        One scan collects the final and intermediate writes, the reads to
        resolve (as ``Transaction.external_reads``) and whether the row is an
        INT candidate (see :func:`repro.core.intcheck.transaction_int_violations`).
        """
        committed = status is _COMMITTED
        reads = committed and txn_id != INITIAL_TXN_ID
        if txn_id == INITIAL_TXN_ID:
            self._has_initial = True
            self._topo.add_node(txn_id)
        else:
            if committed and txn_id in self._topo:
                raise ValueError(f"malformed history: duplicate transaction id {txn_id}")

        last: Dict[int, Optional[int]] = {}  # key id -> value of its last op so far
        finals: Dict[int, Optional[int]] = {}
        intermediates: List[Tuple[int, Optional[int]]] = []
        external: List[Tuple[int, Optional[int]]] = []  # reads to resolve, in op order
        candidate = False
        for op in ops:
            kid = keys[op]
            value = values[op]
            if kinds[op]:
                if kid in finals:
                    intermediates.append((kid, finals[kid]))
                finals[kid] = last[kid] = value
                if external and (kid, value) in external:
                    # FutureRead: the INT pass reports it; resolving it would
                    # fabricate a second anomaly (or a pending read of itself).
                    external.remove((kid, value))
                    candidate = True
            elif reads:
                if kid not in last:
                    external.append((kid, value))
                elif last[kid] != value:
                    candidate = True
                    no_valued_read = all(k != kid or v is None for k, v in external)
                    if value is not None and kid not in finals and no_valued_read:
                        external.append((kid, value))  # the key's reads so far were valueless
                last[kid] = value

        if reads:
            self._num_committed += 1
            span = self._real_time_start(txn, segment, row) if self._sser else None
            self._topo.add_node(txn_id, *span or ())
            if candidate:
                if txn is None:
                    txn = segment.transaction_at(row)
                self._violations.extend(transaction_int_violations(txn))
            self._session_edge(session_id, txn_id)
        for kid, value in intermediates:
            self._register_intermediate(kid, value, txn_id)
        for kid, value in finals.items():
            self._register_final(kid, value, txn_id, status)
        if reads:
            for kid, value in external:
                # A valueless read is provenance-checked only (batch parity).
                self._resolve_one_read(
                    txn_id, kid, value, value is not None and kid in finals, finals.get(kid)
                )
            if span is not None:
                self._real_time(txn_id, *span)
            if self.window is not None:
                self._arrivals.append(txn_id)
                while len(self._arrivals) > self.window:
                    self._evict(self._arrivals.popleft())

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def violations(self) -> List[Violation]:
        """Violations confirmed so far (excluding pending thin-air reads)."""
        return list(self._violations)

    @property
    def satisfied(self) -> bool:
        """Whether no violation has been confirmed so far."""
        return not self._violations

    @property
    def num_ingested(self) -> int:
        """Committed transactions ingested (excluding ``⊥T``)."""
        return self._num_committed

    def publish_metrics(self) -> None:
        """Publish the running counters as telemetry gauges (at segment
        boundaries, ``result()`` and checkpoints, never per transaction)."""
        if not obs.enabled():
            return
        obs.set_gauge("repro_checker_txns_ingested", self._num_committed)
        obs.set_gauge("repro_checker_violations", len(self._violations))
        obs.set_gauge("repro_checker_window_evictions", self.evicted_count)
        obs.set_gauge("repro_checker_stale_reads", self.stale_reads)
        obs.set_gauge("repro_checker_pk_reorder_visits", self._topo.reorder_visits)
        obs.set_gauge("repro_checker_graph_nodes", len(self._topo) - len(self._timeline))

    def result(self) -> CheckResult:
        """The verdict over everything ingested so far; the stream goes on.

        Unresolved pending reads are reported as ThinAirRead here — a
        complete history has none, making the verdict equal to the batch
        checker's.
        """
        self.publish_metrics()
        violations = [*self._violations, *self._pending_violations()]
        if violations:
            result = CheckResult.violated(self.level, violations, num_transactions=self._num_committed)
        else:
            result = CheckResult.ok(self.level, self._num_committed)
        result.elapsed_seconds = self._elapsed
        return result

    def _version(self, code: int) -> Tuple[str, Optional[int]]:
        """The ``(key, value)`` a slot-table code stands for."""
        value, kid = divmod(code, _RADIX)
        if kid >= _VALUELESS:
            return self._key_names[kid - _VALUELESS], None
        return self._key_names[kid], value

    def _pending_violations(self) -> List[Violation]:
        out: List[Violation] = []
        for slot in self._slots.values():
            if not isinstance(slot, _Slot) or not slot.pending or slot.writer_id is not None:
                continue  # sealed; nothing pending; resolved after the reader went pending
            key, value = self._version(slot.code)
            for reader_id, _ in slot.pending:
                if slot.intermediate_id is not None and slot.intermediate_id != reader_id:
                    out.append(self._intermediate_violation(reader_id, slot, key))
                else:
                    out.append(Violation(
                        kind=AnomalyKind.THIN_AIR_READ, txn_ids=[reader_id], key=key,
                        description=f"read R({key},{value}) observes value {value}, "
                                    "which no transaction wrote",
                    ))
        return out

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot the complete checker state as typed columns.

        Layout (``repro-checker-state-v5``): scalars, ``keys`` and
        ``violations`` are JSON values; every other table is a dictionary of
        *parallel columns*, rows in insertion order, each a fresh ``array``
        (``q``: ids, values, counts; ``d``: ``ord`` and ``stamp``; ``b``:
        codes) or, if it overflows its typecode, a list.  ``topo`` is the
        order: ``node``/``ord`` and a ``src``/``dst``/``label`` row per edge
        label, the label being ``type·(len(keys)+1) + key id+1`` (types in
        ``EdgeType`` order, key 0: none); a time node is the id
        ``time_base - 1 - i`` for its row ``i`` of ``rt``, the SSER timeline
        (a ``stamp``/``kind`` row per time node, sorted; ``kind`` 0: a start,
        1: a finish).  ``refused`` has the order's three edge columns.  A version is
        its code ``value·2**32 + key id`` (``+ 2**31``: no value), the key id
        indexing ``keys``.  ``slots`` has a ``status`` (a status code,
        −1: no writer, −2: sealed) and ``writer`` per row, each list as a
        ``*_count`` column plus a flat one (``readers``, ``overwriters``,
        ``rmw_seen_txn``/``_value``, ``pending_txn``/``_writes``), and its
        ``None``s as side tables of rows (``intermediate_row`` +
        ``intermediate``, ``rmw_seen_valueless``).  :func:`repro.ondisk.pack_columns`
        writes it.  Any suffix of transactions yields byte-identical
        verdicts from this checker and from :meth:`restore` of the snapshot,
        which shares nothing with it.
        """
        started = time.perf_counter()
        self.publish_metrics()
        topo, timeline = self._topo, self._timeline
        key_code: Dict[Optional[str], int] = {None: 0}
        key_code.update(zip(self._key_names, count(1)))
        type_code = {etype: t * len(key_code) for t, etype in enumerate(_LABEL_TYPES)}
        if timeline:
            time_base = min((node for node in topo._ord if type(node) is not tuple), default=0)
            ref = {node: time_base - 1 - i for i, node in enumerate(timeline)}
        else:
            time_base, ref = min(topo._ord, default=0), {}

        def edge_table(pairs: List[Tuple[Any, Dict[Any, List[Tuple[str, Optional[str]]]]]]) -> Dict[str, Any]:
            # ``pairs``: each source with its targets' labels; a row per label.
            src = [s for s, targets in pairs for labels in targets.values() for _ in labels]
            dst = [t for _, targets in pairs for t, labels in targets.items() for _ in labels]
            if ref:
                src, dst = list(map(ref.get, src, src)), list(map(ref.get, dst, dst))
            return {"src": _typed("q", src), "dst": _typed("q", dst), "label": array("q", [
                type_code[e] + key_code[k] for _, targets in pairs for labels in targets.values() for e, k in labels
            ])}

        rows = [_SEALED_ROW if slot is _SEALED else slot for slot in self._slots.values()]
        readers_count, readers = _ragged([slot.readers for slot in rows])
        overwriters_count, overwriters = _ragged([slot.overwriters for slot in rows])
        rmw_seen_count, rmw_seen = _ragged([slot.rmw_seen for slot in rows])
        pending_count, pending = _ragged([slot.pending for slot in rows])
        intermediate = [i for i, slot in enumerate(rows) if slot.intermediate_id is not None]
        nodes = list(topo._ord)
        state = {
            "format": CHECKPOINT_STATE_FORMAT,
            "level": self.level.value,
            "window": self.window,
            "has_initial": self._has_initial,
            "num_committed": self._num_committed,
            "elapsed": self._elapsed,
            "stale_reads": self.stale_reads,
            "evicted_count": self.evicted_count,
            "violations": [v.to_dict() for v in self._violations],
            "keys": list(self._key_names),
            "topo": {
                "counter": topo._counter,
                "time_base": time_base,
                "node": _typed("q", list(map(ref.get, nodes, nodes)) if ref else nodes),
                "ord": _typed("d", list(topo._ord.values())),
                **edge_table(list(topo._succ.items())),
            },
            "refused": edge_table([(s, {t: labels}) for (s, t), labels in self._refused.items()]),
            "slots": {
                "version": _typed("q", list(self._slots)),
                "status": array("b", [
                    _SEALED_STATUS if slot is _SEALED_ROW else 0 if slot.writer_status is _COMMITTED
                    else _NO_WRITER if slot.writer_status is None else STATUS_CODES[slot.writer_status]
                    for slot in rows
                ]),
                "writer": _typed("q", [slot.writer_id or 0 for slot in rows]),
                "intermediate_row": array("q", intermediate),
                "intermediate": _typed("q", [rows[i].intermediate_id for i in intermediate]),
                "readers_count": readers_count,
                "readers": _typed("q", readers),
                "overwriters_count": overwriters_count,
                "overwriters": _typed("q", overwriters),
                "rmw_seen_count": rmw_seen_count,
                "rmw_seen_txn": _typed("q", [txn for txn, _ in rmw_seen]),
                "rmw_seen_value": _typed("q", [0 if value is None else value for _, value in rmw_seen]),
                "rmw_seen_valueless": array("q", [i for i, (_, value) in enumerate(rmw_seen) if value is None]),
                "pending_count": pending_count,
                "pending_txn": _typed("q", [txn for txn, _ in pending]),
                "pending_writes": array("b", [writes for _, writes in pending]),
            },
            "last_in_session": {
                "session": _typed("q", list(self._last_in_session)),
                "txn": _typed("q", list(self._last_in_session.values())),
            },
            "base_preds": {
                "dst": _typed("q", [t for t, preds in self._base_preds.items() for _ in preds]),
                "src": _typed("q", list(chain.from_iterable(self._base_preds.values()))),
            },
            "rw_succ": {
                "src": _typed("q", [s for s, edges in self._rw_succ.items() for _ in edges]),
                "dst": _typed("q", [t for edges in self._rw_succ.values() for t, _ in edges]),
                "key": array("q", [key_code[k] for edges in self._rw_succ.values() for _, k in edges]),
            },
            "rt": {
                "stamp": array("d", [stamp for stamp, _ in timeline]),
                "kind": array("b", [kind for _, kind in timeline]),
            },
            "arrivals": _typed("q", list(self._arrivals)),
            "overwrote": {
                "txn": _typed("q", [txn for txn, codes in self._overwrote.items() for _ in codes]),
                "version": _typed("q", list(chain.from_iterable(self._overwrote.values()))),
            },
            "sealed_fifo": _typed("q", list(self._sealed_fifo)),
        }
        obs.observe("repro_checker_checkpoint_seconds", time.perf_counter() - started, op="save")
        return state

    @classmethod
    def restore(cls, state: Dict[str, Any]) -> "IncrementalChecker":
        """Rebuild a checker from a :meth:`checkpoint` snapshot (aliasing
        none of it, so one snapshot restores any number of times).

        Raises ``ValueError`` naming the tag found when the format tag is
        not this build's (there is no reader for older formats such as the
        JSON-safe ``-v4`` — callers replay instead), and
        ``ValueError("malformed checkpoint state: …")`` on structural damage
        under the right tag.
        """
        found = state.get("format") if isinstance(state, dict) else None
        if found != CHECKPOINT_STATE_FORMAT:
            raise ValueError(f"not a {CHECKPOINT_STATE_FORMAT} checkpoint snapshot (found format {found!r})")
        restore_started = time.perf_counter()
        try:
            checker = cls._decode_state(state)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            raise ValueError(f"malformed checkpoint state: {type(exc).__name__}: {exc}") from None
        obs.observe("repro_checker_checkpoint_seconds", time.perf_counter() - restore_started, op="restore")
        return checker

    @classmethod
    def _decode_state(cls, state: Dict[str, Any]) -> "IncrementalChecker":
        level = IsolationLevel(state["level"])
        checker = cls(level, window=state["window"])
        checker._has_initial = bool(state["has_initial"])
        checker._num_committed = int(state["num_committed"])
        checker._elapsed = float(state["elapsed"])
        checker.stale_reads = int(state["stale_reads"])
        checker.evicted_count = int(state["evicted_count"])
        violations, key_names = state["violations"], state["keys"]
        if not isinstance(violations, list) or not isinstance(key_names, list):
            raise TypeError("violations and keys must be lists")
        if not all(type(name) is str for name in key_names):
            raise TypeError("key names must be strings")
        checker._violations = [Violation.from_dict(v) for v in violations]
        checker._key_names = list(key_names)
        checker._key_ids = {name: kid for kid, name in enumerate(key_names)}
        num_keys = len(key_names)

        timeline = checker._timeline
        for stamp, kind in _rows(state["rt"], "stamp", "kind"):
            if kind not in (_START, _FINISH):
                raise ValueError(f"time node kind {kind!r}")
            timeline.append((float(stamp), kind))
        if timeline != sorted(timeline):
            raise ValueError("the timeline is not sorted")
        checker._chain = [n for n in timeline if n[1] == _FINISH]

        table = state["topo"]
        time_base = table["time_base"]
        if type(time_base) is not int:
            raise TypeError("time_base must be an int")
        time_node = {time_base - 1 - i: node for i, node in enumerate(timeline)}

        def nodes(table: Dict[str, Any], name: str) -> Any:
            column = _column(table, name)
            if min(column, default=time_base) < time_base - len(timeline):
                raise ValueError(f"{name} names a time node past the timeline")
            return [time_node.get(node, node) for node in column] if time_node else column

        def edges(table: Dict[str, Any]) -> Iterator[Tuple[Any, Any, Tuple[str, Optional[str]]]]:
            labels = _labels(_column(table, "label"), key_names)
            return zip(nodes(table, "src"), nodes(table, "dst"), labels, strict=True)

        topo = checker._topo
        topo._counter = int(table["counter"])
        for node, index in zip(nodes(table, "node"), _column(table, "ord"), strict=True):
            topo._ord[node] = int(index) if type(index) is float and index.is_integer() else index
            topo._succ[node] = {}
            topo._pred[node] = {}
        topo._fractions = {index for index in topo._ord.values() if type(index) is float}
        for node in timeline:
            if node not in topo:
                raise ValueError(f"time node {node!r} is not in the order")
        succ, pred = topo._succ, topo._pred
        for source, target, label in edges(table):
            succ[source].setdefault(target, []).append(label)
            pred[target][source] = None
        for source, target, label in edges(state["refused"]):
            checker._refused.setdefault((source, target), []).append(label)

        table = state["slots"]
        statuses = _column(table, "status")
        if statuses and not _SEALED_STATUS <= min(statuses) <= max(statuses) < len(STATUS_FROM_CODE):
            raise ValueError("unknown status code")
        rmw_values: List[Optional[int]] = list(_column(table, "rmw_seen_value"))
        for row in _sparse(table, "rmw_seen_valueless", len(rmw_values)):
            rmw_values[row] = None
        rmw_seen = list(zip(_column(table, "rmw_seen_txn"), rmw_values, strict=True))
        writes = [(txn, bool(w)) for txn, w in _rows(table, "pending_txn", "pending_writes")]
        # Indexed by a status, so -1 (no writer) is None; slots skip __init__,
        # as every field is set here.
        slots, new_slot, status_of = checker._slots, _Slot.__new__, (*STATUS_FROM_CODE, None)
        for code, status, writer, readers, overwriters, rmw, pending in zip(
            _versions(table, "version", num_keys), statuses, _column(table, "writer"),
            _ragged_rows(_column(table, "readers_count"), _column(table, "readers"), "readers"),
            _ragged_rows(_column(table, "overwriters_count"), _column(table, "overwriters"), "overwriters"),
            _ragged_rows(_column(table, "rmw_seen_count"), rmw_seen, "rmw_seen"),
            _ragged_rows(_column(table, "pending_count"), writes, "pending"),
            strict=True,
        ):
            if status == _SEALED_STATUS:
                slots[code] = _SEALED
                continue
            slot = slots[code] = new_slot(_Slot)
            slot.code, slot.writer_id, slot.writer_status = code, writer if status >= 0 else None, status_of[status]
            slot.intermediate_id = None
            slot.readers, slot.overwriters, slot.rmw_seen, slot.pending = readers, overwriters, rmw, pending
        if len(slots) != len(statuses):
            raise ValueError("a version is in the slot table twice")
        rows = list(slots.values())
        for row, txn in zip(_sparse(table, "intermediate_row", len(rows)), _column(table, "intermediate"), strict=True):
            if rows[row] is _SEALED:
                raise ValueError("a sealed version has an intermediate writer")
            rows[row].intermediate_id = txn

        checker._last_in_session = dict(_rows(state["last_in_session"], "session", "txn"))
        for source, target in _rows(state["base_preds"], "src", "dst"):
            checker._base_preds[target][source] = None
        key_of: List[Optional[str]] = [None, *key_names]
        for source, target, key in _rows(state["rw_succ"], "src", "dst", "key"):
            if not 0 <= key <= num_keys:
                raise ValueError(f"unknown key code {key!r}")
            checker._rw_succ[source].append((target, key_of[key]))
        checker._arrivals = deque(_column(state, "arrivals"))
        table = state["overwrote"]
        for txn, code in zip(_column(table, "txn"), _versions(table, "version", num_keys), strict=True):
            checker._overwrote.setdefault(txn, []).append(code)
        checker._sealed_fifo = deque(_versions(state, "sealed_fifo", num_keys))
        return checker

    # ------------------------------------------------------------------
    # Per-transaction machinery
    # ------------------------------------------------------------------
    def _slot(self, kid: int, value: Optional[int]) -> Optional[_Slot]:
        """The slot of version ``(key id, value)``; ``None`` if sealed by the window."""
        code = kid + _VALUELESS if value is None else value * _RADIX + kid
        slot = self._slots.get(code)
        if slot is None:
            slot = self._slots[code] = _Slot(code)
        elif slot is _SEALED:
            return None
        assert isinstance(slot, _Slot)
        return slot

    def _register_final(
        self, kid: int, value: Optional[int], txn_id: int, status: TransactionStatus
    ) -> None:
        """Mirror ``WriteIndex.add_transaction`` onto the slot table."""
        slot = self._slot(kid, value)
        if slot is None:
            return
        slot.writer_id = txn_id
        slot.writer_status = status
        if slot.pending:
            pending, slot.pending = slot.pending, []
            for reader_id, writes_key in pending:
                self._attach_read(self._key_names[kid], value, slot, reader_id, writes_key)

    def _register_intermediate(self, kid: int, value: Optional[int], txn_id: int) -> None:
        slot = self._slot(kid, value)
        if slot is None:
            return
        slot.intermediate_id = txn_id
        if slot.pending and slot.writer_id is None:
            pending, slot.pending = slot.pending, []
            self._violations.extend(
                self._intermediate_violation(reader_id, slot, self._key_names[kid])
                for reader_id, _ in pending
                if reader_id != txn_id
            )

    @staticmethod
    def _intermediate_violation(reader_id: int, slot: _Slot, key: str) -> Violation:
        return Violation(
            kind=AnomalyKind.INTERMEDIATE_READ, txn_ids=[reader_id, slot.intermediate_id or -2], key=key,
            description=f"read of object {key} observes an intermediate value of "
                        f"T{slot.intermediate_id}, which later overwrote it",
        )

    def _resolve_one_read(
        self, txn_id: int, kid: int, value: Optional[int],
        writes_key: bool, written_value: Optional[int],
    ) -> None:
        """Resolve one external read against the slot table."""
        slot = self._slot(kid, value)
        if slot is None:
            self.stale_reads += 1
            return
        key = self._key_names[kid]

        # DIVERGENCE (SI only): two RMW readers of one version that wrote
        # different values, flagged before writer resolution (Lemma 1).
        if writes_key and self._si:
            for other_id, other_written in slot.rmw_seen:
                if other_id != txn_id and other_written != written_value:
                    self._violations.append(self._divergence_violation(key, value, slot, other_id, txn_id))
                    break
            slot.rmw_seen.append((txn_id, written_value))

        if slot.writer_id is not None:
            self._attach_read(key, value, slot, txn_id, writes_key)
        elif slot.intermediate_id is not None and slot.intermediate_id != txn_id:
            self._violations.append(self._intermediate_violation(txn_id, slot, key))
        else:
            slot.pending.append((txn_id, writes_key))

    def _divergence_violation(
        self, key: str, value: Optional[int], slot: _Slot, a: int, b: int
    ) -> Violation:
        writer = slot.writer_id if slot.writer_id is not None else -2
        return Violation(
            kind=AnomalyKind.LOST_UPDATE, txn_ids=[writer, a, b], key=key,
            description=f"DIVERGENCE pattern on object {key}: T{a} and T{b} both read "
                        f"value {value} written by T{writer} and then wrote different values",
        )

    def _attach_read(
        self, key: str, value: Optional[int], slot: _Slot, reader_id: int, writes_key: bool
    ) -> None:
        """Materialise the WR (and WW/RW) edges of one resolved read."""
        writer_id = slot.writer_id
        assert writer_id is not None
        if writer_id == reader_id:
            return
        if slot.writer_status is _ABORTED:
            self._violations.append(Violation(
                kind=AnomalyKind.ABORTED_READ, txn_ids=[reader_id, writer_id], key=key,
                description=f"read of object {key} observes a value written by aborted "
                            f"transaction T{writer_id}",
            ))
            return
        if slot.writer_status is not _COMMITTED or value is None:
            return  # unknown outcome, or a valueless read: no edge (batch parity)
        if self.window is not None and reader_id not in self._topo:
            # A pending reader aged out before its writer arrived.
            self.stale_reads += 1
            return
        # An evicted writer is harmless: ``_dep_edge`` drops edges out of a
        # collected node; the RW edges between live readers still matter.
        rw = (_RW, key)
        self._dep_edge(writer_id, reader_id, (_WR, key))
        for overwriter in slot.overwriters:
            if overwriter != reader_id:
                self._dep_edge(reader_id, overwriter, rw)
        slot.readers.append(reader_id)
        if writes_key:
            self._dep_edge(writer_id, reader_id, (_WW, key))
            for other_reader in slot.readers:
                if other_reader != reader_id:
                    self._dep_edge(other_reader, reader_id, rw)
            slot.overwriters.append(reader_id)
            if self.window is not None:
                self._overwrote.setdefault(reader_id, []).append(slot.code)

    def _session_edge(self, session_id: int, txn_id: int) -> None:
        prev = self._last_in_session.get(session_id)
        if prev is None:
            if self._has_initial:
                self._dep_edge(INITIAL_TXN_ID, txn_id, (_SO, None))
        else:
            self._dep_edge(prev, txn_id, (_SO, None))
        self._last_in_session[session_id] = txn_id

    # ------------------------------------------------------------------
    # Real-time order (SSER): a timeline of time nodes (module docstring)
    # ------------------------------------------------------------------
    def _real_time_start(
        self, txn: Optional[Transaction], segment: Optional["ColumnarHistory"], row: int
    ) -> Optional[Tuple[Tuple[float, int], Tuple[float, int]]]:
        """A stamped row's start node and finish key, with the nodes made that
        the row's own node can take an index between (the finish node only
        out of finish order)."""
        start, finish = (txn.start_ts, txn.finish_ts) if txn is not None else segment.timestamps_at(row)
        if start is None or finish is None or not start <= finish:
            return None  # a NaN stamp is no stamp, as in batch (an inverted row was refused)
        first = (float(finish), _FINISH)
        if self._timeline and first < self._timeline[-1]:
            self._time_node(first)  # out of finish order: the row goes below it
        return self._time_node((float(start), _START), first), first

    def _real_time(self, txn_id: int, start: Tuple[float, int], node: Tuple[float, int]) -> None:
        """Hang a stamped transaction on the timeline.  An attachment that would
        close a cycle gives way to the reduced pairs it stands for, offered one
        by one, so only those that close one are refused and reported."""
        topo = self._topo
        if topo.add_edge(start, txn_id, _REAL_TIME) is not None:
            for pred in self._real_time_neighbours(start, forward=False):
                self._order_edge(pred, txn_id, _REAL_TIME)
        node = self._time_node(node)
        if topo.add_edge(txn_id, node, _REAL_TIME) is not None:
            for succ in self._real_time_neighbours(node, forward=True):
                self._order_edge(txn_id, succ, _REAL_TIME)

    def _members_around(self, node: Tuple[float, int]) -> Tuple[Any, Any]:
        """The chain members nearest before and after ``node`` (``None`` at an end)."""
        members = self._chain
        c = bisect_left(members, node)
        before = members[c - 1] if c else None
        c += c < len(members) and members[c] == node
        return before, members[c] if c < len(members) else None

    def _up_to(self, at: int, after: Any) -> List[Tuple[float, int]]:
        """The start nodes after timeline position ``at``, up to member ``after``
        (included): what the chain member at ``at`` hangs or links to."""
        timeline = self._timeline
        return timeline[at + 1 : None if after is None else bisect_left(timeline, after, at + 1) + 1]

    def _time_node(self, node: Tuple[float, int], high: Any = None) -> Tuple[float, int]:
        """Time node ``(stamp, kind)``, made on first sight (a start node below
        ``high`` in the order): a start node hangs from the chain member before
        it, a finish node is linked into the chain.  No such edge closes a
        cycle or moves a node of the order."""
        topo = self._topo
        if node in topo:
            return node
        at = bisect_left(self._timeline, node)
        self._timeline.insert(at, node)
        if node[1] == _FINISH:
            insort(self._chain, node)
            self._link(at)
            return node
        before, _ = self._members_around(node)
        topo.add_node(node, before, high)
        if before is not None:
            topo.add_edge(before, node, _REAL_TIME)
        return node

    def _link(self, at: int) -> None:
        """Link chain member ``at`` in, ``prev → node → next`` for ``prev →
        next``, and hang the start nodes up to ``next`` from it."""
        topo, node = self._topo, self._timeline[at]
        before, after = self._members_around(node)
        targets = self._up_to(at, after)
        topo.add_node(node, before, min(targets, key=topo._ord.__getitem__, default=None))
        if before is not None:
            topo.add_edge(before, node, _REAL_TIME)
        for target in targets:
            if before is not None:
                topo.remove_edge(before, target)
            topo.add_edge(node, target, _REAL_TIME)

    def _hung(self, node: Tuple[float, int]) -> bool:
        """Whether a transaction in the order hangs on time node ``node``."""
        return any(type(v) is not tuple for v in chain(self._topo._pred[node], self._topo._succ[node]))

    def _retire_time_nodes(self, candidates: Iterable[Tuple[float, int]]) -> None:
        """Window GC of the timeline, after an eviction.  A candidate nothing
        hangs on goes; a chain member's links become one and its start nodes
        hang from the member before it (no path changes).  The head goes while
        nothing hangs on it, that is while it is older than every live
        transaction's start."""
        topo, timeline = self._topo, self._timeline
        for node in candidates:
            if node not in topo or self._hung(node):
                continue
            at = bisect_left(timeline, node)
            if node[1] == _FINISH:
                before, after = self._members_around(node)
                if before is not None:
                    for target in self._up_to(at, after):
                        topo.add_edge(before, target, _REAL_TIME)
            self._drop_time_node(at)
        while timeline and not self._hung(timeline[0]):
            self._drop_time_node(0)

    def _drop_time_node(self, at: int) -> None:
        node = self._timeline.pop(at)
        if node[1] == _FINISH:
            del self._chain[bisect_left(self._chain, node)]
        self._topo.remove_node(node)

    def _real_time_neighbours(self, node: Tuple[float, int], forward: bool) -> List[int]:
        """The transactions next to time node ``node`` in the reduced real-time
        order (``interval_order_reduction``'s pairs).  Forward from a finish
        node: each one starting on a walk along the chain, until the walk
        passes the finish of one of those; backward from a start node, each
        one finishing, until the walk passes the start of one."""
        timeline, succ, pred = self._timeline, self._topo._succ, self._topo._pred
        reached: Dict[int, None] = {}
        at = bisect_left(timeline, node)
        for here in timeline[at + 1 :] if forward else reversed(timeline[:at]):
            if forward:
                if here[1] == _START:
                    reached.update((v, None) for v in succ[here] if type(v) is not tuple)
                elif any(v in reached for v in pred[here]):
                    break
            elif any(v in reached for v in succ[here]):
                break
            elif here[1] == _FINISH:
                reached.update((v, None) for v in pred[here] if type(v) is not tuple)
        return list(reached)

    def _step_labels(self, tail: int, head: int, via_time: bool) -> List[Tuple[str, Optional[str]]]:
        """The labels of one cycle step; one through time nodes, or one that is
        a reduced real-time pair, is labeled as that pair edge would be."""
        if not via_time and self._timeline:
            finish = next((v for v in self._topo._succ[tail] if type(v) is tuple), None)
            via_time = finish is not None and head in self._real_time_neighbours(finish, True)
        if via_time:
            return [*self._topo.labels(tail, head), _REAL_TIME]
        return self._labels(tail, head)

    # ------------------------------------------------------------------
    # Edge routing: every edge goes to the order, labels and all
    # ------------------------------------------------------------------
    def _dep_edge(self, source: int, target: int, label: Tuple[str, Optional[str]]) -> None:
        """Route one dependency edge; an exact duplicate changes nothing."""
        order = self._topo._ord
        if self.window is not None and (source not in order or target not in order):
            return  # an endpoint was garbage-collected: the edge cannot matter
        if not self._si:  # SER / SSER: every dependency edge goes to the order
            if not self._refused or label not in self._labels(source, target):
                self._order_edge(source, target, label)
        # SI: maintain the induced graph (SO ∪ WR ∪ WW) ; RW? edge-by-edge.
        elif label[0] == _RW:
            successor = (target, label[1])
            if successor not in self._rw_succ[source]:
                self._rw_succ[source].append(successor)
                for base_pred in self._base_preds.get(source, ()):
                    self._composed_edge(base_pred, target, label[1])
        else:
            labels = self._labels(source, target)
            if label in labels:
                return
            if source in self._base_preds[target]:
                labels.append(label)  # the pair is in the order (or refused) already
                return
            self._base_preds[target][source] = None
            self._order_edge(source, target, label)
            for rw_target, rw_key in self._rw_succ.get(target, ()):
                self._composed_edge(source, rw_target, rw_key)

    def _composed_edge(self, source: int, target: int, key: Optional[str]) -> None:
        if self.window is None or (source in self._topo and target in self._topo):
            self._order_edge(source, target, (_COMPOSED, key))

    def _labels(self, source: int, target: int) -> List[Tuple[str, Optional[str]]]:
        """The labels of ``source -> target``: the order's, else the refused table's."""
        return self._topo.labels(source, target) or self._refused.get((source, target), [])

    def _refused_edges(self) -> Iterator[Tuple[int, int, List[Tuple[str, Optional[str]]]]]:
        return ((source, target, labels) for (source, target), labels in self._refused.items())

    def _order_edge(self, source: int, target: int, label: Tuple[str, Optional[str]]) -> None:
        """Offer one check-graph edge to the order; report the cycle it closes."""
        cycle = self._topo.add_edge(source, target, label)
        if cycle is None:
            if self._refused and (source, target) in self._refused:
                # Refused earlier, acyclic now (the window broke the cycle).
                labels = self._topo.labels(source, target)
                labels.extend(l for l in self._refused.pop((source, target)) if l not in labels)
            return
        labels = self._refused.setdefault((source, target), [])
        if label not in labels:
            labels.append(label)
        edges = [
            Edge(tail, head, *best_label((_EDGE_TYPES[e], k) for e, k in self._step_labels(tail, head, step)))
            for tail, head, step in _transaction_steps(cycle)
        ]
        self._violations.append(classify_cycle(edges, level=self.level))

    # ------------------------------------------------------------------
    # Bounded-window garbage collection
    # ------------------------------------------------------------------
    def _evict(self, txn_id: int) -> None:
        """Retire a transaction that can no longer join a cycle, in O(degree):
        on a W-bounded stream no new in-edge reaches it — its reads resolved
        (WR/WW), the versions it overwrote are sealed here (RW), its session
        successor arrived (SO), nothing finishing before its start is in
        flight (RT)."""
        self.evicted_count += 1
        topo, timeline = self._topo, self._timeline
        hung_on = timeline and [v for v in chain(topo._pred[txn_id], topo._succ[txn_id]) if type(v) is tuple]
        topo.remove_node(txn_id)
        if self._refused:
            self._refused = {p: labels for p, labels in self._refused.items() if txn_id not in p}
        self._base_preds.pop(txn_id, None)
        self._rw_succ.pop(txn_id, None)
        slots = self._slots
        for code in self._overwrote.pop(txn_id, ()):
            if isinstance(slots.get(code), _Slot):
                slots[code] = _SEALED
                self._sealed_fifo.append(code)
        while len(self._sealed_fifo) > self._sealed_cap:
            expired = self._sealed_fifo.popleft()
            if slots.get(expired) is _SEALED:
                del slots[expired]
        if timeline:
            self._retire_time_nodes(hung_on)


class CheckerSession(IncrementalChecker):
    """Streaming verification session: the incremental checker plus sugar.

    Obtained from :meth:`repro.core.checker.MTChecker.session`.  It *is* an
    :class:`IncrementalChecker` — ``ingest``/``ingest_segment``/``result``/
    ``checkpoint``/``restore`` are the checker's own — that is also a context
    manager, and calling it is the same as :meth:`ingest`, so it plugs
    directly into the workload runner's live-checking hook:

        >>> from repro import Database, MTChecker, MTWorkloadGenerator
        >>> from repro import IsolationLevel, run_workload
        >>> workload = MTWorkloadGenerator(num_sessions=2, txns_per_session=5,
        ...                                num_objects=4, seed=1).generate()
        >>> with MTChecker().session(IsolationLevel.SERIALIZABILITY,
        ...                          initial_keys=workload.keys) as session:
        ...     _ = run_workload(Database("serializable", keys=workload.keys),
        ...                      workload, on_transaction=session)
        ...     verdict = session.result()
        >>> verdict.satisfied
        True
    """

    def ingest_history(self, history: History) -> CheckResult:
        """Stream a complete history in canonical order; return the verdict."""
        for txn in stream_order(history):
            self.ingest(txn)
        return self.result()

    def __call__(self, txn: Transaction) -> List[Violation]:
        return self.ingest(txn)

    def __enter__(self) -> "CheckerSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None
