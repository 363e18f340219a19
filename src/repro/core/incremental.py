"""Streaming incremental verification: online MTC checking.

The batch checkers (:func:`repro.core.checkers.check_ser` and friends)
rebuild the full dependency graph on every call, which is the right tool for
archived histories but cannot keep up with continuous traffic: re-verifying
after each of ``n`` transactions costs Θ(n²) overall.  This module provides
the online counterpart:

* :class:`PearceKellyOrder` maintains a topological order of the evolving
  check graph under single-edge insertions (Pearce & Kelly, *A dynamic
  topological sort algorithm for directed acyclic graphs*, JEA 2006).
  Inserting an edge costs time proportional to the *affected region* — the
  nodes whose order actually has to move — instead of the whole graph, so
  acyclicity is re-established per transaction without re-running a
  whole-graph search (:meth:`repro.core.graph.DependencyGraph.find_cycle`).
* :class:`IncrementalChecker` ingests transactions one at a time (or a
  columnar segment at a time) and hands each dependency edge — WR/WW/RW
  derived from per-version *slots*, SO from per-session tails, RT from an
  online interval-order reduction — straight to that order, whose adjacency
  carries the edge labels.  It reports each violation at the exact
  transaction whose ingestion created it, labeling the cycle from the
  order's own label lists; a :class:`~repro.core.graph.DependencyGraph`
  exists only where someone asks for one (:attr:`IncrementalChecker.graph`).
* :class:`CheckerSession` is the checker as handed out by
  :meth:`repro.core.checker.MTChecker.session`; it also acts as a live
  ``on_transaction`` hook for :class:`repro.workloads.runner.WorkloadRunner`.

Equivalence invariant
---------------------
For any ingestion order that preserves per-session order, the verdict after
ingesting a complete history equals the batch verdict of
:func:`~repro.core.checkers.check_ser` / :func:`~repro.core.checkers.check_si`
/ :func:`~repro.core.checkers.check_sser` on that history (the reported
counterexample may differ in shape, never in existence).  Reads may arrive
before their writers: such reads are *pending* until the writer shows up, and
reads that never resolve surface as ThinAirRead from :meth:`result` — exactly
the verdict the batch INT pre-pass would reach.

Bounded-window mode
-------------------
With ``window=W`` the checker garbage-collects transactions once ``W`` newer
transactions have been ingested.  A collected transaction can never rejoin a
cycle provided the stream is *W-bounded*: writers are delivered before their
readers, and every read observes a version that is either still the latest
on its object (current versions may be read at any age) or was overwritten
at most ``W`` transactions ago.  A version is *sealed* — its per-version
bookkeeping dropped — when the first transaction that overwrote it is
collected; reads of sealed versions break the bound and are counted in
:attr:`IncrementalChecker.stale_reads` (a nonzero count means the window was
too small for the stream and the verdict is no longer complete) rather than
silently dropped.  Sealed-version markers themselves are capped (FIFO,
``max(4·W, 1024)`` entries), so total memory is O(window + live keys)
regardless of stream length; a read of a version whose marker already
expired surfaces as ThinAirRead, which is strictly louder.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from collections import defaultdict, deque
from itertools import accumulate, chain
from typing import (
    TYPE_CHECKING, Any, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple,
)

from .. import obs
from .checkers import classify_cycle
from .graph import DependencyGraph, Edge, EdgeType, best_label
from .intcheck import transaction_int_violations
from .model import (
    INITIAL_TXN_ID, STATUS_CODES, STATUS_FROM_CODE,
    History, Transaction, TransactionStatus, make_initial_transaction, stream_order,
)
from .result import AnomalyKind, CheckResult, IsolationLevel, Violation

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..history.columnar import ColumnarHistory

__all__ = [
    "PearceKellyOrder",
    "IncrementalChecker",
    "CheckerSession",
    "stream_order",
    "CHECKPOINT_STATE_FORMAT",
]

#: Format tag of :meth:`IncrementalChecker.checkpoint` state dictionaries.
CHECKPOINT_STATE_FORMAT = "repro-checker-state-v3"

#: Isolation levels the incremental checker supports.
GRAPH_LEVELS = (
    IsolationLevel.SERIALIZABILITY,
    IsolationLevel.SNAPSHOT_ISOLATION,
    IsolationLevel.STRICT_SERIALIZABILITY,
)


class PearceKellyOrder:
    """Online topological order maintenance over integer nodes.

    Implements the Pearce–Kelly algorithm: a total order ``ord`` over the
    nodes is kept consistent with the edges.  Inserting an edge
    ``u -> v`` with ``ord[u] < ord[v]`` is free; otherwise only the
    *affected region* — the nodes between ``ord[v]`` and ``ord[u]`` that are
    forward-reachable from ``v`` or backward-reachable from ``u`` — is
    re-sorted.  When the insertion would create a cycle, the cycle is
    returned (as the node path ``v -> … -> u``; the closing edge is
    ``u -> v``) and the edge is *not* inserted, so the structure stays
    acyclic and checking can continue past the violation.

    The order is also the labeled multigraph of the edges it accepted:
    ``_succ[u][v]`` lists the distinct labels ``u -> v`` was inserted under.
    Adjacency dicts and label lists keep insertion order (no sets), so
    traversal is a pure function of the edge-insertion sequence, and the
    structure — with the exact counterexample paths it reports — survives
    an :meth:`IncrementalChecker.checkpoint` / ``restore`` round-trip.

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
        #: Nodes visited by affected-region reorderings (plain int — this is
        #: the hot path, so telemetry reads it lazily rather than per edge).
        self.reorder_visits = 0

    def __contains__(self, node: int) -> bool:
        return node in self._ord

    def __len__(self) -> int:
        return len(self._ord)

    def add_node(self, node: int) -> None:
        if node not in self._ord:
            self._ord[node] = self._counter
            self._counter += 1
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

    def remove_node(self, node: int) -> None:
        """Remove a node and its incident edges, in O(degree) (window GC)."""
        if node not in self._ord:
            return
        for nxt in self._succ.pop(node):
            self._pred[nxt].pop(node, None)
        for prv in self._pred.pop(node):
            self._succ[prv].pop(node, None)
        del self._ord[node]


class _Slot:
    """Bookkeeping for one written version ``(key, value)``.

    Replaces the batch :class:`~repro.core.intcheck.WriteIndex` lookup plus
    the per-key edge grouping of BUILDDEPENDENCY: the WR/WW/RW edges incident
    to a version are exactly determined by who wrote it, who read it, and who
    overwrote it.
    """

    __slots__ = (
        "code",
        "writer_id",
        "writer_status",
        "intermediate_id",
        "readers",
        "overwriters",
        "rmw_seen",
        "pending",
    )

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

#: A version ``(key, value)`` is the int ``value * _RADIX + key id`` (key ids
#: are the checker's own dense interning, below ``_VALUELESS`` like the
#: columnar ``op_keys``); a version without a value takes value 0 and the
#: key id ``_VALUELESS + id``.  One small int per version: nothing to
#: allocate per lookup, nothing for the collector to track.
_RADIX = 1 << 32
_VALUELESS = 1 << 31

#: ``writer`` column entry of a version sealed by the window (never a txn id).
_SEALED_WRITER = "sealed"
_EDGE_COLUMNS = ("src", "dst", "typ", "key")
#: Columns of the ``slots`` table, in :class:`_Slot` attribute order.
_SLOT_COLUMNS = (
    "key", "value", "writer", "status", "intermediate",
    "readers", "overwriters", "rmw_seen", "pending",
)
#: Labels are ``(EdgeType value, key)`` tuples of plain strings: they compare
#: in C, where an ``Enum`` member hashes through a Python call.
_EDGE_TYPES = {member.value: member for member in EdgeType}
_RT, _SO, _WR, _WW, _RW, _COMPOSED = (
    EdgeType[name].value for name in ("RT", "SO", "WR", "WW", "RW", "COMPOSED")
)
# Module constants: an ``Enum`` class attribute costs a descriptor call per read.
_COMMITTED, _ABORTED = TransactionStatus.COMMITTED, TransactionStatus.ABORTED


def _columns(names: Tuple[str, ...], rows: Iterable[Tuple[Any, ...]]) -> Dict[str, List[Any]]:
    """One state table: ``rows`` transposed into the ``names`` parallel columns."""
    columns = [list(column) for column in zip(*rows)] or [[] for _ in names]
    return dict(zip(names, columns))


def _edge_columns(edges: Iterable[Tuple[int, int, List[Tuple[str, Any]]]]) -> Dict[str, List[Any]]:
    """``(source, target, labels)`` edges as ``src``/``dst``/``typ``/``key`` columns, a row per
    label (by ``append``, no tuple per row: the largest table after ``slots``)."""
    src: List[int] = []
    dst: List[int] = []
    typ: List[str] = []
    key: List[Any] = []
    for source, target, labels in edges:
        for etype, label_key in labels:
            src.append(source)
            dst.append(target)
            typ.append(etype)
            key.append(label_key)
    return dict(zip(_EDGE_COLUMNS, (src, dst, typ, key)))


def _versions(codes: Iterable[int]) -> Dict[str, List[int]]:
    """Version codes as ``key`` (id) / ``value`` columns; :func:`_code` inverts a row."""
    codes = list(codes)
    return {"key": [c % _RADIX for c in codes], "value": [c // _RADIX for c in codes]}


def _code(kid: int, value: int, num_keys: int) -> int:
    """The version code of one checkpointed ``key``/``value`` row, key id validated."""
    if not 0 <= kid % _VALUELESS < num_keys or kid >= _RADIX:
        raise ValueError(f"unknown key id {kid!r}")
    return int(value) * _RADIX + kid


def _column(table: Dict[str, Any], name: str) -> List[Any]:
    column = table[name]
    if not isinstance(column, list):
        raise TypeError(f"column {name!r} must be a list")
    return column


def _rows(table: Dict[str, Any], *names: str) -> Iterator[Tuple[Any, ...]]:
    """Zip the named parallel columns of one state table back into rows."""
    return zip(*(_column(table, name) for name in names), strict=True)


def _labeled_edges(state: Dict[str, Any]) -> Iterator[Tuple[int, int, Tuple[str, Any]]]:
    """The ``(source, target, label)`` rows of a ``src``/``dst``/``typ``/``key`` table."""
    for source, target, etype, key in _rows(state, *_EDGE_COLUMNS):
        if etype not in _EDGE_TYPES:
            raise ValueError(f"unknown edge type {etype!r}")
        yield source, target, (etype, key)


class IncrementalChecker:
    """Online MTC verification: ingest transactions, keep a live verdict.

    The checker mirrors the batch pipeline — INT pre-pass, BUILDDEPENDENCY,
    acyclicity — but runs every stage per transaction:

    * intra-transactional INT anomalies are reported at ingest;
    * read provenance resolves against per-version slots (pending until the
      writer arrives, AbortedRead/IntermediateRead on resolution, ThinAirRead
      for reads that never resolve);
    * WR/WW/RW (and SO/RT) edges go, labels and all, into a
      :class:`PearceKellyOrder` that re-establishes acyclicity online,
      reporting the counterexample cycle at the exact offending transaction;
    * for SI, the induced graph ``(SO ∪ WR ∪ WW) ; RW?`` is composed
      edge-by-edge and the DIVERGENCE pattern is matched per read.

    A committed transaction whose id is still a live node is refused
    (``ValueError("malformed history: duplicate transaction id N")``): two
    transactions under one id would share a node and the cycle between them
    vanish as a self-edge.  Under ``window`` an id that eviction already
    removed can no longer be recognised as a repeat.

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
        self,
        level: IsolationLevel,
        *,
        initial_keys: Optional[Iterable[str]] = None,
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

        # The check graph and its labels: the dependency graph at SER/SSER,
        # the induced graph ``(SO ∪ WR ∪ WW) ; RW?`` at SI.  ``_refused`` maps
        # ``(source, target)`` to the labels of the edges the order would not
        # take (each closed a cycle), so duplicate detection and cycle
        # labeling still see them; it stays empty while the stream is valid.
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

        # SI induced-graph composition state.  ``_base_preds`` values are
        # insertion-ordered dicts (values unused) for the same
        # checkpoint-reproducibility reason as :class:`PearceKellyOrder`.
        self._base_preds: Dict[int, Dict[int, None]] = defaultdict(dict)
        self._rw_succ: Dict[int, List[Tuple[int, Optional[str]]]] = defaultdict(list)

        # SSER online interval-order reduction state.
        self._by_finish: List[Tuple[float, float, int]] = []  # (finish, start, id)
        self._prefix_max_start: List[float] = []
        self._by_start: List[Tuple[float, float, int]] = []  # (start, finish, id)
        self._suffix_min_finish: List[float] = []
        self._rt_span: Dict[int, Tuple[float, float]] = {}  # id -> (start, finish)

        # Bounded-window GC state.  ``_overwrote`` maps a transaction to the
        # versions it read-modified: those slots must be sealed no later
        # than the transaction's own eviction, because every new reader of
        # such a slot would add an RW in-edge to the (collected) overwriter.
        # Evicted nodes are recognised by their absence from the topology
        # (every edge endpoint was ingested at some point), so no per-node
        # tombstone set is needed.  Sealed-version markers are kept in a FIFO
        # capped at ``max(4 * window, 1024)`` entries so window mode is truly
        # bounded-memory; a read of a version whose marker has expired
        # reports ThinAirRead instead of incrementing ``stale_reads``.
        self._arrivals: Deque[int] = deque()
        self._overwrote: Dict[int, List[int]] = {}
        self._sealed_fifo: Deque[int] = deque()
        self._sealed_cap = max(4 * window, 1024) if window is not None else 0
        #: Reads that targeted a version already sealed by the window —
        #: nonzero means the stream violated the window's staleness bound.
        self.stale_reads = 0
        #: Transactions garbage-collected so far.
        self.evicted_count = 0

        if initial_keys is not None:
            self.ingest(make_initial_transaction(initial_keys))

    @property
    def graph(self) -> DependencyGraph:
        """The dependency graph over the live transactions, built per access
        (the streaming ``CSRGraph.to_multigraph``): the order's labels plus
        the refused edges, and at SI the RW edges in place of the
        compositions they induced."""
        graph = DependencyGraph(self._topo._ord)
        for source, target, labels in chain(self._topo.edges(), self._refused_edges()):
            for etype, key in labels:
                if etype != _COMPOSED:
                    graph.add_edge(source, target, _EDGE_TYPES[etype], key)
        for source, successors in self._rw_succ.items():
            for target, key in successors:
                if target in self._topo:
                    graph.add_edge(source, target, EdgeType.RW, key)
        return graph

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, txn: Transaction) -> List[Violation]:
        """Ingest one transaction; return the violations it triggered.

        Committed transactions extend the graph; aborted (and
        unknown-outcome) transactions only register their writes so later
        readers of their values can be flagged.  The returned list is empty
        while the stream remains valid — ThinAirRead is the one anomaly that
        can only be confirmed at :meth:`result` time, since the writer might
        still be in flight.
        """
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

        ``on_row_violations(row, violations)`` is invoked after any segment
        row whose ingestion triggered violations — the hook the CLI uses to
        tag stream output with the offending transaction.

        The columnar counterpart of :meth:`ingest_round`, over the same
        per-row routine: the segment's columns become plain lists once —
        ``list(column)`` boxes every element once in C — and its key ids
        are mapped onto the checker's once; each row is then one scan over
        its slice of them, in arrival order, so violations surface at the
        exact offending transaction as with :meth:`ingest`.  A
        ``Transaction`` is materialised only for a row that holds an INT
        candidate.

        Ingesting a history via any split into segments yields the batch
        checker's verdict (enforced by ``tests/test_columnar.py``).
        """
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
        (checker key ids) / ``values``.  ``txn`` is the transaction as an
        object when the feeder holds one; a row feeder passes ``None`` plus
        its ``segment``/``row``, and the object (INT candidates) and the
        timestamps (SSER) are fetched only when needed.

        One scan collects everything the row contributes: its final and
        intermediate writes, the reads to resolve (per key, a valueless read
        in first position and the first valued read before any own write, as
        ``Transaction.external_reads``), and whether it is an INT candidate
        by the rules at :func:`repro.core.intcheck.transaction_int_violations`.
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
            self._topo.add_node(txn_id)
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
            if self._sser:
                if txn is not None:
                    start, finish = txn.start_ts, txn.finish_ts
                else:
                    start, finish = segment.timestamps_at(row)
                if start is not None and finish is not None:
                    self._real_time_edges(txn_id, start, finish)
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
        """Publish the checker's running counters as telemetry gauges.

        Called at coarse cadence (segment boundaries, ``result()``,
        checkpoints) rather than per transaction, so the streaming hot path
        carries no telemetry cost; a no-op while telemetry is disabled.
        """
        if not obs.enabled():
            return
        obs.set_gauge("repro_checker_txns_ingested", self._num_committed)
        obs.set_gauge("repro_checker_violations", len(self._violations))
        obs.set_gauge("repro_checker_window_evictions", self.evicted_count)
        obs.set_gauge("repro_checker_stale_reads", self.stale_reads)
        obs.set_gauge("repro_checker_pk_reorder_visits", self._topo.reorder_visits)
        obs.set_gauge("repro_checker_graph_nodes", len(self._topo))

    def result(self) -> CheckResult:
        """The verdict over everything ingested so far.

        Unresolved pending reads are reported as ThinAirRead here — a
        complete history has none, making the verdict equal to the batch
        checker's.  Calling ``result`` does not end the stream; ingestion
        can continue afterwards.
        """
        self.publish_metrics()
        violations = [*self._violations, *self._pending_violations()]
        if violations:
            result = CheckResult.violated(
                self.level, violations, num_transactions=self._num_committed
            )
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
                    out.append(
                        Violation(
                            kind=AnomalyKind.THIN_AIR_READ,
                            description=(
                                f"read R({key},{value}) observes value {value}, "
                                f"which no transaction wrote"
                            ),
                            txn_ids=[reader_id],
                            key=key,
                        )
                    )
        return out

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """Serialise the complete checker state as a JSON-safe dictionary.

        The snapshot captures everything the online algorithms carry: the
        Pearce–Kelly order with its exact node indices, adjacency insertion
        order and edge labels (the labeled check graph), the edges it
        refused, the key and per-version slot tables, session tails, the SI
        composition state, the SSER interval list, the window's arrival
        queue and seal FIFO, and every violation found so far.

        Layout (``repro-checker-state-v3``): every table is a dictionary of
        *parallel columns* — equal-length lists, rows in the table's own
        insertion order.  ``topo`` has ``node``/``ord`` and one
        ``src``/``dst``/``typ``/``key`` row per edge label, in adjacency
        order; ``refused`` has the same four edge columns.  A version is a
        ``key``/``value`` pair of ints: ``key`` indexes the ``keys`` name
        table, plus ``2**31`` when the version has no value (``value`` 0).
        ``slots`` has the ``_SLOT_COLUMNS`` (a sealed version is the writer
        ``"sealed"``); ``rt`` is the finish-sorted interval list.  The
        snapshot shares no list with the live checker.

        :meth:`restore` rebuilds a checker that is *behaviourally
        indistinguishable* from this one: any suffix of transactions yields
        byte-identical verdicts — same anomaly kinds, same labeled cycles —
        from either (enforced by ``tests/test_incremental.py`` at every
        boundary of randomized streams).  The dictionary round-trips through
        ``json`` verbatim.
        """
        started = time.perf_counter()
        self.publish_metrics()
        topo = self._topo
        slot_rows = [
            (_SEALED_WRITER, None, None, [], [], [], [])
            if slot is _SEALED
            else (
                slot.writer_id,
                None if slot.writer_status is None else STATUS_CODES[slot.writer_status],
                slot.intermediate_id,
                list(slot.readers),
                list(slot.overwriters),
                [list(pair) for pair in slot.rmw_seen],
                [list(pair) for pair in slot.pending],
            )
            for slot in self._slots.values()
        ]
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
                "node": list(topo._ord),
                "ord": list(topo._ord.values()),
                **_edge_columns(topo.edges()),
            },
            "refused": _edge_columns(self._refused_edges()),
            "slots": {**_versions(self._slots), **_columns(_SLOT_COLUMNS[2:], slot_rows)},
            "last_in_session": _columns(("session", "txn"), self._last_in_session.items()),
            "base_preds": _columns(
                ("dst", "src"), ((t, s) for t, preds in self._base_preds.items() for s in preds)
            ),
            "rw_succ": _columns(
                ("src", "dst", "key"),
                ((s, t, k) for s, edges in self._rw_succ.items() for t, k in edges),
            ),
            "rt": _columns(("finish", "start", "txn"), self._by_finish),
            "arrivals": list(self._arrivals),
            "overwrote": {
                "txn": [txn for txn, codes in self._overwrote.items() for _ in codes],
                **_versions(chain.from_iterable(self._overwrote.values())),
            },
            "sealed_fifo": _versions(self._sealed_fifo),
        }
        obs.observe("repro_checker_checkpoint_seconds", time.perf_counter() - started, op="save")
        return state

    @classmethod
    def restore(cls, state: Dict[str, Any]) -> "IncrementalChecker":
        """Rebuild a checker from a :meth:`checkpoint` snapshot.

        The restored checker continues the stream exactly where the
        snapshot left off (see :meth:`checkpoint`).  Nothing of ``state`` is
        aliased into it, so one snapshot restores any number of times.

        Raises ``ValueError`` naming the tag found when the format tag is
        not this build's (there is no reader for older formats — callers
        replay instead), and ``ValueError("malformed checkpoint state: …")``
        on structural damage under the right tag: a missing table or column,
        a mistyped value, columns of unequal length, an unknown edge type or
        key id.
        """
        found = state.get("format") if isinstance(state, dict) else None
        if found != CHECKPOINT_STATE_FORMAT:
            raise ValueError(
                f"not a {CHECKPOINT_STATE_FORMAT} checkpoint snapshot (found format {found!r})"
            )
        restore_started = time.perf_counter()
        try:
            checker = cls._decode_state(state)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            raise ValueError(f"malformed checkpoint state: {type(exc).__name__}: {exc}") from None
        obs.observe(
            "repro_checker_checkpoint_seconds", time.perf_counter() - restore_started, op="restore"
        )
        return checker

    @classmethod
    def _decode_state(cls, state: Dict[str, Any]) -> "IncrementalChecker":
        level = IsolationLevel(state["level"])
        # A v3 state may carry "strict_mt" (no longer written): ignored.
        checker = cls(level, window=state["window"])
        checker._has_initial = bool(state["has_initial"])
        checker._num_committed = int(state["num_committed"])
        checker._elapsed = float(state["elapsed"])
        checker.stale_reads = int(state["stale_reads"])
        checker.evicted_count = int(state["evicted_count"])
        checker._violations = [Violation.from_dict(v) for v in _column(state, "violations")]
        checker._key_names = list(_column(state, "keys"))
        checker._key_ids = {name: kid for kid, name in enumerate(checker._key_names)}
        num_keys = len(checker._key_names)
        topo = checker._topo
        topo._counter = int(state["topo"]["counter"])
        for node, index in _rows(state["topo"], "node", "ord"):
            topo._ord[node] = index
            topo._succ[node] = {}
            topo._pred[node] = {}
        for source, target, label in _labeled_edges(state["topo"]):
            topo._succ[source].setdefault(target, []).append(label)
            topo._pred[target][source] = None
        for source, target, label in _labeled_edges(state["refused"]):
            checker._refused.setdefault((source, target), []).append(label)
        slots = checker._slots
        for (
            kid, value, writer, status, intermediate,
            readers, overwriters, rmw_seen, pending,
        ) in _rows(state["slots"], *_SLOT_COLUMNS):
            code = _code(kid, value, num_keys)
            if writer == _SEALED_WRITER:
                slots[code] = _SEALED
                continue
            slot = slots[code] = _Slot(code)
            slot.writer_id = writer
            slot.writer_status = None if status is None else STATUS_FROM_CODE[status]
            slot.intermediate_id = intermediate
            slot.readers = list(readers)
            slot.overwriters = list(overwriters)
            slot.rmw_seen = [(tid, written) for tid, written in rmw_seen]
            slot.pending = [(tid, writes) for tid, writes in pending]
        checker._last_in_session = dict(_rows(state["last_in_session"], "session", "txn"))
        for source, target in _rows(state["base_preds"], "src", "dst"):
            checker._base_preds[target][source] = None
        for source, target, key in _rows(state["rw_succ"], "src", "dst", "key"):
            checker._rw_succ[source].append((target, key))
        checker._by_finish = list(_rows(state["rt"], "finish", "start", "txn"))
        checker._by_start = sorted((s, f, txn) for f, s, txn in checker._by_finish)
        checker._rt_span = {txn: (start, finish) for start, finish, txn in checker._by_start}
        checker._rebuild_rt_aggregates()
        checker._arrivals = deque(_column(state, "arrivals"))
        for txn, kid, value in _rows(state["overwrote"], "txn", "key", "value"):
            checker._overwrote.setdefault(txn, []).append(_code(kid, value, num_keys))
        sealed = _rows(state["sealed_fifo"], "key", "value")
        checker._sealed_fifo = deque(_code(kid, value, num_keys) for kid, value in sealed)
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
            kind=AnomalyKind.INTERMEDIATE_READ,
            description=(
                f"read of object {key} observes an intermediate value of "
                f"T{slot.intermediate_id}, which later overwrote it"
            ),
            txn_ids=[reader_id, slot.intermediate_id or -2],
            key=key,
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

        # DIVERGENCE (SI only): two RMW readers of the same version that
        # wrote different values — flagged before writer resolution, as
        # in the batch early-exit (Lemma 1).
        if writes_key and self._si:
            for other_id, other_written in slot.rmw_seen:
                if other_id != txn_id and other_written != written_value:
                    self._violations.append(
                        self._divergence_violation(key, value, slot, other_id, txn_id)
                    )
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
            kind=AnomalyKind.LOST_UPDATE,
            description=(
                f"DIVERGENCE pattern on object {key}: T{a} and T{b} both read "
                f"value {value} written by T{writer} and then wrote different values"
            ),
            txn_ids=[writer, a, b],
            key=key,
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
            self._violations.append(
                Violation(
                    kind=AnomalyKind.ABORTED_READ,
                    description=(
                        f"read of object {key} observes a value written by "
                        f"aborted transaction T{writer_id}"
                    ),
                    txn_ids=[reader_id, writer_id],
                    key=key,
                )
            )
            return
        if slot.writer_status is not _COMMITTED or value is None:
            # Unknown outcome, or a valueless read: no edge, no verdict
            # (batch parity: the graph is built from valued reads).
            return
        if self.window is not None and reader_id not in self._topo:
            # A pending reader aged out before its writer arrived: the stream
            # broke the writer-before-reader contract of the window.
            self.stale_reads += 1
            return

        # An evicted writer is harmless here: edges *out of* a collected node
        # cannot close a cycle, and ``_dep_edge`` drops them; the RW edges
        # between the (live) readers and overwriters still matter.
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
    # Real-time order (SSER): online interval-order reduction
    # ------------------------------------------------------------------
    def _real_time_edges(self, txn_id: int, start_ts: float, finish_ts: float) -> None:
        """Add the transitively-reduced RT edges incident to one transaction.

        Among the existing predecessors (``finish < start_ts``), only those
        finishing after every predecessor's start are immediate — the same
        pruning as :func:`repro.core.model.interval_order_reduction`, applied
        per arrival; symmetrically for successors.  The two prunings together
        keep the reduction reachability-complete under any arrival order.
        """
        start, finish = float(start_ts), float(finish_ts)
        idx = bisect_left(self._by_finish, (start,))
        if idx:
            max_start = self._prefix_max_start[idx - 1]
            t = idx - 1
            while t >= 0 and self._by_finish[t][0] >= max_start:
                self._dep_edge(self._by_finish[t][2], txn_id, (_RT, None))
                t -= 1

        jdx = bisect_right(self._by_start, (finish, float("inf"), float("inf")))
        if jdx < len(self._by_start):
            min_finish = self._suffix_min_finish[jdx]
            t = jdx
            while t < len(self._by_start) and self._by_start[t][0] <= min_finish:
                self._dep_edge(txn_id, self._by_start[t][2], (_RT, None))
                t += 1

        self._insert_rt_entry(start, finish, txn_id)

    def _insert_rt_entry(self, start: float, finish: float, txn_id: int) -> None:
        """Insert into both sorted lists and patch the helper aggregates —
        O(1) amortised for in-order streams, where insertions land at the end."""
        self._rt_span[txn_id] = (start, finish)
        pos = bisect_left(self._by_finish, (finish, start, txn_id))
        self._by_finish.insert(pos, (finish, start, txn_id))
        self._prefix_max_start.insert(pos, start)
        at = bisect_left(self._by_start, (start, finish, txn_id))
        self._by_start.insert(at, (start, finish, txn_id))
        self._suffix_min_finish.insert(at, finish)
        self._patch_rt_aggregates(pos, at)

    def _drop_rt_entry(self, txn_id: int) -> None:
        """Window GC's inverse of :meth:`_insert_rt_entry`: both entries are
        found by bisection, deleted, and the aggregates patched around them."""
        span = self._rt_span.pop(txn_id, None)
        if span is None:
            return  # the transaction carried no timestamps
        start, finish = span
        pos = bisect_left(self._by_finish, (finish, start, txn_id))
        del self._by_finish[pos], self._prefix_max_start[pos]
        at = bisect_left(self._by_start, (start, finish, txn_id))
        del self._by_start[at], self._suffix_min_finish[at]
        self._patch_rt_aggregates(pos, at - 1)

    def _patch_rt_aggregates(self, prefix_from: int, suffix_from: int) -> None:
        """Recompute the prefix-max-start array rightwards from ``prefix_from``
        and the suffix-min-finish array leftwards from ``suffix_from``, each
        only as far as it changes: both are running aggregates, so past the
        first entry that already agrees every entry does — the run a new or
        removed value dominated is all that gets rewritten."""
        by_finish, prefix = self._by_finish, self._prefix_max_start
        running = prefix[prefix_from - 1] if prefix_from else float("-inf")
        for i in range(prefix_from, len(prefix)):
            running = max(running, by_finish[i][1])
            if prefix[i] == running and i > prefix_from:
                break
            prefix[i] = running
        by_start, suffix = self._by_start, self._suffix_min_finish
        running = suffix[suffix_from + 1] if suffix_from + 1 < len(suffix) else float("inf")
        for i in range(suffix_from, -1, -1):
            running = min(running, by_start[i][1])
            if suffix[i] == running and i < suffix_from:
                break
            suffix[i] = running

    def _rebuild_rt_aggregates(self) -> None:
        """Recompute both helper arrays from scratch (restore; the reference
        the incremental patches are tested against)."""
        self._prefix_max_start[:] = accumulate((start for _, start, _ in self._by_finish), max)
        suffix = list(accumulate((finish for _, finish, _ in reversed(self._by_start)), min))
        self._suffix_min_finish[:] = reversed(suffix)

    # ------------------------------------------------------------------
    # Edge routing: every edge goes to the order, labels and all
    # ------------------------------------------------------------------
    def _dep_edge(self, source: int, target: int, label: Tuple[str, Optional[str]]) -> None:
        """Route one dependency edge; an exact duplicate changes nothing."""
        order = self._topo._ord
        if self.window is not None and (source not in order or target not in order):
            return  # an endpoint was garbage-collected: the edge cannot matter
        if not self._si:
            # SER / SSER: every dependency edge participates in the order
            # (which ignores a label it already holds).
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
                # Refused earlier, acyclic now (the window broke the cycle):
                # the pair's labels move into the order with it.
                labels = self._topo.labels(source, target)
                labels.extend(l for l in self._refused.pop((source, target)) if l not in labels)
            return
        labels = self._refused.setdefault((source, target), [])
        if label not in labels:
            labels.append(label)
        edges = [
            Edge(tail, head, *best_label((_EDGE_TYPES[e], k) for e, k in self._labels(tail, head)))
            for tail, head in zip(cycle, cycle[1:] + cycle[:1])
        ]
        self._violations.append(classify_cycle(edges, level=self.level))

    # ------------------------------------------------------------------
    # Bounded-window garbage collection
    # ------------------------------------------------------------------
    def _evict(self, txn_id: int) -> None:
        """Retire a transaction that can no longer participate in a cycle.

        Costs O(degree) of the evicted node (the order indexes reverse
        adjacency), never a scan of the rest of the window.

        Safe because, once the window has passed, no new *incoming* edge can
        reach the node on a W-bounded stream: its reads resolved long ago
        (WR/WW in-edges), every version it overwrote is sealed here and now
        (RW in-edges come from new readers of those versions), its session
        successor already arrived (SO), and no transaction finishing before
        its start is still in flight (RT).  A node that cannot gain in-edges
        cannot close a cycle, so dropping it — and skipping any later edge
        that touches it — preserves the verdict.
        """
        self.evicted_count += 1
        self._topo.remove_node(txn_id)
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
        if self._rt_span:
            self._drop_rt_entry(txn_id)


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
