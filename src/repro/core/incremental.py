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
  acyclicity is re-established per transaction without re-running
  :func:`repro.core.graph.find_cycle`.
* :class:`IncrementalChecker` ingests transactions one at a time (or in
  rounds), extends a :class:`~repro.core.graph.DependencyGraph` in place —
  WR/WW/RW edges are derived from per-version *slots*, SO from per-session
  tails, RT from an online interval-order reduction — and reports each
  violation at the exact transaction whose ingestion created it.
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

import heapq
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict, deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from .. import obs
from .checkers import MTHistoryError, classify_cycle
from .graph import DependencyGraph, EdgeType
from .intcheck import ops_int_candidate, transaction_int_violations
from .mini import mt_violations
from .model import (
    INITIAL_TXN_ID,
    STATUS_CODES,
    STATUS_FROM_CODE,
    History,
    Transaction,
    TransactionStatus,
    make_initial_transaction,
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
CHECKPOINT_STATE_FORMAT = "repro-checker-state-v2"

#: Isolation levels the incremental checker supports.
GRAPH_LEVELS = (
    IsolationLevel.SERIALIZABILITY,
    IsolationLevel.SNAPSHOT_ISOLATION,
    IsolationLevel.STRICT_SERIALIZABILITY,
)

_BASE_TYPES = (EdgeType.SO, EdgeType.WR, EdgeType.WW)


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

    Adjacency is kept in insertion-ordered dicts (values unused) rather than
    sets: traversal order is then a pure function of the edge-insertion
    sequence, which makes the structure — and the exact counterexample paths
    it reports — reproducible across :meth:`IncrementalChecker.checkpoint` /
    :meth:`IncrementalChecker.restore` round-trips.

    Example:
        >>> topo = PearceKellyOrder()
        >>> topo.add_edge(1, 2) is None and topo.add_edge(2, 3) is None
        True
        >>> topo.add_edge(3, 1)
        [1, 2, 3]
    """

    def __init__(self) -> None:
        self._ord: Dict[int, int] = {}
        self._succ: Dict[int, Dict[int, None]] = {}
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

    def add_edge(self, source: int, target: int) -> Optional[List[int]]:
        """Insert ``source -> target``; return a cycle instead if one forms.

        Returns ``None`` on success.  On a would-be cycle, returns the node
        path from ``target`` to ``source`` (the cycle closes with the
        rejected ``source -> target`` edge) and leaves the order unchanged.
        """
        if source == target:
            self.add_node(source)
            return [source]
        self.add_node(source)
        self.add_node(target)
        if target in self._succ[source]:
            return None
        lower, upper = self._ord[target], self._ord[source]
        if upper < lower:
            self._succ[source][target] = None
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
                if nxt not in parent and self._ord[nxt] < upper:
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
                if prv not in backward_seen and self._ord[prv] > lower:
                    backward_seen.add(prv)
                    stack.append(prv)

        # Re-map the affected nodes onto their own (sorted) index pool with
        # the backward region ordered entirely before the forward region.
        self.reorder_visits += len(forward) + len(backward)
        backward.sort(key=self._ord.__getitem__)
        forward.sort(key=self._ord.__getitem__)
        pool = sorted(self._ord[node] for node in backward + forward)
        for node, index in zip(backward + forward, pool):
            self._ord[node] = index

        self._succ[source][target] = None
        self._pred[target][source] = None
        return None

    def remove_node(self, node: int) -> None:
        """Remove a node and its incident edges (used by window GC)."""
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
        "writer_id",
        "writer_status",
        "intermediate_id",
        "readers",
        "overwriters",
        "rmw_seen",
        "pending",
    )

    def __init__(self) -> None:
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


#: ``writer`` column entry of a version sealed by the window (never a txn id).
_SEALED_WRITER = "sealed"
_EDGE_COLUMNS = ("src", "dst", "typ", "key")
#: Columns of the ``slots`` table, in :class:`_Slot` attribute order.
_SLOT_COLUMNS = (
    "key", "value", "writer", "status", "intermediate",
    "readers", "overwriters", "rmw_seen", "pending",
)


def _columns(names: Tuple[str, ...], rows: Iterable[Tuple[Any, ...]]) -> Dict[str, List[Any]]:
    """One state table: ``rows`` transposed into the ``names`` parallel columns."""
    columns = [list(column) for column in zip(*rows)] or [[] for _ in names]
    return dict(zip(names, columns))


def _flatten(groups: Dict[int, Iterable[int]]) -> Tuple[List[int], List[int]]:
    """An adjacency ``{owner: members}`` as (owner, member) columns, in dict order
    (``_columns`` of its pairs, by ``extend``: the largest tables after ``slots``)."""
    owners: List[int] = []
    members: List[int] = []
    for owner, group in groups.items():
        owners.extend([owner] * len(group))
        members.extend(group)
    return owners, members


def _column(table: Dict[str, Any], name: str) -> List[Any]:
    column = table[name]
    if not isinstance(column, list):
        raise TypeError(f"column {name!r} must be a list")
    return column


def _rows(table: Dict[str, Any], *names: str) -> Iterator[Tuple[Any, ...]]:
    """Zip the named parallel columns of one state table back into rows."""
    return zip(*(_column(table, name) for name in names), strict=True)


def _encode_graph(graph: DependencyGraph) -> Dict[str, Any]:
    """Column-encode a labeled graph (edges in adjacency insertion order)."""
    return {"nodes": sorted(graph.nodes), **dict(zip(_EDGE_COLUMNS, graph.edge_columns()))}


def _decode_graph(state: Dict[str, Any]) -> DependencyGraph:
    graph = DependencyGraph(_column(state, "nodes"))
    # O(window) edges per restore: resolve enum members once, not per edge.
    edge_types = {member.value: member for member in EdgeType}
    for source, target, type_value, key in _rows(state, *_EDGE_COLUMNS):
        graph.add_edge(source, target, edge_types[type_value], key)
    return graph


class IncrementalChecker:
    """Online MTC verification: ingest transactions, keep a live verdict.

    The checker mirrors the batch pipeline — INT pre-pass, BUILDDEPENDENCY,
    acyclicity — but runs every stage per transaction:

    * intra-transactional INT anomalies are reported at ingest;
    * read provenance resolves against per-version slots (pending until the
      writer arrives, AbortedRead/IntermediateRead on resolution, ThinAirRead
      for reads that never resolve);
    * WR/WW/RW (and SO/RT) edges extend the dependency graph in place, and a
      :class:`PearceKellyOrder` re-establishes acyclicity online, reporting
      the counterexample cycle at the exact offending transaction;
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
        strict_mt: raise :class:`~repro.core.checkers.MTHistoryError` at
            ingest when a transaction is not a mini-transaction or reuses a
            written value.
    """

    def __init__(
        self,
        level: IsolationLevel,
        *,
        initial_keys: Optional[Iterable[str]] = None,
        window: Optional[int] = None,
        strict_mt: bool = False,
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
        self.strict_mt = strict_mt

        #: The dependency graph, extended in place (inspectable at any time).
        self.graph = DependencyGraph()
        self._induced: Optional[DependencyGraph] = (
            DependencyGraph() if level is IsolationLevel.SNAPSHOT_ISOLATION else None
        )
        self._topo = PearceKellyOrder()
        self._slots: Dict[Tuple[str, Optional[int]], object] = {}
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

        # Bounded-window GC state.  ``_overwrote`` maps a transaction to the
        # version slots it read-modified: those slots must be sealed no later
        # than the transaction's own eviction, because every new reader of
        # such a slot would add an RW in-edge to the (collected) overwriter.
        # Evicted nodes are recognised by their absence from the topology
        # (every edge endpoint was ingested at some point), so no per-node
        # tombstone set is needed.  Sealed-version markers are kept in a FIFO
        # capped at ``max(4 * window, 1024)`` entries so window mode is truly
        # bounded-memory; a read of a version whose marker has expired
        # reports ThinAirRead instead of incrementing ``stale_reads``.
        self._arrivals: Deque[int] = deque()
        self._overwrote: Dict[int, List[Tuple[str, Optional[int]]]] = {}
        self._sealed_fifo: Deque[Tuple[str, Optional[int]]] = deque()
        self._sealed_cap = max(4 * window, 1024) if window is not None else 0
        #: Reads that targeted a version already sealed by the window —
        #: nonzero means the stream violated the window's staleness bound.
        self.stale_reads = 0
        #: Transactions garbage-collected so far.
        self.evicted_count = 0

        if initial_keys is not None:
            self.ingest(make_initial_transaction(initial_keys))

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
        key_ids: Dict[str, int] = {}
        intern = key_ids.setdefault
        ops = [
            (1 if op.is_write else 0, intern(op.key, len(key_ids)), op.value)
            for op in txn.operations
        ]
        self._ingest_ops(
            txn.txn_id, txn.session_id, txn.status, ops, list(key_ids), txn, None, 0
        )
        self._elapsed += time.perf_counter() - started
        return self._violations[before:]

    def ingest_round(self, txns: Iterable[Transaction]) -> List[Violation]:
        """Ingest a batch of transactions; return all violations triggered."""
        out: List[Violation] = []
        for txn in txns:
            out.extend(self.ingest(txn))
        return out

    def ingest_segment(
        self,
        segment: "ColumnarHistory",
        *,
        on_row_violations: Optional[
            Callable[[int, List[Violation]], object]
        ] = None,
    ) -> List[Violation]:
        """Bulk-ingest one columnar segment epoch; return its violations.

        ``on_row_violations(row, violations)`` is invoked after any segment
        row whose ingestion triggered violations — the hook the CLI uses to
        tag stream output with the offending transaction, without giving up
        the bulk column scan.

        The columnar counterpart of :meth:`ingest_round`, over the same
        per-transaction routine: edge derivation (write registration, read
        resolution, SO/RT stitching) runs straight off the segment's flat
        columns, and only the resulting dependency *deltas* are handed to
        the Pearce–Kelly structure — per transaction, in the segment's
        arrival order, so violations surface at the exact offending
        transaction exactly as with one-at-a-time :meth:`ingest`.
        ``Transaction`` objects are materialised only for rows that actually
        contain an intra-transactional INT candidate (or under
        ``strict_mt``), keeping the accept path allocation-free.

        The batch-equivalence invariant extends to segments: ingesting a
        history via any split into segments yields the same verdict as the
        batch checker (enforced by ``tests/test_columnar.py``).
        """
        started = time.perf_counter()
        before = len(self._violations)
        for row in range(segment.num_transactions):
            row_before = len(self._violations)
            self._ingest_row(segment, row)
            if on_row_violations is not None and len(self._violations) > row_before:
                on_row_violations(row, self._violations[row_before:])
        self._elapsed += time.perf_counter() - started
        self.publish_metrics()
        return self._violations[before:]

    def _ingest_row(self, segment: "ColumnarHistory", row: int) -> None:
        """Feed one segment row to :meth:`_ingest_ops` (no object built here)."""
        self._ingest_ops(
            segment.txn_ids[row],
            segment.session_ids[row],
            STATUS_FROM_CODE[segment.statuses[row]],
            list(segment.row_ops(row)),
            segment.key_names,
            None,
            segment,
            row,
        )

    def _ingest_ops(
        self,
        txn_id: int,
        session_id: int,
        status: TransactionStatus,
        ops: List[Tuple[int, int, Optional[int]]],
        key_names: List[str],
        txn: Optional[Transaction],
        segment: Optional["ColumnarHistory"],
        row: int,
    ) -> None:
        """The per-transaction routine behind :meth:`ingest` and segment rows.

        ``ops`` are ``(kind, key_id, value)`` tuples with ``key_names``
        resolving the ids.  ``txn`` is the transaction as an object when the
        feeder already holds one; a row feeder passes ``None`` plus its
        ``segment``/``row``, and the object is materialised only where an
        object-level check needs it (``strict_mt``, INT candidates), as are
        the timestamps (SSER).
        """
        if txn_id == INITIAL_TXN_ID:
            self._has_initial = True
            self._add_node(txn_id)
            self._register_ops_writes(ops, key_names, txn_id, status)
            return
        committed = status is TransactionStatus.COMMITTED
        if committed and txn_id in self._topo:
            raise ValueError(f"malformed history: duplicate transaction id {txn_id}")
        if self.strict_mt:
            if txn is None:
                txn = segment.transaction_at(row)
            self._strict_check(txn)
        if committed:
            self._num_committed += 1
            self._add_node(txn_id)
            if ops_int_candidate(ops):
                # Rare path: the row provably contains an intra-transactional
                # anomaly candidate; classify it at the object level.
                if txn is None:
                    txn = segment.transaction_at(row)
                self._violations.extend(transaction_int_violations(txn))
            self._session_edge(session_id, txn_id)
        self._register_ops_writes(ops, key_names, txn_id, status)
        if committed:
            self._resolve_ops_reads(ops, key_names, txn_id)
            if self.level is IsolationLevel.STRICT_SERIALIZABILITY:
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

    def _register_ops_writes(
        self,
        ops: List[Tuple[int, int, Optional[int]]],
        key_names: List[str],
        txn_id: int,
        status: TransactionStatus,
    ) -> None:
        """Mirror ``WriteIndex.add_transaction`` onto the slot table."""
        finals: Dict[int, Optional[int]] = {}
        for kind, kid, value in ops:
            if not kind:
                continue
            if kid in finals:
                self._register_intermediate(key_names[kid], finals[kid], txn_id)
            finals[kid] = value
        for kid, value in finals.items():
            self._register_final(key_names[kid], value, txn_id, status)

    def _resolve_ops_reads(
        self,
        ops: List[Tuple[int, int, Optional[int]]],
        key_names: List[str],
        txn_id: int,
    ) -> None:
        """Resolve the transaction's external reads against the slot table."""
        own_writes: Set[Tuple[int, Optional[int]]] = set()
        written: Set[int] = set()
        last_write: Dict[int, Optional[int]] = {}
        external: Dict[int, Optional[int]] = {}
        for kind, kid, value in ops:
            if kind:
                own_writes.add((kid, value))
                written.add(kid)
                last_write[kid] = value
            elif kid not in written and kid not in external and value is not None:
                external[kid] = value
        for kid, value in external.items():
            if (kid, value) in own_writes:
                # FutureRead: already reported by the intra-transactional INT
                # pass; attributing provenance to the reader itself (or
                # leaving it pending) would fabricate a second anomaly.
                continue
            writes_key = kid in written
            self._resolve_one_read(
                txn_id,
                key_names[kid],
                value,
                writes_key,
                last_write.get(kid) if writes_key else None,
            )

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
        obs.set_gauge(
            "repro_checker_pk_reorder_visits", self._topo.reorder_visits
        )
        obs.set_gauge("repro_checker_graph_nodes", len(self._topo))

    def result(self) -> CheckResult:
        """The verdict over everything ingested so far.

        Unresolved pending reads are reported as ThinAirRead here — a
        complete history has none, making the verdict equal to the batch
        checker's.  Calling ``result`` does not end the stream; ingestion
        can continue afterwards.
        """
        self.publish_metrics()
        violations = list(self._violations)
        violations.extend(self._pending_violations())
        if violations:
            result = CheckResult.violated(
                self.level, violations, num_transactions=self._num_committed
            )
        else:
            result = CheckResult.ok(self.level, self._num_committed)
        result.elapsed_seconds = self._elapsed
        return result

    def _pending_violations(self) -> List[Violation]:
        out: List[Violation] = []
        for (key, value), slot in self._slots.items():
            if slot is _SEALED or not slot.pending:  # type: ignore[union-attr]
                continue
            assert isinstance(slot, _Slot)
            if slot.writer_id is not None:
                continue  # resolved after the reader went pending
            for reader_id, _ in slot.pending:
                if (
                    slot.intermediate_id is not None
                    and slot.intermediate_id != reader_id
                ):
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
        labeled dependency graph (and, for SI, the induced graph), the
        Pearce–Kelly order with its exact node indices and adjacency
        insertion order, the per-version slot table (pending reads, RMW
        tracking, sealed markers), session tails, the SI composition state,
        the SSER interval-reduction list, the bounded-window arrival queue
        and seal FIFO, and every violation found so far.

        Layout (``repro-checker-state-v2``): every table is a dictionary of
        *parallel columns* — equal-length lists, rows in the table's own
        insertion order — so a field name is spelled once per table, not once
        per row.  ``slots`` has the ``_SLOT_COLUMNS`` (a sealed version is the
        writer ``"sealed"``); ``graph``/``induced`` have ``nodes`` plus one
        ``src``/``dst``/``typ``/``key`` row per labeled edge; ``topo`` has
        ``node``/``ord`` and its adjacency as ``src``/``dst``; ``rt`` is the
        finish-sorted interval list (the start-sorted one is re-derived).
        The snapshot shares no list with the live checker.

        :meth:`restore` rebuilds a checker that is *behaviourally
        indistinguishable* from this one: ingesting any suffix of
        transactions into the restored checker yields byte-identical
        verdicts — same anomaly kinds, same labeled counterexample cycles —
        as ingesting it into the original (enforced by
        ``tests/test_incremental.py`` at every boundary of randomized
        streams).  The dictionary round-trips through ``json`` verbatim.
        """
        started = time.perf_counter()
        self.publish_metrics()
        topo = self._topo
        topo_src, topo_dst = _flatten(topo._succ)
        base_dst, base_src = _flatten(self._base_preds)
        state = {
            "format": CHECKPOINT_STATE_FORMAT,
            "level": self.level.value,
            "window": self.window,
            "strict_mt": self.strict_mt,
            "has_initial": self._has_initial,
            "num_committed": self._num_committed,
            "elapsed": self._elapsed,
            "stale_reads": self.stale_reads,
            "evicted_count": self.evicted_count,
            "violations": [v.to_dict() for v in self._violations],
            "graph": _encode_graph(self.graph),
            "induced": (
                _encode_graph(self._induced) if self._induced is not None else None
            ),
            "topo": {
                "counter": topo._counter,
                "node": list(topo._ord),
                "ord": list(topo._ord.values()),
                "src": topo_src,
                "dst": topo_dst,
            },
            "slots": self._encode_slots(),
            "last_in_session": _columns(
                ("session", "txn"), self._last_in_session.items()
            ),
            "base_preds": {"src": base_src, "dst": base_dst},
            "rw_succ": _columns(
                ("src", "dst", "key"),
                ((s, t, k) for s, edges in self._rw_succ.items() for t, k in edges),
            ),
            "rt": _columns(("finish", "start", "txn"), self._by_finish),
            "arrivals": list(self._arrivals),
            "overwrote": _columns(
                ("txn", "key", "value"),
                ((txn, k, v) for txn, versions in self._overwrote.items() for k, v in versions),
            ),
            "sealed_fifo": _columns(("key", "value"), self._sealed_fifo),
        }
        obs.observe(
            "repro_checker_checkpoint_seconds",
            time.perf_counter() - started,
            op="save",
        )
        return state

    def _encode_slots(self) -> Dict[str, List[Any]]:
        """The version-slot table as parallel columns, in insertion order."""
        rows = [
            (key, value, _SEALED_WRITER, None, None, [], [], [], [])
            if slot is _SEALED
            else (
                key,
                value,
                slot.writer_id,
                None if slot.writer_status is None else STATUS_CODES[slot.writer_status],
                slot.intermediate_id,
                list(slot.readers),
                list(slot.overwriters),
                [list(pair) for pair in slot.rmw_seen],
                [list(pair) for pair in slot.pending],
            )
            for (key, value), slot in self._slots.items()
        ]
        return _columns(_SLOT_COLUMNS, rows)

    @classmethod
    def restore(cls, state: Dict[str, Any]) -> "IncrementalChecker":
        """Rebuild a checker from a :meth:`checkpoint` snapshot.

        The restored checker continues the stream exactly where the
        snapshot left off; see :meth:`checkpoint` for the layout and the
        equivalence guarantee.  Nothing of ``state`` is aliased into it, so
        one snapshot restores any number of times.

        Raises ``ValueError`` naming the tag found when the format tag is
        not this build's (there is no reader for older formats — callers
        replay instead), and ``ValueError("malformed checkpoint state: …")``
        on structural damage under the right tag: a missing table or column,
        a value of the wrong type, columns of unequal length.
        """
        found = state.get("format") if isinstance(state, dict) else None
        if found != CHECKPOINT_STATE_FORMAT:
            raise ValueError(
                f"not a {CHECKPOINT_STATE_FORMAT} checkpoint snapshot "
                f"(found format {found!r})"
            )
        restore_started = time.perf_counter()
        try:
            checker = cls._decode_state(state)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            raise ValueError(
                f"malformed checkpoint state: {type(exc).__name__}: {exc}"
            ) from None
        obs.observe(
            "repro_checker_checkpoint_seconds",
            time.perf_counter() - restore_started,
            op="restore",
        )
        return checker

    @classmethod
    def _decode_state(cls, state: Dict[str, Any]) -> "IncrementalChecker":
        checker = cls(
            IsolationLevel(state["level"]),
            window=state["window"],
            strict_mt=bool(state["strict_mt"]),
        )
        checker._has_initial = bool(state["has_initial"])
        checker._num_committed = int(state["num_committed"])
        checker._elapsed = float(state["elapsed"])
        checker.stale_reads = int(state["stale_reads"])
        checker.evicted_count = int(state["evicted_count"])
        checker._violations = [
            Violation.from_dict(v) for v in _column(state, "violations")
        ]
        checker.graph = _decode_graph(state["graph"])
        if state["induced"] is not None:
            checker._induced = _decode_graph(state["induced"])
        topo = checker._topo
        topo._counter = int(state["topo"]["counter"])
        for node, index in _rows(state["topo"], "node", "ord"):
            topo._ord[node] = index
            topo._succ[node] = {}
            topo._pred[node] = {}
        for source, target in _rows(state["topo"], "src", "dst"):
            topo._succ[source][target] = None
            topo._pred[target][source] = None
        slots = checker._slots
        for (
            key, value, writer, status, intermediate,
            readers, overwriters, rmw_seen, pending,
        ) in _rows(state["slots"], *_SLOT_COLUMNS):
            if writer == _SEALED_WRITER:
                slots[(key, value)] = _SEALED
                continue
            slot = slots[(key, value)] = _Slot()
            slot.writer_id = writer
            slot.writer_status = None if status is None else STATUS_FROM_CODE[status]
            slot.intermediate_id = intermediate
            slot.readers = list(readers)
            slot.overwriters = list(overwriters)
            slot.rmw_seen = [(tid, written) for tid, written in rmw_seen]
            slot.pending = [(tid, writes) for tid, writes in pending]
        checker._last_in_session = dict(
            _rows(state["last_in_session"], "session", "txn")
        )
        for source, target in _rows(state["base_preds"], "src", "dst"):
            checker._base_preds[target][source] = None
        for source, target, key in _rows(state["rw_succ"], "src", "dst", "key"):
            checker._rw_succ[source].append((target, key))
        checker._by_finish = list(_rows(state["rt"], "finish", "start", "txn"))
        checker._by_start = sorted(
            (start, finish, txn) for finish, start, txn in checker._by_finish
        )
        checker._rebuild_rt_aggregates()
        checker._arrivals = deque(_column(state, "arrivals"))
        for txn, key, value in _rows(state["overwrote"], "txn", "key", "value"):
            checker._overwrote.setdefault(txn, []).append((key, value))
        checker._sealed_fifo = deque(_rows(state["sealed_fifo"], "key", "value"))
        return checker

    # ------------------------------------------------------------------
    # Per-transaction machinery
    # ------------------------------------------------------------------
    def _add_node(self, txn_id: int) -> None:
        self.graph.add_node(txn_id)
        if self._induced is not None:
            self._induced.add_node(txn_id)
        self._topo.add_node(txn_id)

    def _strict_check(self, txn: Transaction) -> None:
        problems = mt_violations(txn)
        for op in txn.operations:
            if not op.is_write or op.value is None:
                continue
            slot = self._slots.get((op.key, op.value))
            if isinstance(slot, _Slot):
                owner = (
                    slot.writer_id
                    if slot.writer_id is not None
                    else slot.intermediate_id
                )
                if owner is not None and owner != txn.txn_id:
                    raise MTHistoryError(
                        f"not a valid mini-transaction history: T{txn.txn_id} "
                        f"re-writes value {op.value} on object {op.key} "
                        f"(also written by T{owner})"
                    )
        if problems:
            raise MTHistoryError(
                "not a valid mini-transaction history: "
                + "; ".join(str(p) for p in problems[:5])
            )

    def _slot(self, key: str, value: Optional[int]) -> Optional[_Slot]:
        """The slot for ``(key, value)``; ``None`` if sealed by the window."""
        slot = self._slots.get((key, value))
        if slot is _SEALED:
            return None
        if slot is None:
            slot = _Slot()
            self._slots[(key, value)] = slot
        assert isinstance(slot, _Slot)
        return slot

    def _register_final(
        self, key: str, value: Optional[int], txn_id: int, status: TransactionStatus
    ) -> None:
        slot = self._slot(key, value)
        if slot is None:
            return
        slot.writer_id = txn_id
        slot.writer_status = status
        if slot.pending:
            pending, slot.pending = slot.pending, []
            for reader_id, writes_key in pending:
                self._attach_read(key, value, slot, reader_id, writes_key)

    def _register_intermediate(
        self, key: str, value: Optional[int], txn_id: int
    ) -> None:
        slot = self._slot(key, value)
        if slot is None:
            return
        slot.intermediate_id = txn_id
        if slot.pending and slot.writer_id is None:
            pending, slot.pending = slot.pending, []
            for reader_id, _ in pending:
                if reader_id != txn_id:
                    self._violations.append(
                        self._intermediate_violation(reader_id, slot, key)
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
        self,
        txn_id: int,
        key: str,
        value: Optional[int],
        writes_key: bool,
        written_value: Optional[int],
    ) -> None:
        """Resolve one external read against the slot table."""
        slot = self._slot(key, value)
        if slot is None:
            self.stale_reads += 1
            return

        # DIVERGENCE (SI only): two RMW readers of the same version that
        # wrote different values — flagged before writer resolution, as
        # in the batch early-exit (Lemma 1).
        if writes_key and self.level is IsolationLevel.SNAPSHOT_ISOLATION:
            for other_id, other_written in slot.rmw_seen:
                if other_id != txn_id and other_written != written_value:
                    self._violations.append(
                        self._divergence_violation(
                            key, value, slot, other_id, txn_id
                        )
                    )
                    break
            slot.rmw_seen.append((txn_id, written_value))

        if slot.writer_id is not None:
            self._attach_read(key, value, slot, txn_id, writes_key)
        elif (
            slot.intermediate_id is not None
            and slot.intermediate_id != txn_id
        ):
            self._violations.append(
                self._intermediate_violation(txn_id, slot, key)
            )
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
                f"value {value} written by T{writer} and then wrote different "
                f"values"
            ),
            txn_ids=[writer, a, b],
            key=key,
        )

    def _attach_read(
        self,
        key: str,
        value: Optional[int],
        slot: _Slot,
        reader_id: int,
        writes_key: bool,
    ) -> None:
        """Materialise the WR (and WW/RW) edges of one resolved read."""
        writer_id = slot.writer_id
        assert writer_id is not None
        if writer_id == reader_id:
            return
        if slot.writer_status is TransactionStatus.ABORTED:
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
        if slot.writer_status is not TransactionStatus.COMMITTED:
            return  # unknown outcome: no edge, no verdict (batch parity)
        if self.window is not None and reader_id not in self._topo:
            # A pending reader aged out before its writer arrived: the stream
            # broke the writer-before-reader contract of the window.
            self.stale_reads += 1
            return

        # An evicted writer is harmless here: edges *out of* a collected node
        # cannot close a cycle, and ``_dep_edge`` drops them; the RW edges
        # between the (live) readers and overwriters still matter.
        self._dep_edge(writer_id, reader_id, EdgeType.WR, key)
        for overwriter in slot.overwriters:
            if overwriter != reader_id:
                self._dep_edge(reader_id, overwriter, EdgeType.RW, key)
        slot.readers.append(reader_id)
        if writes_key:
            self._dep_edge(writer_id, reader_id, EdgeType.WW, key)
            for other_reader in slot.readers:
                if other_reader != reader_id:
                    self._dep_edge(other_reader, reader_id, EdgeType.RW, key)
            slot.overwriters.append(reader_id)
            if self.window is not None:
                self._overwrote.setdefault(reader_id, []).append((key, value))

    def _session_edge(self, session_id: int, txn_id: int) -> None:
        prev = self._last_in_session.get(session_id)
        if prev is None:
            if self._has_initial:
                self._dep_edge(INITIAL_TXN_ID, txn_id, EdgeType.SO, None)
        else:
            self._dep_edge(prev, txn_id, EdgeType.SO, None)
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
                self._dep_edge(self._by_finish[t][2], txn_id, EdgeType.RT, None)
                t -= 1

        jdx = bisect_right(self._by_start, (finish, float("inf"), float("inf")))
        if jdx < len(self._by_start):
            min_finish = self._suffix_min_finish[jdx]
            t = jdx
            while t < len(self._by_start) and self._by_start[t][0] <= min_finish:
                self._dep_edge(txn_id, self._by_start[t][2], EdgeType.RT, None)
                t += 1

        self._insert_rt_entry(start, finish, txn_id)

    def _insert_rt_entry(self, start: float, finish: float, txn_id: int) -> None:
        """Insert into both sorted lists and patch the helper aggregates.

        The prefix-max-start array is non-decreasing and the suffix-min-finish
        array non-increasing (leftwards), so after a positional insert only
        the run of entries the new value actually dominates needs rewriting —
        O(1) amortised for in-order streams, where insertions land at the end.
        """
        prefix = self._prefix_max_start
        pos = bisect_left(self._by_finish, (finish, start, txn_id))
        self._by_finish.insert(pos, (finish, start, txn_id))
        prefix.insert(pos, start if pos == 0 else max(prefix[pos - 1], start))
        for i in range(pos + 1, len(prefix)):
            if prefix[i] >= start:
                break
            prefix[i] = start

        suffix = self._suffix_min_finish
        pos = bisect_left(self._by_start, (start, finish, txn_id))
        self._by_start.insert(pos, (start, finish, txn_id))
        tail = suffix[pos] if pos < len(suffix) else float("inf")
        suffix.insert(pos, min(finish, tail))
        for i in range(pos - 1, -1, -1):
            if suffix[i] <= finish:
                break
            suffix[i] = finish

    def _rebuild_rt_aggregates(self) -> None:
        """Recompute both helper arrays from scratch (used after removals)."""
        prefix = self._prefix_max_start
        del prefix[:]
        running = float("-inf")
        for _, entry_start, _ in self._by_finish:
            running = max(running, entry_start)
            prefix.append(running)
        suffix = self._suffix_min_finish
        del suffix[:]
        running = float("inf")
        for _, entry_finish, _ in reversed(self._by_start):
            running = min(running, entry_finish)
            suffix.append(running)
        suffix.reverse()

    # ------------------------------------------------------------------
    # Edge routing: dependency graph + check structure
    # ------------------------------------------------------------------
    def _dep_edge(
        self, source: int, target: int, edge_type: EdgeType, key: Optional[str]
    ) -> None:
        if self.window is not None and (
            source not in self._topo or target not in self._topo
        ):
            return  # an endpoint was garbage-collected: the edge cannot matter
        if not self.graph.add_edge(source, target, edge_type, key):
            return  # exact duplicate

        if self._induced is None:
            # SER / SSER: every dependency edge participates in the order.
            self._check_edge(source, target, self.graph)
            return

        # SI: maintain the induced graph (SO ∪ WR ∪ WW) ; RW? edge-by-edge.
        if edge_type in _BASE_TYPES:
            self._induced.add_edge(source, target, edge_type, key)
            if source not in self._base_preds[target]:
                self._base_preds[target][source] = None
                self._check_edge(source, target, self._induced)
                for rw_target, rw_key in self._rw_succ.get(target, ()):
                    self._composed_edge(source, rw_target, rw_key)
        elif edge_type is EdgeType.RW:
            self._rw_succ[source].append((target, key))
            for base_pred in self._base_preds.get(source, ()):
                self._composed_edge(base_pred, target, key)

    def _composed_edge(self, source: int, target: int, key: Optional[str]) -> None:
        if self.window is not None and (
            source not in self._topo or target not in self._topo
        ):
            return
        assert self._induced is not None
        self._induced.add_edge(source, target, EdgeType.COMPOSED, key)
        self._check_edge(source, target, self._induced)

    def _check_edge(
        self, source: int, target: int, labeled_graph: DependencyGraph
    ) -> None:
        cycle_nodes = self._topo.add_edge(source, target)
        if cycle_nodes is not None:
            edges = labeled_graph.label_cycle(cycle_nodes)
            self._violations.append(
                classify_cycle(edges, labeled_graph, level=self.level)
            )

    # ------------------------------------------------------------------
    # Bounded-window garbage collection
    # ------------------------------------------------------------------
    def _evict(self, txn_id: int) -> None:
        """Retire a transaction that can no longer participate in a cycle.

        Costs O(degree) of the evicted node: both the topology and the
        labeled graph index reverse adjacency, so collecting one
        transaction never scans the rest of the window.

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
        self.graph.remove_node(txn_id)
        if self._induced is not None:
            self._induced.remove_node(txn_id)
        self._base_preds.pop(txn_id, None)
        self._rw_succ.pop(txn_id, None)
        for key, value in self._overwrote.pop(txn_id, ()):
            slot = self._slots.get((key, value))
            if isinstance(slot, _Slot):
                self._slots[(key, value)] = _SEALED
                self._sealed_fifo.append((key, value))
        while len(self._sealed_fifo) > self._sealed_cap:
            expired = self._sealed_fifo.popleft()
            if self._slots.get(expired) is _SEALED:
                del self._slots[expired]
        if self.level is IsolationLevel.STRICT_SERIALIZABILITY:
            self._drop_rt_entries(txn_id)

    def _drop_rt_entries(self, txn_id: int) -> None:
        before = len(self._by_finish)
        self._by_finish = [e for e in self._by_finish if e[2] != txn_id]
        self._by_start = [e for e in self._by_start if e[2] != txn_id]
        if len(self._by_finish) != before:
            self._rebuild_rt_aggregates()


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

    def ingest_history(self, history: History, *, index=None) -> CheckResult:
        """Stream a complete history in canonical order; return the verdict.

        When the caller already built a
        :class:`~repro.core.index.HistoryIndex` for the history (e.g. after
        a batch check), pass it as ``index`` — its cached arrival order is
        replayed instead of re-scanning the raw sessions.
        """
        for txn in stream_order(history, index=index):
            self.ingest(txn)
        return self.result()

    def __call__(self, txn: Transaction) -> List[Violation]:
        return self.ingest(txn)

    def __enter__(self) -> "CheckerSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


def stream_order(history: History, *, index=None) -> Iterator[Transaction]:
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

    A pre-built :class:`~repro.core.index.HistoryIndex` for the same history
    short-circuits the merge with its cached order.
    """
    if index is not None:
        if index.history is not history:
            raise ValueError("index was built for a different history")
        yield from index.stream_order()
        return
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
