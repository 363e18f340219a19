"""Streaming incremental verification: online MTC checking.

The batch checkers rebuild the whole dependency graph per call; re-verifying
after each of ``n`` transactions would cost Θ(n²).  The online counterpart:

* :class:`PearceKellyOrder` keeps a topological order of the check graph
  under edge insertions (Pearce & Kelly, JEA 2006), paying only for the
  *affected region* — the nodes whose order has to move.
* :class:`CheckerSession` ingests columnar segments (one transaction is a
  one-row segment) and hands each edge — WR/WW/RW from per-version *slots*,
  SO from session tails, RT through a timeline of time nodes — to that
  order, whose adjacency carries the labels.  It reports each violation at
  the transaction whose ingestion created it; a
  :class:`~repro.core.graph.DependencyGraph` exists only on request
  (:attr:`CheckerSession.graph`).  Its state is its checkpoint: the order's
  nodes and edge rows and the slots' item rows are columns, linked by
  previous-row links a restore rebuilds from row order.
  :meth:`repro.core.checker.MTChecker.session` hands one out.

One loop
--------
:meth:`CheckerSession.ingest_segment` is the one loop rows enter by.  It
binds the segment's, the order's and the slots' columns once per call
(compaction rewrites them in place, so the bindings outlive an eviction) and
does each row's work inline: the op scan, its writes, its reads against the
slots, its edges.  An edge whose ends are live and in order already, under a
label offered once per pair (not RT) on a pair that is not refused, is one row
appended to the edge table, no call; every other edge (a reorder, a refused
pair, a window drop) goes through ``_dep_edge``.

Snapshot isolation
------------------
At SI each transaction ``T`` is two nodes: ``T`` and its *out-copy* ``T′``
right after it, joined by an internal edge.  A base (SO/WR/WW) edge ``a → b``
joins ``a′ → b``, an RW edge ``a → c`` joins ``a → c′``: every cycle then
alternates ``x′ → a → y′`` and is one of the induced graph ``(SO ∪ WR ∪ WW) ;
RW?`` (CHECKSI), so the SER loop checks SI.  A reported cycle contracts back to
transactions, ``x′ → a → c′`` (base then RW) as one ``COMPOSED(key)`` step.

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
counts in :attr:`CheckerSession.stale_reads` (nonzero: the verdict is
not complete).  Sealed markers are capped (FIFO, ``max(4·W, 1024)``), so
memory is O(window + live keys); a read of an expired one is ThinAirRead,
which is louder.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left, insort
from collections import deque
from itertools import chain, compress, count, islice, product, repeat
from operator import and_, is_not
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
    "PearceKellyOrder", "CheckerSession", "stream_order", "CHECKPOINT_STATE_FORMAT",
]

#: Format tag of :meth:`CheckerSession.checkpoint` state dictionaries.
CHECKPOINT_STATE_FORMAT = "repro-checker-state-v7"

#: Isolation levels the incremental checker supports.
GRAPH_LEVELS = (
    IsolationLevel.SERIALIZABILITY, IsolationLevel.SNAPSHOT_ISOLATION, IsolationLevel.STRICT_SERIALIZABILITY,
)


def _linked(owners: Iterable[int], size: int) -> Tuple[array, array]:
    """Links of rows in row order: ``last[o]`` is owner ``o``'s last row, ``prev[row]`` its previous."""
    last, prev = array("i", [-1]) * size, array("i")
    for row, owner in enumerate(owners):
        prev.append(last[owner])
        last[owner] = row
    return last, prev


def _walk(row: int, prev: array) -> List[int]:
    """The rows of the linked list whose last row is ``row``, in insertion order."""
    rows = []
    while row >= 0:
        rows.append(row)
        row = prev[row]
    rows.reverse()
    return rows


class PearceKellyOrder:
    """Online topological order maintenance (the Pearce–Kelly algorithm).

    Inserting ``u -> v`` with ``ord[u] < ord[v]`` is free; otherwise only
    the *affected region* — the nodes between ``ord[v]`` and ``ord[u]``
    forward-reachable from ``v`` or backward-reachable from ``u`` — is
    re-sorted.  An insertion that would close a cycle returns it (the node
    path ``v -> … -> u``) and is *not* made, so checking continues past it.

    The order is also the labeled multigraph of its edges, in columns: a
    node's dense id (``_id``, inverse ``_node``) indexes ``_ord`` and the last
    row of its out- and in-list; the edge table holds a ``_src`` / ``_dst`` /
    ``_label`` row per (hashable, interned) label in insertion order, linked to
    the previous row of its source's out-list and its target's in-list (id
    columns are lists of the int objects ``_id`` holds: 8 bytes a row, fast to
    read).  Walks that shape a result follow insertion order, so each reported
    path survives a checkpoint.  Removal marks (``_node`` entry ``None``, row
    ``src`` -1); with about half as many marks as nodes the table is compacted.

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
        self._id: Dict[Any, int] = {}
        self._node: List[Any] = []
        self._src, self._dst, self._label, self._ord = [], [], [], array("d")
        self._out_last, self._in_last, self._out_prev, self._in_prev = (array("i") for _ in range(4))
        self._label_code: Dict[Any, int] = {}
        self._label_of: List[Any] = []
        self._removed = self._counter = 0  # marks since the last compaction; the next index
        self._fractions: Set[float] = set()  # the indices between two counter values
        #: Nodes visited by affected-region reorderings (plain int — this is
        #: the hot path, so telemetry reads it lazily rather than per edge).
        self.reorder_visits = 0

    def __contains__(self, node: Any) -> bool:
        return node in self._id

    def __len__(self) -> int:
        return len(self._id)

    def add_node(self, node: Any, low: Any = None, high: Any = None) -> None:
        """Add ``node`` last in the order, or, when ``high`` is a node, between
        ``low`` (``None``: any) and ``high`` on a free fraction of an index, so
        that edges ``low → node → high`` cost no reorder."""
        ids = self._id
        if node in ids:
            return
        index: float = self._counter
        if high in ids:
            top = self._ord[ids[high]]
            bottom = self._ord[ids[low]] if low is not None else top - 1
            mid = (bottom + top) / 2
            while mid.is_integer() and bottom < mid:
                mid = (bottom + mid) / 2
            if bottom < mid < top and mid not in self._fractions:
                index = mid
                self._fractions.add(mid)
        self._counter += index == self._counter
        ids[node] = len(self._node)
        self._node.append(node)
        self._ord.append(index)
        self._out_last.append(-1)
        self._in_last.append(-1)

    def has_edge(self, source: Any, target: Any) -> bool:
        return bool(self.labels(source, target))

    def labels(self, source: Any, target: Any) -> List[Any]:
        """The labels ``source -> target`` holds (empty when not an edge)."""
        s, t = self._id.get(source), self._id.get(target)
        if s is None or t is None:
            return []
        return [self._label_of[self._label[row]] for row in self._pair(s, t)]

    def edges(self) -> Iterator[Tuple[Any, Any, List[Any]]]:
        """Every edge as ``(source, target, labels)``, in insertion order."""
        nodes, dst, label, label_of = self._node, self._dst, self._label, self._label_of
        for s, source in enumerate(nodes):
            targets: Dict[int, List[Any]] = {}
            for row in _walk(self._out_last[s], self._out_prev) if source is not None else ():
                if dst[row] >= 0 and nodes[dst[row]] is not None:
                    targets.setdefault(dst[row], []).append(label_of[label[row]])
            for t, labels in targets.items():
                yield source, nodes[t], labels

    def add_edge(self, source: Any, target: Any, label: Any = None) -> Optional[List[Any]]:
        """Insert ``source -> target`` under ``label``; return a cycle instead
        if one forms.

        Returns ``None`` on success (a new label on an existing edge is
        recorded for free, one it already holds changes nothing).  On a
        would-be cycle, returns the node path from ``target`` to ``source``
        (the rejected ``source -> target`` closes it), order unchanged.
        """
        return self._add(source, target, label, True)

    def _add(self, source: Any, target: Any, label: Any, dedupe: bool) -> Optional[List[Any]]:
        """:meth:`add_edge`; without ``dedupe`` the caller knows that the pair
        does not hold ``label`` yet, and no walk looks for it."""
        ids = self._id
        s = ids.get(source)
        if s is None:
            self.add_node(source)
            s = ids[source]
        code = self._label_code.get(label)
        if code is None:
            code = self._code(label)
        t = ids.get(target)
        rows = None
        if dedupe and t is not None and self._in_last[t] >= 0 and self._out_last[s] >= 0:
            rows = self._pair(s, t)  # an edge already: ord[s] < ord[t], no reorder
            if code in map(self._label.__getitem__, rows):
                return None
        if not rows:
            if source == target:
                return [source]
            if t is None:
                self.add_node(target)
                t = ids[target]
            if self._ord[s] > self._ord[t]:
                cycle = self._reorder(s, t)
                if cycle is not None:
                    return cycle
        row = len(self._src)  # the new row, last in the table and in both lists
        self._src.append(s)
        self._dst.append(t)
        self._label.append(code)
        out_last, in_last = self._out_last, self._in_last
        self._out_prev.append(out_last[s])
        out_last[s] = row
        self._in_prev.append(in_last[t])
        in_last[t] = row
        return None

    def _reorder(self, s: int, t: int) -> Optional[List[Any]]:
        """Make room for an edge ``s -> t`` against the order: re-sort the
        affected region, or return the cycle the edge would close."""
        order = self._ord
        lower, upper = order[t], order[s]
        # The range's nodes ``t`` reaches and those reaching ``s`` (sets; reaching ``s``: a cycle).
        forward = self._reach(t, self._out_last, self._out_prev, self._dst, lower, upper, s)
        if forward is None:
            return self._cycle(s, t, upper)
        backward = self._reach(s, self._in_last, self._in_prev, self._src, lower, upper, None)
        # Re-map the affected nodes onto their own sorted indices, backward before forward.
        self.reorder_visits += len(forward) + len(backward)
        affected = sorted(backward, key=order.__getitem__) + sorted(forward, key=order.__getitem__)
        for nid, index in zip(affected, sorted(map(order.__getitem__, affected))):
            order[nid] = index
        return None

    def _reach(self, start: int, last: array, prev: array, ends: List[int], lower: float, upper: float,
               stop: Optional[int]) -> Optional[List[int]]:
        """The live nodes strictly between ``lower`` and ``upper`` reachable from ``start`` along the
        lists ``last``/``prev`` (a row's other end in ``ends``), ``start`` first; ``None`` on meeting ``stop``."""
        order, nodes = self._ord, self._node
        found, seen, stack = [], {start}, [start]
        while stack:
            nid = stack.pop()
            found.append(nid)
            row = last[nid]
            while row >= 0:
                end = ends[row]
                if end == stop:
                    return None
                if end >= 0 and end not in seen and lower < order[end] < upper and nodes[end] is not None:
                    seen.add(end)
                    stack.append(end)
                row = prev[row]
        return found

    def _cycle(self, s: int, t: int, upper: float) -> List[Any]:
        """The path ``t -> … -> s`` that a depth-first walk in insertion order meets first."""
        order, nodes, dst = self._ord, self._node, self._dst
        parent, stack = {t: -1}, [t]
        while True:
            nid = stack.pop()
            for nxt in map(dst.__getitem__, _walk(self._out_last[nid], self._out_prev)):
                if nxt == s:
                    path = [nodes[s]]
                    while nid >= 0:
                        path.append(nodes[nid])
                        nid = parent[nid]
                    return path[::-1]
                if nxt >= 0 and nxt not in parent and order[nxt] < upper and nodes[nxt] is not None:
                    parent[nxt] = nid
                    stack.append(nxt)

    def remove_edge(self, source: Any, target: Any) -> None:
        """Drop ``source -> target`` if it is an edge; the order stays valid."""
        s, t = self._id.get(source), self._id.get(target)
        for row in self._pair(s, t) if s is not None and t is not None else ():
            self._src[row] = self._dst[row] = -1
            self._removed += 1
        if 2 * self._removed > len(self._node) + 1024:
            self._compact()

    def remove_node(self, node: Any) -> None:
        """Remove a node and its incident edges, in O(1) amortized (window GC)."""
        nid = self._id.pop(node, None)
        if nid is not None:
            self._node[nid] = None
            self._fractions.discard(self._ord[nid])
            self._removed += 1
            if 2 * self._removed > len(self._node) + 1024:
                self._compact()

    # The column machinery behind the public methods.
    def _code(self, label: Any) -> int:
        """The code of ``label`` in the label table (interned on first sight)."""
        if label not in self._label_code:
            self._label_code[label] = len(self._label_of)
            self._label_of.append(label)
        return self._label_code[label]

    def _pair(self, s: int, t: int) -> List[int]:
        """The rows ``s -> t`` in insertion order, walking ``s``'s out- and ``t``'s in-list in step."""
        src, dst, out_prev, in_prev = self._src, self._dst, self._out_prev, self._in_prev
        a, b = self._out_last[s], self._in_last[t]
        forward, backward = [], []  # the rows found from each end
        while a >= 0 and b >= 0:
            if dst[a] == t:
                forward.append(a)
            if src[b] == s:
                backward.append(b)
            a, b = out_prev[a], in_prev[b]
        rows = forward if a < 0 else backward
        rows.reverse()
        return rows

    def _neighbours(self, node: Any, forward: bool) -> Dict[Any, None]:
        """The nodes ``node`` has an edge to (``forward``) or from, in insertion order."""
        nodes, nid = self._node, self._id[node]
        ends, last, prev = (self._dst, self._out_last, self._out_prev) if forward else (
            self._src, self._in_last, self._in_prev)
        ends = [ends[row] for row in _walk(last[nid], prev)]
        return {nodes[n]: None for n in ends if n >= 0 and nodes[n] is not None}

    def _compact(self) -> None:
        """Drop the marked nodes and rows and relink, each column rewritten in
        place (:meth:`CheckerSession.ingest_segment` holds them bound)."""
        if self._removed:
            self._node[:], ids, self._ord[:], self._src[:], self._dst[:], self._label[:] = self._live()
            self._id.clear()
            self._id.update(zip(self._node, ids))
            self._relink()

    def _live(self) -> Tuple[List[Any], List[int], array, List[int], List[int], List[int]]:
        """The unmarked nodes (``_node``, new dense ids, ``_ord``) and rows (``_src``, ``_dst``,
        ``_label``) in insertion order: new columns, or the order's own when nothing is marked."""
        nodes = self._node
        if not self._removed:
            return nodes, list(self._id.values()), self._ord, self._src, self._dst, self._label
        live = bytes(map(is_not, nodes, repeat(None)))
        ids = list(range(sum(live)))
        renumber = [-1] * (len(nodes) + 1)  # a removed row's -1 reads the last: -1
        for new, old in zip(ids, compress(count(), live)):
            renumber[old] = new
        src, dst = list(map(renumber.__getitem__, self._src)), list(map(renumber.__getitem__, self._dst))
        rows = bytes(map(and_, map((-1).__lt__, src), map((-1).__lt__, dst)))
        return (list(compress(nodes, live)), ids, array("d", compress(self._ord, live)),
                list(compress(src, rows)), list(compress(dst, rows)), list(compress(self._label, rows)))

    def _relink(self) -> None:
        """Link the rows into out- and in-lists (after a compaction or a restore)."""
        self._out_last[:], self._out_prev[:] = _linked(self._src, len(self._node))
        self._in_last[:], self._in_prev[:] = _linked(self._dst, len(self._node))
        self._removed = 0


#: A version ``(key, value)`` is the int ``value * _RADIX + key id`` (the
#: checker's dense key ids); a version without a value takes value 0 and the
#: key id ``_VALUELESS + id``.  One small int per version, nothing to allocate.
_RADIX = 1 << 32
_VALUELESS = 1 << 31

#: ``status`` of a version that is not its writer's status code: no writer
#: yet, or sealed by the window.
_NO_WRITER, _SEALED = -1, -2
_COMMITTED_CODE, _ABORTED_CODE = STATUS_CODES[TransactionStatus.COMMITTED], STATUS_CODES[TransactionStatus.ABORTED]
#: ``kind`` of an item row: a committed reader with a WR edge from the writer
#: (``_OVERWRITER``: and a WW edge, it writes the key), an RMW reader seen for
#: DIVERGENCE (``value``: what it wrote; ``_RMW_NONE``: nothing), a read before
#: any writer (``_PENDING_WRITES``: it writes the key); ``_DROPPED``: taken.
_READER, _OVERWRITER, _RMW, _RMW_NONE, _PENDING, _PENDING_WRITES = range(6)
_DROPPED = -1

#: Labels are ``(EdgeType value, key)`` tuples of plain strings: they compare
#: in C, where an ``Enum`` member hashes through a Python call.
_EDGE_TYPES = {member.value: member for member in EdgeType}
#: Edge types in the order of a checkpoint's label ``type`` codes.
_LABEL_TYPES = (*_EDGE_TYPES, None)
_TYPE_CODE = {etype: code for code, etype in enumerate(_LABEL_TYPES)}
_RT, _SO, _WR, _WW, _RW, _COMPOSED = (
    EdgeType[name].value for name in ("RT", "SO", "WR", "WW", "RW", "COMPOSED")
)
#: Labels of RT edges (the one type offered twice on a pair: only these look at
#: the pair's labels), SO edges and SI's internal edges (type code: the last).
_REAL_TIME, _SESSION, _INTERNAL = (_RT, None), (_SO, None), (None, None)
#: The step that ends a row in :meth:`CheckerSession.ingest_segment`.
_END = (None,) * 5
#: SI's out-copy of ``T`` is node ``T + _OUT``, past every signed 64-bit id: ``_OUT_FLOOR`` or more.
_OUT, _OUT_FLOOR = 1 << 64, 1 << 63

#: A time node is its own key, a ``(stamp, kind)`` tuple (no transaction id
#: is a tuple); a start sorts before a finish at one stamp.
_START, _FINISH = 0, 1


def _arrays(table: Dict[str, Any], **typecodes: str) -> List[array]:
    """The named columns of a checkpoint table, validated: arrays of these typecodes, one length."""
    columns = [table[name] for name in typecodes]
    for (name, typecode), column in zip(typecodes.items(), columns):
        if not isinstance(column, array) or column.typecode != typecode:
            raise TypeError(f"column {name!r} must be a {typecode!r} array")
    if len(set(map(len, columns))) > 1:
        raise ValueError(f"columns {', '.join(typecodes)} differ in length")
    return columns


def _table(names: str, typecodes: str, *columns: Iterable[Any]) -> Dict[str, array]:
    """A checkpoint table: a fresh column per name and typecode (missing ones, as of ``zip()``, empty)."""
    columns += ((),) * (len(typecodes) - len(columns))
    return {name: array(code, column) for name, code, column in zip(names.split(), typecodes, columns)}


def _within(column: array, high: int, what: str, low: int = 0) -> None:
    """Refuse a checkpoint column holding a number outside ``[low, high)``."""
    if column and not low <= min(column) <= max(column) < high:
        raise ValueError(f"{what} out of range")


def _transaction(node: int) -> int:
    """The transaction a node of the order stands for: itself, or the one an out-copy copies."""
    return node - _OUT if node >= _OUT_FLOOR else node


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


class CheckerSession:
    """Online MTC verification, the streaming checker
    :meth:`repro.core.checker.MTChecker.session` hands out: the batch
    pipeline — INT pre-pass, BUILDDEPENDENCY, acyclicity — run per
    transaction.  INT anomalies are reported at ingest; reads resolve against
    per-version slots; every edge goes, labels and all, into a
    :class:`PearceKellyOrder`; at SI each transaction also has an out-copy
    node, so that the order's cycles are those of the induced graph ``(SO ∪
    WR ∪ WW) ; RW?`` (module docstring).  Rows enter through
    :meth:`ingest_segment`; :meth:`ingest` is its one-row case, so
    ``on_transaction=session.ingest`` checks a workload while it runs.

    A committed transaction whose id is still a live node is refused
    (``ValueError("malformed history: duplicate transaction id N")``): two
    transactions under one id would share a node.  Under ``window`` an id
    that eviction already removed is no longer recognised as a repeat.

    Example:
        >>> from repro import IsolationLevel, Transaction, read, write
        >>> from repro.core.incremental import CheckerSession
        >>> session = CheckerSession(IsolationLevel.SERIALIZABILITY,
        ...                          initial_keys=["x"])
        >>> session.ingest(Transaction(1, [read("x", 0), write("x", 1)]))
        []
        >>> bad = session.ingest(Transaction(2, [read("x", 0), write("x", 2)],
        ...                                  session_id=1))
        >>> [v.kind.value for v in bad]
        ['LostUpdate']
        >>> session.result().satisfied
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
            supported = ", ".join(l.short_name for l in GRAPH_LEVELS)
            raise ValueError(f"incremental checking supports {supported}; got {level}")
        if window is not None and window < 1:
            raise ValueError("window must be a positive transaction count")
        self.level, self.window = level, window
        self._si = level is IsolationLevel.SNAPSHOT_ISOLATION
        self._sser = level is IsolationLevel.STRICT_SERIALIZABILITY

        # The check graph with its labels (at SI over transactions and their
        # out-copies).  ``_refused`` maps ``(source, target)`` to the labels of
        # the edges the order would not take (each closed a cycle), so
        # duplicate detection and cycle labeling still see them.
        self._topo = PearceKellyOrder()
        self._refused: Dict[Tuple[int, int], List[Tuple[str, Optional[str]]]] = {}
        self._key_ids: Dict[str, int] = {}
        self._key_names: List[str] = []
        self._last_in_session: Dict[int, int] = {}
        self._violations: List[Violation] = []
        self._has_initial, self._num_committed, self._elapsed = False, 0, 0.0

        # The version slots by dense version id (vid), ``_slots`` mapping a
        # version's code (``_RADIX``) to its vid in vid order: per vid the
        # writer, its status code (or ``_NO_WRITER`` / ``_SEALED``) and the last
        # of its item rows (readers, RMW readers, pending reads; each row links
        # to its version's previous one).  Sealing unlinks a version's rows,
        # expiry drops its code; with half as many drops as versions, compact.
        self._slots: Dict[int, int] = {}
        self._writer: List[int] = []
        self._status: List[int] = []
        self._item_kind: List[int] = []
        self._item_slot: List[int] = []  # the vid a row belongs to (the ``_slots`` value objects)
        self._item_txn: List[int] = []
        self._item_last, self._item_prev, self._item_value = array("i"), array("i"), array("q")
        self._intermediate: Dict[int, int] = {}  # vid -> its intermediate writer (rare)
        self._dropped = 0  # versions and item rows dropped since the last compaction

        # SSER: the time nodes in sorted order, and the finish nodes (the chain).
        self._timeline: List[Tuple[float, int]] = []
        self._chain: List[Tuple[float, int]] = []

        # Bounded-window GC state.  ``_overwrote``: the versions a transaction
        # read-modified, sealed at its eviction (every new reader would add an
        # RW in-edge to the collected overwriter).  Sealed markers sit in a FIFO
        # capped at ``max(4 * window, 1024)``; reading an expired one is ThinAirRead.
        self._arrivals: Deque[int] = deque()
        self._overwrote: Dict[int, List[int]] = {}
        self._sealed_fifo: Deque[int] = deque()
        self._sealed_cap = max(4 * window, 1024) if window is not None else 0
        #: Reads of a version the window already sealed (see the module docstring).
        self.stale_reads = 0
        #: Transactions garbage-collected so far.
        self.evicted_count = 0

        from ..history.columnar import ColumnarHistory  # deferred: history builds on core

        self._encode = ColumnarHistory.from_transactions  # rows for :meth:`ingest`, imported once
        if initial_keys is not None:
            self.ingest(make_initial_transaction(initial_keys))

    @property
    def graph(self) -> DependencyGraph:
        """The dependency graph of the live transactions, built per access: the order's labels and
        the refused edges (an out-copy standing for its transaction), at SSER the reduced RT pairs."""
        graph = DependencyGraph(node for node in self._topo._id if type(node) is not tuple and node < _OUT_FLOOR)
        refused = ((source, target, labels) for (source, target), labels in self._refused.items())
        for source, target, labels in chain(self._topo.edges(), refused):
            if type(source) is tuple or type(target) is tuple:
                continue
            for etype, key in labels:
                if etype is not None:
                    graph.add_edge(_transaction(source), _transaction(target), _EDGE_TYPES[etype], key)
        for node in self._timeline:
            if node[1] == _FINISH:  # the reduced real-time pairs
                sources = [v for v in self._topo._neighbours(node, False) if type(v) is not tuple]
                for source, target in product(sources, self._real_time_neighbours(node, True)):
                    graph.add_edge(source, target, EdgeType.RT)
        return graph

    # -- Ingestion --
    def ingest(self, txn: Transaction) -> List[Violation]:
        """Ingest one transaction, the one-row case of :meth:`ingest_segment`; return the violations it
        triggered.  Aborted (and unknown-outcome) ones only register their writes; ThinAirRead is confirmed
        only at :meth:`result`, as the writer may be in flight.  It is refused as a segment row is
        (``ValueError``): an interval that finishes before it starts, an id or value outside signed 64 bits."""
        return self.ingest_segment(self._encode((txn,)))

    def ingest_segment(
        self, segment: "ColumnarHistory", *,
        on_row_violations: Optional[Callable[[int, List[Violation]], object]] = None,
    ) -> List[Violation]:
        """Ingest one columnar segment, row by row (module docstring, "One loop"); return its violations.

        ``on_row_violations(row, violations)`` is invoked after any row whose ingestion triggered violations
        (the CLI tags its output with it).  A row that finishes before it starts raises ``ValueError`` first.
        A ``Transaction`` is made only for a row holding an INT candidate."""
        refuse_inverted_intervals(segment.txn_ids, segment.start_ts, segment.finish_ts)
        started = time.perf_counter()
        violations, names, known = self._violations, self._key_names, self._key_ids
        before = len(violations)
        key_ids = [known.setdefault(name, len(known)) for name in segment.key_names]
        names.extend(islice(known, len(names), None))  # the keys new to the checker
        values: Iterable[Optional[int]] = segment.op_values
        if 0 in segment.op_has_value:
            values = [v if has else None for v, has in zip(values, segment.op_has_value)]
        ops = list(zip(segment.op_kinds, map(key_ids.__getitem__, segment.op_keys), values))
        offsets = segment.op_offsets
        topo, sessions, refused, window = self._topo, self._last_in_session, self._refused, self.window
        ids, nodes, order, label_code, src, dst, labels = (
            topo._id, topo._node, topo._ord, topo._label_code, topo._src, topo._dst, topo._label)
        out_last, out_prev, in_last, in_prev = topo._out_last, topo._out_prev, topo._in_last, topo._in_prev
        slots, writer, status, intermediate = self._slots, self._writer, self._status, self._intermediate
        item_slot, item_kind, item_txn, item_value, item_last, item_prev = (
            self._item_slot, self._item_kind, self._item_txn, self._item_value, self._item_last, self._item_prev)
        si, sser, edges = self._si, self._sser, []  # edges: the step before's, appended first
        out = _OUT if si else 0  # a node plus ``out``: its out-copy at SI, itself otherwise
        rows = zip(segment.txn_ids, segment.session_ids, segment.statuses, offsets, offsets[1:])
        for row, (txn_id, session_id, row_status, lo, hi) in enumerate(rows):
            row_before = len(violations)
            reads = row_status == _COMMITTED_CODE and txn_id != INITIAL_TXN_ID
            if txn_id == INITIAL_TXN_ID:
                self._has_initial = True
                if txn_id not in ids:
                    topo.add_node(txn_id)
                    if si:
                        topo.add_node(txn_id + _OUT)
                        edges.append((txn_id, txn_id + _OUT, _INTERNAL))
            elif reads and txn_id in ids:
                raise ValueError(f"malformed history: duplicate transaction id {txn_id}")

            # The op scan: final and intermediate writes, the reads to resolve (``Transaction.external_reads``,
            # a step each below), whether the row is an INT candidate (``transaction_int_violations``).
            last: Dict[int, Optional[int]] = {}  # key id -> value of its last op so far
            finals: Dict[int, Optional[int]] = {}
            intermediates: List[Tuple[int, Optional[int]]] = []
            steps: List[Tuple[Any, ...]] = []
            candidate = False
            for writes, kid, value in ops[lo:hi]:
                if writes:
                    if kid in finals:
                        intermediates.append((kid, finals[kid]))
                    finals[kid] = last[kid] = value
                    if steps and (kid, value, None, txn_id, None) in steps:
                        # FutureRead: the INT pass reports it; resolving it would
                        # fabricate a second anomaly (or a pending read of itself).
                        steps.remove((kid, value, None, txn_id, None))
                        candidate = True
                elif reads:
                    if kid not in last:
                        steps.append((kid, value, None, txn_id, None))
                    elif last[kid] != value:
                        candidate = True
                        no_valued_read = all(k != kid or v is None for k, v, *_ in steps)
                        if value is not None and kid not in finals and no_valued_read:
                            steps.append((kid, value, None, txn_id, None))  # the key's reads so far were valueless
                    last[kid] = value

            span = None
            if reads:
                self._num_committed += 1
                if sser:
                    span = self._real_time_start(segment.start_ts[row], segment.finish_ts[row])
                if span is None:  # last in the order
                    ids[txn_id] = len(nodes)
                    nodes.append(txn_id)
                    order.append(topo._counter)
                    topo._counter += 1
                    out_last.append(-1)
                    in_last.append(-1)
                else:
                    topo.add_node(txn_id, *span)
                if si:  # its out-copy right after it
                    topo.add_node(txn_id + _OUT)
                    edges.append((txn_id, txn_id + _OUT, _INTERNAL))
                if candidate:
                    violations.extend(transaction_int_violations(segment.transaction_at(row)))
                prev = sessions.get(session_id, INITIAL_TXN_ID if self._has_initial else None)
                sessions[session_id] = txn_id
                if prev is not None:  # closes no cycle: the row has no out-edge yet
                    edges.append((prev + out, txn_id, _SESSION))
            for kid, value in intermediates:
                self._register_intermediate(kid, value, txn_id)
            # A step per read, those waiting for one of the row's writes first; a step appends the edges of
            # the one before first, so every violation lands in the order its cause happened.
            steps.append(_END)
            waiting = None
            for kid, value in finals.items():
                code = kid + _VALUELESS if value is None else value * _RADIX + kid
                vid = slots.get(code)
                if vid is None:
                    slots[code] = len(status)
                    writer.append(txn_id)
                    status.append(row_status)
                    item_last.append(-1)
                elif status[vid] != _SEALED:
                    writer[vid], status[vid] = txn_id, row_status
                    if item_last[vid] >= 0:
                        waiting = (waiting or []) + [(kid, value, vid, *read) for read in self._take_pending(vid)]
            for kid, value, vid, reader, writes_key in steps if waiting is None else waiting + steps:
                for source, target, label in edges:
                    if (not refused or (source, target) not in refused) and (s := ids.get(source)) is not None and (
                            t := ids.get(target)) is not None and order[s] < order[t]:
                        code = label_code.get(label)
                        e = len(src)
                        src.append(s)
                        dst.append(t)
                        labels.append(topo._code(label) if code is None else code)
                        out_prev.append(out_last[s])
                        in_prev.append(in_last[t])
                        out_last[s] = in_last[t] = e
                    else:
                        self._dep_edge(source, target, label)
                edges = []
                if kid is None:
                    break
                if vid is None:  # the row's read: its version, made on first sight
                    writes_key = value is not None and kid in finals
                    code = kid + _VALUELESS if value is None else value * _RADIX + kid
                    vid = slots.get(code)
                    if vid is None:
                        vid = slots[code] = len(status)
                        writer.append(0)
                        status.append(_NO_WRITER)
                        item_last.append(-1)
                    elif status[vid] == _SEALED:
                        self.stale_reads += 1
                        continue
                    if writes_key and si:
                        self._diverge(vid, kid, value, txn_id, finals[kid])
                writer_id, state = writer[vid], status[vid]
                if state == _NO_WRITER:  # pending until the writer shows up
                    if intermediate.get(vid, reader) != reader:
                        violations.append(self._intermediate_violation(reader, intermediate[vid], names[kid]))
                        continue
                    kind = _PENDING_WRITES if writes_key else _PENDING
                elif state != _COMMITTED_CODE or value is None or writer_id == reader or (
                        window is not None and reader not in ids):
                    self._unattached(vid, kid, value, reader)
                    continue
                else:  # WR (and WW/RW) edges; an evicted writer's are dropped, the RW ones between live readers kept
                    # At SI a base edge leaves the writer's out-copy and an RW edge enters the overwriter's.
                    key, source = names[kid], writer_id + out
                    listed = item_last[vid] >= 0
                    edges.append((source, reader, (_WR, key)))
                    if listed:
                        rw = (_RW, key)
                        edges.extend((reader, item_txn[r] + out, rw)
                                     for r in self._items(vid, _OVERWRITER) if item_txn[r] != reader)
                    if writes_key:
                        edges.append((source, reader, (_WW, key)))
                        if listed:
                            target = reader + out
                            edges.extend((item_txn[r], target, rw)
                                         for r in self._items(vid, _READER, _OVERWRITER) if item_txn[r] != reader)
                        if window is not None:
                            self._overwrote.setdefault(reader, []).append(value * _RADIX + kid)
                    kind = _OVERWRITER if writes_key else _READER
                item_prev.append(item_last[vid])
                item_last[vid] = len(item_kind)
                item_slot.append(vid)
                item_kind.append(kind)
                item_txn.append(reader)
                item_value.append(0)

            if span is not None:
                self._real_time(txn_id, *span)
            if reads and window is not None:
                self._arrivals.append(txn_id)
                while len(self._arrivals) > window:
                    self._evict(self._arrivals.popleft())
            if on_row_violations is not None and len(violations) > row_before:
                on_row_violations(row, violations[row_before:])
        self._elapsed += time.perf_counter() - started
        self.publish_metrics()
        return violations[before:]

    def ingest_history(self, history: History) -> CheckResult:
        """Stream a complete history in canonical order, as one segment (refused as
        :meth:`ingest_segment` refuses one); return the verdict."""
        self.ingest_segment(self._encode(stream_order(history)))
        return self.result()

    # -- Results --
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
        """Publish the running counters as telemetry gauges: once per
        :meth:`ingest` / :meth:`ingest_segment` call (a one-row segment too),
        :meth:`result` and :meth:`checkpoint`, never per row of a segment."""
        if not obs.enabled():
            return
        obs.set_gauge("repro_checker_txns_ingested", self._num_committed)
        obs.set_gauge("repro_checker_violations", len(self._violations))
        obs.set_gauge("repro_checker_window_evictions", self.evicted_count)
        obs.set_gauge("repro_checker_stale_reads", self.stale_reads)
        obs.set_gauge("repro_checker_pk_reorder_visits", self._topo.reorder_visits)
        nodes = len(self._topo) - len(self._timeline)
        obs.set_gauge("repro_checker_graph_nodes", nodes // 2 if self._si else nodes)  # not the out-copies

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

    def _pending_violations(self) -> List[Violation]:
        out: List[Violation] = []
        for code, vid in self._slots.items():
            if self._status[vid] != _NO_WRITER or self._item_last[vid] < 0:
                continue  # sealed; resolved after the reader went pending; nothing listed
            value, kid = divmod(code, _RADIX)
            key, value = self._key_names[kid % _VALUELESS], None if kid >= _VALUELESS else value
            intermediate = self._intermediate.get(vid)
            for reader_id in map(self._item_txn.__getitem__, self._items(vid, _PENDING, _PENDING_WRITES)):
                if intermediate is not None and intermediate != reader_id:
                    out.append(self._intermediate_violation(reader_id, intermediate, key))
                else:
                    out.append(Violation(kind=AnomalyKind.THIN_AIR_READ, txn_ids=[reader_id], key=key, description=(
                        f"read R({key},{value}) observes value {value}, which no transaction wrote")))
        return out

    # -- Checkpoint / restore --
    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot the complete checker state: its own columns.

        Layout (``repro-checker-state-v7``, docs/ARCHITECTURE.md): scalars, ``keys``
        and ``violations`` are JSON values; every other table holds parallel
        ``array`` columns, the live rows of the order (``topo``, ``labels``), of
        the slot table (``slots``, ``items``) and the small tables in insertion
        order, from which :meth:`restore` rebuilds every link (a time node is
        node id ``time_base - 1 - i`` for row ``i`` of ``rt``; at SI the out-copy
        of the ``j``-th transaction of ``node`` the id below them by ``j``).  Any suffix of
        transactions then yields byte-identical verdicts from this checker and
        from :meth:`restore` of the snapshot, which shares nothing with it."""
        started = time.perf_counter()
        self.publish_metrics()
        topo, timeline = self._topo, self._timeline
        nodes, _, order, src, dst, label = topo._live()
        codes, _, writer, status, intermediate, owner, kinds, txns, values = self._live_slots()
        vid = dict(zip(codes, count()))
        time_base = min((node for node in nodes if type(node) is not tuple), default=0)  # out-copies: above
        named = timeline
        if self._si:
            named = [*timeline, *(node + _OUT for node in nodes if type(node) is not tuple and node < _OUT_FLOOR)]
        refused = [(s, t, topo._code(label)) for (s, t), labels in self._refused.items() for label in labels]
        if named:
            ref = {node: time_base - 1 - i for i, node in enumerate(named)}
            nodes = list(map(ref.get, nodes, nodes))
            refused = [(ref.get(s, s), ref.get(t, t), code) for s, t, code in refused]
        key_code = {None: 0, **dict(zip(self._key_names, count(1)))}
        state = {
            "format": CHECKPOINT_STATE_FORMAT, "level": self.level.value, "window": self.window,
            "has_initial": self._has_initial, "num_committed": self._num_committed, "elapsed": self._elapsed,
            "stale_reads": self.stale_reads, "evicted_count": self.evicted_count,
            "violations": [v.to_dict() for v in self._violations], "keys": list(self._key_names),
            "topo": {"counter": topo._counter, "time_base": time_base, **_table(
                "node ord src dst label", "qdqqq", nodes, order, src, dst, label)},
            "labels": _table("type key", "bq", [_TYPE_CODE[etype] for etype, _ in topo._label_of],
                             [key_code[key] for _, key in topo._label_of]),
            "refused": _table("src dst label", "qqq", *zip(*refused)),
            "slots": _table("key value status writer", "qqbq", map(_RADIX.__rmod__, codes),
                            map(_RADIX.__rfloordiv__, codes), status, writer),
            "items": _table("slot kind txn value", "qbqq", owner, kinds, txns, values),
            "last_in_session": _table("session txn", "qq", self._last_in_session, self._last_in_session.values()),
            "rt": _table("stamp kind", "db", *zip(*timeline)),
            "arrivals": array("q", self._arrivals),
            "overwrote": _table("txn slot", "qq", *zip(*(
                (t, vid[code]) for t, owned in self._overwrote.items() for code in owned if code in vid))),
            "sealed_fifo": array("q", map(vid.__getitem__, self._sealed_fifo)),
        }
        state["slots"].update(_table("intermediate_row intermediate", "qq", intermediate, intermediate.values()))
        obs.observe("repro_checker_checkpoint_seconds", time.perf_counter() - started, op="save")
        return state

    @classmethod
    def restore(cls, state: Dict[str, Any]) -> "CheckerSession":
        """Rebuild a checker from a :meth:`checkpoint` snapshot (aliasing none of
        it, so one snapshot restores any number of times).  Raises ``ValueError``
        naming the tag found when it is not this build's (there is no reader for
        an older format such as ``-v5``: callers replay), and ``ValueError(
        "malformed checkpoint state: …")`` on structural damage under the tag."""
        found = state.get("format") if isinstance(state, dict) else None
        if found != CHECKPOINT_STATE_FORMAT:
            raise ValueError(f"not a {CHECKPOINT_STATE_FORMAT} checkpoint snapshot (found format {found!r})")
        restore_started = time.perf_counter()
        try:
            checker = cls._adopt(state)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            raise ValueError(f"malformed checkpoint state: {type(exc).__name__}: {exc}") from None
        obs.observe("repro_checker_checkpoint_seconds", time.perf_counter() - restore_started, op="restore")
        return checker

    @classmethod
    def _adopt(cls, state: Dict[str, Any]) -> "CheckerSession":
        """A checker holding copies of the validated columns of ``state``."""
        checker = cls(IsolationLevel(state["level"]), window=state["window"])
        checker._has_initial, checker._num_committed = bool(state["has_initial"]), int(state["num_committed"])
        checker._elapsed, checker.stale_reads = float(state["elapsed"]), int(state["stale_reads"])
        checker.evicted_count, violations, key_names = int(state["evicted_count"]), state["violations"], state["keys"]
        if not isinstance(violations, list) or not isinstance(key_names, list):
            raise TypeError("violations and keys must be lists")
        if not all(type(name) is str for name in key_names):
            raise TypeError("key names must be strings")
        checker._violations = [Violation.from_dict(v) for v in violations]
        checker._key_names, checker._key_ids = list(key_names), {name: kid for kid, name in enumerate(key_names)}
        key_of: List[Optional[str]] = [None, *key_names]
        timeline = checker._timeline
        for stamp, kind in zip(*_arrays(state["rt"], stamp="d", kind="b")):
            if kind not in (_START, _FINISH):
                raise ValueError(f"time node kind {kind!r}")
            timeline.append((stamp, kind))
        if timeline != sorted(timeline):
            raise ValueError("the timeline is not sorted")
        checker._chain = [n for n in timeline if n[1] == _FINISH]
        table, topo = state["topo"], checker._topo
        time_base = table["time_base"]
        if type(time_base) is not int:
            raise TypeError("time_base must be an int")
        node, order, src, dst, label = _arrays(table, node="q", ord="d") + _arrays(table, src="q", dst="q", label="q")
        named = timeline
        if checker._si:
            named = [*timeline, *(n + _OUT for n in node if n >= time_base)]
        if min(node, default=time_base) < time_base - len(named):
            raise ValueError("node names a time node or an out-copy past their tables")
        special = {time_base - 1 - i: n for i, n in enumerate(named)}
        topo._node, ids = [special.get(n, n) for n in node], list(range(len(node)))
        topo._id = dict(zip(topo._node, ids))
        if len(topo._id) != len(node) or not all(n in topo for n in named):
            raise ValueError("the order holds a node twice, or not every time node and out-copy")
        topo._counter, topo._ord = int(table["counter"]), order[:]
        topo._fractions = {index for index in order if not index.is_integer()}
        types, keys = _arrays(state["labels"], type="b", key="q")
        _within(types, len(_LABEL_TYPES), "edge label type")
        _within(keys, len(key_of), "edge label key")
        topo._label_of, label_ids = [(_LABEL_TYPES[t], key_of[k]) for t, k in zip(types, keys)], list(range(len(types)))
        topo._label_code = dict(zip(topo._label_of, label_ids))
        if len(topo._label_code) != len(types):
            raise ValueError("an edge label is in the label table twice")
        for column, high, what in ((src, len(node), "edge source"), (dst, len(node), "edge target"),
                                   (label, len(types), "edge label")):
            _within(column, high, what)
        topo._src, topo._dst = list(map(ids.__getitem__, src)), list(map(ids.__getitem__, dst))
        topo._label = list(map(label_ids.__getitem__, label))
        topo._relink()
        src, dst, label = _arrays(state["refused"], src="q", dst="q", label="q")
        _within(label, len(types), "refused edge label")
        for source, target, code in zip(src, dst, label):
            pair = special.get(source, source), special.get(target, target)
            checker._refused.setdefault(pair, []).append(topo._label_of[code])
        table = state["slots"]
        keys, values, statuses, writers = _arrays(table, key="q", value="q", status="b", writer="q")
        _within(keys, _RADIX, "version key")
        if max(map((_VALUELESS - 1).__and__, keys), default=-1) >= len(key_names):
            raise ValueError("a version names an unknown key id")
        _within(statuses, len(STATUS_FROM_CODE), "status code", low=_SEALED)
        codes, vids = [value * _RADIX + key for key, value in zip(keys, values)], list(range(len(keys)))
        checker._slots, checker._status, checker._writer = dict(zip(codes, vids)), list(statuses), list(writers)
        sealed = {vid for vid, status in enumerate(statuses) if status == _SEALED}
        rows, txns = _arrays(table, intermediate_row="q", intermediate="q")
        _within(rows, len(keys), "intermediate_row")
        checker._intermediate = dict(zip(rows, txns))
        if len(checker._slots) != len(keys) or len(checker._intermediate) != len(rows) or not sealed.isdisjoint(rows):
            raise ValueError("a version is in the slot table twice, or a sealed one has an intermediate writer")
        slot, kind, txn, value = _arrays(state["items"], slot="q", kind="b", txn="q", value="q")
        _within(slot, len(keys), "item slot")
        _within(kind, _PENDING_WRITES + 1, "item kind")
        if not sealed.isdisjoint(slot):
            raise ValueError("a sealed version lists items")
        checker._item_slot, checker._item_kind = list(map(vids.__getitem__, slot)), list(kind)
        checker._item_txn, checker._item_value = list(txn), value[:]
        (checker._item_last, checker._item_prev), checker._dropped = _linked(slot, len(keys)), 0
        checker._last_in_session = dict(zip(*_arrays(state["last_in_session"], session="q", txn="q")))
        checker._arrivals = deque(*_arrays(state, arrivals="q"))
        txns, owned = _arrays(state["overwrote"], txn="q", slot="q")
        _within(owned, len(keys), "overwrote slot")
        for txn_id, vid in zip(txns, owned):
            checker._overwrote.setdefault(txn_id, []).append(codes[vid])
        (fifo,) = _arrays(state, sealed_fifo="q")
        if not sealed.issuperset(fifo):
            raise ValueError("sealed_fifo names an unsealed version")
        checker._sealed_fifo = deque(map(codes.__getitem__, fifo))
        return checker

    # -- Per-transaction machinery: the version slots --
    def _items(self, vid: int, *kinds: int) -> List[int]:
        """The rows of the version's items of these kinds, in arrival order."""
        kind = self._item_kind
        return [row for row in _walk(self._item_last[vid], self._item_prev) if kind[row] in kinds]

    def _take_pending(self, vid: int) -> List[Tuple[int, bool]]:
        """Drop the version's pending reads; return them as ``(txn, writes_key)``."""
        rows = self._items(vid, _PENDING, _PENDING_WRITES)
        pending = [(self._item_txn[row], self._item_kind[row] == _PENDING_WRITES) for row in rows]
        for row in rows:
            self._item_kind[row] = _DROPPED
        self._dropped += len(rows)
        return pending

    def _compact_slots(self) -> None:
        """Drop expired versions and unlinked or taken item rows, and relink, each
        column rewritten in place (:meth:`ingest_segment` holds them bound)."""
        if self._dropped:
            codes, vids, writer, status, intermediate, *items = self._live_slots()
            for table, rows in ((self._slots, dict(zip(codes, vids))), (self._intermediate, intermediate)):
                table.clear()
                table.update(rows)
            for column, live in zip((self._writer, self._status, self._item_slot, self._item_kind, self._item_txn,
                                     self._item_value), (writer, status, *items)):
                column[:] = live
            (self._item_last[:], self._item_prev[:]), self._dropped = _linked(self._item_slot, len(self._status)), 0

    def _live_slots(self) -> Tuple[Any, ...]:
        """Unexpired versions (codes, vids, writer, status, intermediate) and listed item rows (slot, kind,
        txn, value), vids renumbered: new columns, or the table's own when nothing is dropped."""
        if not self._dropped:
            return (list(self._slots), list(self._slots.values()), self._writer, self._status, self._intermediate,
                    self._item_slot, self._item_kind, self._item_txn, self._item_value)
        vids, renumber = list(range(len(self._slots))), [-1] * len(self._status)
        for new, old in zip(vids, self._slots.values()):
            renumber[old] = new
        live = bytes(map((-1).__lt__, renumber))
        # A sealed version's rows go with it, and so does a taken pending read.
        rows = bytes(map(and_, map(_SEALED.__ne__, map(self._status.__getitem__, self._item_slot)),
                         map(_DROPPED.__lt__, self._item_kind)))
        return (list(self._slots), vids, list(compress(self._writer, live)), list(compress(self._status, live)),
                {renumber[vid]: txn for vid, txn in self._intermediate.items()},
                list(map(renumber.__getitem__, compress(self._item_slot, rows))), list(compress(self._item_kind, rows)),
                list(compress(self._item_txn, rows)), array("q", compress(self._item_value, rows)))

    def _register_intermediate(self, kid: int, value: Optional[int], txn_id: int) -> None:
        """Record ``txn_id`` as the intermediate writer of version ``(kid, value)``
        (made on first sight); a pending read of it is an IntermediateRead."""
        code = kid + _VALUELESS if value is None else value * _RADIX + kid
        vid = self._slots.setdefault(code, len(self._status))
        if vid == len(self._status):
            self._writer.append(0)
            self._status.append(_NO_WRITER)
            self._item_last.append(-1)
        elif self._status[vid] == _SEALED:
            return
        self._intermediate[vid] = txn_id
        if self._status[vid] == _NO_WRITER and self._item_last[vid] >= 0:
            self._violations.extend(self._intermediate_violation(reader_id, txn_id, self._key_names[kid])
                                    for reader_id, _ in self._take_pending(vid) if reader_id != txn_id)

    @staticmethod
    def _intermediate_violation(reader_id: int, intermediate_id: int, key: str) -> Violation:
        return Violation(
            kind=AnomalyKind.INTERMEDIATE_READ, txn_ids=[reader_id, intermediate_id], key=key,
            description=f"read of object {key} observes an intermediate value of "
                        f"T{intermediate_id}, which later overwrote it",
        )

    def _diverge(self, vid: int, kid: int, value: Optional[int], txn_id: int, written: Optional[int]) -> None:
        """DIVERGENCE (SI only): two RMW readers of one version that wrote
        different values, flagged before writer resolution (Lemma 1); the
        reader joins the version's RMW rows."""
        txns, kinds, values = self._item_txn, self._item_kind, self._item_value
        for row in self._items(vid, _RMW, _RMW_NONE):
            if txns[row] != txn_id and (None if kinds[row] == _RMW_NONE else values[row]) != written:
                a, key = txns[row], self._key_names[kid]
                writer = self._writer[vid] if self._status[vid] != _NO_WRITER else -2
                self._violations.append(Violation(kind=AnomalyKind.LOST_UPDATE, txn_ids=[writer, a, txn_id], key=key,
                    description=f"DIVERGENCE pattern on object {key}: T{a} and T{txn_id} both read "
                                f"value {value} written by T{writer} and then wrote different values"))
                break
        self._item_prev.append(self._item_last[vid])
        self._item_last[vid] = len(kinds)
        self._item_slot.append(vid)
        kinds.append(_RMW_NONE if written is None else _RMW)
        txns.append(txn_id)
        values.append(written or 0)

    def _unattached(self, vid: int, kid: int, value: Optional[int], reader_id: int) -> None:
        """A read of a written version that gets no edge (batch parity): of its own write, of an aborted
        writer (AbortedRead), of an unknown outcome, a valueless one, or a pending one the window collected."""
        writer_id, status, key = self._writer[vid], self._status[vid], self._key_names[kid]
        if writer_id != reader_id and status == _ABORTED_CODE:
            self._violations.append(Violation(kind=AnomalyKind.ABORTED_READ, txn_ids=[reader_id, writer_id], key=key,
                description=f"read of object {key} observes a value written by aborted transaction T{writer_id}"))
        elif writer_id != reader_id and status == _COMMITTED_CODE and value is not None:
            self.stale_reads += 1  # the reader aged out before its writer arrived

    # -- Real-time order (SSER): a timeline of time nodes (module docstring) --
    def _real_time_start(self, start: float, finish: float) -> Optional[Tuple[Tuple[float, int], Tuple[float, int]]]:
        """A row's start node and finish key from its stamps (NaN: none), with
        the nodes made that the row's own node can take an index between (the
        finish node only out of finish order)."""
        if not start <= finish:
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
        topo.add_node(node, before, min(targets, key=lambda target: topo._ord[topo._id[target]], default=None))
        if before is not None:
            topo.add_edge(before, node, _REAL_TIME)
        for target in targets:
            if before is not None:
                topo.remove_edge(before, target)
            topo.add_edge(node, target, _REAL_TIME)

    def _hung(self, node: Tuple[float, int]) -> bool:
        """Whether a transaction in the order hangs on time node ``node``."""
        topo = self._topo
        return any(type(v) is not tuple for v in chain(topo._neighbours(node, False), topo._neighbours(node, True)))

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
        timeline, neighbours = self._timeline, self._topo._neighbours
        reached: Dict[int, None] = {}
        at = bisect_left(timeline, node)
        for here in timeline[at + 1 :] if forward else reversed(timeline[:at]):
            if forward:
                if here[1] == _START:
                    reached.update((v, None) for v in neighbours(here, True) if type(v) is not tuple)
                elif any(v in reached for v in neighbours(here, False)):
                    break
            elif any(v in reached for v in neighbours(here, True)):
                break
            elif here[1] == _FINISH:
                reached.update((v, None) for v in neighbours(here, False) if type(v) is not tuple)
        return list(reached)

    def _step_labels(self, tail: int, head: int, via_time: bool) -> List[Tuple[str, Optional[str]]]:
        """The labels of one cycle step; one through time nodes, or one that is
        a reduced real-time pair, is labeled as that pair edge would be."""
        if not via_time and self._timeline:
            finish = next((v for v in self._topo._neighbours(tail, True) if type(v) is tuple), None)
            via_time = finish is not None and head in self._real_time_neighbours(finish, True)
        if via_time:
            return [*self._topo.labels(tail, head), _REAL_TIME]
        return self._pair_labels(tail, head)

    # -- Edge routing: every edge goes to the order, labels and all --
    def _dep_edge(self, source: int, target: int, label: Tuple[str, Optional[str]]) -> None:
        """Route one dependency edge the inline append did not take; an exact duplicate changes nothing."""
        order = self._topo._id
        if self.window is not None and (source not in order or target not in order):
            return  # an endpoint was garbage-collected: the edge cannot matter
        if not self._refused or label not in self._pair_labels(source, target):
            self._order_edge(source, target, label)

    def _pair_labels(self, source: int, target: int) -> List[Tuple[str, Optional[str]]]:
        """The labels of ``source -> target``: the order's, else the refused table's."""
        return self._topo.labels(source, target) or self._refused.get((source, target), [])

    def _order_edge(self, source: int, target: int, label: Tuple[str, Optional[str]]) -> None:
        """Offer one check-graph edge to the order; report the cycle it closes."""
        cycle = self._topo._add(source, target, label, label[0] == _RT)
        if cycle is None:
            if self._refused and (source, target) in self._refused:
                # Refused earlier, acyclic now (the window broke the cycle).
                for refused in self._refused.pop((source, target)):
                    self._topo.add_edge(source, target, refused)
            return
        labels = self._refused.setdefault((source, target), [])
        if label not in labels:
            labels.append(label)
        if self._si:
            steps = self._composed_steps(cycle)
        else:
            steps = [(tail, head, self._step_labels(tail, head, via_time))
                     for tail, head, via_time in _transaction_steps(cycle)]
        edges = [Edge(tail, head, *best_label((_EDGE_TYPES[e], k) for e, k in labels)) for tail, head, labels in steps]
        self._violations.append(classify_cycle(edges, level=self.level))

    def _composed_steps(self, cycle: List[int]) -> List[Tuple[int, int, List[Tuple[str, Optional[str]]]]]:
        """An SI cycle of the order as labeled steps between transactions from its first out-copy (the
        closing edge's step last): ``x′ → a → a′`` is the base step ``x → a``, ``x′ → a → c′`` the step
        ``x → c`` labeled ``COMPOSED`` by the keys of ``a``'s RW edge."""
        at = 0 if cycle[0] >= _OUT_FLOOR else 1
        nodes = cycle[at:] + cycle[: at + 1]
        steps = []
        for out, txn, head in zip(nodes[::2], nodes[1::2], nodes[2::2]):
            if head - _OUT == txn:  # the internal edge
                steps.append((out - _OUT, txn, self._pair_labels(out, txn)))
            else:
                steps.append((out - _OUT, head - _OUT, [(_COMPOSED, key) for _, key in self._pair_labels(txn, head)]))
        return steps

    # -- Bounded-window garbage collection --
    def _evict(self, txn_id: int) -> None:
        """Retire a transaction that can no longer join a cycle, in O(degree):
        on a W-bounded stream no new in-edge reaches it — its reads resolved
        (WR/WW), the versions it overwrote are sealed here (RW), its session
        successor arrived (SO), nothing finishing before its start is in
        flight (RT)."""
        self.evicted_count += 1
        topo, timeline = self._topo, self._timeline
        hung_on = timeline and [v for forward in (False, True) for v in topo._neighbours(txn_id, forward)
                                if type(v) is tuple]
        topo.remove_node(txn_id)
        out = txn_id + _OUT if self._si else txn_id
        if out != txn_id:  # at SI its out-copy goes with it
            topo.remove_node(out)
        for pair in [pair for pair in self._refused if txn_id in pair or out in pair] if self._refused else ():
            del self._refused[pair]
        for code in self._overwrote.pop(txn_id, ()):
            vid = self._slots.get(code)
            if vid is not None and self._status[vid] != _SEALED:  # sealed: its rows go unlinked
                self._status[vid], self._item_last[vid] = _SEALED, -1
                self._intermediate.pop(vid, None)
                self._sealed_fifo.append(code)
                self._dropped += 1
        while len(self._sealed_fifo) > self._sealed_cap:  # the oldest marker expires
            del self._slots[self._sealed_fifo.popleft()]
            self._dropped += 1
        if 2 * self._dropped > len(self._status) + 1024:
            self._compact_slots()
        if timeline:
            self._retire_time_nodes(hung_on)
