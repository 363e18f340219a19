"""Array-native CSR dependency-graph kernel: verdicts and counterexamples.

The paper's headline claim is that graph-based MT checking is *linear-time*
for SER/SI.  The accept path (the one every healthy history takes) therefore
stays on flat integer arrays, the way real checkers (Cobra's pruning stage,
PolySI's encoder) keep their hot loops:

* :class:`CSRGraph` stores typed edges as flat ``array('i')`` columns —
  ``src`` / ``dst`` (dense node ids), ``etype`` (small integer edge-type
  codes), ``key_id`` (dense object ids, ``-1`` for unkeyed edges).  No
  ``Edge`` object is allocated on the accept path.
* :meth:`CSRGraph.from_index` is the array-native BUILDDEPENDENCY: it reads
  :class:`~repro.core.index.HistoryIndex`'s scan positions and resolved read
  columns and appends whole blocks of edges (SO | WR | WW | RW) with
  bulk ``extend``\\ s.
* :meth:`CSRGraph.add_real_time_chain` gives SSER the real-time order as
  O(n) rows over time nodes instead of up to n²/4 reduced RT pairs; the
  peel reads it, and the labeler walks the reduced pairs off it.
* :meth:`CSRGraph.has_cycle` is one Kahn topological peel
  (:func:`peel_cycle`): ``None`` on the accept path, the ids of one cycle
  otherwise.  On the reject path :meth:`CSRGraph.find_cycle` labels a cycle
  on the same columns — a DFS in transaction-id order, then one pass over
  the rows for the cycle's labels — so the printed counterexample does not
  depend on the order of the edge rows and no multigraph is built.
  :meth:`CSRGraph.to_multigraph` remains as a conversion for the reference
  tests and inspection.
* :meth:`CSRGraph.si_induced` composes the SI check graph
  ``(SO ∪ WR ∪ WW) ; RW?`` at the array level — the base rows joined against
  an int-keyed RW map — instead of nested Python dict iteration.

:meth:`CSRGraph.from_index` is the product's entry point: the checkers
(:mod:`repro.core.checkers`) and the shard workers (:mod:`repro.parallel`)
call it on their index.  They, the sharded merger and the solver baselines'
known-edge installation (:mod:`repro.baselines.solver`) all settle
acyclicity with :func:`peel_cycle`.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from itertools import accumulate, chain, compress, repeat
from operator import eq, ne, not_, sub
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .graph import (
    DependencyGraph,
    Edge,
    EdgeType,
    _find_cycle_dense,
    best_label,
)
from .index import HistoryIndex, packed

__all__ = [
    "CSRGraph",
    "EDGE_TYPE_CODES",
    "EDGE_TYPE_FROM_CODE",
    "peel_cycle",
]

# Small-integer edge-type codes (array-friendly stand-ins for EdgeType).
_RT, _SO, _WR, _WW, _RW, _COMPOSED = 0, 1, 2, 3, 4, 5

EDGE_TYPE_CODES: Dict[EdgeType, int] = {
    EdgeType.RT: _RT,
    EdgeType.SO: _SO,
    EdgeType.WR: _WR,
    EdgeType.WW: _WW,
    EdgeType.RW: _RW,
    EdgeType.COMPOSED: _COMPOSED,
}

#: ``bytes.translate`` tables: a row's type code becomes its RW / SI-base mask.
_IS_RW = bytes(code == _RW for code in range(256))
_IS_BASE = bytes(_SO <= code <= _WW for code in range(256))

EDGE_TYPE_FROM_CODE: Tuple[EdgeType, ...] = (
    EdgeType.RT,
    EdgeType.SO,
    EdgeType.WR,
    EdgeType.WW,
    EdgeType.RW,
    EdgeType.COMPOSED,
)

class CSRGraph:
    """A typed dependency graph over dense integer nodes, stored as arrays.

    Nodes are the committed transactions of one history (including ``⊥T``),
    numbered ``0..n-1`` in index scan order; ``node_ids[dense] == txn_id``.
    Edges live in four parallel ``array('i')`` columns and nothing else is
    retained.  Duplicate (src, dst, type, key) rows are permitted — they
    cannot change any acyclicity verdict, and :meth:`to_multigraph`
    deduplicates on conversion.

    Example:
        >>> from repro.core.model import History, Transaction, read, write
        >>> from repro.core.index import HistoryIndex
        >>> t1 = Transaction(1, [read("x", 0), write("x", 1)])
        >>> t2 = Transaction(2, [read("x", 1), write("x", 2)], session_id=1)
        >>> history = History.from_transactions([[t1], [t2]], initial_keys=["x"])
        >>> csr = CSRGraph.from_index(HistoryIndex.build(history))
        >>> csr.has_cycle() is None
        True
        >>> csr.num_edges >= 4  # SO + WR/WW chains through the two writers
        True
    """

    __slots__ = ("node_ids", "key_names", "src", "dst", "etype", "key_id")

    def __init__(
        self,
        node_ids: Sequence[int],
        key_names: Sequence[str],
        src: Optional[array] = None,
        dst: Optional[array] = None,
        etype: Optional[array] = None,
        key_id: Optional[array] = None,
    ) -> None:
        self.node_ids: List[int] = list(node_ids)
        self.key_names: List[str] = list(key_names)
        self.src: array = src if src is not None else array("i")
        self.dst: array = dst if dst is not None else array("i")
        self.etype: array = etype if etype is not None else array("i")
        self.key_id: array = key_id if key_id is not None else array("i")

    # ------------------------------------------------------------------
    # Construction: the array-native BUILDDEPENDENCY
    # ------------------------------------------------------------------
    @classmethod
    def from_index(
        cls,
        index: HistoryIndex,
        *,
        with_rt: bool = False,
    ) -> "CSRGraph":
        """Algorithm 1's BUILDDEPENDENCY straight onto flat arrays.

        The optimized variant of Section IV-C: no transitive closure of
        ``WW``, which changes no verdict (Theorems 1–2).  Mirrors
        :func:`~repro.core.graph.build_dependency` edge for edge
        (``tests/test_csr.py`` asserts the two build the same edge set and
        the same labeled cycle) and appends one block per edge type, SO |
        WR | WW | RW, each a bulk extend of dense node ids, then (``with_rt``)
        the real-time chain (:meth:`add_real_time_chain`).  Node ids
        come straight from scan positions: the ``i``-th committed
        non-initial position is node ``base + i`` (``base`` is 1 when ``⊥T``
        is node 0), so session order is read off adjacent positions and no
        transaction id is looked up.  Nothing is materialised: on a
        columnar-built index (:meth:`HistoryIndex.from_columns`) the build
        allocates no ``Transaction`` and no per-row container.
        """
        graph = cls(index.committed_txn_ids, index.key_names)
        base = len(graph.node_ids) - index.num_committed
        # node_of[pos]: the node of scan position ``pos``, or -1 (uncommitted);
        # the trailing -1 is what a missing writer (writer_pos -1) maps to.
        node_of = [-1] * (len(index.txn_ids) + 1)
        for node, pos in enumerate(compress(range(len(index.txn_ids)), index._committed_mask)):
            node_of[pos] = node

        graph._append(_SO, *_session_order(index._committed(index._session_of), base))

        # WR edges (unique values), WW inferred from the RMW pattern.  A read
        # without a committed writer, or of the reader's own write, is the INT
        # pre-pass's to report, not an edge.  Each temporary is dropped once
        # its blocks are packed.
        reader_pos, kids, _, writer_pos, rmw, _ = index.read_columns
        kids = list(kids)  # boxed once, not by every block below
        readers = [node_of[pos] for pos in reader_pos]
        writers = [node_of[pos] for pos in writer_pos]
        del node_of
        if -1 in writers or any(map(eq, writers, readers)):
            keep = [w >= 0 and w != r for w, r in zip(writers, readers)]
            readers, writers, kids, rmw = (
                list(compress(column, keep)) for column in (readers, writers, kids, rmw)
            )
        graph._append(_WR, writers, readers, kids)
        ww_src, ww_dst, ww_key = (list(compress(c, rmw)) for c in (writers, readers, kids))
        graph._append(_WW, ww_src, ww_dst, ww_key)
        radix = len(index.key_names) + 1
        rw = _read_write(writers, readers, kids, ww_src, ww_dst, ww_key, radix)
        del writers, readers, ww_src, ww_dst, ww_key
        graph._append(_RW, *rw)
        if with_rt:
            graph.add_real_time_chain(index)
        return graph

    def add_real_time_chain(self, index: HistoryIndex) -> None:
        """Append the real-time order as at most 3n chain rows, in place.

        With the stamped transactions sorted by finish,
        ``p(B)`` counts those finishing strictly before ``B`` starts; each
        distinct ``p > 0`` gets a time node ``V_p`` (no transaction id),
        with rows ``V_p → B`` for ``p(B) = p``, ``V_p → V_p'`` between
        consecutive levels and ``A → V_q`` for the first level ``q`` past
        ``A``'s finish rank.  A path runs from ``A`` to ``B`` iff ``A``
        finishes before ``B`` starts, so the transitive closure, and the
        verdict, are those of the reduced RT pairs (``History.real_time_order``),
        as no interval finishes before it starts (the index refused such a
        history); ``⊥T`` precedes the first transaction by start, as there.
        Time nodes follow the transactions, in level order (:func:`_real_time_walk`).
        """
        ordinals, starts, finishes = index.committed_stamps()
        first = len(self.node_ids)
        base = first - index.num_committed
        nodes = [base + i for i in ordinals]
        by_finish = sorted(range(len(nodes)), key=finishes.__getitem__)
        level_of = list(map(bisect_left, repeat([finishes[i] for i in by_finish]), starts))
        levels = sorted(set(level_of).difference([0]))
        time_nodes = range(first, first + len(levels))
        time_node = dict(zip(levels, time_nodes))
        src = list(map(time_node.__getitem__, compress(level_of, level_of)))
        dst = list(compress(nodes, level_of))
        src += time_nodes[:-1]
        dst += time_nodes[1:]
        # Finish ranks in [levels[j - 1], levels[j]) reach time node j first.
        src += map(nodes.__getitem__, by_finish[: max(levels, default=0)])
        dst += chain.from_iterable(map(repeat, time_nodes, map(sub, levels, [0, *levels])))
        if base and nodes:
            src.append(0)
            dst.append(nodes[starts.index(min(starts))])
        self.node_ids += [None] * len(levels)
        self._append(_RT, src, dst)

    def _append(
        self, code: int, src: List[int], dst: List[int], keys: Optional[List[int]] = None
    ) -> None:
        """Append one block of ``code``-typed rows (unkeyed unless ``keys``)."""
        self.src += packed("i", src)
        self.dst += packed("i", dst)
        self.etype += array("i", [code]) * len(src)
        self.key_id += packed("i", keys) if keys is not None else array("i", [-1]) * len(src)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        """Edge rows stored (duplicates included; see class docstring)."""
        return len(self.src)

    @property
    def nbytes(self) -> int:
        """Retained bytes of the flat edge store: the four columns."""
        return sum(
            a.itemsize * len(a) for a in (self.src, self.dst, self.etype, self.key_id)
        )

    def has_cycle(self) -> Optional[List[int]]:
        """The transaction ids of one cycle, or ``None`` when acyclic.

        One :func:`peel_cycle` over the edge columns; nothing is cached.
        Consecutive ids (wrapping around) are joined by an edge or, through
        the real-time chain's time nodes (which carry no id and are left
        out), by a real-time path; a self-loop is a one-element cycle.  The
        accept path stops here; the reject path asks :meth:`find_cycle` for
        the labeled counterexample.
        """
        cycle = peel_cycle(len(self.node_ids), self.src, self.dst)
        txn_ids = None if cycle is None else map(self.node_ids.__getitem__, cycle)
        return None if txn_ids is None else [txn for txn in txn_ids if txn is not None]

    def find_cycle(self) -> Optional[List[Edge]]:
        """The labeled counterexample: ``to_multigraph().find_cycle()``, on the arrays.

        Transactions are ranked by id once, and only the ones the DFS visits
        have their successors (:meth:`_successors`) sorted by id; the search
        is the multigraph's (:func:`~repro.core.graph._find_cycle_dense`),
        so the cycle does not depend on the order of the edge rows; the walk
        it climbs the real-time chain with drops what the search finished.
        Only the cycle's rows are labeled, by :func:`~repro.core.graph.best_label`;
        a step the unfiltered real-time walk yields carries RT.
        """
        node_ids = self.node_ids
        txn_id = node_ids.__getitem__
        colour = bytearray(len(node_ids))
        first, successors, real_time = self._successors(colour)
        cycle = _find_cycle_dense(
            sorted(range(first), key=txn_id), lambda v: sorted(successors(v), key=txn_id), colour
        )
        if cycle is None:
            return None
        next_of = dict(zip(cycle, cycle[1:] + cycle[:1]))  # in cycle order
        tags: Dict[int, List[Tuple[EdgeType, Optional[str]]]] = {
            v: [(EdgeType.RT, None)] if w in real_time(v) else [] for v, w in next_of.items()
        }
        key_names = self.key_names
        for s, t, e, k in zip(self.src, self.dst, self.etype, self.key_id):
            if next_of.get(s) == t:
                tags[s].append((EDGE_TYPE_FROM_CODE[e], key_names[k] if k >= 0 else None))
        return [
            Edge(node_ids[v], node_ids[w], *best_label(tags[v])) for v, w in next_of.items()
        ]

    def _successors(
        self, colour: Optional[bytearray] = None
    ) -> Tuple[int, Callable[[int], set], Callable[[int], List[int]]]:
        """``(first, successors, real_time)``: the transactions are nodes
        ``0..first-1``, ``successors(v)`` the set of ``v``'s transaction
        successors, its direct rows plus ``real_time(v)``, the reduced RT
        successors :func:`_real_time_walk` reads off a chain.  Given a
        search's ``colour``, ``successors(v)`` leaves out the RT successors
        it has finished; ``real_time(v)`` never does."""
        first = len(self.node_ids) - self.node_ids.count(None)
        flat, starts, ends, _ = _by_source(len(self.node_ids), self.src, self.dst)
        real_time = _real_time_walk(first, flat, starts, ends)
        unfinished = real_time if colour is None else _real_time_walk(first, flat, starts, ends, colour)

        def successors(v: int) -> set:
            return {*filter(first.__gt__, flat[starts[v]:ends[v]]), *unfinished(v)}

        return first, successors, real_time

    # ------------------------------------------------------------------
    # SI composition at the CSR level
    # ------------------------------------------------------------------
    def si_induced(self) -> "CSRGraph":
        """The SI check graph ``(SO ∪ WR ∪ WW) ; RW?`` as a new CSRGraph.

        The base rows are copied run by run (one run on :meth:`from_index`'s
        block layout); every base edge ``a → b`` joined against an int-keyed
        map from ``b`` to its RW rows adds ``a → c`` (COMPOSED, keyed by the
        RW edge) for every ``b RW→ c``.  Matches
        :meth:`DependencyGraph.si_induced_graph` edge-set for edge-set.
        """
        src, dst, etype, key_id = self.src, self.dst, self.etype, self.key_id
        codes = bytes(iter(etype))  # one byte per row, not the raw buffer
        rw = _runs(codes.translate(_IS_RW))
        base = _runs(codes.translate(_IS_BASE))
        rw_out = _levels(_gather(src, rw), [j for start, end in rw for j in range(start, end)])
        base_src, base_dst = _gather(src, base), _gather(dst, base)
        rows, rw_rows = _join(base_dst, rw_out)
        return CSRGraph(
            self.node_ids,
            self.key_names,
            base_src + packed("i", [base_src[i] for i in rows]),
            base_dst + packed("i", [dst[j] for j in rw_rows]),
            _gather(etype, base) + array("i", [_COMPOSED]) * len(rows),
            _gather(key_id, base) + packed("i", [key_id[j] for j in rw_rows]),
        )

    # ------------------------------------------------------------------
    # Legacy conversion (reference tests and inspection only)
    # ------------------------------------------------------------------
    def to_multigraph(self) -> DependencyGraph:
        """The labeled multigraph of these edge rows, built on each call.

        No checker calls it: verdicts and counterexamples come from
        :meth:`has_cycle` and :meth:`find_cycle`.  The edge *set* equals
        what the reference ``build_dependency`` builds (a real-time chain
        becomes its reduced RT pairs), so the reference tests and anyone
        inspecting the graph can compare the two directly.
        """
        node_ids = self.node_ids
        first, _, real_time = self._successors()
        graph = DependencyGraph(node_ids[:first])
        key_names = self.key_names
        types = EDGE_TYPE_FROM_CODE
        add_edge = graph.add_edge
        for s, t, e, k in zip(self.src, self.dst, self.etype, self.key_id):
            if s < first > t:  # time-node rows are the chain, expanded below
                add_edge(node_ids[s], node_ids[t], types[e], key_names[k] if k >= 0 else None)
        for v in range(first):
            for w in real_time(v):
                add_edge(node_ids[v], node_ids[w], EdgeType.RT)
        return graph

    def __repr__(self) -> str:
        return (
            f"CSRGraph(nodes={len(self.node_ids)}, edges={len(self.src)}, "
            f"nbytes={self.nbytes})"
        )


# ----------------------------------------------------------------------
# Edge blocks, int-keyed multimaps and joins (no per-key container)
# ----------------------------------------------------------------------
def _session_order(sessions: List[int], base: int) -> Tuple[List[int], List[int]]:
    """SO rows over nodes ``base, base + 1, ...`` whose session ids are ``sessions``.

    Node ``v`` follows ``v - 1`` when both sit in one session (the scan
    groups sessions contiguously); when ``⊥T`` is node 0 (``base`` 1) it
    precedes each session's first node.
    """
    same = list(map(eq, sessions, sessions[1:]))
    nodes = range(base, base + len(sessions))
    src = list(compress(nodes, same))
    dst = list(compress(nodes[1:], same))
    if base and sessions:
        dst += [base]
        dst += compress(nodes[1:], map(not_, same))
        src += [0] * (len(dst) - len(src))
    return src, dst


def _read_write(
    writers: List[int],
    readers: List[int],
    kids: List[int],
    ww_src: List[int],
    ww_dst: List[int],
    ww_key: List[int],
    radix: int,
) -> Tuple[List[int], List[int], List[int]]:
    """RW rows: ``T' --WR(x)--> T`` and ``T' --WW(x)--> S``, ``T != S``, give ``T --RW(x)--> S``.

    The WW-successor map is keyed by the int slot ``writer * radix + key``;
    a version's first overwriter is an int in its first level, and the rare
    second one (a lost update) sits in the side table (:func:`_levels`).
    The slots and the map are freed on return, before the block is packed,
    which keeps them out of the build's peak memory.
    """
    successors = _levels([s * radix + k for s, k in zip(ww_src, ww_key)], ww_dst)
    rows, overwriters = _join([w * radix + k for w, k in zip(writers, kids)], successors)
    src = [readers[i] for i in rows]
    keys = [kids[i] for i in rows]
    if not all(map(ne, src, overwriters)):  # the reader's own overwrite is no RW edge
        keep = list(map(ne, src, overwriters))
        src, overwriters, keys = (list(compress(c, keep)) for c in (src, overwriters, keys))
    return src, overwriters, keys


def _runs(mask: bytes) -> List[Tuple[int, int]]:
    """The ``(start, end)`` row ranges where ``mask`` is set."""
    return [match.span() for match in re.finditer(b"\x01+", mask)]


def _gather(column: array, runs: List[Tuple[int, int]]) -> array:
    """The rows of ``column`` inside ``runs``, as one ``array('i')``."""
    out = array("i")
    for start, end in runs:
        out += column[start:end]
    return out


def _levels(keys: Sequence[int], values: Sequence[int]) -> List[Dict[int, int]]:
    """The multimap ``keys[j] -> values[j]`` as int-to-int dicts, one per rank.

    Level ``l`` maps each key to its ``l``-th value, so a key's first value
    is a plain int in level 0.  When every key has one value (a mini-
    transaction history's WW successors) level 0 is one ``dict(zip())`` and
    the whole map; keys with more (a version read-modify-written twice, a
    reader of two overwritten versions) take the loop that fills the later
    levels, the side table.  Nothing held is a per-key container, so the map
    wakes no collector.
    """
    first = dict(zip(keys, values))
    if len(first) == len(keys):
        return [first]
    levels: List[Dict[int, int]] = []
    depth: Dict[int, int] = {}
    for key, value in zip(keys, values):
        rank = depth.get(key, 0)
        depth[key] = rank + 1
        if rank == len(levels):
            levels.append({})
        levels[rank][key] = value
    return levels


def _join(keys: Sequence[int], levels: List[Dict[int, int]]) -> Tuple[List[int], List[int]]:
    """Every ``(i, value)`` with ``value`` stored under ``keys[i]``, as two lists.

    Values are non-negative.  A row that misses one level misses every later
    one, so each level probes only the previous level's hits: the join costs
    one probe per row plus one per match.
    """
    rows: Sequence[int] = range(len(keys))
    matched: List[int] = []
    values: List[int] = []
    for level in levels:
        found = list(map(level.__contains__, keys))
        rows = list(compress(rows, found))
        keys = list(compress(keys, found))
        matched += rows
        values += map(level.__getitem__, keys)
    return matched, values


def _real_time_walk(
    first: int, flat: array, starts: List[int], ends: List[int], colour: Optional[bytearray] = None
) -> Callable[[int], List[int]]:
    """``v -> v``'s reduced real-time successors, read off the chain rows.

    Nodes from ``first`` on are :meth:`CSRGraph.add_real_time_chain`'s time
    nodes in level order (``flat`` / ``starts`` / ``ends``: :func:`_by_source`).
    ``A``'s one row to a time node is its ``hop``; ``V_t → B`` hangs ``B``
    at ``t``.  ``B`` is a reduced successor of ``A`` iff it hangs at some
    ``t >= hop[A]`` and no ``C`` hung in ``[hop[A], t)`` has ``hop[C] <= t``,
    so the walk climbs from ``hop[A]`` while ``t`` is below the least hop
    it has collected: at most one level per successor.  Given a search's
    ``colour`` (:func:`~repro.core.graph._find_cycle_dense`), each level
    climbed is compacted to its unfinished nodes, so a finished node is read
    once, not once per walk, and the walk yields the others as before.
    """
    num_nodes = len(starts)
    if first == num_nodes:
        return lambda v: []
    hop = [max(flat[starts[v]:ends[v]], default=-1) for v in range(first)]
    hop = [h if h >= first else num_nodes for h in hop]
    hung = [list(filter(first.__gt__, flat[starts[t]:ends[t]])) for t in range(first, num_nodes)]
    low = [min(map(hop.__getitem__, b), default=num_nodes) for b in hung]

    def walk(v: int) -> List[int]:
        successors: List[int] = []
        t, stop = hop[v], num_nodes
        while t < stop:
            if colour is not None:
                hung[t - first] = [b for b in hung[t - first] if colour[b] != 2]  # 2: finished
            successors += hung[t - first]
            stop = min(stop, low[t - first])
            t += 1
        return successors

    return walk


# ----------------------------------------------------------------------
# Acyclicity: Kahn's topological peel
# ----------------------------------------------------------------------
def _by_source(
    num_nodes: int, src: Sequence[int], dst: Sequence[int]
) -> Tuple[array, List[int], List[int], List[int]]:
    """Counting sort of the edges ``src[i] → dst[i]`` by source.

    Returns ``(successors, starts, ends, indeg)``: node ``v``'s successors
    are ``successors[starts[v]:ends[v]]``, one flat ``array('i')`` for all,
    and ``indeg[v]`` its in-degree, counted in the same pass (the peel needs
    it and a second pass over the edges would cost more).
    """
    ends = [0] * num_nodes
    for s in src:
        ends[s] += 1
    ends = list(accumulate(ends))
    starts = ends[:]
    indeg = [0] * num_nodes
    successors = array("i", bytes(4 * len(src)))
    for s, t in zip(src, dst):
        c = starts[s] - 1
        successors[c] = t
        starts[s] = c
        indeg[t] += 1
    return successors, starts, ends, indeg


def peel_cycle(
    num_nodes: int, src: Sequence[int], dst: Sequence[int]
) -> Optional[List[int]]:
    """Kahn's topological peel: ``None`` when acyclic, else the ids of one cycle.

    The edges ``src[i] → dst[i]`` over nodes ``0..num_nodes-1`` are
    counting-sorted by source while in-degrees are counted
    (:func:`_by_source`); then every node whose in-degree reaches zero is
    peeled and its successors decremented.  Each edge is touched three
    times and nothing is cached.  A node left unpeeled still has an
    unpeeled predecessor, so walking predecessors from one must revisit a
    node; the loop it closes is returned in edge order (every consecutive
    pair, wrapping around, is an edge, and a self-loop is ``[v]``).
    """
    n = num_nodes
    successors, starts, ends, indeg = _by_source(n, src, dst)
    peeled = [v for v in range(n) if not indeg[v]]
    for v in peeled:
        for w in successors[starts[v]:ends[v]]:
            d = indeg[w] - 1
            indeg[w] = d
            if not d:
                peeled.append(w)
    if len(peeled) == n:
        return None
    # Reject path: one unpeeled predecessor per unpeeled node.
    pred = [-1] * n
    for s, t in zip(src, dst):
        if indeg[s] and indeg[t]:
            pred[t] = s
    step = [-1] * n
    walk: List[int] = []
    v = next(v for v in range(n) if indeg[v])
    while step[v] < 0:
        step[v] = len(walk)
        walk.append(v)
        v = pred[v]
    cycle = walk[step[v]:]
    cycle.reverse()
    return cycle
