"""Array-native CSR dependency-graph kernel: the dense accept path.

The paper's headline claim is that graph-based MT checking is *linear-time*
for SER/SI — but the accept path (the one every healthy history takes) used
to pay pure-Python multigraph overhead: :func:`~repro.core.graph.build_dependency`
materialised an :class:`~repro.core.graph.Edge`-labeled dict-of-dict-of-sets,
``find_cycle`` re-densified the node set on every call, and
``si_induced_graph`` copied edges one Python object at a time.  Real checkers
(Cobra's pruning stage, PolySI's encoder) win by keeping the hot loop on flat
integer arrays; this module does the same for the MTC core:

* :class:`CSRGraph` stores typed edges as flat ``array('i')`` columns —
  ``src`` / ``dst`` (dense node ids), ``etype`` (small integer edge-type
  codes), ``key_id`` (dense object ids, ``-1`` for unkeyed edges) — compiled
  on demand into CSR offsets (``indptr`` / ``indices``).  No ``Edge`` object
  is allocated on the accept path.
* :meth:`CSRGraph.from_index` is the array-native BUILDDEPENDENCY: it reads
  :class:`~repro.core.index.HistoryIndex`'s resolved read records and dense
  interning directly and appends integers.
* :meth:`CSRGraph.has_cycle` replaces per-root DFS with a single iterative
  Tarjan SCC pass and returns the first nontrivial SCC (or a self-loop).
  Labeled-cycle extraction runs only on the reject path:
  :meth:`CSRGraph.to_multigraph` materialises the legacy
  :class:`~repro.core.graph.DependencyGraph` lazily, so violation output and
  anomaly classification are byte-identical to the legacy pipeline.
* :meth:`CSRGraph.si_induced` composes the SI check graph
  ``(SO ∪ WR ∪ WW) ; RW?`` at the array level — one pass over the base rows
  joined against an RW adjacency — instead of nested Python dict iteration.

``build_dependency(history, dense=True)`` is the public entry point; the
checkers (:mod:`repro.core.checkers`), the sharded executor/merger
(:mod:`repro.parallel`), and the solver baselines' known-edge installation
(:mod:`repro.baselines.solver`, via :func:`first_nontrivial_scc`) all run on
this kernel.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .graph import DependencyGraph, Edge, EdgeType, _transitive_closure
from .index import HistoryIndex

__all__ = [
    "CSRGraph",
    "EDGE_TYPE_CODES",
    "EDGE_TYPE_FROM_CODE",
    "WireCSR",
    "first_nontrivial_scc",
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

EDGE_TYPE_FROM_CODE: Tuple[EdgeType, ...] = (
    EdgeType.RT,
    EdgeType.SO,
    EdgeType.WR,
    EdgeType.WW,
    EdgeType.RW,
    EdgeType.COMPOSED,
)

#: Wire format of a CSR graph for the process boundary: global transaction
#: ids per dense node, key names per dense key id, and the four edge columns
#: as raw little-endian ``array('i')`` buffers.
WireCSR = Tuple[List[int], List[str], bytes, bytes, bytes, bytes]


class CSRGraph:
    """A typed dependency graph over dense integer nodes, stored as arrays.

    Nodes are the committed transactions of one history (including ``⊥T``),
    numbered ``0..n-1`` in index scan order; ``node_ids[dense] == txn_id``.
    Edges live in four parallel ``array('i')`` columns and are compiled into
    CSR offsets on the first acyclicity query.  Duplicate (src, dst, type,
    key) rows are permitted — they cannot change any acyclicity verdict, and
    :meth:`to_multigraph` deduplicates on conversion.

    Example:
        >>> from repro.core.model import History, Transaction, read, write
        >>> from repro.core.graph import build_dependency
        >>> t1 = Transaction(1, [read("x", 0), write("x", 1)])
        >>> t2 = Transaction(2, [read("x", 1), write("x", 2)], session_id=1)
        >>> history = History.from_transactions([[t1], [t2]], initial_keys=["x"])
        >>> csr = build_dependency(history, dense=True)
        >>> csr.has_cycle() is None
        True
        >>> csr.num_edges >= 4  # SO + WR/WW chains through the two writers
        True
    """

    __slots__ = (
        "node_ids",
        "node_dense",
        "key_names",
        "src",
        "dst",
        "etype",
        "key_id",
        "_indptr",
        "_indices",
        "_self_loop",
        "_multigraph",
    )

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
        self.node_dense: Dict[int, int] = {
            txn_id: i for i, txn_id in enumerate(self.node_ids)
        }
        self.key_names: List[str] = list(key_names)
        self.src: array = src if src is not None else array("i")
        self.dst: array = dst if dst is not None else array("i")
        self.etype: array = etype if etype is not None else array("i")
        self.key_id: array = key_id if key_id is not None else array("i")
        self._indptr: Optional[array] = None
        self._indices: Optional[array] = None
        self._self_loop: int = -1
        self._multigraph: Optional[DependencyGraph] = None

    # ------------------------------------------------------------------
    # Construction: the array-native BUILDDEPENDENCY
    # ------------------------------------------------------------------
    @classmethod
    def from_index(
        cls,
        index: HistoryIndex,
        *,
        with_rt: bool = False,
        transitive_ww: bool = False,
        reduced_rt: bool = True,
    ) -> "CSRGraph":
        """Algorithm 1's BUILDDEPENDENCY straight onto flat arrays.

        Mirrors :func:`~repro.core.graph.build_dependency` edge for edge
        (the randomized equivalence suite asserts the two paths agree on
        verdicts, anomaly kinds, and labeled cycles) but appends integers to
        ``array('i')`` columns instead of allocating ``Edge``-labeled dict
        entries.  Only the index's *dense* accessors are consumed
        (``committed_txn_ids`` / ``session_order_id_pairs`` /
        ``real_time_id_pairs`` / ``read_columns``), so on a
        columnar-built index (:meth:`HistoryIndex.from_columns`) the whole
        build runs without materialising a single ``Transaction``.
        """
        graph = cls(
            index.committed_txn_ids,
            index.key_names,
        )
        dense = graph.node_dense
        # Composite radix for (writer, key) lookups: one int dict key beats a
        # tuple in the hot loop.
        radix = len(index.key_names) + 1
        src_append = graph.src.append
        dst_append = graph.dst.append
        et_append = graph.etype.append
        kid_append = graph.key_id.append

        if with_rt:
            for source_id, target_id in index.real_time_id_pairs(reduced=reduced_rt):
                s = dense.get(source_id)
                t = dense.get(target_id)
                if s is not None and t is not None:
                    src_append(s)
                    dst_append(t)
                    et_append(_RT)
                    kid_append(-1)

        for source_id, target_id in index.session_order_id_pairs():
            s = dense.get(source_id)
            t = dense.get(target_id)
            if s is not None and t is not None:
                src_append(s)
                dst_append(t)
                et_append(_SO)
                kid_append(-1)

        # WR edges (unique values), WW inferred from the RMW pattern.
        wr_src = array("i")
        wr_dst = array("i")
        wr_key = array("i")
        ww_succ: Dict[int, List[int]] = {}
        ww_pairs_per_key: Dict[int, List[Tuple[int, int]]] = {}
        # Reads arrive as columns keyed by scan position; ``node_of`` maps a
        # position straight to its graph node (-1: not committed).
        node_of = [-1] * len(index.txn_ids)
        for node, pos in enumerate(map(index.txn_dense.__getitem__, graph.node_ids)):
            node_of[pos] = node
        reader_pos, read_kid, _, writer_pos, read_rmw, _ = index.read_columns
        for rp, k, wp, writes_key in zip(reader_pos, read_kid, writer_pos, read_rmw):
            if wp < 0 or wp == rp:
                # Read-provenance anomalies are reported by the INT pre-pass.
                continue
            w = node_of[wp]
            if w < 0:
                continue
            r = node_of[rp]
            src_append(w)
            dst_append(r)
            et_append(_WR)
            kid_append(k)
            wr_src.append(w)
            wr_dst.append(r)
            wr_key.append(k)
            if writes_key:
                src_append(w)
                dst_append(r)
                et_append(_WW)
                kid_append(k)
                ww_succ.setdefault(w * radix + k, []).append(r)
                if transitive_ww:
                    ww_pairs_per_key.setdefault(k, []).append((w, r))

        if transitive_ww:
            for k, pairs in ww_pairs_per_key.items():
                existing = set(pairs)
                for s, t in _transitive_closure(pairs):
                    if (s, t) in existing:
                        continue
                    src_append(s)
                    dst_append(t)
                    et_append(_WW)
                    kid_append(k)
                    ww_succ.setdefault(s * radix + k, []).append(t)

        # RW edges: T' --WR(x)--> T and T' --WW(x)--> S with T != S gives
        # T --RW(x)--> S.
        ww_get = ww_succ.get
        for w, r, k in zip(wr_src, wr_dst, wr_key):
            successors = ww_get(w * radix + k)
            if successors:
                for overwriter in successors:
                    if overwriter != r:
                        src_append(r)
                        dst_append(overwriter)
                        et_append(_RW)
                        kid_append(k)
        return graph

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
        """Retained bytes of the flat edge store (plus compiled CSR)."""
        total = sum(
            a.itemsize * len(a) for a in (self.src, self.dst, self.etype, self.key_id)
        )
        if self._indptr is not None and self._indices is not None:
            total += self._indptr.itemsize * len(self._indptr)
            total += self._indices.itemsize * len(self._indices)
        return total

    def iter_edges(self) -> Iterator[Edge]:
        """Yield labeled :class:`Edge` objects (debug/tests; not a hot path)."""
        node_ids = self.node_ids
        key_names = self.key_names
        types = EDGE_TYPE_FROM_CODE
        for s, t, e, k in zip(self.src, self.dst, self.etype, self.key_id):
            yield Edge(node_ids[s], node_ids[t], types[e], key_names[k] if k >= 0 else None)

    # ------------------------------------------------------------------
    # Acyclicity: one iterative Tarjan pass
    # ------------------------------------------------------------------
    def _compile(self) -> None:
        """Counting-sort the edge columns into CSR offsets (stable order)."""
        if self._indptr is not None:
            return
        n = len(self.node_ids)
        m = len(self.src)
        indptr = [0] * (n + 1)
        for s in self.src:
            indptr[s + 1] += 1
        for i in range(n):
            indptr[i + 1] += indptr[i]
        cursor = indptr[:-1]
        indices = [0] * m
        self_loop = -1
        for s, t in zip(self.src, self.dst):
            c = cursor[s]
            indices[c] = t
            cursor[s] = c + 1
            if s == t and self_loop < 0:
                self_loop = s
        self._indptr = array("i", indptr)
        self._indices = array("i", indices)
        self._self_loop = self_loop

    def has_cycle(self) -> Optional[List[int]]:
        """The first nontrivial SCC (as transaction ids), or ``None``.

        A self-loop is reported as a one-element SCC.  The accept path stops
        here; callers needing a *labeled* counterexample cycle convert with
        :meth:`to_multigraph` and run the legacy
        :meth:`~repro.core.graph.DependencyGraph.find_cycle`, which keeps
        violation output identical to the legacy pipeline.
        """
        self._compile()
        if self._self_loop >= 0:
            return [self.node_ids[self._self_loop]]
        assert self._indptr is not None and self._indices is not None
        scc = _first_nontrivial_scc_csr(
            len(self.node_ids), self._indptr, self._indices
        )
        if scc is None:
            return None
        return [self.node_ids[v] for v in scc]

    def is_acyclic(self) -> bool:
        return self.has_cycle() is None

    # ------------------------------------------------------------------
    # SI composition at the CSR level
    # ------------------------------------------------------------------
    def si_induced(self) -> "CSRGraph":
        """The SI check graph ``(SO ∪ WR ∪ WW) ; RW?`` as a new CSRGraph.

        One pass over the base rows joined against an RW adjacency map: a
        base edge ``a → b`` contributes itself plus ``a → c`` (COMPOSED,
        keyed by the RW edge) for every ``b RW→ c``.  Matches
        :meth:`DependencyGraph.si_induced_graph` edge-set for edge-set.
        """
        rw_map: Dict[int, List[Tuple[int, int]]] = {}
        for s, t, e, k in zip(self.src, self.dst, self.etype, self.key_id):
            if e == _RW:
                rw_map.setdefault(s, []).append((t, k))

        induced = CSRGraph(self.node_ids, self.key_names)
        src_append = induced.src.append
        dst_append = induced.dst.append
        et_append = induced.etype.append
        kid_append = induced.key_id.append
        rw_get = rw_map.get
        for s, t, e, k in zip(self.src, self.dst, self.etype, self.key_id):
            if not _SO <= e <= _WW:
                continue
            src_append(s)
            dst_append(t)
            et_append(e)
            kid_append(k)
            successors = rw_get(t)
            if successors:
                for c, ck in successors:
                    src_append(s)
                    dst_append(c)
                    et_append(_COMPOSED)
                    kid_append(ck)
        return induced

    # ------------------------------------------------------------------
    # Lazy legacy conversion (reject path / explicit callers only)
    # ------------------------------------------------------------------
    def to_multigraph(self) -> DependencyGraph:
        """Materialise the legacy labeled multigraph (cached).

        Only runs when a cycle must be labeled or a caller explicitly asks
        for the multigraph; the edge *set* equals what the legacy
        ``build_dependency`` builds, so ``find_cycle`` / ``label_cycle`` /
        anomaly classification behave identically.
        """
        if self._multigraph is None:
            graph = DependencyGraph(self.node_ids)
            node_ids = self.node_ids
            key_names = self.key_names
            types = EDGE_TYPE_FROM_CODE
            add_edge = graph.add_edge
            for s, t, e, k in zip(self.src, self.dst, self.etype, self.key_id):
                add_edge(
                    node_ids[s],
                    node_ids[t],
                    types[e],
                    key_names[k] if k >= 0 else None,
                )
            self._multigraph = graph
        return self._multigraph

    def append_remapped(
        self,
        wire: WireCSR,
        node_map: Sequence[int],
        key_map: Sequence[int],
    ) -> None:
        """Append another graph's edge rows with ids translated into this one.

        ``node_map[local_dense] -> this graph's dense node id`` and
        ``key_map[local_kid] -> this graph's dense key id`` are the
        translation arrays for the wire graph's own interning; unkeyed
        edges (``key_id == -1``) stay unkeyed.  Edge rows are appended in
        the wire's order, so composing remaps over a reduction tree yields
        byte-identical edge columns to remapping every leaf directly — the
        invariant the SSER tree merge relies on.  Invalidates any compiled
        CSR/multigraph state.
        """
        _node_ids, _key_names, src_b, dst_b, etype_b, key_b = wire
        src = array("i")
        src.frombytes(src_b)
        dst = array("i")
        dst.frombytes(dst_b)
        etype = array("i")
        etype.frombytes(etype_b)
        key_id = array("i")
        key_id.frombytes(key_b)
        src_append = self.src.append
        dst_append = self.dst.append
        et_append = self.etype.append
        kid_append = self.key_id.append
        for s, t, e, k in zip(src, dst, etype, key_id):
            src_append(node_map[s])
            dst_append(node_map[t])
            et_append(e)
            kid_append(key_map[k] if k >= 0 else -1)
        self._indptr = None
        self._indices = None
        self._self_loop = -1
        self._multigraph = None

    # ------------------------------------------------------------------
    # Process-boundary wire format
    # ------------------------------------------------------------------
    def to_wire(self) -> WireCSR:
        """Flatten into compact picklable buffers (see :data:`WireCSR`)."""
        return (
            self.node_ids,
            self.key_names,
            self.src.tobytes(),
            self.dst.tobytes(),
            self.etype.tobytes(),
            self.key_id.tobytes(),
        )

    @classmethod
    def from_wire(cls, wire: WireCSR) -> "CSRGraph":
        node_ids, key_names, src_b, dst_b, etype_b, key_b = wire
        columns = []
        for buf in (src_b, dst_b, etype_b, key_b):
            column = array("i")
            column.frombytes(buf)
            columns.append(column)
        return cls(node_ids, key_names, *columns)

    def __repr__(self) -> str:
        return (
            f"CSRGraph(nodes={len(self.node_ids)}, edges={len(self.src)}, "
            f"nbytes={self.nbytes})"
        )


# ----------------------------------------------------------------------
# Tarjan SCC (iterative, allocation-light)
# ----------------------------------------------------------------------
def _first_nontrivial_scc_csr(
    n: int, indptr: Sequence[int], indices: Sequence[int]
) -> Optional[List[int]]:
    """First SCC of size > 1 over CSR adjacency, or ``None`` when acyclic.

    Iterative Tarjan with flat arrays for discovery indices and low-links;
    roots are visited in ascending dense order and successors in CSR
    (insertion) order, so the reported component is deterministic.
    Self-loops are the caller's job (pre-scanned during compilation).
    """
    ids = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    scc_stack: List[int] = []
    counter = 0
    for root in range(n):
        if ids[root] != -1:
            continue
        ids[root] = low[root] = counter
        counter += 1
        scc_stack.append(root)
        on_stack[root] = 1
        work: List[Tuple[int, int]] = [(root, indptr[root])]
        while work:
            v, ptr = work[-1]
            if ptr < indptr[v + 1]:
                work[-1] = (v, ptr + 1)
                w = indices[ptr]
                if ids[w] == -1:
                    ids[w] = low[w] = counter
                    counter += 1
                    scc_stack.append(w)
                    on_stack[w] = 1
                    work.append((w, indptr[w]))
                elif on_stack[w] and ids[w] < low[v]:
                    low[v] = ids[w]
            else:
                work.pop()
                low_v = low[v]
                if work:
                    u = work[-1][0]
                    if low_v < low[u]:
                        low[u] = low_v
                if low_v == ids[v]:
                    component: List[int] = []
                    while True:
                        w = scc_stack.pop()
                        on_stack[w] = 0
                        component.append(w)
                        if w == v:
                            break
                    if len(component) > 1:
                        return component
    return None


def first_nontrivial_scc(
    adjacency: Sequence[Sequence[int]],
) -> Optional[List[int]]:
    """First cycle-witnessing SCC over a dense list-of-lists adjacency.

    Compiles the rows into CSR offsets (stable counting sort, preserving
    successor order) and runs the same Tarjan core as
    :meth:`CSRGraph.has_cycle`; a self-loop is reported as a one-element
    component.  Shared with the solver baselines' known-edge installation,
    which runs one SCC pass instead of a reachability DFS per edge on the
    accept path.
    """
    n = len(adjacency)
    indptr = [0] * (n + 1)
    for v, row in enumerate(adjacency):
        indptr[v + 1] = indptr[v] + len(row)
        for w in row:
            if w == v:
                return [v]
    indices: List[int] = []
    for row in adjacency:
        indices.extend(row)
    return _first_nontrivial_scc_csr(n, indptr, indices)
