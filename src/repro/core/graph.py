"""Dependency graphs over transactions and the BUILDDEPENDENCY procedure.

A dependency graph (paper, Definition 3) extends a history with the
per-object relations ``WR(x)`` (write–read), ``WW(x)`` (write–write), and
``RW(x)`` (read–write, the anti-dependency), plus the session order ``SO``
and, for strict serializability, the real-time order ``RT``.

For mini-transaction histories the graph is (nearly) unique: the unique
value written by each transaction determines ``WR`` entirely, the RMW
pattern determines ``WW`` from ``WR``, and ``RW`` is derived from the other
two.  :func:`build_dependency` implements Algorithm 1's BUILDDEPENDENCY,
optionally computing the per-object transitive closure of ``WW`` (the
unoptimized variant used in the correctness proof) or skipping it (the
optimized variant of Section IV-C, the default).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .index import HistoryIndex
from .intcheck import build_write_index
from .model import History

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .csr import CSRGraph

__all__ = ["EdgeType", "Edge", "DependencyGraph", "best_label", "build_dependency"]


class EdgeType(enum.Enum):
    """Kinds of dependency edges between transactions."""

    RT = "RT"
    SO = "SO"
    WR = "WR"
    WW = "WW"
    RW = "RW"
    #: Composite edges of the SI induced graph ``(SO ∪ WR ∪ WW) ; RW?``.
    COMPOSED = "COMPOSED"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeType.{self.name}"


@dataclass(frozen=True)
class Edge:
    """A labeled dependency edge ``source --type(key)--> target``."""

    source: int
    target: int
    edge_type: EdgeType
    key: Optional[str] = None

    @property
    def label(self) -> str:
        if self.key is not None:
            return f"{self.edge_type.value}({self.key})"
        return self.edge_type.value

    def __str__(self) -> str:
        return f"T{self.source} --{self.label}--> T{self.target}"


class DependencyGraph:
    """A multigraph of labeled dependency edges over transaction ids."""

    def __init__(self, nodes: Optional[Iterable[int]] = None) -> None:
        self.nodes: Set[int] = set(nodes) if nodes is not None else set()
        #: adjacency: source -> {target -> set of (EdgeType, key)}
        self._succ: Dict[int, Dict[int, Set[Tuple[EdgeType, Optional[str]]]]] = defaultdict(dict)
        self._edge_count = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node: int) -> None:
        self.nodes.add(node)

    def add_edge(
        self,
        source: int,
        target: int,
        edge_type: EdgeType,
        key: Optional[str] = None,
    ) -> bool:
        """Add an edge; returns ``True`` if it was not already present."""
        self.nodes.add(source)
        self.nodes.add(target)
        labels = self._succ[source].setdefault(target, set())
        tag = (edge_type, key)
        if tag in labels:
            return False
        labels.add(tag)
        self._edge_count += 1
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def successors(self, node: int) -> Iterator[int]:
        return iter(self._succ.get(node, {}))

    def has_edge(
        self,
        source: int,
        target: int,
        edge_type: Optional[EdgeType] = None,
        key: Optional[str] = None,
    ) -> bool:
        labels = self._succ.get(source, {}).get(target)
        if labels is None:
            return False
        if edge_type is None:
            return True
        if key is None:
            return any(etype is edge_type for etype, _ in labels)
        return (edge_type, key) in labels

    def edges(self, edge_type: Optional[EdgeType] = None) -> Iterator[Edge]:
        """Iterate over all edges, optionally filtered by type."""
        for source, targets in self._succ.items():
            for target, labels in targets.items():
                for etype, key in labels:
                    if edge_type is None or etype is edge_type:
                        yield Edge(source, target, etype, key)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def num_nodes(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Acyclicity
    # ------------------------------------------------------------------
    def is_acyclic(self) -> bool:
        return self.find_cycle() is None

    def find_cycle(self) -> Optional[List[Edge]]:
        """Find a cycle, returned as a list of labeled edges, or ``None``.

        The search runs on a dense integer re-mapping of the node set
        (lists and a flat colour array instead of per-node dictionaries),
        which is markedly faster on the large graphs the parallel pipeline
        shards over; node and successor order is sorted, so the cycle
        returned is deterministic across runs and worker counts.
        """
        order = sorted(self.nodes)
        dense = {node: i for i, node in enumerate(order)}
        adjacency = [
            sorted(dense[t] for t in self._succ.get(node, ()) if t in dense)
            for node in order
        ]
        cycle_dense = _find_cycle_dense(range(len(order)), adjacency.__getitem__)
        if cycle_dense is None:
            return None
        return self.label_cycle([order[i] for i in cycle_dense])

    def label_cycle(self, cycle_nodes: Sequence[int]) -> List[Edge]:
        """Attach edge labels to a cycle given as an ordered node sequence.

        ``cycle_nodes[i] -> cycle_nodes[i + 1]`` (wrapping around) must be
        edges of this graph; each is labeled by :func:`best_label`.
        """
        successors = self._succ
        return [
            Edge(source, target, *best_label(successors.get(source, {}).get(target, ())))
            for source, target in zip(cycle_nodes, [*cycle_nodes[1:], *cycle_nodes[:1]])
        ]

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def restricted(self, types: FrozenSet[EdgeType]) -> "DependencyGraph":
        """A copy of the graph containing only edges with the given types."""
        sub = DependencyGraph(self.nodes)
        for edge in self.edges():
            if edge.edge_type in types:
                sub.add_edge(edge.source, edge.target, edge.edge_type, edge.key)
        return sub

    def si_induced_graph(self) -> "DependencyGraph":
        """The graph ``G' = (V, (SO ∪ WR ∪ WW) ; RW?)`` used by CHECKSI.

        An edge ``a → b`` is added when ``a (SO|WR|WW)→ b`` and, additionally,
        ``a → c`` is added for every ``b RW→ c``.
        """
        induced = DependencyGraph(self.nodes)
        base_types = (EdgeType.SO, EdgeType.WR, EdgeType.WW)
        rw_succ: Dict[int, List[Tuple[int, Optional[str]]]] = defaultdict(list)
        for edge in self.edges(EdgeType.RW):
            rw_succ[edge.source].append((edge.target, edge.key))
        for edge in self.edges():
            if edge.edge_type not in base_types:
                continue
            induced.add_edge(edge.source, edge.target, edge.edge_type, edge.key)
            for target, key in rw_succ.get(edge.target, ()):
                induced.add_edge(edge.source, target, EdgeType.COMPOSED, key)
        return induced

    def __repr__(self) -> str:
        return f"DependencyGraph(nodes={len(self.nodes)}, edges={self._edge_count})"


def best_label(tags: Iterable[Tuple[EdgeType, Optional[str]]]) -> Tuple[EdgeType, Optional[str]]:
    """The most informative of one edge's ``(type, key)`` labels.

    Anything but RT/SO wins; the type name and then the key break ties, so
    the choice never depends on the order the labels were stored in (the
    multigraph's sets, the CSR kernel's edge rows and the streaming order's
    label lists all label a cycle identically).  No label at all (a cycle
    must use real edges) gives ``COMPOSED``.
    """
    return min(
        tags,
        key=lambda tag: (tag[0] in (EdgeType.RT, EdgeType.SO), tag[0].value, tag[1] or ""),
        default=(EdgeType.COMPOSED, None),
    )


def _find_cycle_dense(
    roots: Sequence[int], successors: Callable[[int], Sequence[int]]
) -> Optional[List[int]]:
    """Iterative DFS cycle detection over dense nodes ``0..len(roots)-1``.

    The one search behind :meth:`DependencyGraph.find_cycle` and
    :meth:`~repro.core.csr.CSRGraph.find_cycle`: colours live in a flat
    ``bytearray``, roots are tried in the order of ``roots`` (a permutation
    of the nodes) and ``successors(v)``, asked once per visited node, gives
    the order ``v``'s successors are tried in.  Both callers sort by
    transaction id, so the reported cycle (node ids in edge order) is
    deterministic.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    colour = bytearray(len(roots))
    parent = [-1] * len(roots)
    for root in roots:
        if colour[root] != WHITE:
            continue
        colour[root] = GRAY
        stack: List[Tuple[int, Iterator[int]]] = [(root, iter(successors(root)))]
        while stack:
            node, pending = stack[-1]
            for nxt in pending:
                if colour[nxt] == WHITE:
                    colour[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, iter(successors(nxt))))
                    break
                if colour[nxt] == GRAY:
                    # Back edge node -> nxt closes a cycle; walk parents back.
                    cycle = [node]
                    while node != nxt:
                        node = parent[node]
                        cycle.append(node)
                    cycle.reverse()
                    return cycle
            else:
                colour[node] = BLACK
                stack.pop()
    return None


def build_dependency(
    history: History,
    *,
    with_rt: bool = False,
    transitive_ww: bool = False,
    index: Optional[HistoryIndex] = None,
    dense: bool = False,
) -> Union[DependencyGraph, "CSRGraph"]:
    """Algorithm 1's BUILDDEPENDENCY for mini-transaction histories.

    Args:
        history: the input history (assumed to satisfy the INT axiom; run
            :func:`repro.core.intcheck.check_internal_consistency` first).
        with_rt: add real-time edges (used by CHECKSSER only).
        transitive_ww: compute the per-object transitive closure of ``WW``
            (the proof-friendly variant); the optimized variant of
            Section IV-C omits it, and Theorem 1/2 show the acyclicity
            verdicts coincide.
        index: the shared :class:`~repro.core.index.HistoryIndex` the
            dense kernel reads (built here when ``dense`` and not supplied).
            The reference branch never builds or reads one: given only an
            index (``history=None``) it uses ``index.history``.
        dense: emit an array-native :class:`~repro.core.csr.CSRGraph`
            instead of the labeled multigraph.  The dense graph never
            allocates an :class:`Edge` on the accept path, labels a
            rejection's cycle itself (``CSRGraph.find_cycle()``) and
            converts to a :class:`DependencyGraph` only when a caller asks
            (``CSRGraph.to_multigraph()``).  This is the path the batch
            checkers run; the multigraph branch below is the reference
            implementation the tests compare it against, resolved from the
            ``History`` with the object model (:mod:`repro.core.model`,
            :class:`~repro.core.intcheck.WriteIndex`) independently of the
            index's column scan.

    Returns:
        The dependency graph over committed transactions (including ``⊥T``)
        — a :class:`DependencyGraph`, or a :class:`~repro.core.csr.CSRGraph`
        when ``dense=True``.
    """
    if dense:
        from .csr import CSRGraph  # deferred: csr builds on this module

        return CSRGraph.from_index(
            index if index is not None else HistoryIndex.build(history),
            with_rt=with_rt,
            transitive_ww=transitive_ww,
        )
    # The reference: read the History through the object model alone, so a
    # scan bug cannot reach both sides of a kernel-vs-reference comparison.
    if history is None:
        history = index.history
    committed = history.committed_transactions()
    graph = DependencyGraph(t.txn_id for t in committed)

    pairs = [(EdgeType.SO, pair) for pair in history.session_order()]
    if with_rt:
        pairs += [(EdgeType.RT, pair) for pair in history.real_time_order()]
    for edge_type, (source, target) in pairs:
        if source.txn_id in graph.nodes and target.txn_id in graph.nodes:
            graph.add_edge(source.txn_id, target.txn_id, edge_type)

    # WR edges (entirely determined by unique values), and WW edges inferred
    # from WR thanks to the RMW pattern: if the reader also writes the same
    # object, it directly follows the writer it read from in the version
    # order of that object.
    writes = build_write_index(history)
    ww_per_key: Dict[str, List[Tuple[int, int]]] = defaultdict(list)
    for txn in committed:
        if txn.is_initial:
            continue
        for key, value in txn.external_reads().items():
            writer = writes.final_writer(key, value)
            if writer is None or not writer.committed or writer.txn_id == txn.txn_id:
                # Read-provenance anomalies are reported by the INT pre-pass;
                # skip the edge here rather than guessing.
                continue
            graph.add_edge(writer.txn_id, txn.txn_id, EdgeType.WR, key)
            if txn.writes_to(key):
                graph.add_edge(writer.txn_id, txn.txn_id, EdgeType.WW, key)
                ww_per_key[key].append((writer.txn_id, txn.txn_id))

    if transitive_ww:
        for key, pairs in ww_per_key.items():
            closure = _transitive_closure(pairs)
            for source, target in closure:
                if graph.add_edge(source, target, EdgeType.WW, key):
                    ww_per_key[key].append((source, target))

    # RW edges: T' --WR(x)--> T and T' --WW(x)--> S with T != S gives
    # T --RW(x)--> S.
    ww_successors: Dict[Tuple[int, str], List[int]] = defaultdict(list)
    for edge in list(graph.edges(EdgeType.WW)):
        assert edge.key is not None
        ww_successors[(edge.source, edge.key)].append(edge.target)
    for edge in list(graph.edges(EdgeType.WR)):
        assert edge.key is not None
        for overwriter in ww_successors.get((edge.source, edge.key), ()):
            if overwriter != edge.target:
                graph.add_edge(edge.target, overwriter, EdgeType.RW, edge.key)

    return graph


def _transitive_closure(pairs: Sequence[Tuple[int, int]]) -> Set[Tuple[int, int]]:
    """Transitive closure of a relation given as a list of pairs.

    One Tarjan pass condenses the relation into its SCC DAG; because Tarjan
    emits components in reverse topological order, a single accumulation
    sweep then assigns every component the union of its successors'
    reachable sets — no fixpoint re-iteration.  On the per-key WW relations
    of ``transitive_ww=True`` this is a single linear walk plus the
    (inherently quadratic) closure output; anomalous histories whose WW
    relation is cyclic are handled by the condensation (members of a
    nontrivial SCC all reach each other).
    """
    succ: Dict[int, List[int]] = {}
    nodes: List[int] = []
    seen: Set[int] = set()
    for source, target in pairs:
        succ.setdefault(source, []).append(target)
        for node in (source, target):
            if node not in seen:
                seen.add(node)
                nodes.append(node)

    # Iterative Tarjan over the (sparse, int-keyed) relation.
    ids: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    scc_stack: List[int] = []
    comp_of: Dict[int, int] = {}
    comp_members: List[List[int]] = []
    #: nodes reachable from each component, members included when cyclic.
    comp_reach: List[Set[int]] = []
    counter = 0
    for root in nodes:
        if root in ids:
            continue
        ids[root] = low[root] = counter
        counter += 1
        scc_stack.append(root)
        on_stack.add(root)
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, ptr = work[-1]
            row = succ.get(node, ())
            if ptr < len(row):
                work[-1] = (node, ptr + 1)
                nxt = row[ptr]
                if nxt not in ids:
                    ids[nxt] = low[nxt] = counter
                    counter += 1
                    scc_stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, 0))
                elif nxt in on_stack and ids[nxt] < low[node]:
                    low[node] = ids[nxt]
            else:
                work.pop()
                low_node = low[node]
                if work and low_node < low[work[-1][0]]:
                    low[work[-1][0]] = low_node
                if low_node == ids[node]:
                    members: List[int] = []
                    while True:
                        popped = scc_stack.pop()
                        on_stack.discard(popped)
                        members.append(popped)
                        if popped == node:
                            break
                    comp = len(comp_members)
                    for member in members:
                        comp_of[member] = comp
                    cyclic = len(members) > 1 or any(
                        member in succ.get(member, ()) for member in members
                    )
                    # Successor components are already emitted (reverse
                    # topological order), so their reach sets are final.
                    reach: Set[int] = set()
                    for member in members:
                        for nxt in succ.get(member, ()):
                            target_comp = comp_of[nxt]
                            if target_comp != comp:
                                reach.add(nxt)
                                reach.update(comp_reach[target_comp])
                    if cyclic:
                        reach.update(members)
                    comp_members.append(members)
                    comp_reach.append(reach)

    closure: Set[Tuple[int, int]] = set(pairs)
    for comp, members in enumerate(comp_members):
        reach = comp_reach[comp]
        for source in members:
            for target in reach:
                if source != target:
                    closure.add((source, target))
    return closure
