"""Polygraph construction for solver-based baseline checkers.

Cobra and PolySI encode a history as a *polygraph* (Papadimitriou 1979) or a
generalisation of it: a set of known dependency edges plus binary
*constraints* capturing the unknown write-write orders.  For every object
``x`` and every unordered pair of committed writers ``{T1, T2}`` of ``x``,
either ``T1`` precedes ``T2`` in the version order of ``x`` or vice versa;
each choice also induces the corresponding anti-dependency (RW) edges from
``T``'s readers to the other writer.  A history satisfies the target
isolation level iff some choice for every constraint yields a graph without
forbidden cycles — the job of :mod:`repro.baselines.solver`.

This module is deliberately generic over the isolation level; the level
only affects which cycles the solver considers forbidden.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..core.intcheck import build_write_index
from ..core.model import History

__all__ = ["LabeledEdge", "Constraint", "Polygraph", "build_polygraph"]


#: An edge with a coarse label ("SO", "WR", "WW", "RW") used for reporting.
LabeledEdge = Tuple[int, int, str]


@dataclass(frozen=True)
class Constraint:
    """A binary choice between two alternative edge sets.

    Exactly one of ``first`` or ``second`` must be chosen; both correspond to
    one orientation of the write-write order between two transactions on one
    object, bundled with the anti-dependency edges that orientation induces.
    """

    key: str
    txn_a: int
    txn_b: int
    first: Tuple[LabeledEdge, ...]
    second: Tuple[LabeledEdge, ...]


@dataclass
class Polygraph:
    """Known edges plus unresolved constraints."""

    nodes: Set[int] = field(default_factory=set)
    known_edges: List[LabeledEdge] = field(default_factory=list)
    constraints: List[Constraint] = field(default_factory=list)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def __repr__(self) -> str:
        return (
            f"Polygraph(nodes={len(self.nodes)}, known_edges={len(self.known_edges)}, "
            f"constraints={len(self.constraints)})"
        )


def build_polygraph(history: History, *, infer_rmw_ww: bool = False) -> Polygraph:
    """Construct the polygraph of a history with unique written values.

    Args:
        history: the history to encode (GT or MT).
        infer_rmw_ww: apply Cobra's write-chain style pruning — when the
            reader of a value also writes the same object (the RMW pattern),
            the write-write successor of the writer is known, so the
            corresponding constraints can be resolved up front.  This is what
            keeps Cobra competitive on MT histories; PolySI-style encodings
            leave the constraints to the solver.
    """
    committed = history.committed_transactions()
    graph = Polygraph(nodes={txn.txn_id for txn in committed})

    # Session order.
    for source, target in history.session_order():
        if source.txn_id in graph.nodes and target.txn_id in graph.nodes:
            graph.known_edges.append((source.txn_id, target.txn_id, "SO"))

    # Write-read edges (unique values) and per-key reader/writer tables.
    writes = build_write_index(history)
    writers_per_key: Dict[str, List[int]] = defaultdict(list)
    readers_of: Dict[Tuple[str, int], List[int]] = defaultdict(list)
    for txn in committed:
        for key in txn.final_writes():
            writers_per_key[key].append(txn.txn_id)
    known_ww: Set[Tuple[str, int, int]] = set()
    for txn in committed:
        if txn.is_initial:
            continue
        for key, value in txn.external_reads().items():
            writer = writes.final_writer(key, value)
            if writer is None or not writer.committed or writer.txn_id == txn.txn_id:
                continue
            graph.known_edges.append((writer.txn_id, txn.txn_id, "WR"))
            readers_of[(key, writer.txn_id)].append(txn.txn_id)
            if infer_rmw_ww and txn.writes_to(key):
                known_ww.add((key, writer.txn_id, txn.txn_id))

    # Known WW edges from the RMW pattern (and their induced RW edges).
    for key, earlier, later in sorted(known_ww):
        graph.known_edges.append((earlier, later, "WW"))
        for reader in readers_of[(key, earlier)]:
            if reader != later:
                graph.known_edges.append((reader, later, "RW"))

    # Orders already implied transitively by the inferred RMW write chains
    # (Cobra's "write chain" pruning): pairs connected by a chain of known
    # WW edges need no constraint.
    implied: Set[Tuple[str, int, int]] = _chain_closure(known_ww)

    # Constraints: one per unordered pair of writers of the same object whose
    # order is not already known.
    for key, writers in sorted(writers_per_key.items()):
        unique_writers = sorted(set(writers))
        for i, txn_a in enumerate(unique_writers):
            for txn_b in unique_writers[i + 1 :]:
                if (key, txn_a, txn_b) in implied or (key, txn_b, txn_a) in implied:
                    continue
                first = _orientation_edges(key, txn_a, txn_b, readers_of)
                second = _orientation_edges(key, txn_b, txn_a, readers_of)
                graph.constraints.append(
                    Constraint(key=key, txn_a=txn_a, txn_b=txn_b, first=first, second=second)
                )
    return graph


def _chain_closure(known_ww: Set[Tuple[str, int, int]]) -> Set[Tuple[str, int, int]]:
    """Per-key transitive closure of the inferred WW chain edges."""
    successors: Dict[Tuple[str, int], Set[int]] = defaultdict(set)
    for key, earlier, later in known_ww:
        successors[(key, earlier)].add(later)
    closure: Set[Tuple[str, int, int]] = set(known_ww)
    for (key, start), direct in list(successors.items()):
        reachable: Set[int] = set()
        frontier = list(direct)
        while frontier:
            node = frontier.pop()
            if node in reachable:
                continue
            reachable.add(node)
            frontier.extend(successors.get((key, node), ()))
        for target in reachable:
            closure.add((key, start, target))
    return closure


def _orientation_edges(
    key: str,
    earlier: int,
    later: int,
    readers_of: Dict[Tuple[str, int], List[int]],
) -> Tuple[LabeledEdge, ...]:
    """Edges induced by ordering ``earlier`` before ``later`` on ``key``."""
    edges: List[LabeledEdge] = [(earlier, later, "WW")]
    for reader in readers_of.get((key, earlier), ()):
        if reader != later:
            edges.append((reader, later, "RW"))
    return tuple(edges)
