"""A DPLL-style constraint solver over polygraph write-write orientations.

Cobra and PolySI hand their encodings to MonoSAT, a SAT solver with a
built-in acyclicity theory.  This module provides the stand-in: a solver
that decides, for every :class:`~repro.baselines.polygraph.Constraint`, one
of its two edge-set orientations such that the resulting graph contains no
forbidden cycle.  It performs unit propagation (an orientation whose edges
would close a forbidden cycle forces the opposite one), chronological
backtracking over branch decisions, and reports basic search statistics.

Two cycle criteria are supported:

* ``mode="ser"`` — any cycle is forbidden (serializability);
* ``mode="si"``  — only cycles without two adjacent RW edges are forbidden
  (snapshot isolation).  This is reduced to plain reachability by expanding
  each transaction ``T`` into two vertices ``(T, BASE)`` and ``(T, RW)``:
  SO/WR/WW edges lead into the BASE copy from either copy, while an RW edge
  may only be taken from a BASE copy and leads into the RW copy — so no walk
  in the expanded graph ever uses two consecutive RW edges.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.csr import peel_cycle
from .polygraph import Constraint, LabeledEdge, Polygraph

__all__ = ["SolveResult", "PolygraphSolver"]

_BASE = 0
_RW = 1

#: A vertex of the (possibly expanded) search graph.
_Node = Tuple[int, int]


@dataclass
class SolveResult:
    """Outcome of a polygraph solving run."""

    satisfiable: bool
    mode: str
    decisions: int = 0
    propagations: int = 0
    num_constraints: int = 0
    elapsed_seconds: float = 0.0
    #: When the known edges alone already contain a forbidden cycle, the
    #: offending edge that closed it (best-effort diagnostics).
    conflict_edge: Optional[LabeledEdge] = None


class PolygraphSolver:
    """Searches for an acyclic orientation of a polygraph.

    Args:
        polygraph: the encoded history.
        mode: ``"ser"`` (plain acyclicity) or ``"si"`` (no cycle without two
            adjacent RW edges).
    """

    def __init__(self, polygraph: Polygraph, mode: str = "ser") -> None:
        if mode not in ("ser", "si"):
            raise ValueError("mode must be 'ser' or 'si'")
        self.polygraph = polygraph
        self.mode = mode
        self._adj: Dict[_Node, Set[_Node]] = defaultdict(set)
        self._trail: List[Tuple[_Node, _Node]] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(self) -> SolveResult:
        """Run the search; returns whether a consistent orientation exists."""
        started = time.perf_counter()
        result = SolveResult(
            satisfiable=True,
            mode=self.mode,
            num_constraints=len(self.polygraph.constraints),
        )

        # Install the known edges; a forbidden cycle here is already a
        # violation regardless of any constraint choices.  Accept path: one
        # topological peel over the expanded known-edge graph (the dense CSR
        # kernel's acyclicity routine) replaces a reachability DFS per edge;
        # only when the peel finds a cycle is the legacy per-edge installation
        # replayed, to identify the first offending edge for diagnostics.
        known_edges = self.polygraph.known_edges
        if self._known_edges_cyclic(known_edges):
            for edge in known_edges:
                if self._edge_closes_cycle(edge):
                    result.satisfiable = False
                    result.conflict_edge = edge
                    result.elapsed_seconds = time.perf_counter() - started
                    return result
                self._add_edge(edge)
        else:
            for edge in known_edges:
                self._add_edge(edge)

        constraints = list(self.polygraph.constraints)
        assignment: Dict[int, int] = {}
        assign_order: List[int] = []
        # Decision stack entries: (constraint index, choice tried,
        # assignment length before, trail length before).
        decisions: List[Tuple[int, int, int, int]] = []

        def assign(index: int, choice: int) -> None:
            assignment[index] = choice
            assign_order.append(index)
            option = constraints[index].first if choice == 0 else constraints[index].second
            for edge in option:
                self._add_edge(edge)

        def undo_to(assign_len: int, trail_len: int) -> None:
            while len(assign_order) > assign_len:
                index = assign_order.pop()
                assignment.pop(index, None)
            while len(self._trail) > trail_len:
                source, target = self._trail.pop()
                self._adj[source].discard(target)

        def propagate() -> bool:
            """Unit propagation; returns False on conflict."""
            changed = True
            while changed:
                changed = False
                for index, constraint in enumerate(constraints):
                    if index in assignment:
                        continue
                    bad_first = self._option_closes_cycle(constraint.first)
                    bad_second = self._option_closes_cycle(constraint.second)
                    if bad_first and bad_second:
                        return False
                    if bad_first:
                        assign(index, 1)
                        result.propagations += 1
                        changed = True
                    elif bad_second:
                        assign(index, 0)
                        result.propagations += 1
                        changed = True
            return True

        while True:
            if propagate():
                undecided = next(
                    (i for i in range(len(constraints)) if i not in assignment), None
                )
                if undecided is None:
                    break  # everything oriented without forbidden cycles
                decisions.append((undecided, 0, len(assign_order), len(self._trail)))
                assign(undecided, 0)
                result.decisions += 1
                continue
            # Conflict: backtrack chronologically.
            backtracked = False
            while decisions:
                index, choice, assign_len, trail_len = decisions.pop()
                undo_to(assign_len, trail_len)
                if choice == 0:
                    decisions.append((index, 1, assign_len, trail_len))
                    assign(index, 1)
                    result.decisions += 1
                    backtracked = True
                    break
            if not backtracked:
                result.satisfiable = False
                break

        result.elapsed_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def _known_edges_cyclic(self, edges: Sequence[LabeledEdge]) -> bool:
        """Whether the expanded known-edge graph contains a cycle.

        Dense interning of the expanded ``(txn, BASE/RW)`` vertices plus
        one :func:`~repro.core.csr.peel_cycle` — the acyclicity routine of
        the MTC CSR kernel.
        """
        interning: Dict[_Node, int] = {}
        src: List[int] = []
        dst: List[int] = []
        for edge in edges:
            for source, target in self._expand(edge):
                src.append(interning.setdefault(source, len(interning)))
                dst.append(interning.setdefault(target, len(interning)))
        return peel_cycle(len(interning), src, dst) is not None

    def _expand(self, edge: LabeledEdge) -> List[Tuple[_Node, _Node]]:
        source, target, label = edge
        if self.mode == "ser":
            return [((source, _BASE), (target, _BASE))]
        if label == "RW":
            # An RW edge may only follow a base edge.
            return [((source, _BASE), (target, _RW))]
        return [
            ((source, _BASE), (target, _BASE)),
            ((source, _RW), (target, _BASE)),
        ]

    def _add_edge(self, edge: LabeledEdge) -> None:
        for source, target in self._expand(edge):
            if target not in self._adj[source]:
                self._adj[source].add(target)
                self._trail.append((source, target))

    def _edge_closes_cycle(self, edge: LabeledEdge) -> bool:
        return any(
            source == target or self._reaches(target, source)
            for source, target in self._expand(edge)
        )

    def _option_closes_cycle(self, option: Sequence[LabeledEdge]) -> bool:
        # Conservative check edge-by-edge: sufficient for propagation and for
        # rejecting a branch, and cheap enough to run inside the search loop.
        added: List[Tuple[_Node, _Node]] = []
        closes = False
        for edge in option:
            if self._edge_closes_cycle(edge):
                closes = True
                break
            for source, target in self._expand(edge):
                if target not in self._adj[source]:
                    self._adj[source].add(target)
                    added.append((source, target))
        for source, target in reversed(added):
            self._adj[source].discard(target)
        return closes

    def _reaches(self, source: _Node, target: _Node) -> bool:
        """Whether ``target`` is reachable from ``source`` (iterative DFS)."""
        if source == target:
            return True
        seen: Set[_Node] = {source}
        stack: List[_Node] = [source]
        while stack:
            node = stack.pop()
            for nxt in self._adj.get(node, ()):
                if nxt == target:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False
