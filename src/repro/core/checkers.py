"""MTC's verification algorithms for SSER, SER, and SI (paper, Algorithm 1).

All three checkers share the same structure:

1. pre-check the INT axiom and read-provenance anomalies
   (:mod:`repro.core.intcheck`);
2. build the (nearly unique) dependency graph of the mini-transaction
   history with :func:`repro.core.graph.build_dependency`;
3. check acyclicity of the appropriate edge combination:

   * ``CHECKSSER`` — ``RT ∪ SO ∪ WR ∪ WW ∪ RW`` acyclic (O(n log n): the
     peel reads RT as a chain of time nodes, and only a rejection builds
     the explicit RT pairs, up to n²/4 of them, to label its cycle);
   * ``CHECKSER``  — ``SO ∪ WR ∪ WW ∪ RW`` acyclic (Θ(n));
   * ``CHECKSI``   — reject on the DIVERGENCE pattern, else
     ``(SO ∪ WR ∪ WW) ; RW?`` acyclic (Θ(n)).

The checkers are sound and complete on mini-transaction histories with
unique values.  On violation they return a counterexample cycle, classified
into one of the named anomalies of Table I whenever the cycle matches a
known pattern.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from .. import obs
from .csr import CSRGraph
from .divergence import find_divergence
from .graph import DependencyGraph, Edge, EdgeType, build_dependency
from .index import HistoryIndex
from .model import History
from .result import AnomalyKind, CheckResult, IsolationLevel, Violation

__all__ = [
    "GRAPH_CHECKED_LEVELS",
    "check_sser",
    "check_ser",
    "check_si",
    "check_level",
    "cycle_verdict",
    "classify_cycle",
    "raise_if_not_mt",
    "MTHistoryError",
]

#: Levels the graph-based MTC pipeline covers on plain histories (LIN is
#: checked as SSER there).  Shared by :func:`check_level` and the sharded
#: executor so the two never disagree on which levels are accepted.
GRAPH_CHECKED_LEVELS = (
    IsolationLevel.SERIALIZABILITY,
    IsolationLevel.SNAPSHOT_ISOLATION,
    IsolationLevel.STRICT_SERIALIZABILITY,
    IsolationLevel.LINEARIZABILITY,
)


class MTHistoryError(ValueError):
    """Raised in strict mode when the input is not a valid MT history."""


def raise_if_not_mt(index: HistoryIndex) -> None:
    """Raise :class:`MTHistoryError` unless the indexed history is MT-valid.

    Shared by the serial pre-checks and the parallel executor so strict-mode
    failures are identical whichever pipeline runs.
    """
    problems = index.mt_problems()
    if problems:
        raise MTHistoryError(
            "not a valid mini-transaction history: "
            + "; ".join(str(p) for p in problems[:5])
        )


def check_ser(
    history: History,
    *,
    transitive_ww: bool = False,
    strict_mt: bool = False,
    index: Optional[HistoryIndex] = None,
) -> CheckResult:
    """CHECKSER: verify serializability of a mini-transaction history.

    Args:
        history: the MT history to verify — a :class:`History` or a
            :class:`~repro.history.columnar.ColumnarHistory` segment (here
            and in :func:`check_si` / :func:`check_sser`).
        transitive_ww: use the unoptimized BUILDDEPENDENCY that materialises
            the per-object transitive closure of ``WW`` (for cross-validation
            and the ablation benchmarks); the default is the optimized
            variant of Section IV-C.
        strict_mt: raise :class:`MTHistoryError` if the history is not a
            valid MT history instead of checking on a best-effort basis.
        index: optional pre-built :class:`~repro.core.index.HistoryIndex`;
            :meth:`repro.core.checker.MTChecker.verify` builds it once and
            threads it through every stage, so the history is scanned once.
    """
    return check_level(
        history,
        IsolationLevel.SERIALIZABILITY,
        transitive_ww=transitive_ww,
        strict_mt=strict_mt,
        index=index,
    )


def check_sser(
    history: History,
    *,
    transitive_ww: bool = False,
    strict_mt: bool = False,
    index: Optional[HistoryIndex] = None,
) -> CheckResult:
    """CHECKSSER: verify strict serializability of a mini-transaction history.

    Identical to :func:`check_ser` but additionally includes the real-time
    order edges, requiring transaction timestamps on the history.
    """
    return check_level(
        history,
        IsolationLevel.STRICT_SERIALIZABILITY,
        transitive_ww=transitive_ww,
        strict_mt=strict_mt,
        index=index,
    )


def check_si(
    history: History,
    *,
    transitive_ww: bool = False,
    strict_mt: bool = False,
    early_divergence_exit: bool = True,
    index: Optional[HistoryIndex] = None,
) -> CheckResult:
    """CHECKSI: verify snapshot isolation of a mini-transaction history.

    The DIVERGENCE pattern (two transactions reading the same version of an
    object and both overwriting it) is checked first; it immediately implies
    a LOSTUPDATE violation of SI.  Otherwise the induced graph
    ``(SO ∪ WR ∪ WW) ; RW?`` must be acyclic.

    Args:
        early_divergence_exit: disable to skip the early pattern check and
            rely solely on graph construction (ablation;
            ``benchmarks/bench_ablation_divergence.py``).  Note that without
            the early exit a DIVERGENCE history may admit an acyclic induced
            graph, so the early check is required for completeness — the
            ablation only measures its cost, and the checker re-enables it
            for the final verdict.
    """
    return check_level(
        history,
        IsolationLevel.SNAPSHOT_ISOLATION,
        transitive_ww=transitive_ww,
        strict_mt=strict_mt,
        early_divergence_exit=early_divergence_exit,
        index=index,
    )


def check_level(
    history: Optional[History],
    level: IsolationLevel,
    *,
    transitive_ww: bool = False,
    strict_mt: bool = False,
    early_divergence_exit: bool = True,
    index: Optional[HistoryIndex] = None,
) -> CheckResult:
    """Algorithm 1 for one level: the routine behind every batch verdict.

    Pre-checks, then (SI only) the DIVERGENCE scan, then BUILDDEPENDENCY on
    the array-native CSR kernel (:mod:`repro.core.csr`) and one acyclicity
    check (:func:`cycle_verdict`).  :func:`check_ser` / :func:`check_si` /
    :func:`check_sser`, the :class:`~repro.core.checker.MTChecker` facade
    and the sharded executor all end up here.  ``history`` is a
    :class:`History` or a columnar segment — both enter through
    :meth:`HistoryIndex.build` — and may be ``None`` when ``index`` carries
    it (shard workers); LIN is checked as SSER.
    """
    if level not in GRAPH_CHECKED_LEVELS:
        raise ValueError(f"unsupported isolation level for MTC: {level}")
    started = time.perf_counter()
    if level is IsolationLevel.LINEARIZABILITY:
        level = IsolationLevel.STRICT_SERIALIZABILITY
    if index is None:
        index = HistoryIndex.build(history)
    num_txns = index.num_committed

    # MT validation and the INT verdict are cached on the index, so a facade
    # that validated up front (or a repeated check) never re-scans it.
    with obs.phase("pre_checks"):
        if strict_mt:
            raise_if_not_mt(index)
        violations: Sequence[Violation] = index.int_violations()
    divergence = None
    if not violations and level is IsolationLevel.SNAPSHOT_ISOLATION:
        with obs.phase("divergence"):
            divergence = find_divergence(history, index=index)
        if divergence is not None and early_divergence_exit:
            violations = [divergence.to_violation()]

    if violations:
        result = CheckResult.violated(level, violations, num_transactions=num_txns)
    else:
        sser = level is IsolationLevel.STRICT_SERIALIZABILITY
        with obs.phase("build_dependency"):
            csr = build_dependency(
                history, transitive_ww=transitive_ww, index=index, dense=True
            )
            peeled = csr.with_real_time_chain(index) if sser else csr
        obs.inc("repro_graph_builds_total")
        obs.set_gauge("repro_graph_nodes", peeled.num_nodes)
        obs.set_gauge("repro_graph_edges", peeled.num_edges)
        with obs.phase("acyclicity"):
            if not sser:
                result = cycle_verdict(csr, level, num_txns)
            elif peeled.has_cycle() is None:
                result = CheckResult.ok(level, num_txns)
            else:
                # The explicit real-time rows label the cycle, so the
                # counterexample is the one the full RT block would print.
                csr.add_real_time(index)
                violation = classify_cycle(csr.find_cycle(), level=level)
                result = CheckResult.violated(level, [violation], num_transactions=num_txns)
        if result.satisfied and divergence is not None:
            # The induced graph can be acyclic even though the history
            # violates SI via DIVERGENCE (Example 3); completeness requires
            # reporting it.
            result = CheckResult.violated(
                level, [divergence.to_violation()], num_transactions=num_txns
            )
    result.elapsed_seconds = time.perf_counter() - started
    return result


def cycle_verdict(csr: CSRGraph, level: IsolationLevel, num_transactions: int) -> CheckResult:
    """Accept iff the level's edge combination of ``csr`` is acyclic.

    The accept path is one topological peel over flat arrays
    (:meth:`CSRGraph.has_cycle`; for SI, over the CSR-level composition
    ``(SO ∪ WR ∪ WW) ; RW?``).  A rejection stays on the same arrays:
    :meth:`CSRGraph.find_cycle` searches them in transaction-id order and
    labels the cycle's rows, and :func:`classify_cycle` names it, so the
    counterexample does not depend on the order of the edge rows and no
    multigraph is built.
    """
    graph = csr.si_induced() if level is IsolationLevel.SNAPSHOT_ISOLATION else csr
    if graph.has_cycle() is None:
        return CheckResult.ok(level, num_transactions)
    violation = classify_cycle(graph.find_cycle(), level=level)
    return CheckResult.violated(level, [violation], num_transactions=num_transactions)


def classify_cycle(
    cycle: Sequence[Edge],
    graph: Optional[DependencyGraph] = None,
    *,
    level: IsolationLevel,
) -> Violation:
    """Classify a dependency cycle into a named anomaly where possible.

    Only the cycle's own edges are read; ``graph`` is accepted for
    positional callers and ignored.

    The classification follows the cycle shapes of Figure 5:

    * a cycle containing an RT edge → real-time (SSER-only) violation;
    * a 2-cycle ``WW`` + ``RW`` on one object → LOSTUPDATE;
    * a cycle whose non-SO edges are exactly two RW edges on two different
      objects → WRITESKEW (adjacent RW) or LONGFORK (separated RW);
    * a cycle containing exactly one RW edge and at least one WR edge →
      CAUSALITYVIOLATION / NONMONOTONICREAD family (reported as
      CausalityViolation);
    * a cycle of only SO and WR/RW edges involving a missed session write →
      SESSIONGUARANTEEVIOLATION;
    * anything else → generic DependencyCycle.
    """
    edge_types = [edge.edge_type for edge in cycle]
    keys = {edge.key for edge in cycle if edge.key is not None}
    txn_ids = sorted({edge.source for edge in cycle} | {edge.target for edge in cycle})
    cycle_tuples = [(edge.source, edge.target, edge.label) for edge in cycle]

    kind = AnomalyKind.DEPENDENCY_CYCLE
    rw_count = edge_types.count(EdgeType.RW)
    wr_count = edge_types.count(EdgeType.WR)
    ww_count = edge_types.count(EdgeType.WW)
    so_count = edge_types.count(EdgeType.SO)
    rt_count = edge_types.count(EdgeType.RT)
    composed = edge_types.count(EdgeType.COMPOSED)

    if rt_count > 0:
        kind = AnomalyKind.REAL_TIME_VIOLATION
    elif len(cycle) == 2 and rw_count >= 1 and ww_count >= 1 and len(keys) == 1:
        kind = AnomalyKind.LOST_UPDATE
    elif rw_count == 2 and ww_count == 0 and len(keys) >= 2:
        kind = _classify_two_rw_cycle(cycle)
    elif rw_count == 1 and (wr_count + so_count) >= 2 and ww_count == 0:
        kind = AnomalyKind.CAUSALITY_VIOLATION
    elif rw_count == 1 and so_count >= 1 and wr_count == 0 and ww_count == 0:
        kind = AnomalyKind.SESSION_GUARANTEE_VIOLATION
    elif rw_count == 1 and ww_count >= 1:
        kind = AnomalyKind.LOST_UPDATE
    elif composed and level is IsolationLevel.SNAPSHOT_ISOLATION:
        kind = AnomalyKind.DEPENDENCY_CYCLE

    description = (
        f"dependency cycle of length {len(cycle)} over objects "
        f"{sorted(keys) if keys else '[]'} forbidden by {level.short_name}"
    )
    return Violation(
        kind=kind,
        description=description,
        txn_ids=txn_ids,
        cycle=cycle_tuples,
        key=next(iter(sorted(keys)), None),
    )


def _classify_two_rw_cycle(cycle: Sequence[Edge]) -> AnomalyKind:
    """Distinguish WRITESKEW (adjacent RW edges) from LONGFORK."""
    edges = list(cycle)
    n = len(edges)
    rw_positions = [i for i, edge in enumerate(edges) if edge.edge_type is EdgeType.RW]
    if len(rw_positions) != 2:
        return AnomalyKind.DEPENDENCY_CYCLE
    i, j = rw_positions
    adjacent = (j - i == 1) or (i == 0 and j == n - 1 and n > 2) or n == 2
    return AnomalyKind.WRITE_SKEW if adjacent else AnomalyKind.LONG_FORK
