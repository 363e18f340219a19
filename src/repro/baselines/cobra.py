"""Cobra-style serializability checker (solver-based baseline).

Cobra (Tan et al., OSDI'20) verifies serializability of black-box histories
by building a polygraph, pruning constraints with domain-specific
optimizations (notably inferring write-write orders from read-modify-write
chains), and handing the residual constraints to the MonoSAT solver.  This
reimplementation follows the same pipeline on top of
:mod:`repro.baselines.polygraph` and :mod:`repro.baselines.solver`; the
GPU-accelerated pruning of the original is not reproduced (the paper notes
Cobra behaves similarly with and without it on MT histories).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..core.intcheck import check_internal_consistency
from ..core.model import History
from ..core.result import AnomalyKind, CheckResult, IsolationLevel, Violation
from .polygraph import Polygraph, build_polygraph
from .solver import PolygraphSolver, SolveResult

__all__ = ["CobraChecker", "CobraReport"]


@dataclass
class CobraReport:
    """Timing breakdown mirroring the paper's Figure 10 decomposition."""

    construction_seconds: float
    solving_seconds: float
    num_constraints: int
    decisions: int

    @property
    def total_seconds(self) -> float:
        return self.construction_seconds + self.solving_seconds


class CobraChecker:
    """Checks serializability of general (or MT) histories via a polygraph.

    Args:
        prune_rmw_chains: enable Cobra's write-chain inference (resolves the
            WW order of read-modify-write transactions up front).
    """

    def __init__(self, *, prune_rmw_chains: bool = True) -> None:
        self.prune_rmw_chains = prune_rmw_chains
        self.last_report: Optional[CobraReport] = None

    def check(self, history: History) -> CheckResult:
        """Verify the history against serializability."""
        level = IsolationLevel.SERIALIZABILITY
        started = time.perf_counter()
        num_txns = len(history.committed_transactions(include_initial=False))

        int_violations = check_internal_consistency(history)
        if int_violations:
            result = CheckResult.violated(level, int_violations, num_transactions=num_txns)
            result.elapsed_seconds = time.perf_counter() - started
            return result

        polygraph = build_polygraph(history, infer_rmw_ww=self.prune_rmw_chains)
        construction_seconds = time.perf_counter() - started

        solver = PolygraphSolver(polygraph, mode="ser")
        solve_result = solver.solve()
        self.last_report = CobraReport(
            construction_seconds=construction_seconds,
            solving_seconds=solve_result.elapsed_seconds,
            num_constraints=solve_result.num_constraints,
            decisions=solve_result.decisions,
        )
        result = _to_check_result(level, solve_result, num_txns)
        result.elapsed_seconds = time.perf_counter() - started
        return result


def _to_check_result(
    level: IsolationLevel, solve_result: SolveResult, num_txns: int
) -> CheckResult:
    if solve_result.satisfiable:
        return CheckResult.ok(level, num_txns)
    description = "no acyclic orientation of the polygraph exists"
    if solve_result.conflict_edge is not None:
        source, target, label = solve_result.conflict_edge
        description = (
            f"known dependency edge T{source} --{label}--> T{target} closes a forbidden cycle"
        )
    violation = Violation(kind=AnomalyKind.DEPENDENCY_CYCLE, description=description)
    return CheckResult.violated(level, [violation], num_transactions=num_txns)
