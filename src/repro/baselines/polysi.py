"""PolySI-style snapshot isolation checker (solver-based baseline).

PolySI (Huang et al., VLDB'23) checks snapshot isolation by encoding the
history as a generalised polygraph whose constraints bundle each candidate
write-write edge with the anti-dependency edges it induces, and asking
MonoSAT for an orientation whose dependency graph contains no SI-forbidden
cycle.  This reimplementation uses the same encoding on top of
:mod:`repro.baselines.polygraph` with the solver running in ``"si"`` mode
(cycles with two adjacent RW edges are allowed).

Unlike the Cobra baseline, no RMW write-chain pruning is applied by default:
the constraints for every pair of writers are left to the solver, which is
what makes the baseline's cost grow quickly on skewed MT histories — the
behaviour the paper measures in Figure 8.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..core.intcheck import check_internal_consistency
from ..core.model import History
from ..core.result import AnomalyKind, CheckResult, IsolationLevel, Violation
from .cobra import _to_check_result
from .polygraph import build_polygraph
from .solver import PolygraphSolver

__all__ = ["PolySIChecker", "PolySIReport"]


@dataclass
class PolySIReport:
    """Timing breakdown (construction vs. solving) for Figure 17."""

    construction_seconds: float
    solving_seconds: float
    num_constraints: int
    decisions: int

    @property
    def total_seconds(self) -> float:
        return self.construction_seconds + self.solving_seconds


class PolySIChecker:
    """Checks snapshot isolation of general (or MT) histories via a polygraph.

    Args:
        prune_rmw_chains: resolve RMW write chains up front (off by default,
            mirroring that PolySI leaves the version order to the solver).
    """

    def __init__(self, *, prune_rmw_chains: bool = False) -> None:
        self.prune_rmw_chains = prune_rmw_chains
        self.last_report: Optional[PolySIReport] = None

    def check(self, history: History) -> CheckResult:
        """Verify the history against snapshot isolation."""
        level = IsolationLevel.SNAPSHOT_ISOLATION
        started = time.perf_counter()
        num_txns = len(history.committed_transactions(include_initial=False))

        int_violations = check_internal_consistency(history)
        if int_violations:
            result = CheckResult.violated(level, int_violations, num_transactions=num_txns)
            result.elapsed_seconds = time.perf_counter() - started
            return result

        polygraph = build_polygraph(history, infer_rmw_ww=self.prune_rmw_chains)
        construction_seconds = time.perf_counter() - started

        solver = PolygraphSolver(polygraph, mode="si")
        solve_result = solver.solve()
        self.last_report = PolySIReport(
            construction_seconds=construction_seconds,
            solving_seconds=solve_result.elapsed_seconds,
            num_constraints=solve_result.num_constraints,
            decisions=solve_result.decisions,
        )
        result = _to_check_result(level, solve_result, num_txns)
        result.level = level
        result.elapsed_seconds = time.perf_counter() - started
        return result
