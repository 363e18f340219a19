"""Elle-style checker (list-append and read-write-register workloads).

Elle (Kingsbury & Alvaro, VLDB'21) infers dependency graphs from carefully
chosen workloads instead of solving constraints:

* under the *list-append* workload, reading a list of ``n`` values reveals
  the version order of the ``n`` appends, so write-write dependencies can be
  recovered directly from reads;
* under the *read-write register* workload, write-write dependencies are
  only known where the read-modify-write pattern reveals them, making the
  checker sound but weaker at inferring cycles.

This reimplementation supports both modes and checks for:

* dirty/aborted reads (a read observes an element appended by an aborted
  transaction),
* incompatible orders (two reads of the same object observe lists that are
  not prefixes of one another), and
* dependency cycles forbidden by the target isolation level (any cycle for
  SER; cycles without two adjacent RW edges for SI).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.graph import DependencyGraph, EdgeType
from ..core.model import History
from ..core.result import AnomalyKind, CheckResult, IsolationLevel, Violation
from ..workloads.list_append import AppendOp, ElleHistory, ElleTransaction, ReadListOp

__all__ = ["ElleChecker"]


class ElleChecker:
    """Checks list-append (:class:`ElleHistory`) or register histories."""

    def __init__(self, level: IsolationLevel = IsolationLevel.SERIALIZABILITY) -> None:
        if level not in (
            IsolationLevel.SERIALIZABILITY,
            IsolationLevel.SNAPSHOT_ISOLATION,
        ):
            raise ValueError("the Elle baseline checks SER or SI")
        self.level = level

    # ------------------------------------------------------------------
    # List-append histories
    # ------------------------------------------------------------------
    def check_list_append(self, history: ElleHistory) -> CheckResult:
        """Verify a list-append history against the configured level."""
        started = time.perf_counter()
        committed = history.transactions(committed_only=True)
        num_txns = len(committed)
        violations: List[Violation] = []

        # Who appended each element, and whether that writer committed.
        appender: Dict[Tuple[str, int], ElleTransaction] = {}
        for txn in history.transactions(committed_only=False):
            for op in txn.appends():
                appender[(op.key, op.value)] = txn

        # Longest observed list per key gives the version order; every other
        # read must be a prefix of it (otherwise: incompatible order).
        longest: Dict[str, Tuple[int, ...]] = {}
        for txn in committed:
            for op in txn.reads():
                if len(op.result) > len(longest.get(op.key, ())):
                    longest[op.key] = op.result

        for txn in committed:
            for op in txn.reads():
                violations.extend(self._check_read(op, txn, appender, longest))

        if violations:
            result = CheckResult.violated(self.level, violations, num_transactions=num_txns)
            result.elapsed_seconds = time.perf_counter() - started
            return result

        graph = self._build_graph(history, appender, longest)
        violation = self._cycle_violation(graph)
        if violation is not None:
            result = CheckResult.violated(self.level, [violation], num_transactions=num_txns)
        else:
            result = CheckResult.ok(self.level, num_transactions=num_txns)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # Read-write register histories
    # ------------------------------------------------------------------
    def check_registers(self, history: History) -> CheckResult:
        """Verify a read-write register history (sound, weaker inference).

        Only the write-write dependencies revealed by the RMW pattern are
        inferred, mirroring Elle's limited version-order recovery on
        registers; cycles that require unknown WW edges go undetected.
        """
        # Deferred import to avoid a cycle at package import time.
        from ..core.checkers import check_ser, check_si

        if self.level is IsolationLevel.SERIALIZABILITY:
            return check_ser(history)
        return check_si(history)

    # ------------------------------------------------------------------
    # Internals (list-append mode)
    # ------------------------------------------------------------------
    def _check_read(
        self,
        op: ReadListOp,
        txn: ElleTransaction,
        appender: Dict[Tuple[str, int], ElleTransaction],
        longest: Dict[str, Tuple[int, ...]],
    ) -> List[Violation]:
        violations: List[Violation] = []
        own_appends = {a.value for a in txn.appends() if a.key == op.key}
        for element in op.result:
            writer = appender.get((op.key, element))
            if writer is None:
                violations.append(
                    Violation(
                        kind=AnomalyKind.THIN_AIR_READ,
                        description=(
                            f"read of {op.key} observed element {element} that "
                            f"no transaction appended"
                        ),
                        txn_ids=[txn.txn_id],
                        key=op.key,
                    )
                )
            elif not writer.committed and element not in own_appends:
                violations.append(
                    Violation(
                        kind=AnomalyKind.ABORTED_READ,
                        description=(
                            f"read of {op.key} observed element {element} appended "
                            f"by aborted transaction T{writer.txn_id}"
                        ),
                        txn_ids=[txn.txn_id, writer.txn_id],
                        key=op.key,
                    )
                )
        reference = longest.get(op.key, ())
        if op.result != reference[: len(op.result)]:
            violations.append(
                Violation(
                    kind=AnomalyKind.DEPENDENCY_CYCLE,
                    description=(
                        f"incompatible orders on {op.key}: observed "
                        f"{list(op.result)} is not a prefix of {list(reference)}"
                    ),
                    txn_ids=[txn.txn_id],
                    key=op.key,
                )
            )
        return violations

    def _build_graph(
        self,
        history: ElleHistory,
        appender: Dict[Tuple[str, int], ElleTransaction],
        longest: Dict[str, Tuple[int, ...]],
    ) -> DependencyGraph:
        committed = history.transactions(committed_only=True)
        graph = DependencyGraph(t.txn_id for t in committed)
        committed_ids = {t.txn_id for t in committed}

        # Session order (adjacent pairs).
        for session in history.sessions:
            txns = [t for t in session if t.committed]
            for prev, nxt in zip(txns, txns[1:]):
                graph.add_edge(prev.txn_id, nxt.txn_id, EdgeType.SO)

        # Version order per key from the longest observed read plus the
        # appends of committed transactions not yet observed (their order
        # among themselves is unknown and left out — Elle is conservative).
        version_order: Dict[str, List[int]] = {key: list(obs) for key, obs in longest.items()}

        # WW edges: consecutive distinct appenders along the version order.
        for key, elements in version_order.items():
            writers = [appender[(key, e)].txn_id for e in elements if (key, e) in appender]
            for earlier, later in zip(writers, writers[1:]):
                if earlier != later and earlier in committed_ids and later in committed_ids:
                    graph.add_edge(earlier, later, EdgeType.WW, key)

        # WR edges: the last element of a read comes from its appender; RW
        # edges: the reader precedes the appender of the next element.
        position: Dict[Tuple[str, int], int] = {}
        for key, elements in version_order.items():
            for index, element in enumerate(elements):
                position[(key, element)] = index
        for txn in committed:
            for op in txn.reads():
                if op.result:
                    last = op.result[-1]
                    writer = appender.get((op.key, last))
                    if writer is not None and writer.committed and writer.txn_id != txn.txn_id:
                        graph.add_edge(writer.txn_id, txn.txn_id, EdgeType.WR, op.key)
                # Anti-dependency: the element appended right after the last
                # one this read observed was installed by a later transaction.
                next_index = len(op.result)
                elements = version_order.get(op.key, [])
                if next_index < len(elements):
                    overwriter = appender.get((op.key, elements[next_index]))
                    if (
                        overwriter is not None
                        and overwriter.committed
                        and overwriter.txn_id != txn.txn_id
                    ):
                        graph.add_edge(txn.txn_id, overwriter.txn_id, EdgeType.RW, op.key)
        return graph

    def _cycle_violation(self, graph: DependencyGraph) -> Optional[Violation]:
        if self.level is IsolationLevel.SERIALIZABILITY:
            cycle = graph.find_cycle()
        else:
            cycle = graph.si_induced_graph().find_cycle()
        if cycle is None:
            return None
        return Violation(
            kind=AnomalyKind.DEPENDENCY_CYCLE,
            description=(
                f"dependency cycle forbidden by {self.level.short_name} "
                f"inferred from the list-append history"
            ),
            txn_ids=sorted({edge.source for edge in cycle}),
            cycle=[(edge.source, edge.target, edge.label) for edge in cycle],
        )
