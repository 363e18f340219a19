"""Structured verification reports: a result plus its telemetry.

``MTChecker.verify(..., report=True)`` runs the check under a scoped
registry and returns a :class:`VerifyReport` — the plain
:class:`~repro.core.result.CheckResult` bundled with the metrics snapshot
recorded while producing it.  The CLI renders it with ``-v``; programmatic
callers read :meth:`phases` and :meth:`graph_size` without touching
registry internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from .metrics import family_of

if TYPE_CHECKING:  # avoid a runtime core<->obs import cycle
    from ..core.result import CheckResult

__all__ = ["VerifyReport"]


@dataclass
class VerifyReport:
    """A check result plus the metrics snapshot recorded while computing it."""

    result: "CheckResult"
    metrics: Dict[str, Any] = field(default_factory=dict)

    # Delegate the common result surface so a report can stand in for a
    # CheckResult in truthiness/status checks.
    @property
    def satisfied(self) -> bool:
        return self.result.satisfied

    @property
    def level(self):
        return self.result.level

    @property
    def violations(self):
        return self.result.violations

    def __bool__(self) -> bool:
        return self.result.satisfied

    # ------------------------------------------------------------------
    # Telemetry accessors
    # ------------------------------------------------------------------
    def _histograms(self) -> Dict[str, Dict[str, Any]]:
        return self.metrics.get("histograms", {})

    def _scalar(self, series: str) -> Optional[float]:
        counters = self.metrics.get("counters", {})
        if series in counters:
            return counters[series]
        return self.metrics.get("gauges", {}).get(series)

    def phases(self) -> Dict[str, Tuple[float, int]]:
        """``{phase: (total_seconds, count)}`` from ``repro_phase_seconds``."""
        out: Dict[str, Tuple[float, int]] = {}
        for series, data in self._histograms().items():
            if family_of(series) != "repro_phase_seconds":
                continue
            # Series identity: repro_phase_seconds{phase="..."}
            label = series[series.find("{") + 1:-1]
            phase = label.split('="', 1)[1].rstrip('"') if '="' in label else label
            out[phase] = (data["sum"], data["count"])
        return out

    def graph_size(self) -> Tuple[Optional[int], Optional[int]]:
        """``(nodes, edges)`` of the graph the last acyclicity peel ran on."""
        nodes = self._scalar("repro_graph_nodes")
        edges = self._scalar("repro_graph_edges")
        return (
            None if nodes is None else int(nodes),
            None if edges is None else int(edges),
        )

    def format(self) -> str:
        """The result's rendering plus a telemetry block."""
        lines: List[str] = [self.result.format()]
        phases = self.phases()
        if phases:
            lines.append("phases:")
            for phase in sorted(phases, key=lambda p: -phases[p][0]):
                total, count = phases[phase]
                suffix = f" (x{count})" if count > 1 else ""
                lines.append(f"  {phase}: {total:.4f}s{suffix}")
        nodes, edges = self.graph_size()
        if nodes is not None or edges is not None:
            lines.append(
                f"graph: {nodes if nodes is not None else '?'} nodes, "
                f"{edges if edges is not None else '?'} edges")
        shard_txns = self._scalar("repro_executor_shard_txns_total")
        if shard_txns:
            shards = self._scalar("repro_executor_shards")
            lines.append(
                f"executor: {int(shard_txns)} txns across "
                f"{int(shards) if shards else '?'} shards")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()
