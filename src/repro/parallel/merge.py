"""Merging shard outcomes back into a single :class:`CheckResult`.

For SER and SI no dependency edge crosses a shard boundary, so the merged
verdict is simply the conjunction of the shard verdicts; violations are
concatenated in shard order, which makes the merged result deterministic
and identical across worker counts.

SSER is the exception: the real-time order ``RT`` relates transactions in
*different* shards, so a cycle can thread through several shards even when
each shard is internally acyclic (dependency path in shard A, RT hop to
shard B, dependency path there, RT hop back).  The merger therefore
reassembles the per-shard dependency edges into one graph, adds the global
(transitively reduced) real-time edges, and runs a single acyclicity check
— exactly the graph the serial ``CHECKSSER`` would have built, with the
expensive per-shard construction already done in parallel.

Since the scale-out refactor the reassembly itself is **tree-shaped**:
:func:`merge_csr_wires` pairwise-merges two shard CSR wire buffers (union
interning, edge rows appended left-then-right through node/key remap
arrays), which the executor schedules across the worker pool so merge cost
is O(log shards) wall-clock instead of one serial global pass.  Because a
pairwise merge of *adjacent* shards preserves the overall edge
concatenation order, :func:`finalize_sser_wires` produces byte-identical
edge columns — and therefore identical verdicts and labeled cycles — for
every reduction-tree shape, including the degenerate single-wire tree.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.checkers import cycle_verdict
from ..core.csr import CSRGraph, EDGE_TYPE_CODES, WireCSR
from ..core.graph import EdgeType
from ..core.index import HistoryIndex
from ..core.result import CheckResult, IsolationLevel, Violation

__all__ = [
    "ShardOutcome",
    "merge_shard_results",
    "merge_csr_wires",
    "finalize_sser_wires",
]

_RT_CODE = EDGE_TYPE_CODES[EdgeType.RT]


@dataclass
class ShardOutcome:
    """What one shard check sends back to the merger (cheap to pickle)."""

    shard_index: int
    num_transactions: int
    #: SER/SI: the shard's full verdict.  SSER: INT pre-pass violations only.
    violations: List[Violation] = field(default_factory=list)
    #: SSER only: the shard graph as compact CSR buffers — four raw
    #: ``array('i')`` byte strings instead of a pickled dict multigraph.
    csr: Optional[WireCSR] = None
    #: Telemetry snapshot recorded while checking the shard (JSON-safe
    #: numbers from ``MetricsRegistry.snapshot()``); ``None`` unless the
    #: payload carried ``with_metrics``.  The parent folds these into its
    #: registry — counters add, so any fold order yields the same totals.
    metrics: Optional[Dict[str, object]] = None


def merge_shard_results(
    level: IsolationLevel,
    outcomes: List[ShardOutcome],
    *,
    elapsed_seconds: float,
) -> CheckResult:
    """Conjunction merge for SER/SI (and the SSER INT pre-pass).

    Outcomes must already be sorted by shard index; the merged violation
    list concatenates the failing shards' violations in that order.
    """
    num_transactions = sum(o.num_transactions for o in outcomes)
    violations: List[Violation] = []
    for outcome in outcomes:
        violations.extend(outcome.violations)
    if violations:
        result = CheckResult.violated(level, violations, num_transactions=num_transactions)
    else:
        result = CheckResult.ok(level, num_transactions)
    result.elapsed_seconds = elapsed_seconds
    return result


# ----------------------------------------------------------------------
# Shared remap helpers: every SSER merge goes through these
# ----------------------------------------------------------------------
def _remap_arrays(
    wire: WireCSR,
    node_dense: Dict[int, int],
    key_dense: Dict[str, int],
) -> Tuple[array, array]:
    """Translation arrays from a wire graph's interning onto a target one."""
    node_map = array("i", [node_dense[txn_id] for txn_id in wire[0]])
    key_map = array("i", [key_dense[name] for name in wire[1]])
    return node_map, key_map


def merge_csr_wires(left: WireCSR, right: WireCSR) -> WireCSR:
    """One tree-reduction step: merge two shard CSR wires into one.

    The merged interning is the left wire's node ids / key names followed
    by the right wire's unseen ones (shards share at most ``⊥T`` and no
    keys, but the union is computed generally); edge rows are the left
    wire's followed by the right wire's, each translated through remap
    arrays.  Merging adjacent wires therefore preserves the global edge
    concatenation order, which keeps the final merged graph byte-identical
    for every reduction-tree shape.  Runs in worker processes — both
    inputs and the result are compact picklable buffers.
    """
    node_ids: List[int] = list(left[0])
    node_dense: Dict[int, int] = {txn_id: i for i, txn_id in enumerate(node_ids)}
    for txn_id in right[0]:
        if txn_id not in node_dense:
            node_dense[txn_id] = len(node_ids)
            node_ids.append(txn_id)
    key_names: List[str] = list(left[1])
    key_dense: Dict[str, int] = {name: i for i, name in enumerate(key_names)}
    for name in right[1]:
        if name not in key_dense:
            key_dense[name] = len(key_names)
            key_names.append(name)

    merged = CSRGraph(node_ids, key_names)
    for wire in (left, right):
        merged.append_remapped(wire, *_remap_arrays(wire, node_dense, key_dense))
    return merged.to_wire()


def finalize_sser_wires(
    wires: Sequence[WireCSR],
    index: HistoryIndex,
    *,
    num_transactions: int,
    level: IsolationLevel = IsolationLevel.STRICT_SERIALIZABILITY,
    elapsed_seconds: float = 0.0,
) -> CheckResult:
    """Remap merged shard wires onto the global index, add RT, check cycles.

    The parent's final (cheap) step of the SSER merge: every wire's edge
    rows are translated onto the global index's node/key interning in
    order, the global (reduced) real-time edges are appended, and one
    topological peel settles acyclicity.  A rejection labels its cycle on
    the merged arrays in transaction-id order, so the counterexample is
    identical whether the wires arrive one-per-shard (flat merge) or as a
    single tree-reduced root.
    """
    # Only the index's dense accessors are consumed, so a columnar-built
    # index merges without materialising a single Transaction.
    node_ids = list(index.committed_txn_ids)
    global_dense = {txn_id: i for i, txn_id in enumerate(node_ids)}
    merged = CSRGraph(node_ids, index.key_names)
    for wire in wires:
        merged.append_remapped(
            wire, *_remap_arrays(wire, global_dense, index.key_dense)
        )

    src_append = merged.src.append
    dst_append = merged.dst.append
    et_append = merged.etype.append
    kid_append = merged.key_id.append
    for source_id, target_id in index.real_time_id_pairs():
        s = global_dense.get(source_id)
        t = global_dense.get(target_id)
        if s is not None and t is not None:
            src_append(s)
            dst_append(t)
            et_append(_RT_CODE)
            kid_append(-1)

    result = cycle_verdict(merged, level, num_transactions)
    result.elapsed_seconds = elapsed_seconds
    return result
