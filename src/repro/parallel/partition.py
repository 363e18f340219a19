"""Key-connectivity partitioning of histories into checkable shards.

Two transactions can only ever be joined by a dependency edge when they
touch a common object (WR/WW/RW are per-key) or follow each other in a
session (SO).  Union-finding objects that co-occur in a transaction — and
then merging the components bridged by multi-component sessions — therefore
yields shards with **no dependency edge between them**: each shard can be
checked independently, and for SER and SI the conjunction of the shard
verdicts equals the serial verdict (real-time edges are the one global
relation, so SSER is never sharded).

Sessions that span otherwise-disjoint key groups are the fallback case:
their components are merged into a single residual shard rather than split,
so the session order is never cut.  Aborted and unknown-outcome
transactions participate in connectivity too — their writes anchor the
read-provenance pre-pass, which must stay shard-local.

The partition is fully deterministic (component order follows first key
appearance; an optional ``max_shards`` cap coalesces shards greedily by
size) and — crucially — independent of the worker count, so running the
same history with 1 or 8 workers produces identical shard checks.

:func:`partition_columns` slices a
:class:`~repro.history.columnar.ColumnarHistory` into per-shard column
segments — the form the executor ships across the process boundary without
pickling any ``Transaction``.  A :class:`~repro.core.model.History` enters
through ``ColumnarHistory.from_history`` like everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.index import HistoryIndex
from ..core.model import INITIAL_TXN_ID

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..history.columnar import ColumnarHistory

__all__ = ["Shard", "partition_columns"]

#: Default cap on the number of shards the executor fans out over.  Fixed
#: (never derived from the worker count) so results are reproducible across
#: worker counts; 32 keeps per-shard dispatch overhead negligible while
#: leaving plenty of slack for load balancing.
DEFAULT_MAX_SHARDS = 32


@dataclass
class Shard:
    """One independently checkable slice of a history."""

    index: int
    keys: List[str]
    session_ids: List[int]
    #: Committed transactions in the shard (excluding ``⊥T``).
    num_transactions: int
    #: Columnar slice of the shard.
    columns: "ColumnarHistory"


def partition_columns(
    columns: "ColumnarHistory",
    *,
    index: Optional[HistoryIndex] = None,
    max_shards: Optional[int] = DEFAULT_MAX_SHARDS,
) -> List[Shard]:
    """Split a columnar segment into key-connected, session-closed shards.

    The union-find runs on the index's dense interning, and each shard
    comes out as a :class:`~repro.history.columnar.ColumnarHistory` slice
    (``⊥T`` restricted to the shard's keys) — ready to ship over
    :meth:`~repro.history.columnar.ColumnarHistory.to_wire` without any
    ``Transaction`` materialisation.  Returns a single shard wrapping the
    whole segment when the history is fully connected (or has no keys at
    all); the shards cover every transaction exactly once.
    """
    if index is None:
        index = HistoryIndex.from_columns(columns)
    num_positions = len(index.txn_ids)

    # Group dense positions (which are session-contiguous, ascending id) by
    # session; the initial transaction is excluded and re-attached per shard.
    session_ids: List[int] = []
    session_positions: List[List[int]] = []
    for pos in range(num_positions):
        if index.txn_ids[pos] == INITIAL_TXN_ID:
            continue
        sid = index.session_of(pos)
        if not session_ids or session_ids[-1] != sid:
            session_ids.append(sid)
            session_positions.append([])
        session_positions[-1].append(pos)

    def whole() -> List[Shard]:
        return [
            Shard(
                index=0,
                keys=list(index.key_names),
                session_ids=list(session_ids),
                num_transactions=index.num_committed,
                columns=columns,
            )
        ]

    if len(index.key_names) == 0 or not session_positions:
        return whole()
    groups = _component_groups(index, session_positions)
    if groups is None:
        return whole()

    sized = [
        (keys, slots, sum(len(session_positions[i]) for i in slots))
        for keys, slots in groups
    ]
    if max_shards is not None and len(sized) > max_shards:
        sized = _coalesce(sized, max_shards)

    shards: List[Shard] = []
    for shard_idx, (keys, slots, _load) in enumerate(sized):
        rows: List[int] = []
        if index.txn_ids and index.txn_ids[0] == INITIAL_TXN_ID:
            rows.append(index.column_row(0))
        committed = 0
        for slot in slots:
            for pos in session_positions[slot]:
                rows.append(index.column_row(pos))
                if index.is_committed_pos(pos):
                    committed += 1
        shards.append(
            Shard(
                index=shard_idx,
                keys=keys,
                session_ids=[session_ids[i] for i in slots],
                num_transactions=committed,
                columns=columns.slice_rows(rows, restrict_initial_keys=keys),
            )
        )
    return shards


# ----------------------------------------------------------------------
# Union-find core
# ----------------------------------------------------------------------
def _component_groups(
    index: HistoryIndex,
    session_positions: Sequence[Sequence[int]],
) -> Optional[List[Tuple[List[str], List[int]]]]:
    """Key components + the sessions assigned to each, or ``None`` if single.

    ``session_positions`` lists each session's dense transaction positions
    (in session order).  Returns ``(keys, session_slots)`` groups in
    first-key-appearance order; keyless sessions ride in group 0.
    """
    num_keys = len(index.key_names)
    parent = list(range(num_keys))

    def find(k: int) -> int:
        root = k
        while parent[root] != root:
            root = parent[root]
        while parent[k] != root:  # path compression
            parent[k], k = root, parent[k]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # 1. Keys co-accessed by one transaction belong together (``⊥T`` exempt:
    #    it touches every key by construction and carries no constraint).
    txn_keys = index.txn_keys
    txn_ids = index.txn_ids
    for pos, key_ids in enumerate(txn_keys):
        if txn_ids[pos] == INITIAL_TXN_ID:
            continue
        for other in key_ids[1:]:
            union(key_ids[0], other)

    # 2. Sessions must stay whole: merge the components a session bridges.
    for positions in session_positions:
        anchor: Optional[int] = None
        for pos in positions:
            key_ids = txn_keys[pos]
            if not key_ids:
                continue
            if anchor is None:
                anchor = key_ids[0]
            else:
                union(anchor, key_ids[0])

    # 3. Number components by first key appearance (deterministic).
    component_of_root: Dict[int, int] = {}
    keys_per_component: List[List[str]] = []
    for kid in range(num_keys):
        root = find(kid)
        slot = component_of_root.get(root)
        if slot is None:
            slot = len(keys_per_component)
            component_of_root[root] = slot
            keys_per_component.append([])
        keys_per_component[slot].append(index.key_names[kid])

    if len(keys_per_component) <= 1:
        return None

    # 4. Assign sessions to components (keyless sessions ride in group 0).
    sessions_per_component: List[List[int]] = [[] for _ in keys_per_component]
    for session_slot, positions in enumerate(session_positions):
        slot = 0
        for pos in positions:
            key_ids = txn_keys[pos]
            if key_ids:
                slot = component_of_root[find(key_ids[0])]
                break
        sessions_per_component[slot].append(session_slot)

    return list(zip(keys_per_component, sessions_per_component))


def _coalesce(
    sized: List[Tuple[List[str], List[int], int]], max_shards: int
) -> List[Tuple[List[str], List[int], int]]:
    """Greedily pack components into ``max_shards`` buckets by load.

    Components are taken largest-first (ties broken by original order) and
    placed into the currently lightest bucket (ties broken by bucket index),
    so the packing — like everything else here — is deterministic.
    """
    order = sorted(enumerate(sized), key=lambda item: (-item[1][2], item[0]))
    parts: List[List[Tuple[int, List[str], List[int], int]]] = [
        [] for _ in range(max_shards)
    ]
    loads = [0] * max_shards
    for orig, (keys, slots, load) in order:
        target = min(range(max_shards), key=lambda b: (loads[b], b))
        parts[target].append((orig, keys, slots, load))
        loads[target] += load
    merged: List[Tuple[List[str], List[int], int]] = []
    for bucket in parts:
        if not bucket:
            continue
        bucket.sort()
        keys = [k for _, key_part, _, _ in bucket for k in key_part]
        slots = [s for _, _, slot_part, _ in bucket for s in slot_part]
        merged.append((keys, slots, sum(load for _, _, _, load in bucket)))
    return merged
