"""Detection of the DIVERGENCE pattern (paper, Definition 10).

A history contains the DIVERGENCE pattern when two transactions read the
same value of an object from a third transaction and subsequently write
different values to that object.  Any history exhibiting the pattern
violates snapshot isolation (Lemma 1): whichever way the two writers are
ordered in ``WW``, a ``WW ; RW`` back-and-forth cycle arises (Figure 3).
CHECKSI therefore rejects a history as soon as the pattern is detected,
before constructing the full dependency graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional, Tuple

from .index import HistoryIndex
from .model import History
from .result import AnomalyKind, Violation

__all__ = ["DivergenceInstance", "find_divergence", "find_all_divergences"]


@dataclass(frozen=True)
class DivergenceInstance:
    """One instance of the DIVERGENCE pattern.

    ``reader_a`` and ``reader_b`` both read ``value`` of ``key`` from
    ``writer`` and then write different values to ``key``.
    """

    key: str
    writer: int
    value: int
    reader_a: int
    reader_b: int

    def to_violation(self) -> Violation:
        return Violation(
            kind=AnomalyKind.LOST_UPDATE,
            description=(
                f"DIVERGENCE pattern on object {self.key}: T{self.reader_a} and "
                f"T{self.reader_b} both read value {self.value} written by "
                f"T{self.writer} and then wrote different values"
            ),
            txn_ids=[self.writer, self.reader_a, self.reader_b],
            key=self.key,
        )


def find_divergence(
    history: History,
    *,
    index: Optional[HistoryIndex] = None,
) -> Optional[DivergenceInstance]:
    """Return the first DIVERGENCE instance found, or ``None``.

    Runs in time linear in the number of operations: for every committed
    transaction that both reads and writes an object, the ``(object, value
    read)`` slot is recorded; two different writers landing in the same slot
    form the pattern.
    """
    instances = find_all_divergences(history, index=index, first_only=True)
    return instances[0] if instances else None


def find_all_divergences(
    history: History,
    *,
    index: Optional[HistoryIndex] = None,
    first_only: bool = False,
) -> List[DivergenceInstance]:
    """Find (all) DIVERGENCE instances in a history.

    The scan replays the shared :class:`~repro.core.index.HistoryIndex` read
    resolutions (building the index when the caller did not supply one) from
    its packed :attr:`~repro.core.index.HistoryIndex.read_columns`, so it
    stays object-free on columnar-built indexes.
    """
    if index is None:
        index = HistoryIndex.build(history)

    # Only a reader that writes the key can diverge: ``writes_key`` masks the
    # packed columns, and ids and names are looked up for instances only.
    # (key id, value read) -> (first reader-writer position, the write it made).
    reads = index.read_columns
    slots: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
    instances: List[DivergenceInstance] = []
    txn_ids = index.txn_ids
    for reader, kid, value, writer, writes, written in zip(*(compress(c, reads[4]) for c in reads)):
        other = slots.setdefault((kid, value), (reader, writes, written))
        if other[0] == reader or (other[1] == writes and other[2] == written):
            # The same reader, or both overwrote with the same value: not
            # DIVERGENCE (only possible in histories without unique values).
            continue
        instance = DivergenceInstance(
            key=index.key_names[kid],
            writer=txn_ids[writer] if writer >= 0 else -2,
            value=value,
            reader_a=txn_ids[other[0]],
            reader_b=txn_ids[reader],
        )
        instances.append(instance)
        if first_only:
            return instances
    return instances
