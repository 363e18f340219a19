"""The shared :class:`HistoryIndex`: one columnar scan, many consumers.

:class:`HistoryIndex` is built **once** per history and is the sole
history-scanning entry point for the batch pipeline:

* transaction ids and object keys are interned to dense integers
  (``txn_ids`` / ``key_names``, and ``key_dense`` back from names), which
  is what the shard partitioner (:mod:`repro.parallel.partition`) and the
  dependency graph's integer fast path operate on;
* the write index — ``(key, value) -> final/intermediate writer`` — is
  API-compatible with :class:`~repro.core.intcheck.WriteIndex`, so the
  read-provenance classification of flagged rows runs against it;
* every committed transaction's external reads are resolved to writer /
  RMW-flag / written-value columns (:attr:`read_columns`), which is all
  the CSR kernel and the DIVERGENCE scan need;
* the committed stamps (:meth:`committed_stamps`) are read off the
  timestamp columns, which is all the CSR kernel's real-time chain needs;
* the INT verdict and the MT-validation verdict are computed once and
  cached.

There is **one construction path**: the flat column scan
(:meth:`from_columns`).  :meth:`build` takes a
:class:`~repro.history.columnar.ColumnarHistory` segment straight to it and
column-encodes a :class:`~repro.core.model.History` in canonical stream
order first (``ColumnarHistory.from_history``); the index keeps none of the
caller's objects, only the columns.

The index stores its resolved structures *densely* (integer transaction
positions, interned key ids, int-keyed write slots, packed read columns) —
nothing the scan retains is a per-row container, so building it never
wakes the generational collector.  It holds no second copy of the object
model: :mod:`repro.core.model` and :mod:`repro.core.intcheck` are the one
object layer (the reference multigraph builder and the solver baselines
read the :class:`History` through them, independently of this scan), and
the only objects handed out here are ``Transaction`` rows read from the
columns on request (``final_writer`` / ``intermediate_writer`` for the INT
classification of flagged rows, ``history`` for MT validation and the
reference builder); the accept path reads none.

The intended usage is one :meth:`build` per ``MTChecker.verify`` call,
threaded down through :func:`~repro.core.checkers.check_ser` / ``check_si``
/ ``check_sser`` via their ``index=`` parameter; every checker also accepts
a bare history (or segment) and builds the index itself, so standalone use
keeps working.
"""

from __future__ import annotations

import struct
import time
from array import array
from itertools import compress, islice
from operator import eq
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from .. import obs
from .model import (
    INITIAL_TXN_ID,
    STATUS_CODES,
    History,
    Transaction,
    TransactionStatus,
    refuse_inverted_intervals,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..history.columnar import ColumnarHistory

__all__ = ["HistoryIndex"]

#: Columnar ``statuses`` codes this module branches on (single source of
#: truth: :data:`repro.core.model.STATUS_CODES`).
_COMMITTED_CODE = STATUS_CODES[TransactionStatus.COMMITTED]
_ABORTED_CODE = STATUS_CODES[TransactionStatus.ABORTED]
#: ``bytes.translate`` table: a status column becomes its committed mask.
_COMMITTED_TABLE = bytes(code == _COMMITTED_CODE for code in range(256))
#: ``writes_key`` codes of a resolved read (see :attr:`HistoryIndex.read_columns`).
_WRITES_VALUE, _WRITES_NONE = 1, 2
#: The mini-transaction shapes the scan takes in straight-line arms, by the
#: ``op_kinds`` bytes of a row (0 read, 1 write; keys ``a != b``):
#: ``R a W a``, ``R a R b W a W b``, ``R a R b W b`` and ``R a R b``.
_RW, _RRWW, _RRW, _RR = range(4)
_ARMS = {b"\x00\x01": _RW, b"\x00\x00\x01\x01": _RRWW, b"\x00\x00\x01": _RRW, b"\x00\x00": _RR}


def packed(typecode: str, values: Sequence[int]) -> array:
    """``array(typecode, values)``, packed by ``struct`` (twice as fast from a list)."""
    return array(typecode, struct.pack(f"{len(values)}{typecode}", *values))


class HistoryIndex:
    """Per-history shared index: dense interning + resolved provenance.

    Build with :meth:`build` (histories and columnar segments alike); the
    class-level :attr:`builds` counter exists so tests can assert the "one
    construction per verify call" invariant.

    Example:
        >>> from repro.core.model import History, Transaction, read, write
        >>> t1 = Transaction(1, [read("x", 0), write("x", 1)])
        >>> index = HistoryIndex.build(
        ...     History.from_transactions([[t1]], initial_keys=["x"]))
        >>> index.key_names, index.num_committed
        (['x'], 1)
        >>> index.final_writer("x", 1).txn_id
        1
    """

    #: Total number of indexes constructed (test instrumentation).
    builds = 0

    @classmethod
    def build(cls, source: Union[History, "ColumnarHistory"]) -> "HistoryIndex":
        """Construct the index for a history or a columnar segment: a
        :class:`History` is column-encoded in canonical stream order
        (:meth:`ColumnarHistory.from_history`), then both take
        :meth:`from_columns`."""
        if isinstance(source, History):
            from ..history.columnar import ColumnarHistory  # deferred: avoid cycle

            source = ColumnarHistory.from_history(source)
        return cls.from_columns(source)

    @classmethod
    def from_columns(cls, columns: "ColumnarHistory") -> "HistoryIndex":
        """Construct the index straight from a columnar segment.

        One linear pass over the flat columns — no ``Transaction`` or
        ``Operation`` object is created.  Rows are scanned ``⊥T`` first,
        then grouped by ascending session id (the order of
        :meth:`ColumnarHistory.to_history`); consumers that ask for objects
        (``history``, ``final_writer``) read them from the columns.  A
        duplicate transaction id or an interval that finishes before it
        starts raises ``ValueError``.
        """
        self = cls(columns)
        type(self).builds += 1
        started = time.perf_counter()
        self._scan_columns()
        obs.inc("repro_index_builds_total")
        obs.observe("repro_index_build_seconds", time.perf_counter() - started)
        return self

    def __init__(self, columns: "ColumnarHistory") -> None:
        """An empty core over ``columns`` — filled by :meth:`from_columns`'s
        scan; use :meth:`build`, not this."""
        self._columns = columns

        #: Dense id per transaction position: ``txn_ids[dense] == txn_id``.
        self.txn_ids: List[int] = []
        #: Dense id per object key: ``key_names[dense] == key``.
        self.key_names: List[str] = []
        self.key_dense: Dict[str, int] = {}
        self._txn_keys: Optional[List[List[int]]] = None

        # Dense core: positions index the scan order; reads resolve to
        # writer positions.  Nothing here is a per-row container: write
        # slots are keyed by the int ``value * _radix + key_id`` (``_radix``
        # exceeds every key id, so floor division inverts it for negative
        # values too; the rare ``None``-valued writes sit in ``*_none`` by
        # key id), and the resolved reads are six parallel columns.  Ints
        # are invisible to the generational collector, which is what keeps
        # the scan linear; the read columns are packed into ``array`` /
        # ``bytes`` once filled.
        self._committed_mask = bytearray()
        self._session_of: List[int] = []
        self._radix = 1
        self._final_pos: Dict[int, int] = {}
        self._final_none: Dict[int, int] = {}
        self._intermediate_pos: Dict[int, int] = {}
        self._intermediate_none: Dict[int, int] = {}
        #: ``(reader_pos, key_id, value, writer_pos | -1, writes_key,
        #: written_value)`` columns in ascending reader position (see
        #: :attr:`read_columns`).
        self._reads_dense: Tuple[Any, ...] = ((), (), (), (), b"", ())
        #: Positions the scan flagged for the object-level INT check.
        self._int_candidates: List[int] = []
        self._has_initial = False

        #: dense position -> backing column row.
        self._row_order = array("i")

        # Lazy caches.
        self._int_violations: Optional[list] = None
        self._mt_problems: Optional[list] = None

    # ------------------------------------------------------------------
    # Construction: columnar scan
    # ------------------------------------------------------------------
    def _scan_columns(self) -> None:
        """The one pass over the flat columns: index *and* INT pre-pass.

        Fills the writer maps, emits the resolved-read columns and flags
        the rows that can hold an INT/provenance violation, without
        allocating an object that outlives its row.  The ``array`` columns
        are expanded to plain lists up front — ``list(array)`` boxes every
        element once in C, where indexing the array inside the Python loop
        would box on every access — except the op kinds, which stay one
        ``bytes`` copy whose slice is a row's shape.

        A row in one of the mini-transaction shapes of :data:`_ARMS` (its
        kinds, its key pattern, and a value on every op) takes a
        straight-line arm that records what the per-op loop would, with no
        per-row dict.  The guard is per row: ``⊥T``, a repeated key, a
        valueless op or any other shape takes the per-op loop.

        A row is a candidate exactly when
        :func:`repro.core.intcheck._check_transaction` could report
        something (the rules are listed there); :meth:`int_violations`
        hands only those rows to that object-level check.
        """
        cols = self._columns
        col_txn_ids = list(cols.txn_ids)
        col_sessions = list(cols.session_ids)
        col_statuses = cols.statuses.tobytes()
        offsets = list(cols.op_offsets)
        kinds = cols.op_kinds.tobytes()
        op_keys = list(cols.op_keys)
        values: List[Optional[int]] = list(cols.op_values)
        # ``shapes`` is ``kinds`` with every valueless op marked 2 or 3, so
        # that no arm's shape matches a row that has one.
        shapes = kinds
        has_value = cols.op_has_value.tobytes()
        if 0 in has_value:
            values = [v if has else None for v, has in zip(values, has_value)]
            shapes = bytes(kind | (not has) << 1 for kind, has in zip(kinds, has_value))
        col_key_names = cols.key_names

        # Scan order: ``⊥T`` first, then rows grouped by ascending session
        # id (per-session row order preserved) — the transaction order of
        # ``columns.to_history()``.
        initial_rows: List[int] = []
        session_rows: Dict[int, List[int]] = {}
        for row, txn_id in enumerate(col_txn_ids):
            if txn_id == INITIAL_TXN_ID:
                initial_rows.append(row)
            else:
                session_rows.setdefault(col_sessions[row], []).append(row)
        order = initial_rows[:]
        for sid in sorted(session_rows):
            order.extend(session_rows[sid])
        self._row_order = packed("i", order)
        self._has_initial = bool(initial_rows)
        txn_ids = [col_txn_ids[row] for row in order]
        if len(set(txn_ids)) != len(txn_ids):
            seen: Set[int] = set()
            twice = next(t for t in txn_ids if t in seen or seen.add(t))
            raise ValueError(f"malformed history: duplicate transaction id {twice}")
        self.txn_ids = txn_ids
        self._session_of = [col_sessions[row] for row in order]
        status_of = bytearray([col_statuses[row] for row in order])
        self._committed_mask = status_of.translate(_COMMITTED_TABLE)
        refuse_inverted_intervals(col_txn_ids, cols.start_ts, cols.finish_ts)

        # Columnar key ids are re-interned in scan order, so key numbering
        # depends on the history alone, not on the segment's append order.
        remap = [-1] * len(col_key_names)
        key_dense = self.key_dense
        key_names = self.key_names
        radix = self._radix = len(col_key_names) + 1
        final_pos = self._final_pos
        final_none = self._final_none
        intermediate_pos = self._intermediate_pos
        intermediate_none = self._intermediate_none
        # The resolved reads, flat: ``(reader_pos, key_id, value,
        # writes_key, written_value)`` per read, split into columns below.
        reads: List[int] = []
        candidates: Set[int] = set()
        flag = candidates.add
        arm_of = _ARMS.get

        def intern(ckid: int) -> int:
            kid = remap[ckid] = len(key_names)
            key_dense[col_key_names[ckid]] = kid
            key_names.append(col_key_names[ckid])
            return kid

        # Per-row scratch of the per-op loop is reused across rows
        # (cleared, not reallocated): ``last`` holds the value of the row's
        # last op per key, reads included; ``last_write`` that of its last
        # write.
        last: Dict[int, Optional[int]] = {}
        last_write: Dict[int, Optional[int]] = {}
        tracked = bytearray(self._committed_mask)
        tracked[: len(initial_rows)] = bytes(len(initial_rows))  # ``⊥T`` reads nothing
        for pos, row in enumerate(order):
            lo = offsets[row]
            hi = offsets[row + 1]
            # A mini-transaction's row: its arm writes what the per-op loop
            # below would (``a`` / ``b`` are column key ids, ``ka`` / ``kb``
            # their dense ids).
            arm = arm_of(shapes[lo:hi])
            if arm == _RW:
                a = op_keys[lo]
                if a == op_keys[lo + 1]:
                    ka = remap[a]
                    if ka < 0:
                        ka = intern(a)
                    read_a = values[lo]
                    write_a = values[lo + 1]
                    final_pos[write_a * radix + ka] = pos
                    if tracked[pos]:
                        reads += (pos, ka, read_a, _WRITES_VALUE, write_a)
                        if write_a == read_a:
                            flag(pos)  # FutureRead
                    continue
            elif arm is not None:
                a = op_keys[lo]
                b = op_keys[lo + 1]
                if a != b and (
                    arm == _RR
                    or (arm == _RRW and b == op_keys[lo + 2])
                    or (arm == _RRWW and a == op_keys[lo + 2] and b == op_keys[lo + 3])
                ):
                    ka = remap[a]
                    if ka < 0:
                        ka = intern(a)
                    kb = remap[b]
                    if kb < 0:
                        kb = intern(b)
                    read_a = values[lo]
                    read_b = values[lo + 1]
                    if arm == _RRWW:
                        write_a = values[lo + 2]
                        write_b = values[lo + 3]
                        final_pos[write_a * radix + ka] = pos
                        final_pos[write_b * radix + kb] = pos
                        if tracked[pos]:
                            reads += (
                                pos, ka, read_a, _WRITES_VALUE, write_a,
                                pos, kb, read_b, _WRITES_VALUE, write_b,
                            )
                            if write_a == read_a or write_b == read_b:
                                flag(pos)  # FutureRead
                    elif arm == _RRW:
                        write_b = values[lo + 2]
                        final_pos[write_b * radix + kb] = pos
                        if tracked[pos]:
                            reads += (pos, ka, read_a, 0, 0, pos, kb, read_b, _WRITES_VALUE, write_b)
                            if write_b == read_b:
                                flag(pos)  # FutureRead
                    elif tracked[pos]:
                        reads += (pos, ka, read_a, 0, 0, pos, kb, read_b, 0, 0)
                    continue

            # Every other row: the per-op loop.
            track = tracked[pos]
            overwrote = False
            last.clear()
            last_write.clear()
            first_read = len(reads)
            for op in range(lo, hi):
                value = values[op]
                kid = remap[op_keys[op]]
                if kid < 0:
                    kid = intern(op_keys[op])
                if kinds[op]:  # write
                    if kid in last_write:
                        overwrote = True
                        overwritten = last_write[kid]
                        if overwritten is None:
                            intermediate_none[kid] = pos
                        else:
                            intermediate_pos[overwritten * radix + kid] = pos
                    last[kid] = last_write[kid] = value
                elif track:
                    if kid not in last:  # external position
                        if value is None:
                            flag(pos)
                        else:
                            reads += (pos, kid, value, 0, 0)
                    elif last[kid] != value:
                        flag(pos)  # NotMyLastWrite/NotMyOwnWrite/NonRepeatable
                        if (
                            value is not None
                            and kid not in last_write
                            and kid not in reads[first_read + 1 :: 5]
                        ):
                            # Every earlier read of the key was valueless:
                            # this is Transaction.external_reads()'s read.
                            reads += (pos, kid, value, 0, 0)
                    last[kid] = value
            for kid, value in last_write.items():
                if value is None:
                    final_none[kid] = pos
                else:
                    final_pos[value * radix + kid] = pos
            for slot in range(first_read, len(reads), 5):
                kid = reads[slot + 1]
                if kid in last_write:
                    written = last_write[kid]
                    if written is None:
                        reads[slot + 3] = _WRITES_NONE
                    else:
                        reads[slot + 3] = _WRITES_VALUE
                        reads[slot + 4] = written
                    # FutureRead: the row itself writes the value it read.
                    if written == reads[slot + 2] or (
                        overwrote
                        and intermediate_pos.get(reads[slot + 2] * radix + kid) == pos
                    ):
                        flag(pos)

        # Writer attribution stays a second pass — in the session-grouped
        # scan order a reader may precede its writer — but over reads only.
        # Provenance candidates: ThinAir/Intermediate (no final writer) and
        # AbortedRead; a reader that is its own writer was flagged above.
        # At most two of ``reads``' columns are copied out at once, so the
        # peak holds no more than it did when the scan kept five lists.
        final_get = final_pos.get
        r_writer = [
            final_get(v * radix + k, -1) for k, v in zip(reads[1::5], islice(reads, 2, None, 5))
        ]
        candidates.update(
            [
                reads[5 * slot]
                for slot, writer in enumerate(r_writer)
                if writer < 0 or status_of[writer] == _ABORTED_CODE
            ]
        )
        self._int_candidates = sorted(candidates)
        writers = packed("i", r_writer)
        del r_writer
        self._reads_dense = (
            packed("i", reads[0::5]), packed("i", reads[1::5]), packed("q", reads[2::5]),
            writers, bytes(reads[3::5]), packed("q", reads[4::5]),
        )

    # ------------------------------------------------------------------
    # Transaction rows (read from the columns on request)
    # ------------------------------------------------------------------
    def _txn_at(self, pos: int) -> Transaction:
        """The transaction at dense position ``pos``, read from the columns."""
        return self._columns.transaction_at(self._row_order[pos])

    @property
    def history(self) -> History:
        """The indexed history, materialised from the columns per access
        (:meth:`ColumnarHistory.to_history`, the scan's session grouping)."""
        return self._columns.to_history()

    @property
    def columns(self) -> "ColumnarHistory":
        """The backing columnar segment."""
        return self._columns

    @property
    def txn_keys(self) -> List[List[int]]:
        """Per dense transaction: the sorted dense key ids it touches.

        Derived from the columns on first use — only the shard partitioner
        asks, so the accept path never builds a list per row.
        """
        if self._txn_keys is None:
            cols = self._columns
            remap = [self.key_dense.get(name, -1) for name in cols.key_names]
            offsets = cols.op_offsets
            op_keys = cols.op_keys
            self._txn_keys = [
                sorted({remap[ckid] for ckid in op_keys[offsets[row]:offsets[row + 1]]})
                for row in self._row_order
            ]
        return self._txn_keys

    # ------------------------------------------------------------------
    # Write index (API-compatible with intcheck.WriteIndex)
    # ------------------------------------------------------------------
    def final_writer(self, key: str, value: Optional[int]) -> Optional[Transaction]:
        """The transaction whose final write on ``key`` has ``value``."""
        return self._writer(key, value, self._final_pos, self._final_none)

    def intermediate_writer(self, key: str, value: Optional[int]) -> Optional[Transaction]:
        """The transaction that wrote ``value`` to ``key`` as a non-final write."""
        return self._writer(key, value, self._intermediate_pos, self._intermediate_none)

    def _writer(
        self, key: str, value: Optional[int], slots: Dict[int, int], nones: Dict[int, int]
    ) -> Optional[Transaction]:
        kid = self.key_dense.get(key)
        if kid is None:
            return None
        pos = nones.get(kid) if value is None else slots.get(value * self._radix + kid)
        return None if pos is None else self._txn_at(pos)

    # ------------------------------------------------------------------
    # Resolved provenance
    # ------------------------------------------------------------------
    @property
    def read_columns(self) -> Tuple[Any, ...]:
        """The resolved reads as six parallel columns ``(reader_pos, key_id,
        value, writer_pos | -1, writes_key, written_value)`` — ascending
        reader position, program order within a reader (treat as read-only).
        ``value`` / ``written_value`` are ``array('q')``, the other ids
        ``array('i')``; ``writes_key`` is ``bytes``, nonzero where the reader
        writes the key, whose last write ``written_value`` holds where it is 1
        (2: a write without a value)."""
        return self._reads_dense

    # ------------------------------------------------------------------
    # Real-time stamps
    # ------------------------------------------------------------------
    def committed_stamps(self) -> Tuple[List[int], List[float], List[float]]:
        """``(ordinals, starts, finishes)`` of the committed non-``⊥T``
        transactions with both stamps, in scan order; an ordinal is the rank
        among all committed non-``⊥T`` ones (the CSR kernel's node ``base +
        ordinal``).  Each timestamp column is read in one pass."""
        cols = self._columns
        rows = self._committed(self._row_order)
        starts = list(map(cols.start_ts.__getitem__, rows))
        finishes = list(map(cols.finish_ts.__getitem__, rows))
        ordinals: List[int] = list(range(len(rows)))
        # A missing stamp is NaN, the one float unequal to itself.
        if not (all(map(eq, starts, starts)) and all(map(eq, finishes, finishes))):
            stamped = [s == s and f == f for s, f in zip(starts, finishes)]
            ordinals, starts, finishes = (
                list(compress(column, stamped)) for column in (ordinals, starts, finishes)
            )
        return ordinals, starts, finishes

    # ------------------------------------------------------------------
    # Cached verdict pre-passes
    # ------------------------------------------------------------------
    def int_violations(self) -> list:
        """The INT/read-provenance pre-pass verdict (cached).

        The scan already was the pre-pass: only the rows it flagged are
        handed (as ``Transaction`` objects) to the object-level
        classification of :mod:`repro.core.intcheck`, so the reported
        violations are exactly those of
        :func:`~repro.core.intcheck.check_internal_consistency` and the
        accept path materialises nothing.
        """
        if self._int_violations is None:
            from . import intcheck

            self._int_violations = [
                violation
                for pos in self._int_candidates
                for violation in intcheck._check_transaction(self._txn_at(pos), self)
            ]
        return self._int_violations

    def mt_problems(self) -> list:
        """The MT-history validation verdict (cached).

        Materialises the object history of a segment-built index (strict
        MT validation is opt-in and not on the accept path).
        """
        if self._mt_problems is None:
            from .mini import validate_mt_history

            self._mt_problems = validate_mt_history(self.history)
        return self._mt_problems

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    @property
    def committed_txn_ids(self) -> List[int]:
        """Transaction ids of committed transactions (``⊥T`` included), in
        scan order — the dense kernel's node universe (a new list per call)."""
        return list(compress(self.txn_ids, self._committed_mask))

    def _committed(self, column: Sequence[Any]) -> List[Any]:
        """The entries of a per-position ``column`` at the committed
        non-``⊥T`` positions (``⊥T`` is position 0 when present), in order."""
        first = int(self._has_initial)
        return list(compress(column[first:], self._committed_mask[first:]))

    @property
    def num_committed(self) -> int:
        """Committed transactions excluding ``⊥T``."""
        return self._committed_mask.count(1, int(self._has_initial))

    def session_of(self, pos: int) -> int:
        """The session id of the transaction at dense position ``pos``."""
        return self._session_of[pos]

    def column_row(self, pos: int) -> int:
        """The backing column row of dense position ``pos``."""
        return self._row_order[pos]

    def is_committed_pos(self, pos: int) -> bool:
        """Whether the transaction at dense position ``pos`` committed."""
        return bool(self._committed_mask[pos])

    def __repr__(self) -> str:
        return (
            f"HistoryIndex(transactions={len(self.txn_ids)}, "
            f"keys={len(self.key_names)}, committed={self.num_committed})"
        )
