"""The shared :class:`HistoryIndex`: one columnar scan, many consumers.

:class:`HistoryIndex` is built **once** per history and is the sole
history-scanning entry point for the batch pipeline:

* transaction ids and object keys are interned to dense integers
  (``txn_ids`` / ``key_names`` and their reverse maps), which is what the
  shard partitioner (:mod:`repro.parallel.partition`) and the dependency
  graph's integer fast path operate on;
* the write index — ``(key, value) -> final/intermediate writer`` — is
  API-compatible with :class:`~repro.core.intcheck.WriteIndex`, so the
  read-provenance classification of flagged rows runs against it;
* every committed transaction's external reads are resolved to writer /
  RMW-flag / written-value columns (:attr:`read_columns`), which is all
  the CSR kernel and the DIVERGENCE scan need;
* real-time order (as id pairs), the INT verdict, and the MT-validation
  verdict are computed once and cached.

There is **one construction path**: :meth:`build` is the door.  A
:class:`~repro.history.columnar.ColumnarHistory` segment goes straight to
the flat column scan (:meth:`from_columns`); a
:class:`~repro.core.model.History` is column-encoded in canonical stream
order first and then takes the same scan, with ``transactions`` seeded
from the caller's own ``Transaction`` objects so ``index.history is
history`` and labelled counterexamples keep object identity.

The index stores its resolved structures *densely* (integer transaction
positions, interned key ids, int-keyed write slots, flat read columns) —
nothing the scan retains is a per-row container, so building it never
wakes the generational collector.  It holds no second copy of the object
model: :mod:`repro.core.model` and :mod:`repro.core.intcheck` are the one
object layer (the reference multigraph builder and the solver baselines
read the :class:`History` through them, independently of this scan), and
the only objects handed out here are the ``Transaction`` rows themselves
(``transactions`` / ``history``, ``final_writer`` /
``intermediate_writer``), materialised lazily for the INT classification
of flagged rows, MT validation and cycle labeling on the reject path.

The intended usage is one :meth:`build` per ``MTChecker.verify`` call,
threaded down through :func:`~repro.core.checkers.check_ser` / ``check_si``
/ ``check_sser`` via their ``index=`` parameter; every checker also accepts
a bare history (or segment) and builds the index itself, so standalone use
keeps working.
"""

from __future__ import annotations

import time
from itertools import compress
from operator import eq
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Set, Tuple, Union

from .. import obs
from .model import (
    INITIAL_TXN_ID,
    STATUS_CODES,
    History,
    Transaction,
    TransactionStatus,
    history_from_stream,
    interval_order_reduction,
    refuse_inverted_intervals,
    stream_order,
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
        """Construct the index for a history or a columnar segment.

        The one entry point: a :class:`History` is column-encoded in
        canonical stream order (what :meth:`ColumnarHistory.from_history`
        does) and scanned by :meth:`from_columns`; the caller's own
        ``Transaction`` objects then back ``transactions``, so
        ``index.history is source`` and no transaction is ever materialised
        a second time.  A segment goes straight to the scan.
        """
        if not isinstance(source, History):
            return cls.from_columns(source)
        from ..history.columnar import ColumnarHistory  # deferred: avoid cycle

        stream = list(stream_order(source))
        self = cls.from_columns(ColumnarHistory.from_transactions(stream))
        self._history = source
        self._transactions = [stream[row] for row in self._row_order]
        return self

    @classmethod
    def from_columns(cls, columns: "ColumnarHistory") -> "HistoryIndex":
        """Construct the index straight from a columnar segment.

        One linear pass over the flat columns — no ``Transaction`` or
        ``Operation`` object is created.  Rows are scanned ``⊥T`` first,
        then grouped by ascending session id (the order of
        :meth:`ColumnarHistory.to_history`); consumers that ask for objects
        (``transaction``, ``history``, ``final_writer``) trigger lazy
        materialisation from the columns instead.  A duplicate transaction
        id or an interval that finishes before it starts raises ``ValueError``.
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
        self._history: Optional[History] = None
        self._columns = columns
        self._transactions: Optional[List[Transaction]] = None

        #: Dense id per transaction position: ``txn_ids[dense] == txn_id``.
        self.txn_ids: List[int] = []
        self.txn_dense: Dict[int, int] = {}
        #: Dense id per object key: ``key_names[dense] == key``.
        self.key_names: List[str] = []
        self.key_dense: Dict[str, int] = {}
        self._txn_keys: Optional[List[List[int]]] = None

        #: Transaction ids of committed transactions (``⊥T`` included),
        #: in scan order — the dense kernel's node universe.
        self.committed_txn_ids: List[int] = []
        self.committed_ids: Set[int] = set()

        # Dense core: positions index the scan order (same order as
        # ``transactions``); reads resolve to writer positions.  Nothing
        # here is a per-row container: write slots are keyed by the int
        # ``value * _radix + key_id`` (``_radix`` exceeds every key id, so
        # floor division inverts it for negative values too; the rare
        # ``None``-valued writes sit in ``*_none`` by key id), and the
        # resolved reads are six parallel columns.  Ints are invisible to
        # the generational collector, which is what keeps the scan linear.
        self._committed_mask = bytearray()
        self._status_of = bytearray()
        self._session_of: List[int] = []
        #: Positions of the committed transactions, ``⊥T`` excluded.
        self._non_initial_pos: List[int] = []
        self._radix = 1
        self._final_pos: Dict[int, int] = {}
        self._final_none: Dict[int, int] = {}
        self._intermediate_pos: Dict[int, int] = {}
        self._intermediate_none: Dict[int, int] = {}
        #: ``(reader_pos, key_id, value, writer_pos | -1, writes_key,
        #: written_value)`` columns in ascending reader position.
        self._reads_dense: Tuple[List[Any], ...] = ([], [], [], [], [], [])
        #: Positions the scan flagged for the object-level INT check.
        self._int_candidates: List[int] = []
        self._has_initial = False

        # Columnar backend state (lazy object materialisation).
        #: dense position -> backing column row.
        self._row_order: List[int] = []
        self._txn_cache: Dict[int, Transaction] = {}

        # Lazy caches.
        self._rt_id_pairs: Optional[List[Tuple[int, int]]] = None
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
        would box on every access — and rows are walked by op index: at the
        two or three operations a mini-transaction has, slicing and zipping
        the columns per row costs more than subscripting them.

        A row is a candidate exactly when
        :func:`repro.core.intcheck._check_transaction` could report
        something (the rules are listed there); :meth:`int_violations`
        hands only those rows to that object-level check.
        """
        cols = self._columns
        col_txn_ids = list(cols.txn_ids)
        col_sessions = list(cols.session_ids)
        col_statuses = cols.statuses
        offsets = list(cols.op_offsets)
        kinds = list(cols.op_kinds)
        op_keys = list(cols.op_keys)
        values: List[Optional[int]] = list(cols.op_values)
        if 0 in cols.op_has_value:
            values = [v if has else None for v, has in zip(values, cols.op_has_value)]
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
        self._row_order = order
        self._has_initial = bool(initial_rows)
        self._fill_positions(
            [col_txn_ids[row] for row in order],
            [col_sessions[row] for row in order],
            bytearray([col_statuses[row] for row in order]),
        )
        if len(self.txn_dense) != len(order):
            seen: Set[int] = set()
            twice = next(t for t in self.txn_ids if t in seen or seen.add(t))
            raise ValueError(f"malformed history: duplicate transaction id {twice}")
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
        r_pos, r_kid, r_value, r_writer, r_rmw, r_written = self._reads_dense
        candidates: Set[int] = set()
        flag = candidates.add
        # Per-row scratch is reused across rows (cleared, not reallocated):
        # ``last`` holds the value of the row's last op per key, reads
        # included; ``last_write`` that of its last write.
        last: Dict[int, Optional[int]] = {}
        last_write: Dict[int, Optional[int]] = {}
        tracked = bytearray(self._committed_mask)
        tracked[: len(initial_rows)] = bytes(len(initial_rows))  # ``⊥T`` reads nothing
        for pos, row in enumerate(order):
            track = tracked[pos]
            overwrote = False
            last.clear()
            last_write.clear()
            first_read = len(r_kid)
            for op in range(offsets[row], offsets[row + 1]):
                value = values[op]
                kid = remap[op_keys[op]]
                if kid < 0:
                    ckid = op_keys[op]
                    kid = remap[ckid] = len(key_names)
                    key_dense[col_key_names[ckid]] = kid
                    key_names.append(col_key_names[ckid])
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
                            r_pos.append(pos)
                            r_kid.append(kid)
                            r_value.append(value)
                    elif last[kid] != value:
                        flag(pos)  # NotMyLastWrite/NotMyOwnWrite/NonRepeatable
                        if (
                            value is not None
                            and kid not in last_write
                            and kid not in r_kid[first_read:]
                        ):
                            # Every earlier read of the key was valueless:
                            # this is Transaction.external_reads()'s read.
                            r_pos.append(pos)
                            r_kid.append(kid)
                            r_value.append(value)
                    last[kid] = value
            for kid, value in last_write.items():
                if value is None:
                    final_none[kid] = pos
                else:
                    final_pos[value * radix + kid] = pos
            for slot in range(first_read, len(r_kid)):
                kid = r_kid[slot]
                written = last_write.get(kid)
                r_rmw.append(kid in last_write)
                r_written.append(written)
                # FutureRead: the row itself writes the value it read.
                if written == r_value[slot] or (
                    overwrote
                    and intermediate_pos.get(r_value[slot] * radix + kid) == pos
                ):
                    flag(pos)

        # Writer attribution stays a second pass — in the session-grouped
        # scan order a reader may precede its writer — but over reads only.
        # Provenance candidates: ThinAir/Intermediate (no final writer) and
        # AbortedRead; a reader that is its own writer was flagged above.
        final_get = final_pos.get
        r_writer.extend([final_get(v * radix + k, -1) for k, v in zip(r_kid, r_value)])
        status_of = self._status_of
        candidates.update(
            [
                reader
                for reader, writer in zip(r_pos, r_writer)
                if writer < 0 or status_of[writer] == _ABORTED_CODE
            ]
        )
        self._int_candidates = sorted(candidates)

    def _fill_positions(
        self, txn_ids: List[int], session_of: List[int], status_of: bytearray
    ) -> None:
        """Derive every per-position table from the three scan-order columns."""
        self.txn_ids = txn_ids
        self.txn_dense = dict(zip(txn_ids, range(len(txn_ids))))
        self._session_of = session_of
        self._status_of = status_of
        self._committed_mask = status_of.translate(_COMMITTED_TABLE)
        committed_pos = [pos for pos, c in enumerate(self._committed_mask) if c]
        self.committed_txn_ids = [txn_ids[pos] for pos in committed_pos]
        self.committed_ids = set(self.committed_txn_ids)
        self._non_initial_pos = [
            pos for pos in committed_pos if txn_ids[pos] != INITIAL_TXN_ID
        ]

    # ------------------------------------------------------------------
    # Transaction rows (lazy; seeded by build() from a History's own objects)
    # ------------------------------------------------------------------
    def _txn_at(self, pos: int) -> Transaction:
        """The transaction at dense position ``pos`` (materialised lazily)."""
        if self._transactions is not None:
            return self._transactions[pos]
        txn = self._txn_cache.get(pos)
        if txn is None:
            txn = self._columns.transaction_at(self._row_order[pos])
            self._txn_cache[pos] = txn
        return txn

    @property
    def transactions(self) -> List[Transaction]:
        """Every transaction, including ``⊥T`` and aborted ones (scan order)."""
        if self._transactions is None:
            self._transactions = [
                self._txn_at(pos) for pos in range(len(self.txn_ids))
            ]
        return self._transactions

    @property
    def history(self) -> History:
        """The indexed history (materialised from the columns on demand).

        Built with the canonical :func:`~repro.core.model.history_from_stream`
        grouping over the (cached) materialised transactions, so the result
        — and the identity of its ``Transaction`` objects — is consistent
        with every other accessor of this index.
        """
        if self._history is None:
            self._history = history_from_stream(self.transactions)
        return self._history

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
    def read_columns(self) -> Tuple[List[Any], ...]:
        """The resolved reads as six parallel columns ``(reader_pos, key_id,
        value, writer_pos | -1, writes_key, written_value)`` — ascending
        reader position, program order within a reader (treat as read-only)."""
        return self._reads_dense

    def iter_read_tuples(
        self,
    ) -> Iterator[Tuple[int, str, Optional[int], Optional[int], bool, Optional[int]]]:
        """Resolved reads as plain tuples (object-free DIVERGENCE input).

        Yields ``(reader_txn_id, key, value, writer_txn_id_or_None,
        reader_writes_key, written_value)`` in scan order.
        """
        txn_ids = self.txn_ids
        key_names = self.key_names
        for pos, kid, value, writer_pos, writes_key, written in zip(*self._reads_dense):
            yield (
                txn_ids[pos],
                key_names[kid],
                value,
                txn_ids[writer_pos] if writer_pos >= 0 else None,
                writes_key,
                written,
            )

    # ------------------------------------------------------------------
    # Orders
    # ------------------------------------------------------------------
    def real_time_id_pairs(self) -> List[Tuple[int, int]]:
        """The transitive reduction of the committed real-time order, as
        transaction-id pairs (cached)."""
        if self._rt_id_pairs is None:
            self._rt_id_pairs = self._rt_id_pairs_from_columns()
        return self._rt_id_pairs

    def committed_stamps(self) -> Tuple[List[int], List[float], List[float]]:
        """``(ordinals, starts, finishes)`` of the committed non-``⊥T``
        transactions with both stamps, in scan order; an ordinal is the rank
        among all committed non-``⊥T`` ones (the CSR kernel's node ``base +
        ordinal``).  Each timestamp column is read in one pass."""
        cols = self._columns
        rows = list(map(self._row_order.__getitem__, self._non_initial_pos))
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

    def _rt_id_pairs_from_columns(self) -> List[Tuple[int, int]]:
        """Mirror ``History.real_time_order()`` over the timestamp columns."""
        ordinals, starts, finishes = self.committed_stamps()
        txn_ids = self.txn_ids
        non_initial = self._non_initial_pos
        # (start, finish, txn_id) in scan order — the entry order
        # History.real_time_order feeds interval_order_reduction, so stable
        # sorts tie-break alike.
        entries = list(zip(starts, finishes, [txn_ids[non_initial[i]] for i in ordinals]))
        pairs = interval_order_reduction(entries)
        if self._has_initial and entries:
            first = min(entries, key=lambda e: e[0])
            pairs.append((INITIAL_TXN_ID, first[2]))
        return pairs

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
    def num_committed(self) -> int:
        """Committed transactions excluding ``⊥T``."""
        return len(self._non_initial_pos)

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
