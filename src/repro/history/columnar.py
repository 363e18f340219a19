"""Columnar history segments: the data plane of the pipeline.

:class:`ColumnarHistory` stores a history as flat typed columns — the
representation the dense kernel (:mod:`repro.core.csr`) and the shared index
(:class:`~repro.core.index.HistoryIndex`) work in:

* per transaction: ``txn_ids`` / ``session_ids`` (``array('q')``),
  ``statuses`` (small codes), ``start_ts`` / ``finish_ts`` (``array('d')``,
  NaN encodes "no timestamp"), and ``op_offsets`` (CSR-style: transaction
  ``i`` owns operations ``op_offsets[i]:op_offsets[i+1]``);
* per operation: ``op_kinds`` (read/write), ``op_keys`` (dense key ids into
  ``key_names``), ``op_values`` + ``op_has_value`` (``None``-aware values).

Rows go in and out without objects: a :data:`Row` (the fields of one
transaction) is appended by :meth:`ColumnarHistory.append_raw` and read back
by :meth:`ColumnarHistory.row_at`; :meth:`ColumnarHistory.extend` /
:meth:`ColumnarHistory.join` copy rows between segments column by column.
The JSON record of a row has one reader, :func:`parse_record`, and one
writer, :func:`build_record`, which both JSON containers
(:mod:`repro.history.serialization`) use.  ``Transaction`` objects are built
only where the object model is asked for (:func:`row_transaction`:
:meth:`transaction_at`, :meth:`to_history`).

A segment serialises to a compact binary file (:meth:`ColumnarHistory.save`
/ :meth:`ColumnarHistory.load`, gzip-optional via a ``.gz`` suffix) and
crosses process boundaries as raw buffers (:meth:`ColumnarHistory.to_wire`).
Segment bytes are copied into columns in one place,
:meth:`ColumnarHistory.read` (only a batch check of a ``.seg`` maps the file
instead), and a byte past the last column is refused by both.
"""

from __future__ import annotations

import gzip
import json
import math
import mmap as _mmap_module
import os
import sys
import zlib
from array import array
from pathlib import Path
from typing import (
    IO,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..resilience.failpoints import fail_point
from ..core.model import (
    INITIAL_TXN_ID,
    STATUS_CODES,
    STATUS_FROM_CODE,
    History,
    Operation,
    OpType,
    Transaction,
    TransactionStatus,
    history_from_stream,
    stream_order,
)
from ..ondisk import DEFLATE_MAX_RATIO, atomic_write

__all__ = [
    "ColumnarHistory",
    "is_segment_path",
    "write_history_segment",
    "load_history_segment",
    "OP_READ",
    "OP_WRITE",
    "SEGMENT_FORMAT",
    "SEGMENT_MAGIC",
    "Row",
    "build_record",
    "parse_record",
    "row_transaction",
    "transaction_row",
]

SEGMENT_FORMAT = "repro-history-segment-v1"
SEGMENT_MAGIC = b"REPROSEG1\n"

#: Op-kind codes used in the ``op_kinds`` column.  (Status codes in the
#: ``statuses`` column are :data:`repro.core.model.STATUS_CODES`,
#: re-exported here for segment consumers.)
OP_READ, OP_WRITE = 0, 1
_READ, _WRITE = OP_READ, OP_WRITE

_NAN = float("nan")
#: The byte values the ``statuses`` / ``op_kinds`` columns may hold.
_STATUS_BYTES = bytes(STATUS_CODES.values())
_KIND_BYTES = bytes((OP_READ, OP_WRITE))

#: Process-boundary wire format: key names plus one raw buffer per column.
WireColumns = Tuple[
    List[str],  # key_names
    bytes,  # txn_ids      array('q')
    bytes,  # session_ids  array('q')
    bytes,  # statuses     array('b')
    bytes,  # start_ts     array('d')
    bytes,  # finish_ts    array('d')
    bytes,  # op_offsets   array('q')
    bytes,  # op_kinds     array('b')
    bytes,  # op_keys      array('i')
    bytes,  # op_values    array('q')
    bytes,  # op_has_value array('b')
]


#: One row as :meth:`ColumnarHistory.append_raw` takes it: txn id, session
#: id, status code, start and finish stamps, ``(kind code, key, value)`` ops.
Row = Tuple[int, int, int, Optional[float], Optional[float], List[Tuple[int, str, Optional[int]]]]

_OP_TYPES = (OpType.READ, OpType.WRITE)  # indexed by kind code


def transaction_row(txn: Transaction) -> Row:
    """The row of one :class:`Transaction`."""
    ops = [(_WRITE if op.is_write else _READ, op.key, op.value) for op in txn.operations]
    return txn.txn_id, txn.session_id, STATUS_CODES[txn.status], txn.start_ts, txn.finish_ts, ops


def row_transaction(row: Row) -> Transaction:
    """The :class:`Transaction` of one row."""
    txn_id, session_id, status_code, start_ts, finish_ts, ops = row
    operations = [Operation(_OP_TYPES[kind], key, value) for kind, key, value in ops]
    return Transaction(txn_id, operations, session_id, STATUS_FROM_CODE[status_code], start_ts, finish_ts)


# What a wrongly shaped JSON value raises when indexed or iterated; files come
# from outside, so decoders turn these into ``ValueError`` (CLI: exit 2).
_STRUCTURAL = (AttributeError, KeyError, TypeError)


def _malformed(what: str, exc: Exception) -> ValueError:
    detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    return ValueError(f"malformed history: {what}: {detail}")


_OP_NAMES = ("r", "w")  # indexed by kind code
_OP_CODES = {name: code for code, name in enumerate(_OP_NAMES)}
_STATUS_NAMES = tuple(status.value for status in STATUS_FROM_CODE)
_STATUS_CODES = {name: code for code, name in enumerate(_STATUS_NAMES)}


def parse_record(payload: Any) -> Row:
    """Validate one transaction record (the shape both JSON containers
    hold, parsed); return it as a :data:`Row`.

    The one reader of the record shape: ids are integers, keys strings,
    values integers or null, stamps numbers or null, ``op`` and ``status``
    one of their names.  Anything else raises ``ValueError("malformed
    history: …")``.
    """
    try:
        ops = []
        for op in payload.get("operations", ()):
            kind, key, value = _OP_CODES.get(op["op"]), op["key"], op["value"]
            if kind is None or type(key) is not str or not (value is None or type(value) is int):
                raise TypeError(
                    f"operation {op!r} is not an op 'r' or 'w' on a string key "
                    "with an integer or null value"
                )
            ops.append((kind, key, value))
        txn_id, session_id = payload["txn_id"], payload.get("session_id", 0)
        if type(txn_id) is not int or type(session_id) is not int:
            raise TypeError("txn_id and session_id must be integers")
        status = _STATUS_CODES.get(payload.get("status", "committed"))
        if status is None:
            raise TypeError(f"status {payload['status']!r} is not one of {', '.join(_STATUS_NAMES)}")
        start_ts, finish_ts = payload.get("start_ts"), payload.get("finish_ts")
        for stamp in (start_ts, finish_ts):
            if stamp is not None and type(stamp) not in (int, float):
                raise TypeError(f"timestamp {stamp!r} is not a number or null")
    except _STRUCTURAL as exc:
        raise _malformed("transaction record", exc) from None
    return txn_id, session_id, status, start_ts, finish_ts, ops


def build_record(row: Row) -> Dict[str, Any]:
    """The record of one row — the one writer of the record shape."""
    txn_id, session_id, status_code, start_ts, finish_ts, ops = row
    return {
        "txn_id": txn_id,
        "session_id": session_id,
        "status": _STATUS_NAMES[status_code],
        "start_ts": start_ts,
        "finish_ts": finish_ts,
        "operations": [
            {"op": _OP_NAMES[kind], "key": key, "value": value} for kind, key, value in ops
        ],
    }


def is_segment_path(path: Union[str, Path]) -> bool:
    """Whether ``path`` looks like a columnar segment file (by suffix)."""
    name = Path(path).name.lower()
    return name.endswith(".seg") or name.endswith(".seg.gz")


class ColumnarHistory:
    """A history as flat typed columns (one appendable in-memory segment).

    Rows are transactions in arrival order; when the history has an initial
    transaction ``⊥T`` it occupies row 0 (``txn_id == -1``).  Per-session
    order is whatever order rows were appended in, which every producer
    (stream order, the collectors' finish order) preserves.  The instance
    is itself an ``on_transaction`` hook (``__call__`` is :meth:`append`);
    :meth:`save` it when the run is over.

    Example:
        >>> from repro.core.model import Transaction, read, write
        >>> cols = ColumnarHistory()
        >>> cols.append(Transaction(1, [read("x", 0), write("x", 1)]))
        >>> cols.num_transactions, cols.num_operations, cols.key_names
        (1, 2, ['x'])
        >>> str(cols.transaction_at(0))
        'T1[R(x,0), W(x,1)]'
    """

    __slots__ = (
        "key_names",
        "key_ids",
        "txn_ids",
        "session_ids",
        "statuses",
        "start_ts",
        "finish_ts",
        "op_offsets",
        "op_kinds",
        "op_keys",
        "op_values",
        "op_has_value",
    )

    def __init__(self) -> None:
        self.key_names: List[str] = []
        self.key_ids: Dict[str, int] = {}
        self.txn_ids = array("q")
        self.session_ids = array("q")
        self.statuses = array("b")
        self.start_ts = array("d")
        self.finish_ts = array("d")
        self.op_offsets = array("q", [0])
        self.op_kinds = array("b")
        self.op_keys = array("i")
        self.op_values = array("q")
        self.op_has_value = array("b")

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_transactions(self) -> int:
        return len(self.txn_ids)

    @property
    def num_operations(self) -> int:
        return len(self.op_kinds)

    @property
    def has_initial(self) -> bool:
        """Whether row 0 is the initial transaction ``⊥T``."""
        return len(self.txn_ids) > 0 and self.txn_ids[0] == INITIAL_TXN_ID

    @property
    def nbytes(self) -> int:
        """Retained bytes of the flat column store (key names excluded)."""
        return sum(
            column.itemsize * len(column)
            for column in (
                self.txn_ids,
                self.session_ids,
                self.statuses,
                self.start_ts,
                self.finish_ts,
                self.op_offsets,
                self.op_kinds,
                self.op_keys,
                self.op_values,
                self.op_has_value,
            )
        )

    def __len__(self) -> int:
        return len(self.txn_ids)

    def __repr__(self) -> str:
        return (
            f"ColumnarHistory(transactions={self.num_transactions}, "
            f"operations={self.num_operations}, keys={len(self.key_names)}, "
            f"nbytes={self.nbytes})"
        )

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def key_id(self, key: str) -> int:
        """Intern ``key`` and return its dense id."""
        kid = self.key_ids.get(key)
        if kid is None:
            kid = len(self.key_names)
            self.key_ids[key] = kid
            self.key_names.append(key)
        return kid

    def append_raw(
        self,
        txn_id: int,
        session_id: int,
        status_code: int,
        start_ts: Optional[float],
        finish_ts: Optional[float],
        ops: Iterable[Tuple[int, str, Optional[int]]],
    ) -> None:
        """Append one row from flat fields — the object-free accept path.

        ``ops`` yields ``(kind_code, key, value)`` triples, where the kind
        code is :data:`OP_READ`/:data:`OP_WRITE` and ``value`` is ``None``
        for an operation without one.  ``status_code`` is a
        :data:`repro.core.model.STATUS_CODES` value; timestamps may be
        ``None``.  No :class:`Transaction`/:class:`Operation` objects are
        touched.

        Raises ``ValueError`` when an id or value falls outside the segment
        format's integer range (signed 64-bit for transaction/session ids
        and values, signed 32-bit for distinct keys); the instance must be
        considered corrupt afterwards.
        """
        try:
            self.txn_ids.append(txn_id)
            self.session_ids.append(session_id)
            self.statuses.append(status_code)
            self.start_ts.append(_NAN if start_ts is None else float(start_ts))
            self.finish_ts.append(_NAN if finish_ts is None else float(finish_ts))
            key_ids = self.key_ids
            key_names = self.key_names
            kinds_append = self.op_kinds.append
            keys_append = self.op_keys.append
            values_append = self.op_values.append
            has_append = self.op_has_value.append
            for kind, key, value in ops:
                kid = key_ids.get(key)
                if kid is None:
                    kid = len(key_names)
                    key_ids[key] = kid
                    key_names.append(key)
                kinds_append(kind)
                keys_append(kid)
                if value is None:
                    values_append(0)
                    has_append(0)
                else:
                    values_append(value)
                    has_append(1)
            self.op_offsets.append(len(self.op_kinds))
        except (OverflowError, AttributeError) as exc:
            raise self._refusal(exc, txn_id) from None

    def append_row(
        self,
        txn_id: int,
        session_id: int,
        status_code: int,
        start_ts: Optional[float],
        finish_ts: Optional[float],
        kinds: List[int],
        keys: List[str],
        values: List[int],
    ) -> None:
        """Append one row from parallel op lists — how the collectors record.

        Same contract as :meth:`append_raw` but takes the kinds/keys/values
        as three equal-length lists with every value present (collectors
        resolve reads to the observed value before recording), which lets
        the op columns grow by one ``fromlist`` each instead of a per-op
        loop.
        """
        try:
            self.txn_ids.append(txn_id)
            self.session_ids.append(session_id)
            self.statuses.append(status_code)
            self.start_ts.append(_NAN if start_ts is None else start_ts)
            self.finish_ts.append(_NAN if finish_ts is None else finish_ts)
            key_ids = self.key_ids
            try:
                ids = [key_ids[key] for key in keys]
            except KeyError:
                ids = [self.key_id(key) for key in keys]
            op_kinds = self.op_kinds
            op_kinds.fromlist(kinds)
            self.op_keys.fromlist(ids)
            self.op_values.fromlist(values)
            self.op_has_value.frombytes(b"\x01" * len(kinds))
            self.op_offsets.append(len(op_kinds))
        except (OverflowError, AttributeError) as exc:
            raise self._refusal(exc, txn_id) from None

    def _refusal(self, exc: Exception, txn_id: int) -> Exception:
        """What an append that raised ``exc`` raises instead."""
        if isinstance(exc, OverflowError):
            return ValueError(
                f"transaction T{txn_id} does not fit the columnar segment "
                f"format (ids and values are signed 64-bit, distinct keys "
                f"signed 32-bit): {exc}"
            )
        if isinstance(self.txn_ids, array):
            return exc
        return ValueError(
            "cannot append to a memory-mapped segment (loaded with "
            "mmap=True); use slice_rows() to derive a mutable copy"
        )

    def append(self, txn: Transaction) -> None:
        """Append one transaction as a new row (see :meth:`append_raw` for
        the failure contract; this is the object-accepting wrapper)."""
        self.append_raw(*transaction_row(txn))

    __call__ = append

    def seed_initial(self, keys: Iterable[str], value: int = 0) -> None:
        """Append ``⊥T`` (one committed write of ``value`` per key) without
        materialising the initial transaction; call it on an empty segment."""
        self.append_raw(
            INITIAL_TXN_ID,
            -1,
            STATUS_CODES[TransactionStatus.COMMITTED],
            None,
            None,
            ((_WRITE, key, value) for key in keys),
        )

    # ------------------------------------------------------------------
    # Row materialisation (debug / legacy interop; not the hot path)
    # ------------------------------------------------------------------
    def row_at(self, row: int) -> Row:
        """One row as the fields :meth:`append_raw` takes (a NaN stamp and
        an absent value are ``None``): the inverse of an append."""
        lo, hi = self.op_offsets[row], self.op_offsets[row + 1]
        names = self.key_names
        ops = [
            (kind, names[kid], value if has else None)
            for kind, kid, value, has in zip(
                self.op_kinds[lo:hi], self.op_keys[lo:hi], self.op_values[lo:hi], self.op_has_value[lo:hi]
            )
        ]
        return (self.txn_ids[row], self.session_ids[row], self.statuses[row], *self.timestamps_at(row), ops)

    def transaction_at(self, row: int) -> Transaction:
        """Materialise one row as a :class:`Transaction`."""
        return row_transaction(self.row_at(row))

    def iter_transactions(self) -> Iterator[Transaction]:
        """Yield every row as a :class:`Transaction` (``⊥T`` first if present)."""
        for row in range(len(self.txn_ids)):
            yield self.transaction_at(row)

    def timestamps_at(self, row: int) -> Tuple[Optional[float], Optional[float]]:
        """``(start_ts, finish_ts)`` of one row, NaN decoded back to ``None``."""
        start = self.start_ts[row]
        finish = self.finish_ts[row]
        return (
            None if math.isnan(start) else start,
            None if math.isnan(finish) else finish,
        )

    # ------------------------------------------------------------------
    # History conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_history(cls, history: History) -> "ColumnarHistory":
        """Column-encode a history in canonical streaming arrival order."""
        return cls.from_transactions(stream_order(history))

    @classmethod
    def from_transactions(cls, transactions: Iterable[Transaction]) -> "ColumnarHistory":
        """Column-encode transactions in the given (session-preserving) order."""
        cols = cls()
        for txn in transactions:
            cols.append(txn)
        return cols

    @classmethod
    def join(cls, segments: Iterable["ColumnarHistory"]) -> "ColumnarHistory":
        """The rows of ``segments``, in order, as one segment.

        A lone segment is returned as it is (a mapped one stays mapped);
        several are copied into a new one with :meth:`extend`, so the result
        is the segment one writer would have recorded over all their rows.
        """
        segments = iter(segments)
        first = next(segments, None)
        second = next(segments, None)
        if second is None:
            return cls() if first is None else first
        out = cls()
        out.extend(first)
        out.extend(second)
        del first, second
        for segment in segments:
            out.extend(segment)
            del segment  # a copied segment is not held while the next is read
        return out

    def extend(self, other: "ColumnarHistory", lo: int = 0, hi: Optional[int] = None) -> None:
        """Append rows ``lo:hi`` of ``other`` (to its end when ``hi`` is None).

        Whole-column copies; keys are interned in the order the copied
        operations first name them, which is the order per-row appends
        would have interned them in.
        """
        hi = len(other.txn_ids) if hi is None else hi
        first_op, end_op = other.op_offsets[lo], other.op_offsets[hi]
        op_keys = other.op_keys[first_op:end_op]
        names = other.key_names
        remap = {kid: self.key_id(names[kid]) for kid in dict.fromkeys(op_keys)}
        base = len(self.op_kinds) - first_op
        for slot in _ROW_SLOTS:
            getattr(self, slot).extend(getattr(other, slot)[lo:hi])
        self.op_offsets.extend([offset + base for offset in other.op_offsets[lo + 1 : hi + 1]])
        self.op_kinds.extend(other.op_kinds[first_op:end_op])
        self.op_keys.extend(map(remap.__getitem__, op_keys))
        self.op_values.extend(other.op_values[first_op:end_op])
        self.op_has_value.extend(other.op_has_value[first_op:end_op])

    def to_history(self) -> History:
        """Materialise a :class:`History` (sessions ordered by session id):
        the inverse of :meth:`from_history` up to session-list ordering."""
        return history_from_stream(self.iter_transactions())

    # ------------------------------------------------------------------
    # Row slicing (shard construction)
    # ------------------------------------------------------------------
    def slice_rows(
        self,
        rows: Sequence[int],
        *,
        restrict_initial_keys: Optional[Iterable[str]] = None,
    ) -> "ColumnarHistory":
        """A new segment containing ``rows`` (in the given order).

        When ``restrict_initial_keys`` is set, the initial transaction's
        operations are filtered to those keys — how the partitioner
        restricts ``⊥T`` to each shard.
        """
        restrict = (
            None if restrict_initial_keys is None else set(restrict_initial_keys)
        )
        out = ColumnarHistory()
        key_names = self.key_names
        offsets = self.op_offsets
        for row in rows:
            out.txn_ids.append(self.txn_ids[row])
            out.session_ids.append(self.session_ids[row])
            out.statuses.append(self.statuses[row])
            out.start_ts.append(self.start_ts[row])
            out.finish_ts.append(self.finish_ts[row])
            initial_row = self.txn_ids[row] == INITIAL_TXN_ID
            for op in range(offsets[row], offsets[row + 1]):
                name = key_names[self.op_keys[op]]
                if initial_row and restrict is not None and name not in restrict:
                    continue
                out.op_kinds.append(self.op_kinds[op])
                out.op_keys.append(out.key_id(name))
                out.op_values.append(self.op_values[op])
                out.op_has_value.append(self.op_has_value[op])
            out.op_offsets.append(len(out.op_kinds))
        return out

    # ------------------------------------------------------------------
    # Wire format (process boundary)
    # ------------------------------------------------------------------
    def to_wire(self) -> WireColumns:
        """Flatten into compact picklable buffers (same-machine transfer)."""
        return (
            self.key_names,
            self.txn_ids.tobytes(),
            self.session_ids.tobytes(),
            self.statuses.tobytes(),
            self.start_ts.tobytes(),
            self.finish_ts.tobytes(),
            self.op_offsets.tobytes(),
            self.op_kinds.tobytes(),
            self.op_keys.tobytes(),
            self.op_values.tobytes(),
            self.op_has_value.tobytes(),
        )

    @classmethod
    def from_wire(cls, wire: WireColumns) -> "ColumnarHistory":
        cols = cls.__new__(cls)
        cols.key_names = list(wire[0])
        cols.key_ids = {name: kid for kid, name in enumerate(cols.key_names)}
        for slot, typecode, buf in zip(_COLUMN_SLOTS, _COLUMN_TYPECODES, wire[1:]):
            column = array(typecode)
            column.frombytes(buf)
            setattr(cols, slot, column)
        return cols

    # ------------------------------------------------------------------
    # Binary segment files
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write a binary segment file (gzip when ``path`` ends in ``.gz``).

        Layout: :data:`SEGMENT_MAGIC`, one JSON header line (format name,
        byte order, counts, key names, column manifest), then each column's
        raw bytes in manifest order.  The file is published atomically
        (:func:`~repro.ondisk.atomic_write`): a save that fails
        half-way leaves whatever ``path`` held before.
        """
        atomic_write(path, lambda raw: self.dump(raw, path))

    def dump(self, raw: IO[bytes], path: Union[str, Path]) -> None:
        """Stream the segment bytes for ``path`` into the open file ``raw``
        (a staging file), then fire ``columnar.segment.write`` on it."""
        compress = str(path).lower().endswith(".gz")
        if not set(map(type, self.key_names)) <= {str}:  # what the reader refuses
            key = next(key for key in self.key_names if type(key) is not str)
            raise ValueError(f"{path}: cannot write key {key!r}: segment keys are strings")
        columns = [getattr(self, slot) for slot in _COLUMN_SLOTS]
        header = {
            "format": SEGMENT_FORMAT,
            "byteorder": sys.byteorder,
            "transactions": self.num_transactions,
            "operations": self.num_operations,
            "key_names": self.key_names,
            "columns": [
                [slot, typecode, column.itemsize * len(column)]
                for slot, typecode, column in zip(_COLUMN_SLOTS, _COLUMN_TYPECODES, columns)
            ],
        }
        # A gzip member is named after ``path``, not the file it goes through.
        fh = gzip.GzipFile(str(path), "wb", fileobj=raw) if compress else raw
        fh.write(SEGMENT_MAGIC)
        fh.write(json.dumps(header, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for column in columns:
            fh.write(column.tobytes())
        if compress:
            fh.close()
        raw.flush()
        fail_point("columnar.segment.write", path=raw.name)

    @classmethod
    def load(
        cls, path: Union[str, Path], *, mmap: bool = False
    ) -> "ColumnarHistory":
        """Read the segment file at ``path`` with :meth:`read`.

        With ``mmap=True`` an uncompressed segment is memory-mapped instead:
        every column is a typed ``memoryview`` over one read-only mapping,
        paged in when a check first reads it.  A mapped segment saves,
        slices and indexes like a copied one, but ``append`` raises
        ``ValueError``, and a file that shrinks while it is mapped kills the
        process (``SIGBUS``).  Gzip files are always copied, and so are
        foreign-byteorder ones (from the mapped file).  The map refuses what
        :meth:`read` refuses, a byte past the last column included.
        """
        with open(path, "rb") as fh:
            if not mmap or fh.read(2) == b"\x1f\x8b":  # gzip magic
                return cls.read(fh, path)
            fail_point("columnar.segment.load", path=path)
            return cls._read_mapped(fh, path).validated(path)

    @classmethod
    def read(cls, fh: IO[bytes], path: Union[str, Path]) -> "ColumnarHistory":
        """The copying segment reader: the segment :meth:`save` wrote into
        the binary file ``fh`` (gzip auto-detected), with ``path`` named in
        every refusal.  Epoch loads hand it the bytes they checksummed.

        Each column is read straight into an array of its own, so the
        segment owns its memory: it appends and saves like a built one, and
        a file truncated or rewritten after the read cannot reach it.  A
        byte after the last column — a second segment or gzip member behind
        the first — is refused with ``ValueError``, like a column cut short.
        """
        fail_point("columnar.segment.load", path=path)
        size = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        gzipped = fh.read(2) == b"\x1f\x8b"
        fh.seek(0)
        if not gzipped:
            return cls._read(fh, path, size).validated(path)
        try:
            with gzip.GzipFile(fileobj=fh, mode="rb") as unzipped:
                cols = cls._read(unzipped, path, size * DEFLATE_MAX_RATIO)
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise ValueError(f"{path}: truncated segment ({exc})") from None
        return cols.validated(path)

    def validated(self, source: object) -> "ColumnarHistory":
        """``self``, or ``ValueError`` when the columns are structurally wrong.

        Run once where bytes become columns: a checksum says the bytes are
        the ones that were written, not that they describe a history, and
        every scan downstream indexes by these numbers unchecked.  Whole-
        column C calls only — no per-operation Python loop.
        """
        rows, ops = len(self.txn_ids), len(self.op_kinds)
        offsets = self.op_offsets
        row_columns = (self.session_ids, self.statuses, self.start_ts, self.finish_ts)
        op_columns = (self.op_keys, self.op_values, self.op_has_value)
        if len(offsets) != rows + 1 or any(len(c) != rows for c in row_columns):
            problem = "row columns differ in length"
        elif any(len(c) != ops for c in op_columns):
            problem = "operation columns differ in length"
        elif offsets[0] != 0 or offsets[-1] != ops or sorted(offsets) != list(offsets):
            problem = "op_offsets do not rise from 0 to the operation count"
        elif ops and not 0 <= min(self.op_keys) <= max(self.op_keys) < len(self.key_names):
            problem = "operation key id outside key_names"
        elif bytes(self.statuses).translate(None, _STATUS_BYTES):
            problem = "unknown transaction status code"
        elif bytes(self.op_kinds).translate(None, _KIND_BYTES):
            problem = "unknown operation kind code"
        else:
            return self
        raise ValueError(f"{source}: malformed segment: {problem}")

    @classmethod
    def _read_header(
        cls, fh: IO[bytes], path: Union[str, Path]
    ) -> Tuple["ColumnarHistory", bool, List[Tuple[str, str, int]]]:
        """Consume a segment's magic and header line (the one reader of it).

        Returns the column-less shell (key names installed), whether the
        file is in native byte order, and the manifest in slot order as
        ``(slot, typecode, nbytes)``.  A header :meth:`save` could not have
        written is refused with ``ValueError`` naming ``path``.
        """
        if fh.read(len(SEGMENT_MAGIC)) != SEGMENT_MAGIC:
            raise ValueError(f"{path}: not a {SEGMENT_FORMAT} segment file")
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:
            raise ValueError(f"{path}: corrupt segment header: {exc}") from None
        corrupt = f"{path}: corrupt segment header"
        if not isinstance(header, dict):
            raise ValueError(f"{corrupt}: not a JSON object")
        if header.get("format") != SEGMENT_FORMAT:
            raise ValueError(f"{path}: not a {SEGMENT_FORMAT} segment file")
        key_names = header.get("key_names")
        if not isinstance(key_names, list) or not set(map(type, key_names)) <= {str}:
            raise ValueError(f"{corrupt}: key_names is not a list of strings")
        byteorder = header.get("byteorder")
        if byteorder not in ("little", "big"):
            raise ValueError(f"{corrupt}: byteorder {byteorder!r} is not 'little' or 'big'")
        entries = header.get("columns")
        if not isinstance(entries, list) or not all(
            isinstance(e, list) and len(e) == 3 and isinstance(e[0], str) for e in entries
        ):
            raise ValueError(f"{corrupt}: columns is not a list of [slot, typecode, nbytes] rows")
        by_name = {entry[0]: entry for entry in entries}
        manifest = []
        for slot, typecode in zip(_COLUMN_SLOTS, _COLUMN_TYPECODES):
            if slot not in by_name:
                raise ValueError(f"{path}: segment missing column {slot!r}")
            _, stored_typecode, nbytes = by_name[slot]
            if stored_typecode != typecode:
                raise ValueError(
                    f"{corrupt}: column {slot!r} has typecode {stored_typecode!r}, not {typecode!r}"
                )
            itemsize = array(typecode).itemsize
            if type(nbytes) is not int or nbytes < 0 or nbytes % itemsize:
                raise ValueError(
                    f"{corrupt}: column {slot!r} nbytes {nbytes!r} is not a "
                    f"non-negative multiple of {itemsize}"
                )
            manifest.append((slot, typecode, nbytes))
        cols = cls.__new__(cls)
        cols.key_names = key_names
        cols.key_ids = {name: kid for kid, name in enumerate(key_names)}
        return cols, byteorder == sys.byteorder, manifest

    @classmethod
    def _read(
        cls, fh: IO[bytes], path: Union[str, Path], limit: int
    ) -> "ColumnarHistory":
        """Read a segment's columns out of ``fh``, which holds at most
        ``limit`` bytes: a header claiming more is refused before anything
        of that size is allocated.  Reading one byte past the last column
        is what makes gzip check the member's CRC and length trailer."""
        cols, native, manifest = cls._read_header(fh, path)
        for slot, typecode, nbytes in manifest:
            limit -= nbytes
            if limit < 0:  # claims past the end
                raise ValueError(f"{path}: truncated segment column {slot!r}")
            column = array(typecode, [0])
            column *= nbytes // column.itemsize
            if fh.readinto(column) != nbytes:
                raise ValueError(f"{path}: truncated segment column {slot!r}")
            if not native:
                column.byteswap()
            setattr(cols, slot, column)
        if fh.read(1):
            raise ValueError(f"{path}: bytes past the last segment column")
        return cols

    @classmethod
    def _read_mapped(cls, fh: IO[bytes], path: Union[str, Path]) -> "ColumnarHistory":
        """Mapping loader: typed memoryviews over one shared mapping of the
        open file ``fh`` (a foreign-byteorder file is copied by :meth:`_read`
        instead).  Structural corruption (bad magic/header, truncated
        columns, bytes past the last one) raises ``ValueError`` exactly like
        the copying reader."""
        size = os.fstat(fh.fileno()).st_size
        fh.seek(0)
        cols, native, manifest = cls._read_header(fh, path)
        if not native:
            fh.seek(0)
            return cls._read(fh, path, size)
        offset = fh.tell()
        mapping = _mmap_module.mmap(
            fh.fileno(), 0, access=_mmap_module.ACCESS_READ
        )
        view = memoryview(mapping)
        for slot, typecode, nbytes in manifest:
            if offset + nbytes > size:
                raise ValueError(f"{path}: truncated segment column {slot!r}")
            setattr(cols, slot, view[offset : offset + nbytes].cast(typecode))
            offset += nbytes
        if offset != size:
            raise ValueError(f"{path}: bytes past the last segment column")
        # The column memoryviews keep ``mapping`` (and its kernel-side file
        # reference) alive; the fd opened by the caller may close freely.
        return cols


#: Column slots in (wire and file) manifest order, with their typecodes.
_COLUMN_SLOTS: Tuple[str, ...] = (
    "txn_ids",
    "session_ids",
    "statuses",
    "start_ts",
    "finish_ts",
    "op_offsets",
    "op_kinds",
    "op_keys",
    "op_values",
    "op_has_value",
)
_COLUMN_TYPECODES: Tuple[str, ...] = ("q", "q", "b", "d", "d", "q", "b", "i", "q", "b")
#: The per-row columns besides ``op_offsets``.
_ROW_SLOTS: Tuple[str, ...] = ("txn_ids", "session_ids", "statuses", "start_ts", "finish_ts")


# ----------------------------------------------------------------------
# Module-level conveniences
# ----------------------------------------------------------------------
def write_history_segment(history: History, path: Union[str, Path]) -> None:
    """Write a complete history as a binary segment (canonical order)."""
    ColumnarHistory.from_history(history).save(path)


def load_history_segment(path: Union[str, Path]) -> ColumnarHistory:
    """Load a segment file into a :class:`ColumnarHistory`."""
    return ColumnarHistory.load(path)
