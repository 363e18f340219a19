"""Columnar history segments: the zero-copy data plane of the pipeline.

JSONL (:mod:`repro.history.serialization`) is the *interchange* format —
human-greppable, append-only, tailable.  It is also the slowest possible way
to feed the checker: every transaction becomes a parsed dict, then a
:class:`~repro.core.model.Transaction` with one frozen
:class:`~repro.core.model.Operation` per op, and every downstream layer
re-walks those objects attribute by attribute.  At millions of transactions
the accept path spends more time allocating Python objects than checking.

:class:`ColumnarHistory` stores the same information as flat typed columns —
the representation the dense kernel (:mod:`repro.core.csr`) and the shared
index (:class:`~repro.core.index.HistoryIndex`) already work in:

* per transaction: ``txn_ids`` / ``session_ids`` (``array('q')``),
  ``statuses`` (small codes), ``start_ts`` / ``finish_ts`` (``array('d')``,
  NaN encodes "no timestamp"), and ``op_offsets`` (CSR-style: transaction
  ``i`` owns operations ``op_offsets[i]:op_offsets[i+1]``);
* per operation: ``op_kinds`` (read/write), ``op_keys`` (dense key ids into
  ``key_names``), ``op_values`` + ``op_has_value`` (``None``-aware values).

A segment round-trips losslessly with the JSONL stream format (``repro
convert``), serialises to a compact binary file (:meth:`ColumnarHistory.save`
/ :meth:`ColumnarHistory.load`, gzip-optional via a ``.gz`` suffix), and
crosses process boundaries as raw buffers (:meth:`ColumnarHistory.to_wire` /
:meth:`ColumnarHistory.from_wire`) — which is how the parallel executor ships
shard slices without pickling a single ``Transaction``.

Every batch check consumes these columns through
:meth:`repro.core.index.HistoryIndex.build`, which scans them directly — a
:class:`~repro.core.model.History` is column-encoded by
:meth:`ColumnarHistory.from_history` first; :meth:`to_history` exists for
object-level consumers and for debugging.
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
from .files import atomic_write

__all__ = [
    "ColumnarHistory",
    "is_segment_path",
    "write_history_segment",
    "load_history_segment",
    "OP_READ",
    "OP_WRITE",
    "SEGMENT_FORMAT",
    "SEGMENT_MAGIC",
    "file_crc32",
    "segment_token",
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
#: Pre-built has-value run for :meth:`ColumnarHistory.append_row` (every
#: collector-recorded operation carries a value).
_ONES = b"\x01" * 256

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


def is_segment_path(path: Union[str, Path]) -> bool:
    """Whether ``path`` looks like a columnar segment file (by suffix)."""
    name = Path(path).name.lower()
    return name.endswith(".seg") or name.endswith(".seg.gz")


def file_crc32(path: Union[str, Path]) -> int:
    """CRC-32 of a file's raw bytes (streamed; no decompression) — what an
    epoch log's manifest records for each sealed epoch file."""
    crc = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


def segment_token(path: Union[str, Path]) -> Tuple[int, int]:
    """Cheap identity token for a segment file: ``(size, mtime_ns)``.

    Keys the per-worker segment-map cache in
    :mod:`repro.parallel.executor` — stat-only, so it can be computed per
    payload without touching the file contents; any rewrite of the segment
    changes the token and invalidates the cached mappings.
    """
    st = os.stat(path)
    return (st.st_size, st.st_mtime_ns)


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
        except OverflowError as exc:
            raise ValueError(
                f"transaction T{txn_id} does not fit the columnar segment "
                f"format (ids and values are signed 64-bit, distinct keys "
                f"signed 32-bit): {exc}"
            ) from None
        except AttributeError:
            if isinstance(self.txn_ids, array):
                raise
            raise ValueError(
                "cannot append to a memory-mapped segment (loaded with "
                "mmap=True); use slice_rows() to derive a mutable copy"
            ) from None

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
        the op columns grow by ``extend`` instead of a per-op loop.
        """
        try:
            self.txn_ids.append(txn_id)
            self.session_ids.append(session_id)
            self.statuses.append(status_code)
            self.start_ts.append(_NAN if start_ts is None else float(start_ts))
            self.finish_ts.append(_NAN if finish_ts is None else float(finish_ts))
            key_ids = self.key_ids
            try:
                ids = [key_ids[key] for key in keys]
            except KeyError:
                ids = [self.key_id(key) for key in keys]
            self.op_kinds.extend(kinds)
            self.op_keys.extend(ids)
            self.op_values.extend(values)
            self.op_has_value.extend(_ONES[: len(kinds)] if len(kinds) <= len(_ONES)
                                     else bytes(1 for _ in kinds))
            self.op_offsets.append(len(self.op_kinds))
        except OverflowError as exc:
            raise ValueError(
                f"transaction T{txn_id} does not fit the columnar segment "
                f"format (ids and values are signed 64-bit, distinct keys "
                f"signed 32-bit): {exc}"
            ) from None
        except AttributeError:
            if isinstance(self.txn_ids, array):
                raise
            raise ValueError(
                "cannot append to a memory-mapped segment (loaded with "
                "mmap=True); use slice_rows() to derive a mutable copy"
            ) from None

    def append(self, txn: Transaction) -> None:
        """Append one transaction as a new row (see :meth:`append_raw` for
        the failure contract; this is the object-accepting wrapper)."""
        self.append_raw(
            txn.txn_id,
            txn.session_id,
            STATUS_CODES[txn.status],
            txn.start_ts,
            txn.finish_ts,
            (
                (_WRITE if op.is_write else _READ, op.key, op.value)
                for op in txn.operations
            ),
        )

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
    def transaction_at(self, row: int) -> Transaction:
        """Materialise one row as a :class:`Transaction`."""
        lo, hi = self.op_offsets[row], self.op_offsets[row + 1]
        key_names = self.key_names
        operations = [
            Operation(
                OpType.WRITE if kind else OpType.READ,
                key_names[kid],
                value if has else None,
            )
            for kind, kid, value, has in zip(
                self.op_kinds[lo:hi],
                self.op_keys[lo:hi],
                self.op_values[lo:hi],
                self.op_has_value[lo:hi],
            )
        ]
        start = self.start_ts[row]
        finish = self.finish_ts[row]
        return Transaction(
            txn_id=self.txn_ids[row],
            operations=operations,
            session_id=self.session_ids[row],
            status=STATUS_FROM_CODE[self.statuses[row]],
            start_ts=None if math.isnan(start) else start,
            finish_ts=None if math.isnan(finish) else finish,
        )

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

    def to_history(self) -> History:
        """Materialise a :class:`History` (sessions ordered by session id).

        The inverse of :meth:`from_history` up to session-list ordering —
        exactly the convention of
        :func:`repro.history.serialization.load_history_jsonl`, so JSONL and
        segment loads of the same history are indistinguishable (both
        delegate to :func:`repro.core.model.history_from_stream`).
        """
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
    def save(
        self, path: Union[str, Path], *, compress: Optional[bool] = None
    ) -> None:
        """Write a binary segment file (gzip when ``compress`` or ``*.gz``).

        Layout: :data:`SEGMENT_MAGIC`, one JSON header line (format name,
        byte order, counts, key names, column manifest), then each column's
        raw bytes in manifest order.  The file is published atomically
        (:func:`~repro.history.files.atomic_write`): a save that fails
        half-way leaves whatever ``path`` held before.
        """
        atomic_write(path, lambda raw: self.dump(raw, path, compress))

    def dump(
        self, raw: IO[bytes], path: Union[str, Path], compress: Optional[bool] = None
    ) -> None:
        """Stream the segment bytes for ``path`` into the open file ``raw``
        (a staging file), then fire ``columnar.segment.write`` on it."""
        if compress is None:
            compress = str(path).lower().endswith(".gz")
        columns = [getattr(self, slot) for slot in _COLUMN_SLOTS]
        header = {
            "format": SEGMENT_FORMAT,
            "byteorder": sys.byteorder,
            "transactions": self.num_transactions,
            "operations": self.num_operations,
            "key_names": self.key_names,
            "columns": [
                [slot, column.typecode, column.itemsize * len(column)]
                for slot, column in zip(_COLUMN_SLOTS, columns)
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
        """Read a segment written by :meth:`save` (gzip auto-detected).

        With ``mmap=True`` an uncompressed native-byteorder segment is
        memory-mapped instead of copied: every column becomes a typed
        ``memoryview`` over one shared read-only mapping, so the load copies
        nothing (its one linear cost is :meth:`validated`'s C-level pass)
        and concurrent readers of the same file share a single physical
        copy of the pages.  Mapped
        segments are read-only (``append`` raises ``ValueError``);
        ``slice_rows`` / ``to_wire`` / index construction all work
        unchanged.  Gzip segments and foreign-byteorder files silently fall
        back to the copying loader.
        """
        fail_point("columnar.segment.load", path=path)
        with open(path, "rb") as raw:
            if raw.read(2) == b"\x1f\x8b":  # gzip magic
                raw.seek(0)
                try:
                    with gzip.open(raw, "rb") as fh:
                        cols = cls._read(fh, path)
                        # The member's CRC/length trailer and end-of-stream
                        # marker are only checked on reading to its end.
                        while fh.read(1 << 16):
                            pass
                except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
                    raise ValueError(f"{path}: truncated segment ({exc})") from None
                return cols.validated(path)
            raw.seek(0)
            cols = cls._read_mapped(raw, path) if mmap else None
            if cols is None:
                raw.seek(0)
                cols = cls._read(raw, path)
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
    ) -> Tuple["ColumnarHistory", bool, List[Tuple[str, str, str, int]]]:
        """Consume a segment's magic and header line (the one reader of it).

        Returns the column-less shell (key names installed), whether the
        file is in native byte order, and the manifest in slot order as
        ``(slot, typecode, stored_typecode, nbytes)``.
        """
        if fh.read(len(SEGMENT_MAGIC)) != SEGMENT_MAGIC:
            raise ValueError(f"{path}: not a {SEGMENT_FORMAT} segment file")
        try:
            header: Dict[str, Any] = json.loads(fh.readline())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: corrupt segment header: {exc}") from None
        if header.get("format") != SEGMENT_FORMAT:
            raise ValueError(f"{path}: not a {SEGMENT_FORMAT} segment file")
        cols = cls.__new__(cls)
        cols.key_names = list(header.get("key_names", []))
        cols.key_ids = {name: kid for kid, name in enumerate(cols.key_names)}
        by_name = {entry[0]: entry for entry in header.get("columns", [])}
        manifest = []
        for slot, typecode in zip(_COLUMN_SLOTS, _COLUMN_TYPECODES):
            if slot not in by_name:
                raise ValueError(f"{path}: segment missing column {slot!r}")
            _, stored_typecode, nbytes = by_name[slot]
            manifest.append((slot, typecode, stored_typecode, nbytes))
        native = header.get("byteorder", sys.byteorder) == sys.byteorder
        return cols, native, manifest

    @classmethod
    def _read(cls, fh: IO[bytes], path: Union[str, Path]) -> "ColumnarHistory":
        cols, native, manifest = cls._read_header(fh, path)
        for slot, typecode, stored_typecode, nbytes in manifest:
            column = array(stored_typecode)
            data = fh.read(nbytes)
            if len(data) != nbytes:
                raise ValueError(f"{path}: truncated segment column {slot!r}")
            column.frombytes(data)
            if not native:
                column.byteswap()
            if stored_typecode != typecode:
                column = array(typecode, column)
            setattr(cols, slot, column)
        return cols

    @classmethod
    def _read_mapped(
        cls, fh: IO[bytes], path: Union[str, Path]
    ) -> Optional["ColumnarHistory"]:
        """Zero-copy loader: typed memoryviews over one shared mapping.

        Returns ``None`` when the file cannot be mapped verbatim (foreign
        byte order or stored typecodes differing from the native layout) —
        the caller then falls back to :meth:`_read`.  Structural corruption
        (bad magic/header, truncated columns) raises ``ValueError`` exactly
        like the copying loader.
        """
        cols, native, manifest = cls._read_header(fh, path)
        if not native:
            return None
        offset = fh.tell()
        file_size = os.fstat(fh.fileno()).st_size
        mapping = _mmap_module.mmap(
            fh.fileno(), 0, access=_mmap_module.ACCESS_READ
        )
        view = memoryview(mapping)
        for slot, typecode, stored_typecode, nbytes in manifest:
            if stored_typecode != typecode:
                return None
            if offset + nbytes > file_size:
                raise ValueError(f"{path}: truncated segment column {slot!r}")
            setattr(cols, slot, view[offset : offset + nbytes].cast(typecode))
            offset += nbytes
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


# ----------------------------------------------------------------------
# Module-level conveniences
# ----------------------------------------------------------------------
def write_history_segment(
    history: History, path: Union[str, Path], *, compress: Optional[bool] = None
) -> None:
    """Write a complete history as a binary segment (canonical order)."""
    ColumnarHistory.from_history(history).save(path, compress=compress)


def load_history_segment(path: Union[str, Path]) -> ColumnarHistory:
    """Load a segment file into a :class:`ColumnarHistory`."""
    return ColumnarHistory.load(path)
