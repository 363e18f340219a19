"""History serialization: JSON documents, streaming JSONL, and their record.

Black-box checking pipelines persist histories between the generation and
verification stages (Figure 2, Step 3).  Both JSON containers hold one
*record* per transaction, read and written by the record codec
(:func:`~repro.history.columnar.parse_record` /
:func:`~repro.history.columnar.build_record`);
:func:`transaction_from_dict` / :func:`transaction_to_dict` are its object
adapters.

* a JSONL stream (``repro-history-stream-v1``): a header line, with ``⊥T``
  as ``initial_transaction``, then one record per line in arrival order.
  :class:`HistoryStreamWriter` writes it from transactions or columns;
  :class:`~repro.history.files.StreamFollower` decodes it straight into
  segments, and :func:`iter_history_jsonl` is their object view;
* a JSON document (``repro-history-v1``), a :class:`History`'s own
  serialization: records grouped by session, arrival order recomputed by
  ``stream_order`` — the one container read through objects.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import IO, Any, Dict, Iterable, Iterator, List, Optional, Union

from ..core.lwt import LWTHistory, LWTKind, LWTOperation
from ..core.model import (
    History,
    Session,
    Transaction,
    history_from_stream,
    make_initial_transaction,
)
from ..ondisk import atomic_write
from .columnar import (
    _STRUCTURAL,
    ColumnarHistory,
    _malformed,
    build_record,
    parse_record,
    row_transaction,
    transaction_row,
)
from .files import STREAM_FORMAT, StreamFollower, is_stream_path, write_history

__all__ = [
    "history_to_dict",
    "history_from_dict",
    "save_history",
    "load_history",
    "transaction_to_dict",
    "transaction_from_dict",
    "HistoryStreamWriter",
    "write_history_jsonl",
    "iter_history_jsonl",
    "load_history_jsonl",
    "is_stream_path",
    "lwt_history_to_dict",
    "lwt_history_from_dict",
    "save_lwt_history",
    "load_lwt_history",
]

# ----------------------------------------------------------------------
# Transactional histories
# ----------------------------------------------------------------------
def history_to_dict(history: History) -> Dict[str, Any]:
    """Convert a history to a JSON-serialisable dictionary."""
    payload: Dict[str, Any] = {
        "format": "repro-history-v1",
        "sessions": [
            {
                "session_id": session.session_id,
                "transactions": [transaction_to_dict(txn) for txn in session.transactions],
            }
            for session in history.sessions
        ],
    }
    if history.initial_transaction is not None:
        payload["initial_transaction"] = transaction_to_dict(history.initial_transaction)
    return payload


def history_from_dict(payload: Dict[str, Any]) -> History:
    """Reconstruct a history from :func:`history_to_dict` output."""
    try:
        if payload.get("format") != "repro-history-v1":
            raise ValueError("unrecognised history format")
        sessions = []
        for session_payload in payload.get("sessions", []):
            session = Session(session_id=session_payload["session_id"])
            if type(session.session_id) is not int:
                raise TypeError("session_id must be an integer")
            for txn_payload in session_payload.get("transactions", []):
                session.transactions.append(transaction_from_dict(txn_payload))
            sessions.append(session)
        initial = payload.get("initial_transaction")
        initial_txn = transaction_from_dict(initial) if initial is not None else None
        return History(sessions=sessions, initial_transaction=initial_txn)
    except _STRUCTURAL as exc:
        raise _malformed("document", exc) from None


def save_history(history: History, path: Union[str, Path]) -> None:
    """Write a history to ``path`` as JSON (published atomically)."""
    atomic_write(path, json.dumps(history_to_dict(history), indent=2).encode())


def load_history(path: Union[str, Path]) -> History:
    """Load a history previously written by :func:`save_history`."""
    return history_from_dict(json.loads(Path(path).read_text()))


def transaction_to_dict(txn: Transaction) -> Dict[str, Any]:
    """Convert one transaction to the JSON shape shared by both formats."""
    return build_record(transaction_row(txn))


def transaction_from_dict(payload: Dict[str, Any]) -> Transaction:
    """Reconstruct one transaction from :func:`transaction_to_dict` output."""
    return row_transaction(parse_record(payload))


# ----------------------------------------------------------------------
# Streaming JSONL histories
# ----------------------------------------------------------------------
class HistoryStreamWriter:
    """Append-only writer for the JSONL history stream format.

    Emits the header on construction and one line per transaction after
    that, flushing so a concurrent ``repro watch`` (or any
    :func:`iter_history_jsonl` consumer in follow mode) sees transactions
    as soon as they commit.  Usable as a context manager and directly as a
    :class:`~repro.workloads.runner.WorkloadRunner` ``on_transaction`` hook.

    ``flush_every=N`` batches flushes (every ``N`` transactions instead of
    every one) for high-throughput producers; the header is always flushed
    immediately so a follower can validate the stream at any time, and
    buffered lines are flushed on :meth:`close`.  With ``N > 1`` the OS may
    observe a *torn* final line mid-run — all stream readers tolerate that
    (the watcher buffers until the newline arrives; one-shot readers skip a
    torn tail).

    A ``*.gz`` path writes the stream gzip-compressed; the stream reader
    decompresses transparently.  ``initial_transaction`` is ``⊥T`` for the
    header, as a :class:`Transaction` or as its record (``build_record``);
    :meth:`extend` appends rows straight from columns.

    Example:
        >>> import tempfile, os
        >>> from repro import Transaction, read, write
        >>> path = os.path.join(tempfile.mkdtemp(), "stream.jsonl")
        >>> with HistoryStreamWriter(path) as writer:
        ...     writer.write(Transaction(1, [read("x", 0), write("x", 1)]))
        >>> len(list(iter_history_jsonl(path)))
        1
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        initial_transaction: Union[Transaction, Dict[str, Any], None] = None,
        initial_keys: Optional[Iterable[str]] = None,
        flush_every: int = 1,
    ) -> None:
        """``initial_keys`` synthesises the header's ``⊥T`` from a key list —
        the convenient form when tailing a live run (serial or concurrent)
        whose workload keys are known before any transaction commits."""
        if flush_every < 1:
            raise ValueError("flush_every must be a positive transaction count")
        if initial_transaction is None and initial_keys is not None:
            initial_transaction = make_initial_transaction(initial_keys)
        if str(path).lower().endswith(".gz"):
            self._fh: IO[str] = gzip.open(path, "wt", encoding="utf-8")  # type: ignore[assignment]
        else:
            self._fh = open(path, "w", encoding="utf-8")
        self._flush_every = flush_every
        self._pending = 0
        header: Dict[str, Any] = {"format": STREAM_FORMAT}
        if isinstance(initial_transaction, Transaction):
            initial_transaction = transaction_to_dict(initial_transaction)
        if initial_transaction is not None:
            header["initial_transaction"] = initial_transaction
        self._emit(header, force_flush=True)

    def write(self, txn: Transaction) -> None:
        """Append one transaction to the stream."""
        self._emit(transaction_to_dict(txn))

    __call__ = write

    def extend(self, columns: ColumnarHistory, lo: int = 0) -> None:
        """Append rows ``lo:`` of ``columns`` to the stream."""
        for row in range(lo, len(columns)):
            self._emit(build_record(columns.row_at(row)))

    def _emit(self, payload: Dict[str, Any], *, force_flush: bool = False) -> None:
        self._fh.write(json.dumps(payload, separators=(",", ":")) + "\n")
        self._pending += 1
        if force_flush or self._pending >= self._flush_every:
            self._fh.flush()
            self._pending = 0

    def flush(self) -> None:
        """Flush buffered lines to the OS immediately."""
        self._fh.flush()
        self._pending = 0

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "HistoryStreamWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_history_jsonl(history: History, path: Union[str, Path]) -> None:
    """Write a complete history as a JSONL stream in canonical arrival order
    (:func:`repro.core.stream_order`: merged by finish timestamp, falling
    back to round-robin)."""
    write_history(history, path)


def iter_history_jsonl(path: Union[str, Path]) -> Iterator[Transaction]:
    """Lazily yield the transactions of a JSONL stream, ``⊥T`` first: an
    object view of the segments :class:`~repro.history.files.StreamFollower`
    decodes.  A stream that ends torn (a final line without its newline that
    does not parse, or a gzip member cut short) yields its complete prefix
    and a ``UserWarning``."""
    with StreamFollower(path) as follower:
        for segment in iter(follower.poll, None):
            yield from segment.iter_transactions()
        follower.warn()


def load_history_jsonl(path: Union[str, Path]) -> History:
    """Materialise a JSONL stream into a :class:`History` (for batch use)."""
    return history_from_stream(iter_history_jsonl(path))


# ----------------------------------------------------------------------
# Lightweight-transaction histories
# ----------------------------------------------------------------------
def lwt_history_to_dict(history: LWTHistory) -> Dict[str, Any]:
    """Convert an LWT history to a JSON-serialisable dictionary."""
    return {
        "format": "repro-lwt-history-v1",
        "operations": [
            {
                "op_id": op.op_id,
                "kind": op.kind.value,
                "key": op.key,
                "expected": op.expected,
                "written": op.written,
                "start_ts": op.start_ts,
                "finish_ts": op.finish_ts,
                "session_id": op.session_id,
            }
            for op in history.operations
        ],
    }


def lwt_history_from_dict(payload: Dict[str, Any]) -> LWTHistory:
    """Reconstruct an LWT history from :func:`lwt_history_to_dict` output."""
    try:
        if payload.get("format") != "repro-lwt-history-v1":
            raise ValueError("unrecognised LWT history format")
        operations: List[LWTOperation] = []
        for op in payload.get("operations", []):
            operations.append(
                LWTOperation(
                    op_id=op["op_id"],
                    kind=LWTKind(op["kind"]),
                    key=op["key"],
                    expected=op.get("expected"),
                    written=op["written"],
                    start_ts=op.get("start_ts", 0.0),
                    finish_ts=op.get("finish_ts", 0.0),
                    session_id=op.get("session_id", 0),
                )
            )
        return LWTHistory(operations=operations)
    except _STRUCTURAL as exc:
        raise _malformed("LWT document", exc) from None


def save_lwt_history(history: LWTHistory, path: Union[str, Path]) -> None:
    atomic_write(path, json.dumps(lwt_history_to_dict(history), indent=2).encode())


def load_lwt_history(path: Union[str, Path]) -> LWTHistory:
    return lwt_history_from_dict(json.loads(Path(path).read_text()))
