"""History serialization: JSON documents and streaming JSONL.

Black-box checking pipelines persist histories between the generation and
verification stages (Figure 2, Step 3).  This module serialises
:class:`~repro.core.model.History` and :class:`~repro.core.lwt.LWTHistory`
objects two ways:

* a single JSON document (``repro-history-v1``) for archived histories —
  :func:`save_history` / :func:`load_history`;
* a line-oriented JSONL stream (``repro-history-stream-v1``) for live
  checking — one transaction per line in arrival order, written by
  :class:`HistoryStreamWriter` and consumed lazily by
  :func:`iter_history_jsonl`, so a history never has to fit in memory and a
  ``repro watch`` process can follow the file while it grows.

The stream format is a header line ``{"format": "repro-history-stream-v1",
"initial_transaction": {...}?}`` followed by one transaction object per
line (the same shape as in the document format, including ``session_id``).
"""

from __future__ import annotations

import gzip
import json
from itertools import chain
from pathlib import Path
from typing import IO, Any, Dict, Iterable, Iterator, List, Optional, Union

from ..core.lwt import LWTHistory, LWTKind, LWTOperation
from ..core.model import (
    History,
    Operation,
    OpType,
    Session,
    Transaction,
    TransactionStatus,
    history_from_stream,
    make_initial_transaction,
)
from ..ondisk import atomic_write
from .files import StreamFollower, is_stream_path, write_history

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
    "open_history_stream",
    "lwt_history_to_dict",
    "lwt_history_from_dict",
    "save_lwt_history",
    "load_lwt_history",
]

STREAM_FORMAT = "repro-history-stream-v1"

# What a wrongly shaped JSON value raises when indexed or iterated; files come
# from outside, so decoders turn these into ``ValueError`` (CLI: exit 2).
_STRUCTURAL = (AttributeError, KeyError, TypeError)


def _malformed(what: str, exc: Exception) -> ValueError:
    detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    return ValueError(f"malformed history: {what}: {detail}")


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
    return {
        "txn_id": txn.txn_id,
        "session_id": txn.session_id,
        "status": txn.status.value,
        "start_ts": txn.start_ts,
        "finish_ts": txn.finish_ts,
        "operations": [
            {"op": op.op_type.value, "key": op.key, "value": op.value}
            for op in txn.operations
        ],
    }


def transaction_from_dict(payload: Dict[str, Any]) -> Transaction:
    """Reconstruct one transaction from :func:`transaction_to_dict` output."""
    try:
        operations = []
        for op in payload.get("operations", []):
            key, value = op["key"], op["value"]
            if not isinstance(key, (str, int)) or not isinstance(value, (int, type(None))):
                raise TypeError(f"operation {op!r} needs a scalar key and an integer value")
            operations.append(Operation(OpType(op["op"]), key, value))
        txn_id, session_id = payload["txn_id"], payload.get("session_id", 0)
        if type(txn_id) is not int or type(session_id) is not int:
            raise TypeError("txn_id and session_id must be integers")
        return Transaction(
            txn_id=txn_id,
            operations=operations,
            session_id=session_id,
            status=TransactionStatus(payload.get("status", "committed")),
            start_ts=payload.get("start_ts"),
            finish_ts=payload.get("finish_ts"),
        )
    except _STRUCTURAL as exc:
        raise _malformed("transaction record", exc) from None


# ----------------------------------------------------------------------
# Streaming JSONL histories
# ----------------------------------------------------------------------
def open_history_stream(path: Union[str, Path]) -> IO[str]:
    """Open a JSONL stream for text reading, gunzipping ``*.gz`` files.

    Compression is detected by content (the two gzip magic bytes), not by
    suffix, so renamed files still open correctly.
    """
    with open(path, "rb") as probe:
        is_gzip = probe.read(2) == b"\x1f\x8b"
    if is_gzip:
        return gzip.open(path, "rt", encoding="utf-8")  # type: ignore[return-value]
    return open(path, "r", encoding="utf-8")


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

    A ``*.gz`` path (or ``compress=True``) writes the stream
    gzip-compressed; every reader in this module decompresses transparently.

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
        initial_transaction: Optional[Transaction] = None,
        initial_keys: Optional[Iterable[str]] = None,
        flush_every: int = 1,
        compress: Optional[bool] = None,
    ) -> None:
        """``initial_keys`` synthesises the header's ``⊥T`` from a key list —
        the convenient form when tailing a live run (serial or concurrent)
        whose workload keys are known before any transaction commits."""
        if flush_every < 1:
            raise ValueError("flush_every must be a positive transaction count")
        if initial_transaction is None and initial_keys is not None:
            initial_transaction = make_initial_transaction(initial_keys)
        if compress is None:
            compress = str(path).lower().endswith(".gz")
        if compress:
            self._fh: IO[str] = gzip.open(path, "wt", encoding="utf-8")  # type: ignore[assignment]
        else:
            self._fh = open(path, "w", encoding="utf-8")
        self._flush_every = flush_every
        self._pending = 0
        header: Dict[str, Any] = {"format": STREAM_FORMAT}
        if initial_transaction is not None:
            header["initial_transaction"] = transaction_to_dict(initial_transaction)
        self._emit(header, force_flush=True)

    def write(self, txn: Transaction) -> None:
        """Append one transaction to the stream."""
        self._emit(transaction_to_dict(txn))

    __call__ = write

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


def write_history_jsonl(
    history: History,
    path: Union[str, Path],
    *,
    order: Optional[Iterable[Transaction]] = None,
) -> None:
    """Write a complete history as a JSONL stream in canonical order.

    ``order`` overrides the default arrival order
    (:func:`repro.core.stream_order`: merged by finish timestamp, falling
    back to round-robin); it must not include the initial transaction,
    which goes into the header.
    """
    if order is not None:
        initial = history.initial_transaction
        history = chain(() if initial is None else (initial,), order)
    write_history(history, path)


def parse_stream_header(line: str) -> Dict[str, Any]:
    """Validate a stream's header line; raises ``ValueError`` when invalid.

    Called by the one reader of the format,
    :class:`~repro.history.files.StreamFollower`.
    """
    if not line.strip():
        raise ValueError("empty history stream (missing header)")
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a {STREAM_FORMAT} stream: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != STREAM_FORMAT:
        raise ValueError(f"not a {STREAM_FORMAT} stream")
    return header


def iter_history_jsonl(path: Union[str, Path]) -> Iterator[Transaction]:
    """Lazily yield the transactions of a JSONL stream, ``⊥T`` first.

    The file is read line by line, so arbitrarily long streams can be
    verified in bounded memory with the streaming checker's window mode.
    Reading follows :class:`~repro.history.files.StreamFollower`'s rules; a
    stream that ends torn — a final line without its newline that does not
    parse, or a gzip member cut short — yields its complete prefix and a
    ``UserWarning`` (use ``repro watch`` to keep following instead).
    """
    with StreamFollower(path) as follower:
        yield from follower.records()
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
