"""One door for history files: what a path holds, how to read and write it.

Four containers hold the same rows (see :mod:`repro.history`); whatever
depends on *which* one a path names is decided here, once:
:func:`history_format` (the classification rule), :func:`read_segments` /
:func:`load_columns` (any history as columnar segments, streamed or as one
batch), :func:`write_history` (into any container) and
:class:`StreamFollower` (the JSONL tail behind ``repro watch`` and
:func:`~repro.history.serialization.iter_history_jsonl`).

Underneath sit the byte helpers every on-disk artefact shares:
:func:`atomic_write` (staging file + fsync + rename) and :func:`frame` /
:func:`unframe` (magic line + JSON header + CRC-32 payload).  The container
modules import those, so this module reaches them only inside functions.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from itertools import chain, islice
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, Optional, Tuple, Union

from ..core.model import History, Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.index import HistoryIndex
    from .columnar import ColumnarHistory

__all__ = [
    "StreamFollower",
    "atomic_write",
    "frame",
    "history_format",
    "load_columns",
    "read_segments",
    "unframe",
    "write_history",
]

#: Rows per segment when a JSONL stream is read as segments.
STREAM_SEGMENT_ROWS = 1024


# ----------------------------------------------------------------------
# Bytes: atomic publish and the magic + header + CRC frame
# ----------------------------------------------------------------------
def atomic_write(
    path: Union[str, Path], data: Union[bytes, Callable[[IO[bytes]], object]]
) -> None:
    """Publish ``data`` at ``path``: staging file, fsync, ``os.replace``.

    A reader sees the previous file or the new one, never a torn one; a
    failed write (full disk, file-size limit) leaves the previous file
    alone.  ``data`` is the bytes, or a callable that streams them into the
    open staging file — ``.{name}.tmp`` beside ``path``, the name the epoch
    log sweeps after a kill; removed when the write raises.
    ``EpochLogWriter.seal`` alone spells these steps out (failpoints between).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            if callable(data):
                data(fh)
            else:
                fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def frame(
    magic: bytes, header: Dict[str, Any], payload: bytes, *, sort_keys: bool = False
) -> bytes:
    """``magic`` + one JSON header line + ``payload``; the header gains the
    payload's ``crc32`` and ``payload_bytes``, which :func:`unframe` verifies."""
    stamped = {**header, "crc32": zlib.crc32(payload), "payload_bytes": len(payload)}
    line = json.dumps(stamped, separators=(",", ":"), sort_keys=sort_keys)
    return magic + line.encode("utf-8") + b"\n" + payload


def unframe(magic: bytes, blob: bytes) -> Optional[Tuple[Dict[str, Any], bytes]]:
    """``(header, payload)`` of a :func:`frame` blob, or ``None`` for every way
    the bytes can be wrong: other magic, torn or non-object header, payload
    shorter or longer than recorded, CRC mismatch — a miss, never an error."""
    if not blob.startswith(magic):
        return None
    header_line, _, payload = blob[len(magic):].partition(b"\n")
    try:
        header = json.loads(header_line)
    except ValueError:
        return None
    if (
        not isinstance(header, dict)
        or header.get("payload_bytes") != len(payload)
        or header.get("crc32") != zlib.crc32(payload)
    ):
        return None
    return header, payload


# ----------------------------------------------------------------------
# The door
# ----------------------------------------------------------------------
def history_format(path: Union[str, Path]) -> str:
    """What ``path`` holds: ``"log"``, ``"segment"``, ``"stream"`` or ``"document"``.

    The one classification rule, in this order: an existing directory or a
    ``.epochs`` name is an epoch log; ``.seg[.gz]`` a segment; ``.jsonl`` /
    ``.ndjson`` (``[.gz]``) a stream; anything else a JSON document.
    """
    from .columnar import is_segment_path
    from .epochlog import is_epochlog_path
    from .serialization import is_stream_path

    if is_epochlog_path(path):
        return "log"
    if is_segment_path(path):
        return "segment"
    return "stream" if is_stream_path(path) else "document"


def _open_log(path: Union[str, Path]):
    """The epoch log at ``path``, refused when window GC retired part of it."""
    from .epochlog import EpochLog, EpochLogError

    log = EpochLog.open_existing(path)
    if log.retired_through >= 0:
        raise EpochLogError(
            f"{path}: epochs 0..{log.retired_through} were retired by window "
            "GC, so the full history is no longer on disk; use `repro watch` "
            "to resume from a checkpoint"
        )
    return log


def read_segments(path: Union[str, Path]) -> Iterator["ColumnarHistory"]:
    """Yield the history at ``path`` as columnar segments in arrival order.

    A document or a ``.seg`` (memory-mapped unless gzipped) is one segment,
    an epoch log yields its epochs, a stream is read lazily and cut every
    :data:`STREAM_SEGMENT_ROWS` rows.  ``⊥T``, if any, is row 0 of the first.
    """
    from .columnar import ColumnarHistory
    from .serialization import load_history

    kind = history_format(path)
    if kind == "log":
        for _entry, segment in _open_log(path).iter_segments():
            yield segment
    elif kind == "segment":
        yield ColumnarHistory.load(path, mmap=_mappable(path))
    elif kind == "stream":
        with StreamFollower(path) as follower:
            yield from iter(follower.poll, None)
            follower.warn()
    else:
        yield ColumnarHistory.from_history(load_history(path))


def load_columns(
    path: Union[str, Path],
) -> Tuple["ColumnarHistory", Optional["HistoryIndex"], Optional[str]]:
    """The history at ``path`` for a batch check: ``(columns, index, source_path)``.

    ``index`` is an epoch log's batch index — from ``INDEX.cache`` while that
    matches the manifest, else built and cached for the next check — and
    ``None`` elsewhere.  ``source_path`` names an uncompressed (hence
    memory-mapped) segment: sharded checks ship ``(path, rows)`` references.
    """
    from ..core.index import HistoryIndex
    from .columnar import ColumnarHistory
    from .serialization import iter_history_jsonl

    kind = history_format(path)
    if kind == "log":
        log = _open_log(path)
        columns = log.to_columns()
        index = log.cached_index(columns)
        if index is None:
            index = HistoryIndex.from_columns(columns)
            log.cache_index(index)
        return columns, index, None
    if kind == "stream":
        return ColumnarHistory.from_transactions(iter_history_jsonl(path)), None, None
    (columns,) = read_segments(path)
    return columns, None, str(path) if kind == "segment" and _mappable(path) else None


def _mappable(path: Union[str, Path]) -> bool:
    """Uncompressed segments are memory-mapped: copy-free load, shared pages."""
    return not str(path).lower().endswith(".gz")


def write_history(
    source: Union[History, "ColumnarHistory", Iterable[Transaction]],
    path: Union[str, Path],
    *,
    epoch_transactions: int = 1024,
) -> int:
    """Write ``source`` in the container ``path`` names; return the rows written.

    ``source`` is a :class:`History` (written in
    :func:`~repro.core.incremental.stream_order`; a document saves it as
    is), a :class:`ColumnarHistory`, or transactions in arrival order, ``⊥T``
    first — which a stream carries in its header.
    """
    from ..core.incremental import stream_order
    from .columnar import ColumnarHistory
    from .epochlog import EpochLogWriter
    from .serialization import HistoryStreamWriter, save_history

    kind = history_format(path)
    if isinstance(source, History):
        if kind == "document":
            save_history(source, path)
            return len(source.transactions())
        source = stream_order(source)
    if kind in ("segment", "document"):
        if not isinstance(source, ColumnarHistory):
            source = ColumnarHistory.from_transactions(source)
        if kind == "segment":
            source.save(path)
        else:
            save_history(source.to_history(), path)
        return source.num_transactions
    if isinstance(source, ColumnarHistory):
        source = source.iter_transactions()
    transactions = iter(source)
    rows = 0
    if kind == "log":
        with EpochLogWriter(path, epoch_transactions=epoch_transactions) as log:
            for rows, txn in enumerate(transactions, 1):
                log.append(txn)
        return rows
    first = next(transactions, None)
    initial = first if first is not None and first.is_initial else None
    if first is not initial:
        transactions = chain((first,), transactions)
    with HistoryStreamWriter(
        path, initial_transaction=initial, flush_every=1024
    ) as stream:
        for rows, txn in enumerate(transactions, 1):
            stream.write(txn)
    return rows + (initial is not None)


# ----------------------------------------------------------------------
# Following a JSONL stream
# ----------------------------------------------------------------------
class StreamFollower:
    """Tail a JSONL history stream: each :meth:`poll` is what arrived since.

    The one reader of the format.  The header is checked on construction
    (``ValueError`` naming the path).  After that a line is a record once
    its newline has arrived, blank lines are skipped, and an unterminated
    tail is a record as soon as it parses (a complete last line lacking its
    newline) and stays pending (:attr:`pending_bytes`) until then.  A gzip
    stream cut mid-member cannot be resumed: the complete prefix is
    delivered, then ``done`` turns true and polls return ``None``.
    ``repro watch`` asks it what it asks an ``EpochLog``: :meth:`poll`,
    :meth:`refresh`, ``position``, ``lag``, ``done``.
    """

    #: A stream has no sealed-but-unread backlog: what is readable is read.
    lag = 0

    def __init__(self, path: Union[str, Path]) -> None:
        from .serialization import open_history_stream, parse_stream_header

        self.path = path
        #: Segments handed out by :meth:`poll`.
        self.position = 0
        #: Nothing more can ever be read (torn gzip member).
        self.done = False
        self._pending = ""
        self._fh = open_history_stream(path)
        try:
            header = parse_stream_header(self._fh.readline())
        except EOFError:
            # A gzip member cut off before its end-of-stream marker — the
            # producer is still writing (or the copy was truncated).
            self._fh.close()
            raise ValueError(f"{path}: truncated compressed stream (no header)") from None
        except ValueError as exc:
            self._fh.close()
            raise ValueError(f"{path}: {exc}") from None
        self._initial = header.get("initial_transaction")

    @property
    def pending_bytes(self) -> int:
        """Length of the unterminated, not-yet-parseable tail (0 when none)."""
        return len(self._pending) if self._pending.strip() else 0

    def records(self) -> Iterator[Transaction]:
        """Yield the records readable right now, ``⊥T`` first, then stop."""
        from .serialization import transaction_from_dict

        if self._initial is not None:
            initial, self._initial = self._initial, None
            yield transaction_from_dict(initial)
        while not self.done:
            try:
                chunk = self._fh.readline()
            except EOFError:
                self.done = True
                return
            line = self._pending = self._pending + chunk
            if line.strip():
                if chunk and not line.endswith("\n"):
                    continue  # the rest of the line may already be readable
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    if line.endswith("\n"):
                        raise
                    return  # torn tail: pending until the producer completes it
                self._pending = ""
                yield transaction_from_dict(payload)
            elif line.endswith("\n"):
                self._pending = ""
            if not chunk:
                return

    def poll(self, rows: int = STREAM_SEGMENT_ROWS) -> Optional["ColumnarHistory"]:
        """Up to ``rows`` newly readable records as one segment, else ``None``."""
        from .columnar import ColumnarHistory

        segment = ColumnarHistory.from_transactions(islice(self.records(), rows))
        if not segment.num_transactions:
            return None
        self.position += 1
        return segment

    def refresh(self) -> None:
        """Raise ``ValueError`` when the file is gone: the open handle keeps it
        readable on POSIX, but no producer can ever append to it again."""
        if not os.path.exists(self.path):
            raise ValueError(
                f"{self.path}: stream deleted while being followed; "
                "stopping at the last complete transaction"
            )

    def warn(self) -> None:
        """``UserWarning`` for a stream that ended torn (one-shot readers)."""
        if self.done:
            warnings.warn(
                f"{self.path}: compressed stream truncated mid-member "
                f"(producer still writing?); stopping at the last "
                f"complete transaction",
                stacklevel=3,
            )
        if self.pending_bytes:
            warnings.warn(
                f"{self.path}: skipping torn final line "
                f"({self.pending_bytes} bytes without a newline)",
                stacklevel=3,
            )

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "StreamFollower":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
