"""One door for history files: what a path holds, how to read and write it.

Three containers hold the same rows (see :mod:`repro.history`); whatever
depends on *which* one a path names is decided here, once, and the JSONL
stream's reader (:class:`StreamFollower`) and writer
(:class:`HistoryStreamWriter`) live here too.  The byte helpers every
on-disk artefact shares live below in :mod:`repro.ondisk`; the epoch log
imports this module, so it is reached only inside functions.
"""

from __future__ import annotations

import gzip
import json
import os
import warnings
from itertools import islice
from pathlib import Path
from typing import IO, Any, Dict, Iterable, Iterator, Optional, Union

from ..core.model import History, Transaction, make_initial_transaction, stream_order
from ..ondisk import atomic_write
from .columnar import ColumnarHistory, build_record, is_segment_path, parse_record, transaction_row

__all__ = [
    "HistoryStreamWriter",
    "StreamFollower",
    "history_format",
    "is_epochlog_path",
    "is_stream_path",
    "load_columns",
    "read_segments",
    "write_history",
]

#: Rows per segment when a JSONL stream is read as segments.
STREAM_SEGMENT_ROWS = 1024
STREAM_FORMAT = "repro-history-stream-v1"


# ----------------------------------------------------------------------
# The door
# ----------------------------------------------------------------------
def history_format(path: Union[str, Path]) -> str:
    """What ``path`` holds, asked in this order: an existing directory or a
    ``.epochs`` name is a ``"log"``, ``.seg[.gz]`` a ``"segment"``, ``.jsonl`` /
    ``.ndjson`` (``[.gz]``) a ``"stream"``; any other path is refused
    (``ValueError`` naming it and the three containers)."""
    if is_epochlog_path(path):
        return "log"
    if is_segment_path(path):
        return "segment"
    if is_stream_path(path):
        return "stream"
    raise ValueError(
        f"{path}: not a history container; a history is a .jsonl[.gz] stream, "
        "a .seg[.gz] columnar segment or an .epochs/ epoch-log directory"
    )


def is_epochlog_path(path: Union[str, Path]) -> bool:
    """Whether ``path`` denotes an epoch-log directory.

    True for the conventional ``*.epochs`` suffix (even before the
    directory exists — output paths) and for any existing directory.
    """
    p = Path(path)
    return p.name.lower().endswith(".epochs") or p.is_dir()


def is_stream_path(path: Union[str, Path]) -> bool:
    """Whether ``path`` looks like a JSONL history stream (by suffix).

    Gzip-compressed streams (``*.jsonl.gz`` / ``*.ndjson.gz``) count: the
    stream reader, :class:`StreamFollower`, decompresses transparently.
    """
    name = Path(path).name.lower()
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    return name.endswith((".jsonl", ".ndjson"))


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


def read_segments(path: Union[str, Path]) -> Iterator[ColumnarHistory]:
    """Yield the history at ``path`` as columnar segments in arrival order:
    a ``.seg`` is one, an epoch log yields its epochs, a stream is read
    lazily, :data:`STREAM_SEGMENT_ROWS` rows at a time."""
    kind = history_format(path)
    if kind == "log":
        for _entry, segment in _open_log(path).iter_segments():
            yield segment
    elif kind == "segment":
        yield ColumnarHistory.load(path)
    else:
        with StreamFollower(path) as follower:
            yield from iter(follower.poll, None)
            follower.warn()


def load_columns(path: Union[str, Path]) -> ColumnarHistory:
    """The history at ``path`` as one set of columns, for a batch check: its
    :func:`read_segments` joined."""
    return ColumnarHistory.join(read_segments(path))


def write_history(
    source: Union[History, ColumnarHistory, Iterable[ColumnarHistory]],
    path: Union[str, Path],
    *,
    epoch_transactions: int = 1024,
) -> int:
    """Write ``source`` in the container ``path`` names; return the rows written.

    ``source`` is a :class:`History` (written in ``stream_order``), columns,
    or the segments of one history in arrival order (:func:`read_segments`).
    Rows go from columns to the destination; only a ``History`` written as a
    stream is written from its objects, so its integer stamps stay integers.
    A write is all or nothing: a segment or stream is staged and published
    with one rename (:func:`~repro.ondisk.atomic_write`), and a log directory
    this call created is removed when the source is refused part-way (an
    empty one is emptied again); any other existing log destination is
    refused (``EpochLogError``) before the source is read.
    """
    from .epochlog import EpochLogError, EpochLogWriter

    kind = history_format(path)
    if kind == "log" and os.path.exists(path) and (not os.path.isdir(path) or os.listdir(path)):
        raise EpochLogError(f"{path}: already exists; a history is written into a new epoch log only")
    if isinstance(source, History):
        if kind == "stream":
            rows = list(stream_order(source))
            initial = source.initial_transaction

            def stage(raw) -> None:
                with HistoryStreamWriter(path, initial_transaction=initial, flush_every=1024, into=raw) as out:
                    for txn in rows[initial is not None :]:
                        out.write(txn)

            atomic_write(path, stage)
            return len(rows)
        source = ColumnarHistory.from_history(source)
    segments = iter((source,) if isinstance(source, ColumnarHistory) else source)
    if kind == "segment":
        columns = ColumnarHistory.join(segments)
        columns.save(path)
        return columns.num_transactions
    # Read before the destination is opened: a missing or corrupt source
    # fails without creating a log directory or a staging file.
    first = next(segments, ColumnarHistory())
    lo = int(kind == "stream" and first.has_initial)  # a stream's ⊥T is its header's
    rows = [len(first)]

    def copy(writer) -> None:
        with writer:
            writer.extend(first, lo)
            for segment in segments:
                writer.extend(segment)
                rows.append(len(segment))

    if kind == "stream":
        header = build_record(first.row_at(0)) if lo else None
        atomic_write(
            path,
            lambda raw: copy(HistoryStreamWriter(path, initial_transaction=header, flush_every=1024, into=raw)),
        )
        return sum(rows)
    existed = os.path.exists(path)  # then it is an empty directory
    try:
        copy(EpochLogWriter(path, epoch_transactions=epoch_transactions))
    except BaseException:  # epochs sealed before the source was refused
        import shutil

        shutil.rmtree(path, ignore_errors=True)
        if existed:
            os.mkdir(path)
        raise
    return sum(rows)


# ----------------------------------------------------------------------
# Following a JSONL stream
# ----------------------------------------------------------------------
class StreamFollower:
    """Tail a JSONL history stream — the one reader of the format.

    The header is checked on construction (``ValueError`` naming the path).
    A line is a record once its newline has arrived; blank lines are
    skipped; an unterminated tail stays pending (:attr:`pending_bytes`)
    until it parses.  A gzip stream cut mid-member cannot be resumed: its
    complete prefix is delivered, then ``done`` turns true.  ``repro watch``
    asks it what it asks an ``EpochLog``: :meth:`poll`, :meth:`refresh`,
    ``position``, ``lag``, ``done``.
    """

    #: A stream has no sealed-but-unread backlog: what is readable is read.
    lag = 0

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = path
        #: Segments handed out by :meth:`poll`.
        self.position = 0
        #: Nothing more can ever be read (torn gzip member).
        self.done = False
        self._pending = ""
        with open(path, "rb") as probe:  # gzip by content, not by suffix
            gzipped = probe.read(2) == b"\x1f\x8b"
        self._fh = gzip.open(path, "rt", encoding="utf-8") if gzipped else open(path, encoding="utf-8")
        try:
            line = self._fh.readline()
            if not line.strip():
                raise ValueError("empty history stream (missing header)")
            try:
                header = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"not a {STREAM_FORMAT} stream: {exc}") from None
            if not isinstance(header, dict) or header.get("format") != STREAM_FORMAT:
                raise ValueError(f"not a {STREAM_FORMAT} stream")
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

    def _records(self) -> Iterator[object]:
        """Yield the records readable right now, parsed, ``⊥T`` first, then
        stop."""
        if self._initial is not None:
            initial, self._initial = self._initial, None
            yield initial
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
                yield payload
            elif line.endswith("\n"):
                self._pending = ""
            if not chunk:
                return

    def poll(self) -> Optional[ColumnarHistory]:
        """The newly readable records (at most :data:`STREAM_SEGMENT_ROWS`),
        parsed into one segment's columns, else ``None``."""
        segment = ColumnarHistory()
        try:
            for record in islice(self._records(), STREAM_SEGMENT_ROWS):
                segment.append_row(*parse_record(record))
        except json.JSONDecodeError:
            if not segment.num_transactions:
                raise
            # The rows before a malformed line are verified first; the line
            # is still pending, so the next poll raises.
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


# ----------------------------------------------------------------------
# Writing a JSONL stream
# ----------------------------------------------------------------------
class HistoryStreamWriter:
    """Append-only writer for the JSONL history stream format.

    Emits the header on construction and one line per transaction after
    that, flushing so a concurrent ``repro watch`` (or any
    :class:`StreamFollower`) sees transactions as soon as they commit.
    Usable as a context manager; ``on_transaction=writer.write`` tails a
    live run.

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
    :meth:`extend` appends rows straight from columns.  ``into`` is an open
    binary file to write the stream for ``path`` into instead of ``path``
    itself — the staging file of :func:`~repro.ondisk.atomic_write`, which
    publishes a whole stream with one rename; :meth:`close` leaves it open.

    Example:
        >>> import tempfile, os
        >>> from repro import Transaction, read, write
        >>> path = os.path.join(tempfile.mkdtemp(), "stream.jsonl")
        >>> with HistoryStreamWriter(path) as writer:
        ...     writer.write(Transaction(1, [read("x", 0), write("x", 1)]))
        >>> len(load_columns(path))
        1
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        initial_transaction: Union[Transaction, Dict[str, Any], None] = None,
        initial_keys: Optional[Iterable[str]] = None,
        flush_every: int = 1,
        into: Optional[IO[bytes]] = None,
    ) -> None:
        """``initial_keys`` synthesises the header's ``⊥T`` from a key list —
        the convenient form when tailing a live run (serial or concurrent)
        whose workload keys are known before any transaction commits."""
        if flush_every < 1:
            raise ValueError("flush_every must be a positive transaction count")
        if initial_transaction is None and initial_keys is not None:
            initial_transaction = make_initial_transaction(initial_keys)
        compress = str(path).lower().endswith(".gz")
        if into is None:
            self._fh: IO[bytes] = gzip.open(path, "wb") if compress else open(path, "wb")
        else:  # a gzip member is named after ``path``, not the file it goes through
            self._fh = gzip.GzipFile(str(path), "wb", fileobj=into) if compress else into
        self._into = into
        self._flush_every = flush_every
        self._pending = 0
        header: Dict[str, Any] = {"format": STREAM_FORMAT}
        if isinstance(initial_transaction, Transaction):
            initial_transaction = build_record(transaction_row(initial_transaction))
        if initial_transaction is not None:
            header["initial_transaction"] = initial_transaction
        self._emit(header, force_flush=True)

    def write(self, txn: Transaction) -> None:
        """Append one transaction to the stream."""
        self._emit(build_record(transaction_row(txn)))

    def extend(self, columns: ColumnarHistory, lo: int = 0) -> None:
        """Append rows ``lo:`` of ``columns`` to the stream."""
        for row in range(lo, len(columns)):
            self._emit(build_record(columns.row_at(row)))

    def _emit(self, payload: Dict[str, Any], *, force_flush: bool = False) -> None:
        self._fh.write(json.dumps(payload, separators=(",", ":")).encode() + b"\n")
        self._pending += 1
        if force_flush or self._pending >= self._flush_every:
            self._fh.flush()
            self._pending = 0

    def flush(self) -> None:
        """Flush buffered lines to the OS immediately."""
        self._fh.flush()
        self._pending = 0

    def close(self) -> None:
        if self._fh is self._into:
            self._fh.flush()  # the staging file is atomic_write's to close
        else:
            self._fh.close()  # over a staging file: only the gzip trailer

    def __enter__(self) -> "HistoryStreamWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
