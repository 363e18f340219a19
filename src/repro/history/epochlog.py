"""Durable epoch log: a crash-safe, resumable multi-segment history store.

A single ``.seg`` segment (:mod:`repro.history.columnar`) is written
atomically at close — perfect for archived histories, useless for an
always-on verification service that must survive restarts.  The epoch log
promotes the segment to a *directory*:

* ``epoch-NNNNN.seg`` (optionally ``.seg.gz``) — immutable columnar
  segments of ``epoch_transactions`` rows each, sealed atomically
  (written to a temp file, fsynced, renamed into place);
* ``MANIFEST.log`` — the commit record, append-only: a header line, then
  one CRC-prefixed line per sealed epoch with its row/operation counts,
  transaction-id range, CRC-32, byte size and the wall clock of the seal.
  A seal appends and fsyncs one line, so an epoch is *sealed* exactly when
  its record lands; a torn last line is not a record.  The file is only
  ever rewritten (on a new inode) by a writer's open-time recovery, and the
  writer holds an exclusive ``flock`` on it for as long as it lives;
* ``checkpoint-NNNNN.ckpt`` — verifier-side snapshots of
  :meth:`repro.core.incremental.IncrementalChecker.checkpoint`, CRC-framed
  typed columns in deflated byte planes, so a restarted verifier resumes
  mid-log instead of replaying from epoch 0;
* ``RETIRED`` — the window-GC watermark: epochs up to this number have
  been ingested, checkpointed, and aged out of the verifier's bounded
  window, and their files may be deleted.

Recovery is *prefix-based*: :meth:`EpochLog.open` accepts the longest
prefix of epochs that exists, has the recorded size, and (on load) matches
its CRC.  A writer killed at any byte offset therefore loses at most the
epoch it was buffering — never a sealed one.  An epoch file sealed on disk
whose manifest record did not land (the one-crash window between the
rename and the append) is adopted back by reading the file itself; a torn,
corrupt or missing manifest is rebuilt the same way from where its valid
prefix ends.  Checkpoints are independent of this:
a half-written checkpoint simply fails its CRC and the previous one is
used (the newest two are kept).
"""

from __future__ import annotations

import fcntl
import io
import json
import os
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .. import obs
from ..core.model import Transaction
from ..resilience.failpoints import fail_point
from ..ondisk import atomic_write, frame, pack_columns, unframe, unpack_columns
from .columnar import ColumnarHistory
from .files import is_epochlog_path

__all__ = [
    "EpochInfo",
    "EpochLog",
    "EpochLogError",
    "EpochLogWriter",
    "CheckpointInfo",
    "is_epochlog_path",
    "MANIFEST_NAME",
    "RETIRED_NAME",
    "EPOCHLOG_FORMAT",
]

EPOCHLOG_FORMAT = "repro-epoch-log-v2"
CHECKPOINT_FILE_FORMAT = "repro-epoch-checkpoint-v2"
MANIFEST_NAME = "MANIFEST.log"
#: The rewritten JSON manifest of ``repro-epoch-log-v1``: refused by name.
_V1_MANIFEST_NAME = "MANIFEST.json"
_MANIFEST_HEADER = b'{"format":"%s"}\n' % EPOCHLOG_FORMAT.encode("ascii")
RETIRED_NAME = "RETIRED"
CHECKPOINT_MAGIC = b"REPROCKPT1\n"
_EPOCH_PREFIX = "epoch-"
_EPOCH_DIGITS = 5
#: Checkpoints retained per log: the newest plus one fallback, so a crash
#: mid-checkpoint-write never strands the verifier without a valid one.
_CHECKPOINTS_KEPT = 2
#: How often a writer asks for the manifest lock before it concludes that the
#: holder is another writer: a reader's sweep holds it shared for the length
#: of one directory listing.
_LOCK_ATTEMPTS = 5


class EpochLogError(ValueError):
    """An epoch log directory is unusable for the requested operation."""


@dataclass(frozen=True)
class EpochInfo:
    """Manifest record of one sealed epoch segment."""

    epoch: int
    name: str
    transactions: int
    operations: int
    min_txn_id: int
    max_txn_id: int
    crc32: int
    size_bytes: int
    #: Wall clock of the seal in ms since the Unix epoch (the file's
    #: modification time when the entry was adopted from the file).
    sealed_at: int = 0
    #: Dropped by window GC: the file may no longer exist on disk.
    retired: bool = False


@dataclass(frozen=True)
class CheckpointInfo:
    """A decoded verifier checkpoint: stream position plus checker state."""

    #: Epochs fully ingested when the snapshot was taken (resume point).
    epochs: int
    #: Rows ingested at snapshot time, ``⊥T`` excluded and aborted or
    #: ``UNKNOWN`` rows included: ``repro watch`` numbers its ``[txn #N]``
    #: labels on from it.  The committed count is the restored checker's.
    transactions: int
    path: Path
    #: The :meth:`IncrementalChecker.checkpoint` state dictionary.
    state: Dict[str, Any]


# ----------------------------------------------------------------------
# Shared low-level helpers
# ----------------------------------------------------------------------
#: What the log's own file names start with: only their ``.{name}.tmp`` staging
#: files are swept — the directory may hold files that are not the log's.
_OWN_NAMES = (_EPOCH_PREFIX, "checkpoint-", MANIFEST_NAME, RETIRED_NAME)


def _sweep_stale_tmp(directory: Path) -> int:
    """Remove orphaned staging files left by a crash mid-seal.

    Every atomic write in the log uses a ``.{name}.tmp`` staging file; a
    writer killed between the write and the rename strands it.  Stranded
    temp files are never part of the recoverable prefix (recovery only
    reads published names), so the only question is hygiene: without this
    sweep they accumulate forever.  Only ever called by whoever holds the
    manifest lock, or found no manifest to lock (:class:`EpochLogWriter`,
    :func:`_sweep_unless_writer_is_live`) — a live writer's in-flight staging
    file is not stale.
    """
    swept = 0
    for tmp in directory.glob(".*.tmp"):
        if not tmp.name[1:].startswith(_OWN_NAMES):
            continue
        try:
            tmp.unlink()
            swept += 1
        except OSError:
            pass  # concurrent sweep or permissions: hygiene is best-effort
    if swept:
        obs.inc("repro_epochlog_tmp_swept_total", swept)
    return swept


def _flock_current(fh: IO[bytes], path: Path, how: int) -> bool:
    """Take ``flock(how)`` on ``fh`` without waiting; whether it was granted
    and ``fh`` is still the file at ``path`` (a lock on a manifest that a
    writer has since replaced excludes nobody)."""
    try:
        fcntl.flock(fh, how | fcntl.LOCK_NB)
        return os.fstat(fh.fileno()).st_ino == os.stat(path).st_ino
    except OSError:  # BlockingIOError: held the other way; or ``path`` is gone
        return False


def _sweep_unless_writer_is_live(directory: Path) -> None:
    """A reader's crash hygiene: sweep while holding the manifest shared,
    which a live writer's exclusive lock refuses.  A killed writer's lock
    died with it; no manifest means no writer got as far as staging a file."""
    path = directory / MANIFEST_NAME
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        _sweep_stale_tmp(directory)
        return
    with fh:
        if _flock_current(fh, path, fcntl.LOCK_SH):
            _sweep_stale_tmp(directory)


def _open_owned(path: Path) -> IO[bytes]:
    """The manifest at ``path``, opened for appending (created when missing,
    so that there is something to lock before the first one is published)
    with the writer's exclusive lock held until the file is closed."""
    fh = open(path, "ab", buffering=0)
    for _attempt in range(_LOCK_ATTEMPTS):
        if _flock_current(fh, path, fcntl.LOCK_EX):
            return fh
        time.sleep(0.01)
    fh.close()
    raise EpochLogError(f"{path.parent}: another writer holds this log")


def _refuse_v1(directory: Path) -> None:
    """Raise for a ``repro-epoch-log-v1`` directory: there is no reader for it."""
    if (directory / _V1_MANIFEST_NAME).exists() and not (directory / MANIFEST_NAME).exists():
        raise EpochLogError(
            f"{directory}: {_V1_MANIFEST_NAME} is the manifest of the older "
            f"repro-epoch-log-v1 layout, which this version does not read; "
            f"delete it and the manifest is rebuilt from the epoch files "
            f"(not possible for a log whose first epochs were retired)"
        )


class _Crc32Writer:
    """The staging file as :meth:`ColumnarHistory.dump` sees it: counts and
    checksums the bytes on their way through, so nothing is read back."""

    def __init__(self, fh: IO[bytes]) -> None:
        self._fh = fh
        self.name = fh.name
        self.crc32 = 0
        self.size = 0

    def write(self, data: bytes) -> int:
        self.crc32 = zlib.crc32(data, self.crc32)
        written = self._fh.write(data)
        self.size += written
        return written

    def flush(self) -> None:
        self._fh.flush()


def _epoch_file_names(epoch: int) -> Tuple[str, str]:
    base = f"{_EPOCH_PREFIX}{epoch:0{_EPOCH_DIGITS}d}.seg"
    return base, base + ".gz"


def _entry_from_file(directory: Path, epoch: int, name: str) -> EpochInfo:
    """Rebuild a manifest entry by reading the epoch file itself.

    Raises ``ValueError`` when the file is torn/corrupt — the caller treats
    that as the end of the recoverable prefix.
    """
    path = directory / name
    with open(path, "rb") as fh:
        data, stat = fh.read(), os.fstat(fh.fileno())
    segment = ColumnarHistory.read(io.BytesIO(data), path)  # validates structure
    txn_ids = segment.txn_ids
    return EpochInfo(
        epoch=epoch,
        name=name,
        transactions=segment.num_transactions,
        operations=segment.num_operations,
        min_txn_id=min(txn_ids),
        max_txn_id=max(txn_ids),
        crc32=zlib.crc32(data),
        size_bytes=len(data),
        sealed_at=stat.st_mtime_ns // 1_000_000,
    )


def _read_retired(directory: Path) -> int:
    """The retirement watermark (epoch number), or ``-1`` when absent/torn."""
    try:
        return int((directory / RETIRED_NAME).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return -1


# ----------------------------------------------------------------------
# Manifest records
# ----------------------------------------------------------------------
#: A record is a JSON array of :class:`EpochInfo`'s integer fields in their
#: declared order (``epoch`` .. ``sealed_at``), then 1 when the segment is
#: gzipped.  The file name is not stored: it is the epoch number plus that flag.
_RECORD_FIELDS = 9


def _encode_record(entry: EpochInfo) -> bytes:
    """One manifest line: the CRC-32 of the array as eight hex digits, a space, the array."""
    e = entry
    fields = [e.epoch, e.transactions, e.operations, e.min_txn_id, e.max_txn_id,
              e.crc32, e.size_bytes, e.sealed_at, int(e.name.endswith(".gz"))]
    body = json.dumps(fields, separators=(",", ":")).encode("ascii")
    return b"%08x %s\n" % (zlib.crc32(body), body)


def _decode_record(line: bytes) -> Optional[EpochInfo]:
    """The entry on one newline-terminated manifest line, or ``None`` when the
    line fails its CRC or is not what :func:`_encode_record` writes."""
    crc, _, body = line.partition(b" ")
    try:
        if int(crc, 16) != zlib.crc32(body):
            return None
        fields = json.loads(body)
        if len(fields) != _RECORD_FIELDS or any(type(field) is not int for field in fields):
            return None
    except (ValueError, TypeError):
        return None
    epoch, *counts, gz = fields
    return EpochInfo(epoch, _epoch_file_names(epoch)[bool(gz)], *counts)


def _parse_records(data: bytes, start: int, epoch: int) -> Tuple[List[EpochInfo], int, bool]:
    """The valid records of ``data`` from byte ``start``, which must number
    consecutively from ``epoch``: ``(entries, end, clean)``.  ``end`` is the
    offset just past the last of them.  What follows is either at most an
    unterminated line — a record still being written, or torn by a kill —
    and the manifest is ``clean``, or a whole line that is not the next
    record, and the valid prefix ends at a corruption."""
    entries: List[EpochInfo] = []
    while True:
        newline = data.find(b"\n", start)
        if newline < 0:
            return entries, start, True
        entry = _decode_record(data[start:newline])
        if entry is None or entry.epoch != epoch + len(entries):
            return entries, start, False
        entries.append(entry)
        start = newline + 1


#: Where a follower stands in the manifest: ``(inode, validated bytes)``.
_Cursor = Tuple[int, int]


def _read_manifest(directory: Path) -> Tuple[List[EpochInfo], Optional[_Cursor]]:
    """The manifest's valid prefix of records and, when all of the file is
    that prefix (at most a torn line follows), the cursor a follower can
    read on from.  Missing, empty or foreign: no records, no cursor."""
    try:
        with open(directory / MANIFEST_NAME, "rb") as fh:
            inode = os.fstat(fh.fileno()).st_ino
            data = fh.read()
    except OSError:
        return [], None
    if not data.startswith(_MANIFEST_HEADER):
        return [], None
    entries, end, clean = _parse_records(data, len(_MANIFEST_HEADER), 0)
    return entries, (inode, end) if clean else None


def _recover_entries(
    directory: Path, retired_through: int
) -> Tuple[List[EpochInfo], Optional[_Cursor]]:
    """The longest valid epoch prefix of ``directory``.

    Starts from the manifest's valid records (none when it is missing or
    foreign), drops any suffix whose files are missing or truncated, and
    adopts contiguous sealed-but-unrecorded epoch files beyond them.
    Epochs at or below ``retired_through`` are accepted without their files
    (window GC deleted them).  The cursor comes back only when the
    manifest records exactly the accepted epochs.
    """
    recorded, cursor = _read_manifest(directory)
    accepted: List[EpochInfo] = []
    for entry in recorded:
        if entry.epoch <= retired_through:
            accepted.append(replace(entry, retired=True))
            continue
        try:
            if os.stat(directory / entry.name).st_size != entry.size_bytes:
                break  # torn epoch file (partial write surfaced)
        except OSError:
            break  # sealed epoch file missing without retirement
        accepted.append(entry)
    if len(accepted) < len(recorded):
        cursor = None

    # Adopt epoch files sealed on disk whose record never landed (writer
    # killed between the segment rename and the append), or rebuild the
    # whole list when the manifest itself was lost.
    while True:
        nxt = len(accepted)
        raw_name, gz_name = _epoch_file_names(nxt)
        name = None
        if (directory / raw_name).exists():
            name = raw_name
        elif (directory / gz_name).exists():
            name = gz_name
        if name is None:
            break
        try:
            accepted.append(_entry_from_file(directory, nxt, name))
        except (OSError, ValueError):
            # Torn orphan: not sealed, the buffered epoch died with the writer.
            break
        cursor = None
    return accepted, cursor


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class EpochLogWriter:
    """Append transactions; seal immutable epoch segments as they fill.

    The durable counterpart of a
    :class:`~repro.history.columnar.ColumnarHistory` used as a hook and
    saved at the end: instead of one segment written at close,
    transactions are buffered in memory and flushed as an
    ``epoch-NNNNN.seg`` file every ``epoch_transactions`` rows (plus a
    final partial epoch at :meth:`close`).  Each seal is atomic — segment
    temp-file rename, then one record appended to the manifest — so a crash
    at any byte offset loses only the unsealed buffer.

    Opening an existing log directory *appends* to it: recovery first
    accepts the longest valid epoch prefix (adopting sealed files whose
    manifest record was lost) and publishes a fresh manifest to match.  The
    writer holds an exclusive ``flock`` on the manifest until it is closed
    (or dies), so a second writer on the directory is refused and a reader
    knows not to sweep its staging files.

    Usable directly as an ``on_transaction`` hook (it is callable), like
    every other history sink in the package.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        epoch_transactions: int = 1024,
        compress: bool = False,
        initial_keys: Optional[Iterable[str]] = None,
    ) -> None:
        if epoch_transactions < 1:
            raise ValueError("epoch_transactions must be a positive row count")
        self.directory = Path(directory)
        self.epoch_transactions = epoch_transactions
        self.compress = compress
        self._closed = False
        self.directory.mkdir(parents=True, exist_ok=True)
        _refuse_v1(self.directory)
        self._manifest_path = self.directory / MANIFEST_NAME
        self._manifest = _open_owned(self._manifest_path)
        try:
            _sweep_stale_tmp(self.directory)
            self._entries, _ = _recover_entries(
                self.directory, _read_retired(self.directory)
            )
            self._publish_manifest()
        except BaseException:
            self._manifest.close()
            raise

        self._buffer = ColumnarHistory()
        if initial_keys is not None and not self._entries:  # ⊥T, as make_initial_transaction
            self._buffer.seed_initial(sorted(set(initial_keys)))

    @property
    def epochs_sealed(self) -> int:
        return len(self._entries)

    def _publish_manifest(self) -> None:
        """Rewrite the manifest to record exactly ``_entries``, and move the
        lock to it.  The new file is a new inode, which is how a live
        follower learns that its offset into the old one means nothing."""
        atomic_write(
            self._manifest_path,
            _MANIFEST_HEADER + b"".join(map(_encode_record, self._entries)),
        )
        # Held until the new lock is: the log is never without a locked manifest.
        replaced = self._manifest
        self._manifest = _open_owned(self._manifest_path)
        replaced.close()
        self._manifest_torn = False

    def append(self, txn: Transaction) -> None:
        """Buffer one transaction; seal an epoch when the buffer fills."""
        if self._closed:
            raise ValueError("epoch log writer is closed")
        self._buffer.append(txn)
        if self._buffer.num_transactions >= self.epoch_transactions:
            self.seal()

    __call__ = append

    def extend(self, columns: ColumnarHistory, lo: int = 0) -> None:
        """Buffer rows ``lo:`` of ``columns`` straight from their columns,
        sealing each epoch as it fills: the epochs :meth:`append` seals."""
        if self._closed:
            raise ValueError("epoch log writer is closed")
        rows = len(columns)
        while lo < rows:
            hi = min(rows, lo + self.epoch_transactions - self._buffer.num_transactions)
            self._buffer.extend(columns, lo, hi)
            lo = hi
            if self._buffer.num_transactions >= self.epoch_transactions:
                self.seal()

    def seal(self) -> Optional[EpochInfo]:
        """Flush the buffered rows as one epoch (no-op on an empty buffer).

        The epoch becomes durable in two ordered steps, each fsynced: the
        segment file is renamed into place, then its record is appended to
        the manifest.  Readers treat the record as the commit and adopt the
        file-without-record state on recovery, so a crash between the two
        is indistinguishable from one after.  A seal that raises leaves the
        writer as it was: sealing again writes the same epoch.
        """
        if self._buffer.num_transactions == 0:
            return None
        seal_started = time.perf_counter()
        epoch = len(self._entries)
        name = _epoch_file_names(epoch)[self.compress]
        path = self.directory / name
        # ``atomic_write``'s steps, spelled out: a failpoint sits between
        # each pair of them, and the CRC is taken as the bytes are written.
        tmp = self.directory / f".{name}.tmp"
        with open(tmp, "wb") as fh:
            staged = _Crc32Writer(fh)
            self._buffer.dump(staged, path)
            fail_point("epochlog.seal.tmp_write", path=tmp)
            fsync_started = time.perf_counter()
            fail_point("epochlog.seal.fsync", path=tmp)
            os.fsync(fh.fileno())
        obs.observe(
            "repro_epochlog_fsync_seconds", time.perf_counter() - fsync_started
        )
        fail_point("epochlog.seal.rename", path=tmp)
        os.replace(tmp, path)
        txn_ids = self._buffer.txn_ids
        entry = EpochInfo(
            epoch=epoch,
            name=name,
            transactions=self._buffer.num_transactions,
            operations=self._buffer.num_operations,
            min_txn_id=min(txn_ids),
            max_txn_id=max(txn_ids),
            crc32=staged.crc32,
            size_bytes=staged.size,
            sealed_at=time.time_ns() // 1_000_000,
        )
        self._append_record(_encode_record(entry))
        self._entries.append(entry)
        self._buffer = ColumnarHistory()
        obs.inc("repro_epochlog_epochs_sealed_total")
        obs.inc("repro_epochlog_txns_sealed_total", entry.transactions)
        obs.inc("repro_epochlog_bytes_written_total", entry.size_bytes)
        obs.observe(
            "repro_epochlog_seal_seconds", time.perf_counter() - seal_started
        )
        return entry

    def _append_record(self, record: bytes) -> None:
        """Commit a seal: one ``write`` and one ``fsync`` on the kept manifest.

        An append that failed may have left part of a line behind, and
        nothing written after a bad line is ever read; the next append
        publishes a fresh manifest first.
        """
        if self._manifest_torn:
            self._publish_manifest()
        try:
            fail_point("epochlog.manifest.commit", path=self._manifest_path)
            if self._manifest.write(record) != len(record):
                raise OSError(f"{self._manifest_path}: short write")
            fail_point("epochlog.manifest.fsync", path=self._manifest_path)
            os.fsync(self._manifest.fileno())
        except BaseException:
            self._manifest_torn = True
            raise

    def close(self) -> None:
        """Seal any buffered rows and mark the writer closed (idempotent)."""
        if not self._closed:
            self.seal()
            self._manifest.close()  # and with it the lock
            self._closed = True

    def __enter__(self) -> "EpochLogWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
class EpochLog:
    """Read-side view of an epoch log directory: epochs + checkpoints.

    :meth:`open` performs crash recovery (longest-valid-prefix, see the
    module docstring); :meth:`refresh` reads what a concurrent writer has
    appended to the manifest since, so a live follower picks up the epochs
    it seals, and :meth:`poll` hands them out one at a time.  The
    checkpoint methods store and recover verifier snapshots inside the same
    directory — the epoch log is the one durable artefact a verification
    service needs.
    """

    #: A log has no end marker: a writer may always seal another epoch.
    done = False

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.epochs: List[EpochInfo] = []
        self.retired_through = -1
        #: Epochs handed out by :meth:`poll` (set it to resume mid-log).
        self.position = 0
        self._manifest_path = directory / MANIFEST_NAME
        #: Set while the manifest records exactly ``epochs``: the next
        #: :meth:`refresh` reads on from there instead of recovering.
        self._cursor: Optional[_Cursor] = None

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "EpochLog":
        """Open ``directory``, recovering the longest valid epoch prefix.

        Raises :class:`EpochLogError` when the directory does not exist
        (or is a file) or holds a ``repro-epoch-log-v1`` manifest; an empty
        or not-yet-populated directory opens as a zero-epoch log that
        :meth:`refresh` can follow.
        """
        path = Path(directory)
        if not path.is_dir():
            raise EpochLogError(f"{path}: not an epoch log directory")
        _refuse_v1(path)
        # Crash recovery includes hygiene: a writer killed mid-seal strands
        # its ``.*.tmp`` staging file, which no future seal will ever reuse.
        _sweep_unless_writer_is_live(path)
        log = cls(path)
        log.refresh()
        return log

    @classmethod
    def open_existing(cls, directory: Union[str, Path]) -> "EpochLog":
        """:meth:`open` for readers of a finished history (``repro check`` /
        ``convert``): a directory with neither a manifest nor an epoch segment
        never was a log, and is refused before it is swept."""
        path = Path(directory)
        manifests = (MANIFEST_NAME, _V1_MANIFEST_NAME)
        if path.is_dir() and not any((path / name).exists() for name in manifests):
            if not any(path.glob(f"{_EPOCH_PREFIX}*.seg*")):
                raise EpochLogError(f"{path}: not an epoch log")
        return cls.open(path)

    def __len__(self) -> int:
        return len(self.epochs)

    @property
    def num_transactions(self) -> int:
        """Total rows across sealed epochs (``⊥T`` included when present)."""
        return sum(entry.transactions for entry in self.epochs)

    def refresh(self) -> List[EpochInfo]:
        """Pick up newly sealed epochs; return the new entries.

        While the manifest is the file last read and has only grown, this
        parses the bytes past the remembered offset — a constant number of
        system calls when there are none.  A manifest that was replaced (a
        writer restarted), is missing, or does not continue with the next
        record sends it through full recovery instead.

        Raises :class:`EpochLogError` when the directory disappeared or
        the log regressed (fewer or different epochs than already seen) —
        both mean the follower's position is no longer meaningful.
        """
        retired = _read_retired(self.directory)
        fresh = self._read_appended() if self._cursor else None
        if fresh is None:
            fresh = self._recover(retired)
        else:
            self.epochs += fresh
            last = min(retired, len(self.epochs) - 1)
            for position in range(self.retired_through + 1, last + 1):
                self.epochs[position] = replace(self.epochs[position], retired=True)
        self.retired_through = max(retired, self.retired_through)
        return fresh

    def _read_appended(self) -> Optional[List[EpochInfo]]:
        """The records appended since the cursor, which moves past them;
        ``None`` when the manifest is not the cursor's file plus appended
        records (:meth:`_recover` finds out what it is instead)."""
        inode, offset = self._cursor
        try:
            stat = os.stat(self._manifest_path)
            if stat.st_ino != inode:
                return None
            if stat.st_size == offset:
                return []
            if stat.st_size < offset:
                # Only a writer's recovery shortens the manifest, on a new inode.
                raise EpochLogError(
                    f"{self.directory}: epoch log regressed: {MANIFEST_NAME} "
                    f"shrank from {offset} to {stat.st_size} bytes"
                )
            with open(self._manifest_path, "rb") as fh:
                if os.fstat(fh.fileno()).st_ino != inode:
                    return None
                fh.seek(offset)
                data = fh.read()
        except OSError:
            return None
        entries, end, clean = _parse_records(data, 0, len(self.epochs))
        if not clean:
            return None
        self._cursor = (inode, offset + end)
        return entries

    def _recover(self, retired: int) -> List[EpochInfo]:
        """Full recovery: the longest valid prefix on disk replaces
        :attr:`epochs`, unless it contradicts what was already seen."""
        if not self.directory.is_dir():
            raise EpochLogError(
                f"{self.directory}: epoch log disappeared while following"
            )
        entries, cursor = _recover_entries(self.directory, retired)
        if len(entries) < len(self.epochs):
            raise EpochLogError(
                f"{self.directory}: epoch log regressed from "
                f"{len(self.epochs)} to {len(entries)} epochs"
            )
        for old, new in zip(self.epochs, entries):
            if (old.name, old.crc32) != (new.name, new.crc32) and not new.retired:
                raise EpochLogError(
                    f"{self.directory}: sealed epoch {old.epoch} changed on disk"
                )
        fresh = entries[len(self.epochs):]
        self.epochs, self._cursor = entries, cursor
        return fresh

    @property
    def lag(self) -> int:
        """Sealed epochs :meth:`poll` has not handed out yet."""
        return max(len(self.epochs) - self.position, 0)

    def poll(self) -> Optional[ColumnarHistory]:
        """The next sealed epoch past :attr:`position`, or ``None``.

        Follows what :meth:`open` / :meth:`refresh` last saw — a follower
        alternates ``poll()`` until ``None`` with ``refresh()``, the same
        way it drives a :class:`~repro.history.files.StreamFollower`.
        """
        if self.position >= len(self.epochs):
            return None
        segment = self.load_epoch(self.position)
        self.position += 1
        return segment

    def load_epoch(self, info: Union[int, EpochInfo]) -> ColumnarHistory:
        """Load one epoch segment.

        The file is read once: size and CRC-32 are checked against the
        manifest entry on those bytes, so silent on-disk corruption surfaces
        as :class:`EpochLogError` instead of a wrong verdict, and the bytes
        the manifest vouched for are the bytes parsed.
        """
        entry = self.epochs[info] if isinstance(info, int) else info
        if entry.retired:
            raise EpochLogError(
                f"{self.directory}: epoch {entry.epoch} was retired by window "
                f"GC; resume from a checkpoint past it"
            )
        path = self.directory / entry.name
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise EpochLogError(
                f"{self.directory}: epoch {entry.epoch} unreadable: {exc}"
            ) from None
        if (zlib.crc32(data), len(data)) != (entry.crc32, entry.size_bytes):
            raise EpochLogError(
                f"{self.directory}: epoch {entry.epoch} fails its checksum "
                f"(file {entry.name} corrupted on disk)"
            )
        obs.inc("repro_epochlog_epochs_loaded_total")
        return ColumnarHistory.read(io.BytesIO(data), path)

    def iter_segments(
        self, start_epoch: int = 0
    ) -> Iterator[Tuple[EpochInfo, ColumnarHistory]]:
        """Yield ``(entry, segment)`` for every epoch from ``start_epoch``."""
        for entry in self.epochs[start_epoch:]:
            yield entry, self.load_epoch(entry)

    # ------------------------------------------------------------------
    # Verifier checkpoints
    # ------------------------------------------------------------------
    def save_checkpoint(
        self, state: Dict[str, Any], *, epochs: int, transactions: int
    ) -> Path:
        """Persist a verifier snapshot taken after ``epochs`` whole epochs.

        The file is CRC-framed (a half-written checkpoint fails
        validation and is skipped by :meth:`checkpoints`), written
        atomically, and the newest two checkpoints are kept.  The payload
        is ``state`` packed by :func:`repro.ondisk.pack_columns` — its typed
        columns as deflated byte planes — at the packer's one deflate level
        (:data:`repro.ondisk.PACK_DEFLATE_LEVEL`): there is no format or
        level option.
        """
        write_started = time.perf_counter()
        packed, payload = pack_columns(state)
        header = {
            "format": CHECKPOINT_FILE_FORMAT,
            "epochs": epochs,
            "transactions": transactions,
            **packed,
        }
        path = self.directory / f"checkpoint-{epochs:0{_EPOCH_DIGITS}d}.ckpt"
        fail_point("epochlog.checkpoint.save", path=path)
        atomic_write(path, frame(CHECKPOINT_MAGIC, header, payload))
        for stale in self._checkpoint_paths()[:-_CHECKPOINTS_KEPT]:
            try:
                stale.unlink()
            except OSError:
                pass
        obs.observe(
            "repro_epochlog_checkpoint_write_seconds",
            time.perf_counter() - write_started,
        )
        obs.set_gauge("repro_epochlog_checkpoint_bytes", len(payload))
        return path

    def _checkpoint_paths(self) -> List[Path]:
        return sorted(self.directory.glob("checkpoint-*.ckpt"))

    def checkpoints(self) -> Iterator[CheckpointInfo]:
        """Every kept checkpoint that validates, newest first.

        Torn or corrupt files are skipped (never fatal).  A CRC-valid file
        of another file format (the JSON/gzip ``-v1``) is not read: its
        ``state`` is just ``{"format": <the file format found>}``, which
        :meth:`IncrementalChecker.restore` refuses by name.  Whether ``state``
        is *usable* is ``restore``'s call, so a verifier walks this until one
        restores, else replays from epoch 0.
        """
        for path in reversed(self._checkpoint_paths()):
            decoded = self._decode_checkpoint(path)
            if decoded is not None:
                yield decoded

    def latest_checkpoint(self) -> Optional[CheckpointInfo]:
        """The newest checkpoint that validates (first of :meth:`checkpoints`), or ``None``."""
        return next(self.checkpoints(), None)

    @staticmethod
    def _decode_checkpoint(path: Path) -> Optional[CheckpointInfo]:
        try:
            framed = unframe(CHECKPOINT_MAGIC, path.read_bytes())
            if framed is None:
                return None
            header, payload = framed
            if header.get("format") == CHECKPOINT_FILE_FORMAT:
                state = unpack_columns(header, payload)
            else:
                state = {"format": header.get("format")}
            return CheckpointInfo(
                epochs=int(header["epochs"]),
                transactions=int(header["transactions"]),
                path=path,
                state=state,
            )
        except (OSError, ValueError, KeyError, TypeError, RecursionError, zlib.error):
            # zlib.error: a CRC-valid frame around an undecodable deflate body;
            # RecursionError: JSON nested past the parser's depth.
            return None

    # ------------------------------------------------------------------
    # Window-GC retirement
    # ------------------------------------------------------------------
    def retire_through(self, epoch: int) -> int:
        """Drop epoch files up to ``epoch`` (inclusive); return count removed.

        Writes the ``RETIRED`` watermark first (atomically), then unlinks
        the files — so a crash between the two leaves files that are
        simply re-deleted on the next retirement pass, never a watermark
        claiming files that are still needed.  Only meaningful for a
        verifier running with a bounded window **and** checkpoints: a
        restart without a checkpoint past the watermark cannot replay.
        """
        if epoch < 0 or epoch >= len(self.epochs):
            raise ValueError(f"epoch {epoch} not sealed (have {len(self.epochs)})")
        if epoch <= self.retired_through:
            return 0
        atomic_write(
            self.directory / RETIRED_NAME, f"{epoch}\n".encode("utf-8")
        )
        removed = 0
        for position in range(self.retired_through + 1, epoch + 1):
            entry = self.epochs[position]
            try:
                (self.directory / entry.name).unlink()
                removed += 1
            except OSError:
                pass
            self.epochs[position] = replace(entry, retired=True)
        self.retired_through = epoch
        return removed
