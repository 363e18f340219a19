"""Bytes on disk: atomic publish, the magic + header + CRC frame, file CRCs.
Imports nothing from the package, so :mod:`repro.obs` and
:mod:`repro.history` both build on it without importing each other."""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import IO, Any, Callable, Dict, Optional, Tuple, Union

__all__ = ["atomic_write", "file_crc32", "frame", "unframe"]


def atomic_write(
    path: Union[str, Path], data: Union[bytes, Callable[[IO[bytes]], object]]
) -> None:
    """Publish ``data`` at ``path``: staging file, fsync, ``os.replace``.

    A failed write leaves the previous file alone.  ``data`` is the bytes, or
    a callable that streams them into the open staging file — ``.{name}.tmp``
    beside ``path``, the name the epoch log sweeps after a kill.
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


def frame(magic: bytes, header: Dict[str, Any], payload: bytes) -> bytes:
    """``magic`` + one JSON header line + ``payload``; the header gains the
    payload's ``crc32`` and ``payload_bytes``, which :func:`unframe` verifies."""
    stamped = {**header, "crc32": zlib.crc32(payload), "payload_bytes": len(payload)}
    line = json.dumps(stamped, separators=(",", ":"))
    return magic + line.encode("utf-8") + b"\n" + payload


def unframe(magic: bytes, blob: bytes) -> Optional[Tuple[Dict[str, Any], bytes]]:
    """``(header, payload)`` of a :func:`frame` blob; ``None`` (a miss, never an
    error) for other magic, a torn header, a wrong payload length or CRC."""
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
