"""Append-only write-ahead log: framed, checksummed records.

File layout::

    8 bytes   magic header  b"EVAWAL3\\n"
    records   4-byte big-endian payload length
              4-byte big-endian CRC32 of the payload
              N-byte payload: one line of UTF-8 JSON, then — for records
              that carry data — ``\\n`` and a binary blob

Every append reaches the operating system at once (the file is
unbuffered); writers batch fsyncs — group commit every ``sync_every``
records, or only on :meth:`WalWriter.flush` when ``sync_every`` is 0.
Readers stop at the first frame that fails its length or checksum test
and report the byte offset of the last *valid* record so recovery can
truncate the torn tail in place.

Control records (create, drop, UDF history, lineage) are the JSON line
alone, so the control log stays readable with ``dd`` and a hex viewer.  A
view's ``puts`` record names view and generation in the JSON line and
carries the inserted entries as the blob: the view's own flat
:class:`~repro.storage.columnar.ColumnBatch` encoding (int64 keys, typed
column buffers), which compressed is also the partition snapshot.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import StorageError, StoreCorruptionError
from repro.obs.flight import current_flight

MAGIC = b"EVAWAL3\n"
_FRAME = struct.Struct(">II")
#: A length field above this is treated as corruption, not a record: the
#: largest legitimate record (a put_many batch for one partition) stays
#: well under it.
MAX_RECORD_BYTES = 64 * 1024 * 1024


def encode_record(payload: dict) -> bytes:
    """Frame one record; a ``bytes`` value under ``"blob"`` travels as
    the binary part (:func:`scan_wal` hands it back under the same key)."""
    blob = payload.get("blob")
    if blob:
        payload = {k: v for k, v in payload.items() if k != "blob"}
    body = json.dumps(payload, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    if blob:
        # json.dumps escapes newlines, so the first one ends the JSON line.
        body += b"\n" + blob
    return _FRAME.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF) + body


class WalWriter:
    """Appender with group-commit fsync.

    A record is durable once :meth:`flush` (or the ``sync_every``-th
    append since the last sync) has run; a crash loses at most the
    un-synced suffix, which the reader's torn-tail repair discards
    cleanly.  An ``OSError`` raises :class:`StorageError`; a failed
    append first cuts the file back to its last whole record.  Not
    thread-safe — callers serialize through their own lock.
    """

    def __init__(self, path, *, sync_every: int = 32):
        self.path = Path(path)
        self.sync_every = max(0, int(sync_every))
        self._pending = 0
        self._handle = open(self.path, "ab", buffering=0)
        self.size = self._handle.tell()
        if not self.size:
            self._write(MAGIC)
            self._sync()
            self.size = len(MAGIC)

    def append(self, *payloads: dict) -> int:
        """Write records, all in one system call; returns their size in
        bytes on disk."""
        flight = current_flight()
        started = time.perf_counter() if flight is not None else 0.0
        frames = b"".join(map(encode_record, payloads))
        self._write(frames)
        if flight is not None:
            flight.add_store_io("wal_append",
                                time.perf_counter() - started)
        self.size += len(frames)
        self._pending += len(payloads)
        if self.sync_every and self._pending >= self.sync_every:
            self._sync()
        return len(frames)

    def flush(self) -> None:
        """Force everything appended so far to stable storage."""
        if self._pending:
            self._sync()

    def reset(self) -> None:
        """Discard all records (post-snapshot truncation), keep the file."""
        self._handle.close()
        self._handle = open(self.path, "wb", buffering=0)
        self.size = 0
        self._write(MAGIC)
        self._sync()
        self.size = len(MAGIC)

    def close(self) -> None:
        if self._handle.closed:
            return
        self.flush()
        self._handle.close()

    def _write(self, data: bytes) -> None:
        try:
            if self._handle.write(data) != len(data):
                raise OSError(f"short write of {len(data)} bytes")
        except OSError as exc:
            try:
                self._handle.truncate(self.size)
            except OSError:
                pass  # the reader's torn-tail repair cuts it instead
            raise StorageError(f"cannot append to {self.path}: {exc}") \
                from exc

    def _sync(self) -> None:
        flight = current_flight()
        started = time.perf_counter() if flight is not None else 0.0
        try:
            os.fsync(self._handle.fileno())
        except OSError as exc:
            raise StorageError(f"cannot fsync {self.path}: {exc}") from exc
        self._pending = 0
        if flight is not None:
            flight.add_store_io("fsync", time.perf_counter() - started)


@dataclass
class WalScan:
    """Result of reading a WAL file front to back."""

    records: list[dict] = field(default_factory=list)
    #: Offset just past the last record that decoded cleanly — the
    #: truncation point for torn-tail repair.
    valid_bytes: int = 0
    total_bytes: int = 0
    #: Human-readable reason scanning stopped early, or None if the file
    #: was clean to the end.
    error: str | None = None

    @property
    def torn(self) -> bool:
        return self.valid_bytes < self.total_bytes


def scan_wal(path) -> WalScan:
    """Decode every intact record; never raises on a torn/corrupt tail.

    A missing file scans as empty (a crash can die between creating a
    partition's writer and its first sync).  A bad *header* is different:
    that file was never a WAL, and silently treating it as empty would
    destroy someone's data on repair — so it raises.
    """
    path = Path(path)
    if not path.exists():
        return WalScan()
    data = path.read_bytes()
    scan = WalScan(total_bytes=len(data))
    if len(data) < len(MAGIC):
        scan.error = "truncated header"
        return scan
    if data[:len(MAGIC)] != MAGIC:
        raise StoreCorruptionError(
            f"{path} is not a {MAGIC[:-1].decode()} WAL file "
            f"(header {data[:len(MAGIC)]!r})")
    offset = len(MAGIC)
    scan.valid_bytes = offset
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            scan.error = "torn frame header"
            break
        length, checksum = _FRAME.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            scan.error = f"implausible record length {length}"
            break
        start = offset + _FRAME.size
        end = start + length
        if end > len(data):
            scan.error = "torn record body"
            break
        body = data[start:end]
        if zlib.crc32(body) & 0xFFFFFFFF != checksum:
            scan.error = "checksum mismatch"
            break
        line, _, blob = body.partition(b"\n")
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            scan.error = "undecodable payload"
            break
        if blob:
            record["blob"] = blob
        scan.records.append(record)
        offset = end
        scan.valid_bytes = offset
    return scan


def repair_wal(path, scan: WalScan) -> bool:
    """Truncate ``path`` to the scan's valid prefix; True if it cut."""
    if not scan.torn:
        return False
    with open(path, "r+b") as handle:
        # valid_bytes is 0 for a torn *header* (file reverts to empty and
        # the next writer re-stamps the magic) and >= len(MAGIC) otherwise.
        handle.truncate(scan.valid_bytes)
        handle.flush()
        os.fsync(handle.fileno())
    return True
