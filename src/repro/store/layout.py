"""On-disk layout of a durable view store.

::

    <store>/
      manifest.jsonl     # store_meta + one record per view and partition
      control.log        # WAL of create / drop / udf-history records
      audit.jsonl        # append-only drop / recovery audit trail
      wal/<pid>.wal      # per-partition put WALs
      snapshots/<pid>.snap

A *partition* is one (view, generation, frame-range bucket): bucket =
``max(frame_id, 0) // partition_frames`` (see :func:`buckets_of`).
Every partition owns an independent WAL segment and snapshot file, so
recovery replays them in parallel and a snapshot never rewrites more than
one bucket's worth of entries.  Partition ids embed the CRC of the view
name plus the view's generation — files from a dropped generation are
recognizably stale even if a crash interrupted their deletion.

The manifest is advisory (a listing of views and partitions for
`store check`); the control log is the source of truth for which
views/generations are live.  It is rewritten atomically (tmp +
``os.replace``) on structural changes, never appended.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import StorageError
from repro.storage.columnar import ColumnBatch
from repro.storage.view_store import key_frame_ids

#: Names the record/snapshot encoding.  v3: ``puts`` records and
#: snapshots are flat column batches — a JSON header, then int64 keys and
#: typed column buffers (v2 wrote an ``.npz`` zip with JSON keys; v1
#: logged nested JSON rows).
STORE_FORMAT = "eva-store-v3"
MANIFEST_NAME = "manifest.jsonl"
CONTROL_LOG_NAME = "control.log"
AUDIT_NAME = "audit.jsonl"
WAL_DIR = "wal"
SNAPSHOT_DIR = "snapshots"

_PARTITION_ID = re.compile(r"^(?P<crc>[0-9a-f]{8})-g(?P<gen>\d+)"
                           r"-b(?P<bucket>\d+)$")


@contextmanager
def replacing(tmp: Path, target: Path):
    """Write ``tmp`` (fresh: a crash's leftover is removed first) in the
    body, then ``os.replace`` it onto ``target``.  A failure on the way
    removes ``tmp`` and leaves ``target`` as it was; an ``OSError`` (a
    full disk, a failed fsync) raises :class:`StorageError`."""
    try:
        tmp.unlink(missing_ok=True)
        yield
        os.replace(tmp, target)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise StorageError(f"cannot write {target}: {exc}") from exc
        raise


def view_crc(name: str) -> str:
    return f"{zlib.crc32(name.encode('utf-8')) & 0xFFFFFFFF:08x}"


def buckets_of(batch: ColumnBatch, partition_frames: int) -> np.ndarray:
    """The frame-range bucket of every entry of ``batch``: ``max(id, 0) //
    partition_frames`` of its frame id, from the key array in one numpy
    expression (a packed patch key's frame id is its top bits).  Keys
    that do not pack are read one by one; a first component that is not
    an int lands in bucket 0, so the function is total.  A key gets the
    same bucket in either form."""
    if batch.array is None:
        return np.array([max(key[0], 0) // partition_frames
                         if type(key[0]) is int else 0
                         for key in batch.keys], dtype=object)
    ids = key_frame_ids(batch.array, batch.patch_keys)
    return np.maximum(ids, 0) // partition_frames


def partition_id(name: str, generation: int, bucket: int) -> str:
    return f"{view_crc(name)}-g{generation}-b{bucket}"


def parse_partition_id(pid: str) -> tuple[str, int, int] | None:
    """(view-name-crc, generation, bucket), or None if not a partition id."""
    match = _PARTITION_ID.match(pid)
    if match is None:
        return None
    return (match.group("crc"), int(match.group("gen")),
            int(match.group("bucket")))


@dataclass
class PartitionState:
    """Bookkeeping for one partition's pair of files."""

    pid: str
    view: str
    generation: int
    bucket: int
    #: Number of keys captured by the current snapshot file (0 = none).
    snapshot_keys: int = 0
    #: WAL records appended since the last snapshot (snapshot trigger).
    records_since_snapshot: int = 0

    def wal_path(self, root: Path) -> Path:
        return root / WAL_DIR / f"{self.pid}.wal"

    def snapshot_path(self, root: Path) -> Path:
        return root / SNAPSHOT_DIR / f"{self.pid}.snap"


@dataclass
class StoreLayout:
    """Path arithmetic + manifest I/O for one store directory."""

    root: Path

    def __post_init__(self):
        self.root = Path(self.root)

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def control_log_path(self) -> Path:
        return self.root / CONTROL_LOG_NAME

    @property
    def audit_path(self) -> Path:
        return self.root / AUDIT_NAME

    @property
    def wal_dir(self) -> Path:
        return self.root / WAL_DIR

    @property
    def snapshot_dir(self) -> Path:
        return self.root / SNAPSHOT_DIR

    def ensure_directories(self) -> None:
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        self.snapshot_dir.mkdir(parents=True, exist_ok=True)

    def scan_partition_files(self) -> dict[str, dict]:
        """Partition ids present on disk, from the wal/ and snapshots/
        directories themselves — the fallback when a crash predates the
        manifest rewrite that would have listed them."""
        found: dict[str, dict] = {}
        for path in sorted(self.wal_dir.glob("*.wal")):
            parsed = parse_partition_id(path.stem)
            if parsed is not None:
                found.setdefault(path.stem, {})["wal"] = path
        for path in sorted(self.snapshot_dir.glob("*.snap")):
            parsed = parse_partition_id(path.stem)
            if parsed is not None:
                found.setdefault(path.stem, {})["snapshot"] = path
        return found

    # -- manifest ---------------------------------------------------------------

    def write_manifest(self, *, partition_frames: int,
                       views: list[dict], partitions: list[dict]) -> None:
        """Atomically replace the manifest (tmp file + ``os.replace``)."""
        lines = [json.dumps({"type": "store_meta", "format": STORE_FORMAT,
                             "partition_frames": partition_frames},
                            sort_keys=True)]
        lines += [json.dumps({"type": "view", **v}, sort_keys=True)
                  for v in sorted(views, key=lambda v: v["name"])]
        lines += [json.dumps({"type": "partition", **p}, sort_keys=True)
                  for p in sorted(partitions, key=lambda p: p["id"])]
        tmp = self.manifest_path.with_suffix(".jsonl.tmp")
        with replacing(tmp, self.manifest_path):
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
                handle.flush()
                os.fsync(handle.fileno())

    def check_format(self) -> None:
        """Refuse a store some other format version wrote: there is one
        reader and no migration path, and replaying records of another
        encoding would lose or garble views."""
        meta = self.read_manifest()["meta"]
        if meta is not None and meta.get("format") != STORE_FORMAT:
            raise StorageError(
                f"store {self.root} has format {meta.get('format')!r}; "
                f"this version reads and writes {STORE_FORMAT!r} only")

    def read_manifest(self) -> dict:
        """Parsed manifest: {"meta": ..., "views": {...}, "partitions":
        {...}}; empty maps when the manifest is absent/unreadable (it is
        advisory — recovery rebuilds from the control log)."""
        result = {"meta": None, "views": {}, "partitions": {}}
        try:
            text = self.manifest_path.read_text("utf-8")
        except OSError:
            return result
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            kind = record.get("type")
            if kind == "store_meta":
                result["meta"] = record
            elif kind == "view" and "name" in record:
                result["views"][record["name"]] = record
            elif kind == "partition" and "id" in record:
                result["partitions"][record["id"]] = record
        return result


@dataclass
class RecoveryReport:
    """What the startup pass found and repaired."""

    views_recovered: int = 0
    partitions_replayed: int = 0
    records_replayed: int = 0
    keys_recovered: int = 0
    torn_tails_repaired: int = 0
    stale_files_removed: int = 0
    udf_histories: int = 0
    wall_seconds: float = 0.0
    problems: list[str] = field(default_factory=list)
    #: Whether a tracer span was already emitted for this recovery (the
    #: first session bound to the store reports it).
    span_emitted: bool = False

    def as_dict(self) -> dict:
        return {
            "views_recovered": self.views_recovered,
            "partitions_replayed": self.partitions_replayed,
            "records_replayed": self.records_replayed,
            "keys_recovered": self.keys_recovered,
            "torn_tails_repaired": self.torn_tails_repaired,
            "stale_files_removed": self.stale_files_removed,
            "udf_histories": self.udf_histories,
            "wall_seconds": round(self.wall_seconds, 6),
            "problems": list(self.problems),
        }
