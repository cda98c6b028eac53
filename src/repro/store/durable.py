"""Durable, partitioned view-store backend.

:class:`DurableViewStore` overrides the ``ViewStore`` durability hooks
and listens to its views: every view creation, drop, and put flows into
an append-only log, so a restarted process recovers the full reuse state.

Durability model
----------------
* ``control.log`` (a WAL) orders view creates, drop tombstones, and UDF
  aggregated-predicate and lineage records.  It is the source of truth
  for which (view, generation) pairs are live; the manifest is advisory.
  Creates and tombstones are fsynced at once; other records reach the OS
  at once and are fsynced by :meth:`DurableViewStore.commit`, which the
  session calls once per statement.
* Each partition — one (view, generation, frame-range bucket) — owns an
  independent ``wal/<pid>.wal`` of put records plus an optional
  ``snapshots/<pid>.snap``.  Both hold the view's own flat
  :class:`~repro.storage.columnar.ColumnBatch` encoding (the snapshot
  compressed), so recovery decodes the snapshot and each record of the
  WAL suffix and appends their key arrays and columns to the view,
  partition-by-partition in a thread pool.
* Drops log the tombstone (fsynced) *before* deleting files, so a crash
  mid-drop replays as "dropped" rather than resurrecting a half-deleted
  view.  Generation numbers make files of a dropped-then-recreated view
  distinguishable from the live ones.
* An ``OSError`` (a full disk, a failed fsync) surfaces as
  :class:`~repro.errors.StorageError`; the files stay what recovery
  reads.

Every live (view, generation) stays resident as a ``MaterializedView``:
STORE only appends (§4.4), and the files exist for durability and
recovery, never as a second place a view lives.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.errors import StorageError
from repro.obs.flight import current_flight
from repro.storage.columnar import ColumnBatch
from repro.storage.view_store import MaterializedView, ViewStore
from repro.store.layout import (PartitionState, RecoveryReport, StoreLayout,
                                buckets_of, parse_partition_id, partition_id,
                                replacing, view_crc)
from repro.store.wal import WalWriter, repair_wal, scan_wal


@dataclass
class _ViewMeta:
    """Durability bookkeeping for one live (view, generation)."""

    name: str
    generation: int
    key_columns: list[str]
    output_columns: list[str]
    partitions: dict[int, PartitionState] = field(default_factory=dict)


@dataclass(frozen=True)
class StoreSnapshot:
    """Point-in-time store health for metrics/CLI exposition."""

    path: str
    views: int
    bytes: int
    wal_bytes: int
    snapshot_files: int
    snapshot_age_seconds: float | None
    counters: dict[str, int]
    recovery: dict | None


class DurableViewStore(ViewStore):
    """A ``ViewStore`` whose contents survive process restarts."""

    is_durable = True

    def __init__(self, path, *, partition_frames: int = 2048,
                 fsync_every: int = 32, snapshot_interval: int = 4096,
                 recovery_parallelism: int = 4):
        super().__init__()
        self.layout = StoreLayout(path)
        self.layout.check_format()
        self.layout.ensure_directories()
        self.partition_frames = max(1, int(partition_frames))
        self.fsync_every = max(1, int(fsync_every))
        self.snapshot_interval = max(1, int(snapshot_interval))
        self.recovery_parallelism = max(1, int(recovery_parallelism))
        #: lineage_id -> latest persisted ledger export record (the
        #: ``op: "lineage"`` control-log upserts; see repro.obs.lineage).
        self._lineage_records: dict[str, dict] = {}
        self.counters: dict[str, int] = {"wal_records": 0, "snapshots": 0}
        self._meta: dict[str, _ViewMeta] = {}
        self._wal_writers: dict[str, WalWriter] = {}
        self._udf_records: dict[str, dict] = {}
        #: Highest generation ever assigned per view name (tombstoned
        #: generations included) — creates allocate the next one.
        self._gen_seen: dict[str, int] = {}
        #: Guards all durable state: control log, WAL writers, metas,
        #: manifest and audit writes.  Always acquired *before* the base
        #: store's map lock (see ``create_or_get``); re-entrant because
        #: listener callbacks can fire under it.
        self._io_lock = threading.RLock()
        self._audit_seq = 0
        self._audit_handle = None
        self._closed = False
        self._last_snapshot_at: float | None = None
        self.recovery_report = self._recover()
        self._control = WalWriter(self.layout.control_log_path,
                                  sync_every=0)
        self._write_manifest()

    # -- ViewStore interface overrides ------------------------------------------

    def create_or_get(self, name, key_columns, output_columns):
        with self._io_lock:
            if self._closed:
                raise StorageError(f"store {self.layout.root} is closed")
            return super().create_or_get(name, key_columns, output_columns)

    def drop(self, name: str) -> int:
        # Under the I/O lock, so a create racing the drop logs its fresh
        # generation after the tombstone.
        with self._io_lock:
            return super().drop(name)

    def drop_all(self) -> int:
        with self._io_lock:
            return sum(self.drop(name) for name in self.names())

    # -- durability hooks (called by the base ViewStore) ------------------------

    def view_created(self, view: MaterializedView) -> None:
        with self._io_lock:
            meta = self._meta.get(view.name)
            if meta is None:
                generation = self._gen_seen.get(view.name, 0) + 1
                self._gen_seen[view.name] = generation
                meta = _ViewMeta(view.name, generation,
                                 list(view.key_columns),
                                 list(view.output_columns))
                self._meta[view.name] = meta
                self._control.append({
                    "op": "create", "view": view.name, "gen": generation,
                    "key_columns": meta.key_columns,
                    "output_columns": meta.output_columns,
                })
                self._control.flush()
                self._write_manifest()
            view.listener = self

    def view_dropped(self, name: str) -> None:
        with self._io_lock:
            meta = self._meta.pop(name, None)
            if meta is None:
                return
            # Tombstone first (fsynced): a crash below this line must
            # replay as "dropped", never as a half-deleted view.  The
            # ledger marked the record dropped before this hook ran; its
            # terminal status rides the same fsync.
            self._control.append({"op": "drop", "view": name,
                                  "gen": meta.generation})
            self._persist_lineage_status(name)
            self._control.flush()
            self._remove_partition_files(meta)
            self._audit("drop", view=name)
            self._write_manifest()

    # -- UDF history durability -------------------------------------------------

    def log_udf_history(self, udf_name: str, sources: list[str],
                        per_tuple_cost: float, predicate_sql: str) -> None:
        """Persist one signature's aggregated predicate (latest wins)."""
        record = {"op": "udf", "udf": udf_name, "sources": list(sources),
                  "cost": per_tuple_cost, "predicate": predicate_sql}
        key = "@".join([udf_name.lower(), *sources])
        with self._io_lock:
            if self._closed or self._udf_records.get(key) == record:
                return
            self._udf_records[key] = record
            self._control.append(record)

    def reset_udf_histories(self) -> None:
        """Forget every signature's predicate, durably before returning:
        the control log is rewritten without UDF records."""
        with self._io_lock:
            if self._closed:
                return
            self._udf_records.clear()
            self._compact_control_log()

    def udf_history_records(self) -> list[dict]:
        with self._io_lock:
            return [dict(r) for r in self._udf_records.values()]

    # -- lineage durability -----------------------------------------------------

    def log_lineage(self, records) -> None:
        """Persist ledger export records (upsert; latest wins on replay).

        The session appends each query's touched records here, so a
        restarted store rebuilds the exact provenance ledger of the
        uninterrupted run (``repro lineage`` restart equality).  Durable
        at the statement's :meth:`commit`.
        """
        with self._io_lock:
            if self._closed:
                return
            fresh = []
            for payload in records:
                lineage_id = payload.get("lineage_id")
                if lineage_id is None or \
                        self._lineage_records.get(lineage_id) == payload:
                    continue
                self._lineage_records[lineage_id] = payload
                fresh.append({"op": "lineage", "record": payload})
            if fresh:
                self._control.append(*fresh)

    def lineage_records(self) -> list[dict]:
        with self._io_lock:
            return [dict(r) for r in self._lineage_records.values()]

    @property
    def recovered_lineage(self) -> list[dict]:
        """Persisted ledger records, for :meth:`ViewLedger.restore`."""
        with self._io_lock:
            return [self._lineage_records[k]
                    for k in sorted(self._lineage_records)]

    def _persist_lineage_status(self, name: str) -> None:
        """Re-log the view's current-generation ledger record."""
        ledger = self.ledger
        if ledger is None:
            return
        payload = ledger.export_current(name)
        if payload is not None:
            self.log_lineage([payload])

    # -- lifecycle --------------------------------------------------------------

    def commit(self) -> None:
        """Fsync the control records appended since the last commit (one
        call per statement; nothing to do when there are none)."""
        with self._io_lock:
            if not self._closed:
                self._control.flush()

    def flush(self) -> None:
        """Fsync every log so all acknowledged puts are crash-durable."""
        with self._io_lock:
            if self._closed:
                return
            self._control.flush()
            for writer in self._wal_writers.values():
                writer.flush()

    def snapshot(self) -> int:
        """Snapshot every dirty partition; returns partitions written."""
        written = 0
        with self._io_lock:
            if self._closed:
                return 0
            with self._lock:
                resident = dict(self._views)
            for name, view in resident.items():
                meta = self._meta.get(name)
                if meta is not None:
                    written += self._snapshot_view(
                        view, meta, lambda part: (
                            part.records_since_snapshot > 0
                            or (part.snapshot_keys == 0 and view.num_keys)))
            self._compact_control_log()
            self._write_manifest()
        return written

    def close(self) -> None:
        """Snapshot, flush, and release every file handle (idempotent)."""
        with self._io_lock:
            if self._closed:
                return
            self.snapshot()
            self._control.close()
            for writer in self._wal_writers.values():
                writer.close()
            self._wal_writers.clear()
            if self._audit_handle is not None:
                self._audit_handle.close()
                self._audit_handle = None
            self._closed = True

    def store_snapshot(self) -> StoreSnapshot:
        """Health counters for Prometheus / ``repro store stats``."""
        with self._io_lock:
            with self._lock:
                resident = sum(v.serialized_bytes()
                               for v in self._views.values())
            wal_bytes = sum(w.size for w in self._wal_writers.values())
            if not self._closed:
                wal_bytes += self._control.size
            snapshot_files = len(list(
                self.layout.snapshot_dir.glob("*.snap")))
            age = None
            if self._last_snapshot_at is not None:
                age = time.perf_counter() - self._last_snapshot_at
            report = self.recovery_report
            return StoreSnapshot(
                path=str(self.layout.root), views=len(self._meta),
                bytes=resident, wal_bytes=wal_bytes,
                snapshot_files=snapshot_files, snapshot_age_seconds=age,
                counters=dict(self.counters),
                recovery=report.as_dict() if report else None)

    # -- write path -------------------------------------------------------------

    def view_put_many(self, view: MaterializedView,
                      batch: ColumnBatch) -> None:
        """View listener hook: log the freshly inserted ``batch``, one
        ``puts`` record per partition it touches."""
        with self._io_lock:
            if self._closed:
                return
            meta = self._meta.get(view.name)
            if meta is None:
                return  # dropped concurrently; nothing durable to do
            due = set()
            for bucket, shard in sorted(batch.partition(
                    buckets_of(batch, self.partition_frames)).items()):
                part = self._ensure_partition(meta, bucket)
                self._ensure_writer(part).append(
                    {"op": "puts", "view": view.name,
                     "gen": meta.generation, "blob": shard.encode()})
                part.records_since_snapshot += 1
                self.counters["wal_records"] += 1
                if part.records_since_snapshot >= self.snapshot_interval:
                    due.add(bucket)
            if due:
                self._snapshot_view(view, meta,
                                    lambda part: part.bucket in due)
                self._write_manifest()

    def _ensure_partition(self, meta: _ViewMeta,
                          bucket: int) -> PartitionState:
        part = meta.partitions.get(bucket)
        if part is None:
            pid = partition_id(meta.name, meta.generation, bucket)
            part = PartitionState(pid, meta.name, meta.generation, bucket)
            meta.partitions[bucket] = part
        return part

    def _ensure_writer(self, part: PartitionState) -> WalWriter:
        writer = self._wal_writers.get(part.pid)
        if writer is None:
            writer = WalWriter(part.wal_path(self.layout.root),
                               sync_every=self.fsync_every)
            self._wal_writers[part.pid] = writer
        return writer

    # -- snapshots --------------------------------------------------------------

    def _snapshot_view(self, view: MaterializedView, meta: _ViewMeta,
                       wanted) -> int:
        """Write the snapshot of every partition of ``view`` for which
        ``wanted(part)`` holds; returns how many were written."""
        batch = view.batch()
        shards = batch.partition(buckets_of(batch, self.partition_frames))
        for bucket in shards:
            self._ensure_partition(meta, bucket)
        empty = ColumnBatch([], [], {col: [] for col in meta.output_columns})
        written = 0
        for part in meta.partitions.values():
            if wanted(part):
                self._snapshot_partition(part,
                                         shards.get(part.bucket, empty))
                written += 1
        return written

    def _snapshot_partition(self, part: PartitionState,
                            shard: ColumnBatch) -> None:
        flight = current_flight()
        started = time.perf_counter() if flight is not None else 0.0
        target = part.snapshot_path(self.layout.root)
        tmp = target.with_suffix(".snap.tmp")
        with replacing(tmp, target):
            tmp.write_bytes(shard.encode(compress=True))
        part.snapshot_keys = len(shard)
        part.records_since_snapshot = 0
        # The WAL's records are folded into the snapshot — truncate it
        # (opening a writer if none is live, e.g. right after recovery).
        self._ensure_writer(part).reset()
        self.counters["snapshots"] += 1
        self._last_snapshot_at = time.perf_counter()
        if flight is not None:
            flight.add_store_io("snapshot", time.perf_counter() - started)

    def _compact_control_log(self) -> None:
        """Rewrite control.log to live creates + latest UDF records."""
        records = []
        for name in sorted(self._meta):
            meta = self._meta[name]
            records.append({"op": "create", "view": name,
                            "gen": meta.generation,
                            "key_columns": meta.key_columns,
                            "output_columns": meta.output_columns})
        records.extend(self._udf_records[k]
                       for k in sorted(self._udf_records))
        # Lineage records survive compaction even for dropped views —
        # wasted-materialization history is the ledger's whole point.
        records.extend({"op": "lineage", "record": self._lineage_records[k]}
                       for k in sorted(self._lineage_records))
        path = self.layout.control_log_path
        tmp = path.with_suffix(".log.tmp")
        with replacing(tmp, path):
            rewriter = WalWriter(tmp, sync_every=0)
            try:
                rewriter.append(*records)
            finally:
                rewriter.close()
        self._control.close()
        self._control = WalWriter(path, sync_every=0)

    def _remove_partition_files(self, meta: _ViewMeta) -> None:
        for part in meta.partitions.values():
            writer = self._wal_writers.pop(part.pid, None)
            if writer is not None:
                writer.close()
            for path in (part.wal_path(self.layout.root),
                         part.snapshot_path(self.layout.root)):
                try:
                    path.unlink()
                except OSError:
                    pass

    # -- recovery ---------------------------------------------------------------

    def _recover(self) -> RecoveryReport:
        report = RecoveryReport()
        start = time.perf_counter()
        scan = scan_wal(self.layout.control_log_path)
        if scan.torn:
            repair_wal(self.layout.control_log_path, scan)
            report.torn_tails_repaired += 1
            report.problems.append(f"control.log: {scan.error}")
        live: dict[str, dict] = {}
        for record in scan.records:
            op = record.get("op")
            if op == "create":
                live[record["view"]] = record
                self._gen_seen[record["view"]] = max(
                    self._gen_seen.get(record["view"], 0), record["gen"])
            elif op == "drop":
                current = live.get(record["view"])
                if current is not None and current["gen"] <= record["gen"]:
                    live.pop(record["view"], None)
            elif op == "udf":
                key = "@".join([record["udf"].lower(), *record["sources"]])
                self._udf_records[key] = record
            elif op == "lineage":
                payload = record.get("record") or {}
                lineage_id = payload.get("lineage_id")
                if lineage_id:
                    self._lineage_records[lineage_id] = payload
        # A record still marked live whose (view, generation) did not
        # survive replay belongs to a drop that crashed before the
        # status upsert landed — settle it as dropped.
        for payload in self._lineage_records.values():
            if payload.get("status") != "live":
                continue
            current = live.get(payload.get("view"))
            live_id = (f"{payload.get('view')}#g{current['gen']}"
                       if current is not None else None)
            if payload.get("lineage_id") != live_id:
                payload["status"] = "dropped"
        self._build_metas(live, self.layout.read_manifest()["partitions"])
        report.stale_files_removed = self._sweep_stale_files()
        self._replay_views(report)
        report.views_recovered = len(self._meta)
        report.udf_histories = len(self._udf_records)
        report.wall_seconds = time.perf_counter() - start
        if self._meta or report.problems:
            self._audit("recovery", **report.as_dict())
        return report

    def _build_metas(self, live: dict[str, dict],
                     manifest_partitions: dict[str, dict]) -> None:
        partition_infos = dict(manifest_partitions)
        for pid in self.layout.scan_partition_files():
            partition_infos.setdefault(pid, {"id": pid})
        crc_to_name = {view_crc(name): name for name in live}
        for name, record in live.items():
            self._meta[name] = _ViewMeta(name, record["gen"],
                                         list(record["key_columns"]),
                                         list(record["output_columns"]))
        for pid, info in partition_infos.items():
            parsed = parse_partition_id(pid)
            if parsed is None:
                continue
            crc, generation, bucket = parsed
            name = crc_to_name.get(crc)
            if name is None or self._meta[name].generation != generation:
                continue  # stale generation; swept below
            part = PartitionState(pid, name, generation, bucket,
                                  snapshot_keys=int(
                                      info.get("snapshot_keys", 0)))
            self._meta[name].partitions[bucket] = part

    def _sweep_stale_files(self) -> int:
        """Delete partition files whose (view, generation) is not live —
        leftovers of a drop that crashed after its tombstone fsynced."""
        live_pids = {part.pid for meta in self._meta.values()
                     for part in meta.partitions.values()}
        removed = 0
        for pid, files in self.layout.scan_partition_files().items():
            if pid in live_pids:
                continue
            for path in files.values():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def _replay_views(self, report: RecoveryReport) -> None:
        views = {name: MaterializedView(meta.name, meta.key_columns,
                                        meta.output_columns)
                 for name, meta in self._meta.items()}
        tasks = [(views[name], self._meta[name], part)
                 for name in views
                 for part in self._meta[name].partitions.values()]
        if tasks:
            with ThreadPoolExecutor(
                    max_workers=min(self.recovery_parallelism,
                                    len(tasks))) as pool:
                results = list(pool.map(
                    lambda t: self._replay_partition(*t), tasks))
            for records, keys, torn, problem in results:
                report.partitions_replayed += 1
                report.records_replayed += records
                report.keys_recovered += keys
                report.torn_tails_repaired += int(torn)
                if problem:
                    report.problems.append(problem)
        for name, view in views.items():
            view.listener = self
            with self._lock:
                self._views[name] = view

    def _replay_partition(self, view: MaterializedView, meta: _ViewMeta,
                          part: PartitionState
                          ) -> tuple[int, int, bool, str | None]:
        """Snapshot load + WAL replay for one partition (pool worker).

        Touches only this partition's files and the (lock-guarded) view,
        so partitions replay concurrently without shared state.
        """
        keys_added = 0
        snapshot_path = part.snapshot_path(self.layout.root)
        problem = None
        if snapshot_path.exists():
            try:
                shard = ColumnBatch.decode(snapshot_path.read_bytes(),
                                           compressed=True)
                keys_added += view.restore(shard)
                part.snapshot_keys = len(shard)
            except Exception as exc:  # corrupt snapshot: WAL still replays
                problem = f"{part.pid}: unreadable snapshot ({exc})"
        scan = scan_wal(part.wal_path(self.layout.root))
        torn = scan.torn
        if torn:
            repair_wal(part.wal_path(self.layout.root), scan)
            problem = problem or f"{part.pid}: {scan.error}"
        applied = 0
        for record in scan.records:
            if (record.get("op") != "puts"
                    or record.get("gen") != meta.generation):
                continue
            keys_added += view.restore(ColumnBatch.decode(record["blob"]))
            applied += 1
        # Still in the WAL: the next snapshot() / close() must fold them.
        part.records_since_snapshot = applied
        return applied, keys_added, torn, problem

    # -- manifest / audit -------------------------------------------------------

    def _write_manifest(self) -> None:
        views = [{"name": meta.name, "generation": meta.generation,
                  "key_columns": meta.key_columns,
                  "output_columns": meta.output_columns}
                 for meta in self._meta.values()]
        partitions = [{"id": part.pid, "view": part.view,
                       "generation": part.generation,
                       "bucket": part.bucket,
                       "snapshot_keys": part.snapshot_keys}
                      for meta in self._meta.values()
                      for part in meta.partitions.values()]
        self.layout.write_manifest(partition_frames=self.partition_frames,
                                   views=views, partitions=partitions)

    def _audit(self, event: str, **fields) -> None:
        if self._audit_handle is None:
            self._audit_seq = self._last_audit_seq()
            self._audit_handle = open(self.layout.audit_path, "a",
                                      encoding="utf-8")
        self._audit_seq += 1
        record = {"type": "store_audit", "seq": self._audit_seq,
                  "event": event, **fields}
        self._audit_handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._audit_handle.flush()

    def _last_audit_seq(self) -> int:
        """The ``seq`` of the trail's last whole record, 0 when it has
        none, so a reopened store numbers on where the last one stopped."""
        try:
            lines = self.layout.audit_path.read_bytes().splitlines()
        except FileNotFoundError:
            return 0
        for line in reversed(lines):
            try:
                return int(json.loads(line)["seq"])
            except (ValueError, KeyError, TypeError):
                continue  # a torn or foreign line
        return 0
