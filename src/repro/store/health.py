"""Passive integrity checks and stats over a store directory.

Everything here is read-only (no repairs, no writer handles), so
``repro store check`` and ``repro store stats`` are safe to run against
a store another process has open — useful for postmortems where opening
a :class:`DurableViewStore` (which repairs torn tails in place) would
destroy the evidence being inspected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StoreCorruptionError
from repro.store.layout import (StoreLayout, parse_partition_id, view_crc)
from repro.store.wal import scan_wal


@dataclass
class StoreCheckReport:
    """Findings of one :func:`check_store` pass."""

    root: str
    views: int = 0
    partitions: int = 0
    wal_records: int = 0
    snapshot_bytes: int = 0
    wal_bytes: int = 0
    udf_histories: int = 0
    #: Recoverable oddities (torn tails, stale files): recovery handles
    #: these silently; ``check`` surfaces them without touching disk.
    warnings: list[str] = field(default_factory=list)
    #: Integrity violations recovery cannot repair.
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def check_store(path) -> StoreCheckReport:
    """Validate a store directory without modifying it."""
    layout = StoreLayout(path)
    report = StoreCheckReport(root=str(layout.root))
    if not layout.root.is_dir():
        report.errors.append(f"{layout.root} is not a directory")
        return report
    if not layout.control_log_path.exists():
        report.errors.append("control.log missing")
        return report
    try:
        control = scan_wal(layout.control_log_path)
    except StoreCorruptionError as exc:
        report.errors.append(str(exc))
        return report
    if control.torn:
        report.warnings.append(
            f"control.log torn tail ({control.error}, "
            f"{control.total_bytes - control.valid_bytes} bytes)")
    live: dict[str, dict] = {}
    for record in control.records:
        op = record.get("op")
        if op == "create":
            live[record["view"]] = record
        elif op == "drop":
            current = live.get(record["view"])
            if current is not None and current["gen"] <= record["gen"]:
                live.pop(record["view"], None)
        elif op == "udf":
            report.udf_histories += 1
    report.views = len(live)
    crc_to_view = {view_crc(name): rec for name, rec in live.items()}

    manifest = layout.read_manifest()
    if manifest["meta"] is None and layout.manifest_path.exists():
        report.errors.append("manifest.jsonl unreadable")
    for name in manifest["views"]:
        if name not in live:
            report.warnings.append(
                f"manifest lists view {name!r} absent from control.log")
    for name in live:
        if manifest["views"] and name not in manifest["views"]:
            report.warnings.append(
                f"view {name!r} missing from manifest (crash before "
                f"rewrite; recovery rebuilds it)")

    seen_partitions = set()
    for pid, files in layout.scan_partition_files().items():
        parsed = parse_partition_id(pid)
        if parsed is None:
            report.warnings.append(f"unrecognized partition file {pid}")
            continue
        crc, generation, _bucket = parsed
        owner = crc_to_view.get(crc)
        if owner is None or owner["gen"] != generation:
            report.warnings.append(
                f"stale partition {pid} (dropped generation)")
            continue
        seen_partitions.add(pid)
        report.partitions += 1
        wal_path = files.get("wal")
        if wal_path is not None:
            try:
                scan = scan_wal(wal_path)
            except StoreCorruptionError as exc:
                report.errors.append(str(exc))
                continue
            report.wal_records += len(scan.records)
            report.wal_bytes += scan.total_bytes
            if scan.torn:
                report.warnings.append(
                    f"{pid}: torn WAL tail ({scan.error})")
        snapshot_path = files.get("snapshot")
        if snapshot_path is not None:
            report.snapshot_bytes += snapshot_path.stat().st_size
    for pid in manifest["partitions"]:
        if pid not in seen_partitions and crc_matches_live(
                pid, crc_to_view):
            report.warnings.append(
                f"manifest partition {pid} has no files on disk")
    return report


def crc_matches_live(pid: str, crc_to_view: dict[str, dict]) -> bool:
    parsed = parse_partition_id(pid)
    if parsed is None:
        return False
    crc, generation, _ = parsed
    owner = crc_to_view.get(crc)
    return owner is not None and owner["gen"] == generation


def store_stats(path) -> dict:
    """Flat stats dict for ``repro store stats`` (read-only)."""
    layout = StoreLayout(path)
    report = check_store(path)
    audit_events = 0
    if layout.audit_path.exists():
        with open(layout.audit_path, encoding="utf-8") as handle:
            audit_events = sum(1 for line in handle if line.strip())
    return {
        "path": report.root,
        "ok": report.ok,
        "views": report.views,
        "partitions": report.partitions,
        "wal_records": report.wal_records,
        "wal_bytes": report.wal_bytes,
        "snapshot_bytes": report.snapshot_bytes,
        "udf_histories": report.udf_histories,
        "audit_events": audit_events,
        "warnings": report.warnings,
        "errors": report.errors,
    }


def render_check(report: StoreCheckReport) -> str:
    lines = [f"store: {report.root}",
             f"  views: {report.views}  partitions: {report.partitions}",
             f"  wal records: {report.wal_records} "
             f"({report.wal_bytes} bytes)",
             f"  snapshots: {report.snapshot_bytes} bytes",
             f"  udf histories: {report.udf_histories}"]
    for warning in report.warnings:
        lines.append(f"  WARN: {warning}")
    for error in report.errors:
        lines.append(f"  ERROR: {error}")
    lines.append("OK" if report.ok else "CORRUPT")
    return "\n".join(lines)


def render_stats(stats: dict) -> str:
    lines = [f"store: {stats['path']}"]
    for key in ("views", "partitions",
                "wal_records", "wal_bytes", "snapshot_bytes",
                "udf_histories", "audit_events"):
        lines.append(f"  {key.replace('_', ' ')}: {stats[key]}")
    for warning in stats["warnings"]:
        lines.append(f"  WARN: {warning}")
    for error in stats["errors"]:
        lines.append(f"  ERROR: {error}")
    lines.append("status: " + ("ok" if stats["ok"] else "corrupt"))
    return "\n".join(lines)


__all__ = ["StoreCheckReport", "check_store", "store_stats",
           "render_check", "render_stats"]
