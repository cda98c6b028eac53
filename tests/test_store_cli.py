"""CLI tests for ``repro store check`` / ``repro store stats`` and the
manifest JSON-schema validation they expose."""

from __future__ import annotations

import io
from pathlib import Path

from repro.cli import main
from repro.store import DurableViewStore, check_store, store_stats

SCHEMA = str(Path(__file__).parent / "schemas" /
             "store_manifest.schema.json")


def build_store(path) -> None:
    store = DurableViewStore(path, partition_frames=8, fsync_every=1)
    view = store.create_or_get("mv::fasterrcnn_resnet50@tiny",
                               ["id"], ["label", "score"])
    for i in range(20):
        view.put((i,), [{"label": "car", "score": 0.9}])
    store.log_udf_history("FastRCNNObjectDetector", ["tiny"], 0.1,
                          "id < 20")
    store.close()


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), stdin=io.StringIO(), stdout=out)
    return code, out.getvalue()


class TestStoreCheck:
    def test_healthy_store_passes(self, tmp_path):
        build_store(tmp_path)
        code, out = run_cli("store", "check", str(tmp_path))
        assert code == 0
        assert out.strip().endswith("OK")
        assert "views: 1" in out
        assert "udf histories: 1" in out

    def test_schema_validation_of_manifest(self, tmp_path):
        build_store(tmp_path)
        code, out = run_cli("store", "check", str(tmp_path),
                            "--schema", SCHEMA)
        assert code == 0
        assert "records conform to" in out

    def test_schema_violation_fails(self, tmp_path):
        build_store(tmp_path)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(manifest.read_text() +
                            '{"type": "view", "name": ""}\n')
        code, out = run_cli("store", "check", str(tmp_path),
                            "--schema", SCHEMA)
        assert code == 1
        assert "schema violation" in out

    def test_missing_directory_is_corrupt(self, tmp_path):
        code, out = run_cli("store", "check", str(tmp_path / "nope"))
        assert code == 1
        assert out.strip().endswith("CORRUPT")

    def test_torn_wal_tail_warns_but_passes(self, tmp_path):
        build_store(tmp_path)
        store = DurableViewStore(tmp_path, partition_frames=8,
                                 fsync_every=1)
        store.get("mv::fasterrcnn_resnet50@tiny").put(
            (500,), [{"label": "car", "score": 0.5}])
        store.flush()  # crash without close: the put stays in the WAL
        wal = max((tmp_path / "wal").glob("*.wal"),
                  key=lambda p: p.stat().st_size)
        wal.write_bytes(wal.read_bytes()[:-3])

        code, out = run_cli("store", "check", str(tmp_path))
        assert code == 0  # torn tails are recoverable -> warning only
        assert "WARN" in out and "torn WAL tail" in out
        assert out.strip().endswith("OK")

    def test_bad_control_log_magic_is_an_error(self, tmp_path):
        build_store(tmp_path)
        (tmp_path / "control.log").write_bytes(b"NOTAWAL!rest")
        code, out = run_cli("store", "check", str(tmp_path))
        assert code == 1
        assert out.strip().endswith("CORRUPT")

    def test_check_is_read_only(self, tmp_path):
        build_store(tmp_path)
        before = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*"))
                  if p.is_file()}
        check_store(tmp_path)
        after = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*"))
                 if p.is_file()}
        assert before == after


class TestTieredManifest:
    def test_warm_view_line_reopens_resident(self, tmp_path):
        """A manifest that names a view's tier (``"tier": "warm"``, as
        stores with hot/warm tiering wrote) opens with every live view
        resident and every key recovered; the reopen rewrites the
        manifest to the schema."""
        import json

        build_store(tmp_path)
        store = DurableViewStore(tmp_path, partition_frames=8,
                                 fsync_every=1)
        view = store.create_or_get("mv::cartype@tiny", ["id"], ["label"])
        for i in range(12):
            view.put((i,), [{"label": "Nissan"}])
        store.close()
        manifest = tmp_path / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        [warm] = [i for i, r in enumerate(records)
                  if r.get("name") == "mv::cartype@tiny"]
        lines[warm] = json.dumps({**records[warm], "tier": "warm"},
                                 sort_keys=True)
        manifest.write_text("\n".join(lines) + "\n")
        assert run_cli("store", "check", str(tmp_path),
                       "--schema", SCHEMA)[0] == 1

        store = DurableViewStore(tmp_path, partition_frames=8,
                                 fsync_every=1)
        assert store.recovery_report.keys_recovered == 20 + 12
        assert sorted(store._views) == store.names() == [
            "mv::cartype@tiny", "mv::fasterrcnn_resnet50@tiny"]
        assert store.get("mv::cartype@tiny").num_keys == 12
        assert store.get("mv::fasterrcnn_resnet50@tiny").num_keys == 20
        code, out = run_cli("store", "check", str(tmp_path),
                            "--schema", SCHEMA)
        store.close()
        assert code == 0, out
        assert "records conform to" in out


class TestStoreStats:
    def test_stats_render_counts(self, tmp_path):
        build_store(tmp_path)
        code, out = run_cli("store", "stats", str(tmp_path))
        assert code == 0
        assert "  views: 1\n" in out
        assert out.strip().endswith("status: ok")

    def test_stats_dict_fields(self, tmp_path):
        build_store(tmp_path)
        stats = store_stats(tmp_path)
        assert stats["ok"] is True
        assert stats["views"] == 1
        assert stats["partitions"] >= 3  # 20 keys / 8-frame buckets
        assert stats["snapshot_bytes"] > 0  # close() snapshotted
        assert stats["udf_histories"] == 1
