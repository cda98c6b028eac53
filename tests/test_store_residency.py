"""Residency tests for the durable store: every live (view, generation)
stays a resident ``MaterializedView``; the files only make it durable.
Also the store's health snapshot, its audit trail and manifest, and the
server's per-shard snapshot fold."""

from __future__ import annotations

import json

import pytest

from repro.server.shard import merge_store_snapshots
from repro.store import DurableViewStore
from repro.store.durable import StoreSnapshot
from repro.store.layout import view_crc

MODELS = ("cheap", "pricey")


def make_store(path, **kwargs) -> DurableViewStore:
    return DurableViewStore(path, partition_frames=64, fsync_every=1,
                            **kwargs)


def fill(store, model: str, count=40):
    view = store.create_or_get(f"mv::{model}@tiny", ["id"], ["label"])
    for i in range(count):
        view.put((i,), [{"label": f"{model}-{i}"}])
    return view


def audit_events(path):
    lines = (path / "audit.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert all(r["type"] == "store_audit" for r in records)
    assert [r["seq"] for r in records] == list(range(1, len(records) + 1))
    return records


def view_files(path, name):
    crc = view_crc(name)
    return sorted(p.name for p in (*path.glob("wal/*.wal"),
                                   *path.glob("snapshots/*.snap"))
                  if p.name.startswith(crc))


class TestEveryLiveViewIsResident:
    def test_views_stay_resident_however_large(self, tmp_path):
        store = make_store(tmp_path)
        views = {model: fill(store, model, count=200) for model in MODELS}
        for model, view in views.items():
            name = f"mv::{model}@tiny"
            # The same object, not a copy reloaded from the files.
            assert store.get(name) is view
            assert name in store
            assert store.create_or_get(name, ["id"], ["label"]) is view
        assert store.names() == ["mv::cheap@tiny", "mv::pricey@tiny"]
        assert store.total_serialized_bytes() == sum(
            v.serialized_bytes() for v in views.values())
        store.close()

    def test_reopen_makes_every_view_resident_before_any_probe(
            self, tmp_path):
        store = make_store(tmp_path)
        expected = {model: sorted(fill(store, model).items())
                    for model in MODELS}
        store.close()

        store = make_store(tmp_path)
        assert sorted(store._views) == store.names() == [
            "mv::cheap@tiny", "mv::pricey@tiny"]
        assert store.recovery_report.keys_recovered == 80
        for model in MODELS:
            assert sorted(store.get(f"mv::{model}@tiny").items()) == \
                expected[model]
        store.close()

    def test_puts_to_a_recovered_view_are_durable(self, tmp_path):
        store = make_store(tmp_path)
        fill(store, "cheap")
        store.close()

        store = make_store(tmp_path)
        store.get("mv::cheap@tiny").put((999,), [{"label": "late"}])
        assert store.counters["wal_records"] == 1
        store.flush()  # crash after the flush: no snapshot, no close
        reopened = make_store(tmp_path)
        view = reopened.get("mv::cheap@tiny")
        assert view.num_keys == 41
        assert view.get((999,)) == ({"label": "late"},)
        reopened.close()
        store.close()

    def test_handle_held_past_a_drop_writes_nothing_durable(self, tmp_path):
        store = make_store(tmp_path)
        straggler = fill(store, "cheap")
        fill(store, "pricey")
        store.drop("mv::cheap@tiny")
        records = store.counters["wal_records"]

        straggler.put((999,), [{"label": "late"}])
        assert store.counters["wal_records"] == records
        assert store.get("mv::cheap@tiny") is None
        store.close()

        store = make_store(tmp_path)
        assert store.names() == ["mv::pricey@tiny"]
        assert view_files(tmp_path, "mv::cheap@tiny") == []
        store.close()


class TestStoreSnapshot:
    def test_snapshot_counts_views_and_resident_bytes(self, tmp_path):
        store = make_store(tmp_path)
        views = [fill(store, model) for model in MODELS]
        snap = store.store_snapshot()
        assert snap.views == 2
        assert snap.bytes == sum(v.serialized_bytes() for v in views)
        assert snap.counters == {"wal_records": 80, "snapshots": 0}
        assert snap.wal_bytes > 0
        assert snap.snapshot_files == 0
        assert snap.snapshot_age_seconds is None
        assert snap.recovery is not None
        store.close()

    def test_drop_frees_the_view_its_bytes_and_its_files(self, tmp_path):
        store = make_store(tmp_path)
        cheap = fill(store, "cheap")
        pricey = fill(store, "pricey")
        store.snapshot()
        assert view_files(tmp_path, "mv::cheap@tiny")

        assert store.drop("mv::cheap@tiny") == cheap.serialized_bytes()
        snap = store.store_snapshot()
        assert snap.views == 1
        assert snap.bytes == pricey.serialized_bytes()
        assert view_files(tmp_path, "mv::cheap@tiny") == []
        assert view_files(tmp_path, "mv::pricey@tiny")
        assert store.drop("mv::cheap@tiny") == 0
        store.close()

    def test_drop_all_empties_the_store(self, tmp_path):
        store = make_store(tmp_path)
        views = [fill(store, model) for model in MODELS]
        assert store.drop_all() == sum(v.serialized_bytes() for v in views)
        snap = store.store_snapshot()
        assert (snap.views, snap.bytes) == (0, 0)
        store.close()
        reopened = make_store(tmp_path)
        try:
            assert reopened.names() == []
        finally:
            reopened.close()

    def test_closed_store_still_reports_its_snapshot(self, tmp_path):
        store = make_store(tmp_path)
        fill(store, "cheap")
        store.close()
        snap = store.store_snapshot()
        assert snap.views == 1
        assert snap.counters["snapshots"] >= 1
        assert snap.snapshot_files >= 1
        assert snap.snapshot_age_seconds is not None


class TestAuditAndManifest:
    def test_audit_trail_records_recovery_and_drops(self, tmp_path):
        store = make_store(tmp_path)
        fill(store, "cheap")
        fill(store, "pricey")
        store.drop("mv::pricey@tiny")
        store.close()
        # A fresh store has nothing to recover, so its trail opens with
        # the drop; views only ever leave the store by a drop.
        [drop] = audit_events(tmp_path)
        assert (drop["event"], drop["view"]) == ("drop", "mv::pricey@tiny")

        make_store(tmp_path).close()
        lines = (tmp_path / "audit.jsonl").read_text().splitlines()
        recovery = json.loads(lines[-1])
        assert len(lines) == 2
        assert recovery["event"] == "recovery"
        assert recovery["views_recovered"] == 1
        assert recovery["keys_recovered"] == 40

        # Numbering goes on across every close and reopen.
        reopened = make_store(tmp_path)
        reopened.drop("mv::cheap@tiny")
        reopened.close()
        seqs = [event["seq"] for event in audit_events(tmp_path)]
        assert len(seqs) == 4
        assert all(a < b for a, b in zip(seqs, seqs[1:])), seqs

    def test_manifest_view_lines_carry_layout_only(self, tmp_path):
        store = make_store(tmp_path)
        fill(store, "cheap")
        store.close()
        lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
        [view] = [json.loads(line) for line in lines
                  if json.loads(line)["type"] == "view"]
        assert view == {"type": "view", "name": "mv::cheap@tiny",
                        "generation": 1, "key_columns": ["id"],
                        "output_columns": ["label"]}


def snapshot(views, bytes_, *, age=None, counters=None, recovery=None,
             path="shard"):
    return StoreSnapshot(path=path, views=views, bytes=bytes_,
                         wal_bytes=10 * views, snapshot_files=views,
                         snapshot_age_seconds=age,
                         counters=dict(counters or {}), recovery=recovery)


class TestMergeStoreSnapshots:
    def test_views_bytes_files_and_counters_add(self):
        merged = merge_store_snapshots([
            snapshot(2, 100, counters={"wal_records": 5, "snapshots": 1}),
            snapshot(3, 50, counters={"wal_records": 7}),
        ], path="fleet")
        assert merged.path == "fleet"
        assert (merged.views, merged.bytes) == (5, 150)
        assert (merged.wal_bytes, merged.snapshot_files) == (50, 5)
        assert merged.counters == {"wal_records": 12, "snapshots": 1}
        assert merged.recovery is None

    def test_oldest_age_wins_and_missing_shards_are_skipped(self):
        assert merge_store_snapshots([]) is None
        assert merge_store_snapshots([None, None]) is None
        merged = merge_store_snapshots([
            None, snapshot(1, 1, age=2.0), snapshot(1, 1),
            snapshot(1, 1, age=9.5,
                     recovery={"views_recovered": 1, "mode": "wal"}),
        ])
        assert merged.path == "shard"
        assert merged.views == 3
        assert merged.snapshot_age_seconds == 9.5
        assert merged.recovery == {"views_recovered": 1, "mode": "wal"}

    @pytest.mark.parametrize("split", [1, 2])
    def test_fold_is_associative(self, split):
        shards = [
            snapshot(1, 10, age=1.0, counters={"wal_records": 1},
                     recovery={"views_recovered": 1}),
            snapshot(2, 20, counters={"snapshots": 2}),
            snapshot(4, 40, age=3.0, counters={"wal_records": 4},
                     recovery={"views_recovered": 4}),
        ]
        flat = merge_store_snapshots(shards)
        nested = merge_store_snapshots([
            merge_store_snapshots(shards[:split]),
            merge_store_snapshots(shards[split:]),
        ])
        assert nested == flat
