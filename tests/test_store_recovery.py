"""Crash-recovery tests for the durable view store.

Covers the ISSUE's recovery matrix: kill-at-random-offset WAL replay
(torn tails, corrupted checksums, duplicate records), snapshot + WAL
precedence, drop tombstones and generation handling, and a cross-process
restart test (pattern of ``test_cross_process_determinism.py``) asserting
a restarted ``EvaSession`` reproduces the uninterrupted run's view
contents, hit attribution, and virtual clocks exactly.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import EvaConfig
from repro.errors import StorageError
from repro.optimizer.udf_manager import UdfSignature
from repro.parser.parser import parse_predicate
from repro.server import EvaServer
from repro.store import (DurableViewStore, PersistentUdfManager,
                         restore_udf_histories)
from repro.storage.view_store import MaterializedView
from repro.store.layout import STORE_FORMAT
from repro.store.wal import MAGIC, WalWriter, scan_wal
from repro.symbolic.engine import SymbolicEngine, predicate_key


def make_store(path, **kwargs) -> DurableViewStore:
    kwargs.setdefault("partition_frames", 8)
    kwargs.setdefault("fsync_every", 1)
    return DurableViewStore(path, **kwargs)


def fill(store: DurableViewStore, name="mv::m@tiny", count=30):
    view = store.create_or_get(name, ["id"], ["label"])
    for i in range(count):
        rows = [] if i % 5 == 0 else [{"label": f"car{i}"}]
        view.put((i,), rows)
    return view


def contents(store: DurableViewStore, name="mv::m@tiny"):
    view = store.get(name)
    assert view is not None
    return sorted(view.items())


class TestDurableRoundTrip:
    def test_close_and_reopen_recovers_everything(self, tmp_path):
        first = make_store(tmp_path)
        fill(first)
        expected = contents(first)
        first.close()

        second = make_store(tmp_path)
        assert second.names() == ["mv::m@tiny"]
        assert contents(second) == expected
        report = second.recovery_report
        assert report.views_recovered == 1
        assert report.partitions_replayed >= 4  # 30 keys / 8-frame buckets
        assert report.keys_recovered == 30
        assert report.torn_tails_repaired == 0
        second.close()

    def test_crash_without_close_recovers_from_wal_alone(self, tmp_path):
        """No snapshot was ever taken: the WAL suffix is the whole view."""
        first = make_store(tmp_path)
        fill(first)
        expected = contents(first)
        first.flush()  # crash here: no snapshot(), no close()

        second = make_store(tmp_path)
        assert contents(second) == expected
        assert second.recovery_report.records_replayed == 30
        assert not list(second.layout.snapshot_dir.glob("*.snap"))
        second.close()

    def test_snapshot_plus_wal_suffix_precedence(self, tmp_path):
        first = make_store(tmp_path)
        view = fill(first, count=20)
        assert first.snapshot() > 0
        for i in range(20, 30):  # post-snapshot suffix, WAL-only
            view.put((i,), [{"label": f"late{i}"}])
        expected = contents(first)
        first.flush()  # crash before the next snapshot

        second = make_store(tmp_path)
        assert contents(second) == expected
        report = second.recovery_report
        assert report.keys_recovered == 30
        # The first 20 keys came from snapshots, not WAL replay.
        assert 0 < report.records_replayed <= 10
        second.close()

    def test_udf_history_roundtrip_and_dedupe(self, tmp_path):
        first = make_store(tmp_path)
        first.log_udf_history("CarType", ["tiny"], 0.031, "id < 40")
        first.log_udf_history("CarType", ["tiny"], 0.031, "id < 40")  # dup
        first.close()

        second = make_store(tmp_path)
        records = second.udf_history_records()
        assert len(records) == 1
        assert records[0]["predicate"] == "id < 40"
        assert second.recovery_report.udf_histories == 1
        second.close()

    def test_unchanged_history_appends_no_wal_record(self, tmp_path):
        """Only a real change of ``p_u`` is logged; a covered guard —
        which reduction may hand back reordered — is not, and recovery
        rebuilds the same history from the shorter log."""
        engine = SymbolicEngine()
        signature = UdfSignature("CarType", ("tiny",))

        def udf_records() -> int:
            scan = scan_wal(first.layout.control_log_path)
            return sum(r["op"] == "udf" for r in scan.records)

        first = make_store(tmp_path)
        manager = PersistentUdfManager(engine, first)
        for text in ("id < 20 AND area > 0.05",
                     "id >= 30 AND id < 50 AND score > 0.5"):
            assert manager.record_execution(
                signature, engine.analyze(parse_predicate(text)), 0.031)
        assert udf_records() == 2
        for text in ("id < 20 AND area > 0.05", "id < 10 AND area > 0.1",
                     "id >= 30 AND id < 50 AND score > 0.5"):
            assert not manager.record_execution(
                signature, engine.analyze(parse_predicate(text)), 0.031)
        assert udf_records() == 2
        expected = manager.history(signature)
        first.close()

        second = make_store(tmp_path)
        recovered = PersistentUdfManager(engine, second)
        assert restore_udf_histories(second, recovered, engine) == 1
        history = recovered.history(signature)
        assert set(predicate_key(history.aggregated_predicate)) \
            == set(predicate_key(expected.aggregated_predicate))
        assert history.per_tuple_cost == expected.per_tuple_cost
        second.close()

    def test_closed_store_refuses_writes(self, tmp_path):
        store = make_store(tmp_path)
        store.close()
        store.close()  # idempotent
        with pytest.raises(StorageError):
            store.create_or_get("mv::x", ["id"], ["label"])


class TestCrashFuzz:
    def test_kill_at_random_wal_offset_recovers_clean_prefix(self, tmp_path):
        """Simulated kill -9 at arbitrary byte offsets of a partition WAL:
        recovery must never raise, must keep a consistent prefix, and the
        store must stay writable and re-recoverable afterwards."""
        origin = tmp_path / "origin"
        first = make_store(origin, partition_frames=1_000_000)
        fill(first)  # one partition -> one WAL with all 30 records
        expected = contents(first)
        first.flush()  # flushed but NOT closed: no snapshot was taken
        [wal_path] = list((origin / "wal").glob("*.wal"))
        wal_bytes = wal_path.read_bytes()

        rng = random.Random(99)
        cuts = sorted({rng.randrange(8, len(wal_bytes))
                       for _ in range(8)} | {len(wal_bytes) - 1})
        for cut in cuts:
            crashed = tmp_path / f"crash{cut}"
            shutil.copytree(origin, crashed)
            (crashed / "wal" / wal_path.name).write_bytes(wal_bytes[:cut])

            store = make_store(crashed, partition_frames=1_000_000)
            report = store.recovery_report
            recovered = contents(store)
            assert recovered == expected[:len(recovered)]  # clean prefix
            if cut < len(wal_bytes) - 1 or report.torn_tails_repaired:
                assert report.torn_tails_repaired == 1
                assert report.problems
            # The healed store accepts writes and survives another cycle.
            store.get("mv::m@tiny").put((500,), [{"label": "post"}])
            store.close()
            reopened = make_store(crashed, partition_frames=1_000_000)
            assert contents(reopened) == recovered + \
                [((500,), ({"label": "post"},))]
            reopened.close()

    def test_duplicate_wal_records_replay_idempotently(self, tmp_path):
        first = make_store(tmp_path, partition_frames=1_000_000)
        fill(first)
        expected = contents(first)
        first.flush()  # crash without close: records stay in the WAL
        [wal_path] = list((tmp_path / "wal").glob("*.wal"))
        scan = scan_wal(wal_path)
        assert len(scan.records) == 30
        writer = WalWriter(wal_path, sync_every=1)
        writer.append(scan.records[0])  # replayed put: first write wins
        writer.append(scan.records[3])
        writer.close()

        second = make_store(tmp_path, partition_frames=1_000_000)
        assert contents(second) == expected
        assert second.get("mv::m@tiny").num_keys == 30
        second.close()

    def test_corrupt_snapshot_falls_back_to_wal(self, tmp_path):
        first = make_store(tmp_path, partition_frames=1_000_000)
        fill(first)
        first.snapshot()
        view = first.get("mv::m@tiny")
        view.put((30,), [{"label": "wal-only"}])
        first.flush()
        [snap] = list((tmp_path / "snapshots").glob("*.snap"))
        snap.write_bytes(b"\x00garbage")  # bit rot

        second = make_store(tmp_path, partition_frames=1_000_000)
        report = second.recovery_report
        assert any("unreadable snapshot" in p for p in report.problems)
        # Snapshot lost, but the post-snapshot WAL suffix still applied.
        assert second.get("mv::m@tiny").get((30,)) == \
            ({"label": "wal-only"},)
        second.close()


_floats = st.floats(allow_nan=False, width=64)
_values = st.one_of(
    st.text(max_size=6), _floats, st.integers(-2**40, 2**40), st.none(),
    st.builds(repro.types.BoundingBox, _floats, _floats, _floats, _floats),
    st.builds(repro.types.BoundingBox, *[st.integers(0, 9)] * 4))
_entries = st.dictionaries(
    st.tuples(st.integers(0, 40),
              st.one_of(st.text(max_size=3),
                        st.tuples(st.integers(0, 3), st.integers(0, 3)))),
    st.lists(st.fixed_dictionaries({"label": _values, "bbox": _values}),
             max_size=3),
    max_size=10)


def exact(items):
    """``items()`` with floats spelled out bit for bit (``==`` would let
    ``-0.0`` pass for ``0.0`` and ``1`` for ``1.0``)."""
    def spell(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, repro.types.BoundingBox):
            return ("bbox", *map(spell, value.as_tuple()))
        if isinstance(value, tuple):
            return tuple(map(spell, value))
        return value

    return sorted(
        ((spell(key), [sorted((col, spell(v)) for col, v in row.items())
                       for row in rows]) for key, rows in items), key=repr)


class TestColumnRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(logged=_entries, snapshotted=_entries)
    def test_memory_wal_snapshot_recovery_agree(self, tmp_path_factory,
                                                logged, snapshotted):
        """What a view holds in memory is what comes back from the WAL
        records alone, from snapshot + WAL suffix, and from snapshots
        alone — same keys, rows and value types, floats bit-identical."""
        path = tmp_path_factory.mktemp("roundtrip")
        first = make_store(path)
        view = first.create_or_get("mv::m@tiny", ["id", "part"],
                                   ["label", "bbox"])
        for key, rows in snapshotted.items():
            view.put(key, rows)
        first.snapshot()
        for key, rows in logged.items():
            view.put(key, rows)
        expected = exact(view.items())
        nbytes = view.serialized_bytes()
        first.flush()  # crash: the second half exists only as WAL records

        second = make_store(path)
        recovered = second.get("mv::m@tiny")
        assert exact(recovered.items()) == expected
        assert recovered.serialized_bytes() == nbytes
        second.close()  # every partition snapshotted, WALs truncated

        third = make_store(path)
        assert third.recovery_report.records_replayed == 0
        assert exact(third.get("mv::m@tiny").items()) == expected
        assert third.get("mv::m@tiny").serialized_bytes() == nbytes
        third.close()
        shutil.rmtree(path)


class TestEncodeOnce:
    def test_no_key_is_offered_to_a_view_twice(self, tmp_path, monkeypatch,
                                               tiny_video):
        """Fill, shut down (snapshot), reopen (recovery), resume: the only
        keys ever offered to ``put_many`` are the queries' fresh ones —
        neither the snapshot nor the recovery re-inserts an entry."""
        offered = fresh = 0
        put_many = MaterializedView.put_many

        def counting(view, keys, counts, columns, **kwargs):
            nonlocal offered, fresh
            flags = put_many(view, keys, counts, columns, **kwargs)
            offered += len(flags)
            fresh += sum(flags)
            return flags

        monkeypatch.setattr(MaterializedView, "put_many", counting)
        config = EvaConfig(store_mode="durable", store_path=str(tmp_path),
                           store_snapshot_interval=2)

        def serve(queries):
            server = EvaServer(config, max_workers=2)
            server.register_video(tiny_video)
            server.start()
            handle = server.connect("analyst")
            for lo, hi in queries:
                handle.execute(
                    "SELECT id, bbox FROM tiny CROSS APPLY "
                    f"ObjectDetector(frame) WHERE id >= {lo} AND id < {hi} "
                    "AND label = 'car' AND CarType(frame, bbox) = 'Nissan'")
            store = server.state.view_store.base
            keys = sum(store.get(name).num_keys for name in store.names())
            server.shutdown()
            return store, keys

        _, stored = serve([(0, 60), (30, 90)])
        assert offered == fresh == stored > 0
        reopened, resumed = serve([(60, 120)])
        assert reopened.recovery_report.keys_recovered == stored
        assert offered == fresh == resumed > stored


class TestFormatVersion:
    def test_store_of_another_format_is_refused(self, tmp_path):
        first = make_store(tmp_path)
        fill(first)
        first.close()
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(manifest.read_text().replace(
            STORE_FORMAT, "eva-store-v1"))
        control = tmp_path / "control.log"
        control.write_bytes(b"EVAWAL1\n" + control.read_bytes()[len(MAGIC):])
        before = sorted((p.name, p.stat().st_size)
                        for p in tmp_path.rglob("*") if p.is_file())

        with pytest.raises(StorageError) as refused:
            make_store(tmp_path)
        assert "eva-store-v1" in str(refused.value)
        assert STORE_FORMAT in str(refused.value)
        # Refused means untouched: nothing repaired, swept or rewritten.
        assert before == sorted((p.name, p.stat().st_size)
                                for p in tmp_path.rglob("*") if p.is_file())

    def test_v2_store_is_refused_before_anything_is_repaired(self, tmp_path):
        """A store as the previous format left it — ``EVAWAL2`` logs,
        ``.npz`` snapshots, a torn WAL tail and a stale partition file,
        all of which recovery would repair or sweep — is refused with an
        error that names ``eva-store-v2``, and left as it was."""
        first = make_store(tmp_path)
        fill(first)
        first.snapshot()
        first.get("mv::m@tiny").put((31,), [{"label": "late"}])
        first.flush()  # crash: no close
        for path in [tmp_path / "control.log",
                     *(tmp_path / "wal").glob("*.wal")]:
            path.write_bytes(b"EVAWAL2\n" + path.read_bytes()[len(MAGIC):])
        [wal, *_] = sorted((tmp_path / "wal").glob("*.wal"))
        with open(wal, "ab") as handle:
            handle.write(b"\x00\x00\x01torn")
        (tmp_path / "wal" / "00000000-g1-b0.wal").write_bytes(b"EVAWAL2\n")
        for snap in (tmp_path / "snapshots").glob("*.snap"):
            snap.rename(snap.with_suffix(".npz"))
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(manifest.read_text().replace(
            STORE_FORMAT, "eva-store-v2"))
        before = sorted((p.name, p.read_bytes())
                        for p in tmp_path.rglob("*") if p.is_file())

        with pytest.raises(StorageError) as refused:
            make_store(tmp_path)
        assert "eva-store-v2" in str(refused.value)
        assert before == sorted((p.name, p.read_bytes())
                                for p in tmp_path.rglob("*") if p.is_file())

    def test_wal_of_another_format_is_refused_without_a_manifest(
            self, tmp_path):
        first = make_store(tmp_path)
        fill(first)
        first.close()
        (tmp_path / "manifest.jsonl").unlink()
        control = tmp_path / "control.log"
        control.write_bytes(b"EVAWAL1\n" + control.read_bytes()[len(MAGIC):])
        with pytest.raises(StorageError):
            make_store(tmp_path)


class TestTombstonesAndGenerations:
    def test_drop_survives_crash_before_snapshot(self, tmp_path):
        first = make_store(tmp_path)
        fill(first)
        assert first.drop("mv::m@tiny") > 0
        first.flush()  # crash: tombstone is on disk, no close()

        second = make_store(tmp_path)
        assert "mv::m@tiny" not in second
        assert second.names() == []
        second.close()

    def test_stale_generation_files_are_swept(self, tmp_path):
        first = make_store(tmp_path)
        fill(first)
        first.snapshot()
        # Crash *during* the drop: tombstone fsynced but files survive.
        first._control.append({"op": "drop", "view": "mv::m@tiny",
                               "gen": 1})
        first._control.flush()
        first.flush()

        second = make_store(tmp_path)
        assert "mv::m@tiny" not in second
        assert second.recovery_report.stale_files_removed > 0
        assert not list((tmp_path / "wal").glob("*.wal"))
        assert not list((tmp_path / "snapshots").glob("*.snap"))
        second.close()

    def test_recreate_after_drop_starts_a_new_generation(self, tmp_path):
        first = make_store(tmp_path)
        fill(first, count=10)
        first.drop("mv::m@tiny")
        fresh = first.create_or_get("mv::m@tiny", ["id"], ["label"])
        fresh.put((77,), [{"label": "second-life"}])
        assert first._meta["mv::m@tiny"].generation == 2
        first.close()

        second = make_store(tmp_path)
        view = second.get("mv::m@tiny")
        assert sorted(view.keys()) == [(77,)]
        assert second._meta["mv::m@tiny"].generation == 2
        second.close()

    def test_drop_returns_zero_for_unknown_view(self, tmp_path):
        store = make_store(tmp_path)
        assert store.drop("mv::never") == 0
        store.close()


# -- cross-process restart ---------------------------------------------------------

_IMPORT_ROOT = str(Path(repro.__file__).resolve().parents[1])

#: argv: [mode, store_dir].  ``warm`` runs the query twice in one durable
#: session (the uninterrupted run) and reports its *second* execution;
#: ``restart`` opens the store left behind and reports its only execution.
#: Both emit view-content digests, per-UDF hit attribution, and the
#: virtual-clock breakdown for comparison.
SNIPPET = """
import hashlib, json, sys

from repro.config import EvaConfig, ReusePolicy
from repro.session import EvaSession
from repro.types import VideoMetadata
from repro.video.synthetic import SyntheticVideo

mode, store_dir = sys.argv[1], sys.argv[2]
QUERY = ("SELECT id, bbox FROM tiny CROSS APPLY "
         "FastRCNNObjectDetector(frame) WHERE id < 25 AND label='car' "
         "AND CarType(frame, bbox) = 'Nissan';")

session = EvaSession(config=EvaConfig(
    reuse_policy=ReusePolicy.EVA, store_mode="durable",
    store_path=store_dir))
session.register_video(SyntheticVideo(
    VideoMetadata(name="tiny", num_frames=60, width=960, height=540,
                  fps=25.0, vehicles_per_frame=8.3), seed=7))

if mode == "warm":
    session.execute(QUERY)  # cold pass materializes the views
result = session.execute(QUERY)
metrics = session.last_query_metrics()

views = {}
for name in sorted(session.view_store.names()):
    body = repr(sorted(session.view_store.get(name).items()))
    views[name] = hashlib.sha256(body.encode()).hexdigest()

print(json.dumps({
    "rows": hashlib.sha256(
        repr(sorted(result.rows, key=repr)).encode()).hexdigest(),
    "views": views,
    "udf_counts": metrics.udf_counts,
    "reused_counts": metrics.reused_counts,
    "breakdown": {cat.value: round(t, 9)
                  for cat, t in sorted(metrics.time_breakdown.items(),
                                       key=lambda kv: kv[0].value)},
    "udf_time": metrics.udf_time,
}))
session.close()
"""


def _run(mode: str, store_dir: Path, hashseed: str) -> dict:
    completed = subprocess.run(
        [sys.executable, "-c", SNIPPET, mode, str(store_dir)],
        capture_output=True, text=True, timeout=240,
        env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin",
             "HOME": os.path.expanduser("~"),
             "PYTHONPATH": _IMPORT_ROOT},
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout)


def test_restarted_session_matches_uninterrupted_run(tmp_path):
    store_dir = tmp_path / "store"
    # Different hash seeds on purpose: the durable format must not leak
    # process-salted ordering into recovered state.
    warm = _run("warm", store_dir, hashseed="0")
    restarted = _run("restart", store_dir, hashseed="12345")

    assert restarted["rows"] == warm["rows"]
    assert restarted["views"] == warm["views"]  # identical view contents
    # Hit attribution: the restarted run reuses exactly what the
    # uninterrupted second pass reused, invoking zero fresh UDFs.
    assert restarted["udf_counts"] == warm["udf_counts"]
    assert restarted["reused_counts"] == warm["reused_counts"]
    assert restarted["udf_time"] < 0.5
    # Virtual clocks agree category-by-category.  OPTIMIZE is the one
    # bucket charged with *real* optimizer wall time (see
    # ``SimulationClock.measure``), so it legitimately jitters across
    # processes; every modeled category must match exactly.
    assert set(restarted["breakdown"]) == set(warm["breakdown"])
    for category, seconds in warm["breakdown"].items():
        if category == "optimize":
            continue
        assert restarted["breakdown"][category] == \
            pytest.approx(seconds, rel=1e-6, abs=1e-9), category
