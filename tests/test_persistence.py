"""Tests for persisting and reloading reuse state across sessions."""

import io
from pathlib import Path

import pytest

from repro.clock import CostCategory
from repro.config import EvaConfig, ReusePolicy
from repro.session import EvaSession
from repro.cli import main
from repro.errors import StorageError
from repro.storage.columnar import ColumnBatch
from repro.storage.view_store import MaterializedView
from repro.store.wal import scan_wal
from repro.types import BoundingBox


def _round_trip(view: MaterializedView) -> MaterializedView:
    """``view`` rebuilt from its serialized bytes, as a store reads a
    snapshot."""
    restored = MaterializedView(view.name, view.key_columns,
                                view.output_columns)
    restored.restore(ColumnBatch.decode(view.serialize(), compressed=True))
    return restored


class TestViewSerialization:
    def test_roundtrip_with_bboxes_and_empty_keys(self):
        view = MaterializedView("v", ["id"], ["label", "bbox", "score"])
        view.put((1,), [
            {"label": "car", "bbox": BoundingBox(1, 2, 3, 4), "score": 0.9},
            {"label": "bus", "bbox": BoundingBox(5, 6, 7, 8), "score": 0.4},
        ])
        view.put((2,), [])  # computed, zero detections
        restored = _round_trip(view)
        assert restored.num_keys == 2
        assert restored.get((2,)) == ()
        rows = restored.get((1,))
        assert rows[0]["bbox"] == BoundingBox(1, 2, 3, 4)
        assert rows[1]["label"] == "bus"

    def test_roundtrip_with_composite_keys(self):
        view = MaterializedView("v", ["id", "bbox_key"], ["value"])
        view.put((3, (10, 20, 30, 40)), [{"value": "Nissan"}])
        restored = _round_trip(view)
        assert restored.get((3, (10, 20, 30, 40)))[0]["value"] == "Nissan"

    def test_boolean_values_roundtrip(self):
        view = MaterializedView("v", ["id"], ["value"])
        view.put((1,), [{"value": True}])
        assert _round_trip(view).get((1,))[0]["value"] is True


class TestSessionPersistence:
    QUERY = ("SELECT id, bbox FROM tiny CROSS APPLY "
             "FastRCNNObjectDetector(frame) WHERE id < 40 AND label='car' "
             "AND CarType(frame, bbox) = 'Nissan';")

    def test_reuse_survives_restart(self, tiny_video, tmp_path):
        first = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
        first.register_video(tiny_video)
        expected = first.execute(self.QUERY)
        first.save_reuse_state(tmp_path)

        second = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
        second.register_video(tiny_video)
        second.load_reuse_state(tmp_path)
        result = second.execute(self.QUERY)
        assert result.rows == expected.rows
        # The restarted session ran (almost) no UDFs.
        metrics = second.last_query_metrics()
        assert metrics.time(CostCategory.UDF) < 0.5
        assert second.hit_percentage() > 90.0

    def test_partial_overlap_after_restart(self, tiny_video, tmp_path):
        first = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
        first.register_video(tiny_video)
        first.execute(self.QUERY)
        first.save_reuse_state(tmp_path)

        second = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
        second.register_video(tiny_video)
        second.load_reuse_state(tmp_path)
        wider = self.QUERY.replace("id < 40", "id < 60")
        baseline = EvaSession(
            config=EvaConfig(reuse_policy=ReusePolicy.NONE))
        baseline.register_video(tiny_video)
        assert sorted(second.execute(wider).rows, key=repr) == \
            sorted(baseline.execute(wider).rows, key=repr)
        stats = second.metrics.udf_stats["fasterrcnn_resnet50"]
        assert stats.reused_invocations == 40


class TestDurableHistoryLog:
    """A durable session logs ``p_u`` only when it changes, and a
    restarted session recovers the same reuse from that log."""

    SECOND = TestSessionPersistence.QUERY.replace(
        "id < 40", "id >= 60 AND id < 90 AND score > 0.5")

    def _session(self, video, path) -> EvaSession:
        session = EvaSession(config=EvaConfig(
            reuse_policy=ReusePolicy.EVA, store_mode="durable",
            store_path=str(path)))
        session.register_video(video)
        return session

    def test_repeated_queries_append_no_history_records(self, tiny_video,
                                                        tmp_path):
        queries = (TestSessionPersistence.QUERY, self.SECOND)
        first = self._session(tiny_video, tmp_path)

        def udf_records() -> int:
            scan = scan_wal(first.view_store.layout.control_log_path)
            return sum(r["op"] == "udf" for r in scan.records)

        expected = [first.execute(q).rows for q in queries]
        settled = udf_records()
        assert settled > 0
        version = first.udf_manager.version
        for query in queries * 2:
            first.execute(query)
        assert udf_records() == settled
        assert first.udf_manager.version == version
        first.close()

        second = self._session(tiny_video, tmp_path)
        assert [second.execute(q).rows for q in queries] == expected
        assert second.last_query_metrics().time(CostCategory.UDF) < 0.5
        assert second.hit_percentage() > 90.0
        second.close()

    def test_reset_is_durable(self, tiny_video, tmp_path):
        """A reset forgets every ``p_u`` on disk before it returns, so a
        reopened store plans no reuse of the views it tombstoned."""
        first = self._session(tiny_video, tmp_path)
        first.execute(TestSessionPersistence.QUERY)
        assert first.udf_manager.histories()
        first.reset_reuse_state()
        scan = scan_wal(first.view_store.layout.control_log_path)
        assert not [r for r in scan.records if r["op"] == "udf"]
        first.close()

        second = self._session(tiny_video, tmp_path)
        assert second.view_store.names() == []
        assert second.udf_manager.histories() == []
        second.execute(TestSessionPersistence.QUERY)
        applies = [record for record in second.last_optimized.audit
                   if record.kind in ("detector-apply", "classifier-apply")]
        assert applies and not any(record.reused for record in applies)
        second.close()


def _predicates(manager) -> dict:
    return {history.signature.key():
            history.aggregated_predicate.to_expression().to_sql()
            for history in manager.histories()}


class TestReuseStateExport:
    """``save_reuse_state`` writes an ``eva-store-v3`` store and
    ``load_reuse_state`` copies it into the session's own store."""

    SECOND = TestDurableHistoryLog.SECOND

    def _filled(self, video) -> EvaSession:
        session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
        session.register_video(video)
        for query in (TestSessionPersistence.QUERY, self.SECOND):
            session.execute(query)
        return session

    def test_an_export_is_a_store_the_checker_accepts(self, tiny_video,
                                                      tmp_path):
        source = self._filled(tiny_video)
        written = source.save_reuse_state(tmp_path / "export")
        assert written > 0
        schema = Path(__file__).parent / "schemas" / \
            "store_manifest.schema.json"
        out = io.StringIO()
        code = main(["store", "check", str(tmp_path / "export"),
                     "--schema", str(schema)],
                    stdin=io.StringIO(), stdout=out)
        assert code == 0, out.getvalue()
        assert f"views: {len(source.view_store.names())}" in out.getvalue()

    def test_saving_again_replaces_the_export(self, tiny_video, tmp_path):
        source = self._filled(tiny_video)
        source.save_reuse_state(tmp_path)
        source.reset_reuse_state()
        source.execute(self.SECOND)
        source.save_reuse_state(tmp_path)
        loaded = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
        loaded.load_reuse_state(tmp_path)
        assert loaded.view_store.names() == source.view_store.names()
        assert _predicates(loaded.udf_manager) == \
            _predicates(source.udf_manager)

    def test_a_durable_session_keeps_what_it_loaded(self, tiny_video,
                                                    tmp_path):
        """The loaded views and ``p_u`` land in the session's own store:
        after a restart both are back, and no other store is open."""
        export = tmp_path / "export"
        source = self._filled(tiny_video)
        source.save_reuse_state(export)
        expected_names = source.view_store.names()
        expected = _predicates(source.udf_manager)

        config = EvaConfig(reuse_policy=ReusePolicy.EVA,
                           store_mode="durable",
                           store_path=str(tmp_path / "store"))
        first = EvaSession(config=config)
        first.register_video(tiny_video)
        first.execute(TestSessionPersistence.QUERY.replace(
            "id < 40", "id >= 300"))
        store = first.view_store
        first.load_reuse_state(export)
        assert first.view_store is store
        assert _predicates(first.udf_manager) == expected
        first.close()
        with pytest.raises(StorageError, match="closed"):
            store.create_or_get("mv::x", ["id"], ["y"])

        second = EvaSession(config=config)
        second.register_video(tiny_video)
        assert second.view_store.names() == expected_names
        assert _predicates(second.udf_manager) == expected
        second.execute(self.SECOND)
        assert second.hit_percentage() > 90.0
        second.close()

    def test_loading_leaves_the_exported_data_as_it_was(self, tiny_video,
                                                        tmp_path):
        """The export is reopened with its own partitioning, so closing
        it after the copy rewrites no snapshot."""
        source = EvaSession(config=EvaConfig(
            reuse_policy=ReusePolicy.EVA, store_partition_frames=8))
        source.register_video(tiny_video)
        # No frame of bucket 0 at the default partitioning (2048 frames).
        source.execute(TestSessionPersistence.QUERY.replace(
            "id < 40", "id >= 8 AND id < 40"))
        source.save_reuse_state(tmp_path)

        def snapshots() -> dict:
            return {path.name: path.read_bytes()
                    for path in (tmp_path / "snapshots").iterdir()}

        before = snapshots()
        assert len(before) > 2  # ids 8-39 in partitions of 8 frames
        loaded = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
        loaded.load_reuse_state(tmp_path)
        assert snapshots() == before
        assert loaded.view_store.names() == source.view_store.names()

    @pytest.mark.parametrize("name", ["missing", "empty"])
    def test_load_refuses_a_directory_without_a_store(self, tmp_path, name):
        (tmp_path / "empty").mkdir()
        with pytest.raises(StorageError, match="no exported reuse state"):
            EvaSession().load_reuse_state(tmp_path / name)

    def test_both_refuse_the_session_s_own_store(self, tiny_video,
                                                 tmp_path):
        session = EvaSession(config=EvaConfig(
            store_mode="durable", store_path=str(tmp_path)))
        with pytest.raises(StorageError, match="own store"):
            session.save_reuse_state(tmp_path)
        with pytest.raises(StorageError, match="own store"):
            session.load_reuse_state(tmp_path / ".")
        session.close()
