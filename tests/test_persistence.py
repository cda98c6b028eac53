"""Tests for persisting and reloading reuse state across sessions."""

import pytest

from repro.clock import CostCategory
from repro.config import EvaConfig, ReusePolicy
from repro.session import EvaSession
from repro.storage.view_store import MaterializedView, ViewStore
from repro.store.wal import scan_wal
from repro.types import BoundingBox


class TestViewSerialization:
    def test_roundtrip_with_bboxes_and_empty_keys(self):
        view = MaterializedView("v", ["id"], ["label", "bbox", "score"])
        view.put((1,), [
            {"label": "car", "bbox": BoundingBox(1, 2, 3, 4), "score": 0.9},
            {"label": "bus", "bbox": BoundingBox(5, 6, 7, 8), "score": 0.4},
        ])
        view.put((2,), [])  # computed, zero detections
        payload = view.serialize()
        restored = MaterializedView.deserialize(
            "v", ["id"], ["label", "bbox", "score"], payload)
        assert restored.num_keys == 2
        assert restored.get((2,)) == ()
        rows = restored.get((1,))
        assert rows[0]["bbox"] == BoundingBox(1, 2, 3, 4)
        assert rows[1]["label"] == "bus"

    def test_roundtrip_with_composite_keys(self):
        view = MaterializedView("v", ["id", "bbox_key"], ["value"])
        view.put((3, (10, 20, 30, 40)), [{"value": "Nissan"}])
        restored = MaterializedView.deserialize(
            "v", ["id", "bbox_key"], ["value"], view.serialize())
        assert restored.get((3, (10, 20, 30, 40)))[0]["value"] == "Nissan"

    def test_boolean_values_roundtrip(self):
        view = MaterializedView("v", ["id"], ["value"])
        view.put((1,), [{"value": True}])
        restored = MaterializedView.deserialize(
            "v", ["id"], ["value"], view.serialize())
        assert restored.get((1,))[0]["value"] is True


class TestViewStorePersistence:
    def test_save_and_load(self, tmp_path):
        store = ViewStore()
        view = store.create_or_get("a", ["id"], ["x"])
        view.put((1,), [{"x": 5}])
        store.create_or_get("b", ["id"], ["y"]).put((2,), [])
        written = store.save_to(tmp_path / "views")
        assert written > 0
        loaded = ViewStore.load_from(tmp_path / "views")
        assert loaded.names() == ["a", "b"]
        assert loaded.get("a").get((1,))[0]["x"] == 5

    def test_load_missing_directory(self, tmp_path):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            ViewStore.load_from(tmp_path / "nope")


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
