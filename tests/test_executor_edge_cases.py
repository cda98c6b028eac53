"""Edge-case tests for the execution engine's reuse operators."""

import pytest

from repro.clock import CostCategory
from repro.config import EvaConfig, ReusePolicy
from repro.session import EvaSession


def _session(video, policy=ReusePolicy.EVA, **kwargs):
    session = EvaSession(config=EvaConfig(reuse_policy=policy, **kwargs))
    session.register_video(video)
    return session


class TestDetectorOperator:
    def test_empty_frames_are_remembered(self, sparse_video):
        """Frames with zero detections still materialize (as empty) and
        are never re-evaluated."""
        session = _session(sparse_video)
        query = ("SELECT id FROM sparse CROSS APPLY "
                 "FastRCNNObjectDetector(frame) WHERE id < 100;")
        session.execute(query)
        view = session.view_store.get("mv::fasterrcnn_resnet50@sparse")
        assert view.num_keys == 100
        empty_keys = sum(1 for key in view.keys() if view.get(key) == ())
        assert empty_keys > 50  # sparse video: most frames are empty
        session.execute(query)
        stats = session.metrics.udf_stats["fasterrcnn_resnet50"]
        assert stats.reused_invocations == 100

    def test_mixed_coverage_query(self, tiny_video):
        """A query straddling covered and uncovered ranges evaluates only
        the uncovered part."""
        session = _session(tiny_video)
        session.execute("SELECT id FROM tiny CROSS APPLY "
                        "FastRCNNObjectDetector(frame) WHERE id < 100;")
        session.execute("SELECT id FROM tiny CROSS APPLY "
                        "FastRCNNObjectDetector(frame) "
                        "WHERE id >= 50 AND id < 150;")
        stats = session.metrics.udf_stats["fasterrcnn_resnet50"]
        assert stats.distinct_invocations == 150
        assert stats.total_invocations == 200
        assert stats.reused_invocations == 50

    def test_logical_detector_without_accuracy_annotation(self, tiny_video):
        """ObjectDetector(frame) with no ACCURACY clause accepts any
        physical model (the cheapest wins with no history)."""
        session = _session(tiny_video)
        result = session.execute(
            "SELECT id FROM tiny CROSS APPLY ObjectDetector(frame) "
            "WHERE id < 10;")
        sources = session.last_optimized.detector_sources
        assert sources[0].model_name == "yolo_tiny"
        assert len(result) >= 0

    def test_two_videos_have_independent_views(self, tiny_video,
                                               sparse_video):
        session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
        session.register_video(tiny_video)
        session.register_video(sparse_video)
        session.execute("SELECT id FROM tiny CROSS APPLY "
                        "FastRCNNObjectDetector(frame) WHERE id < 20;")
        session.execute("SELECT id FROM sparse CROSS APPLY "
                        "FastRCNNObjectDetector(frame) WHERE id < 20;")
        names = session.view_store.names()
        assert "mv::fasterrcnn_resnet50@tiny" in names
        assert "mv::fasterrcnn_resnet50@sparse" in names
        # No cross-contamination: the second run of each is fully reused.
        session.execute("SELECT id FROM tiny CROSS APPLY "
                        "FastRCNNObjectDetector(frame) WHERE id < 20;")
        stats = session.metrics.udf_stats["fasterrcnn_resnet50"]
        assert stats.reused_invocations == 20


class TestClassifierOperator:
    def test_bbox_required(self, tiny_video):
        """A patch classifier without an upstream detector has no bbox
        column and fails with a typed error at binding time."""
        session = _session(tiny_video)
        from repro.errors import BindingError

        with pytest.raises(BindingError):
            session.execute(
                "SELECT id FROM tiny "
                "WHERE CarType(frame, bbox) = 'Nissan';")

    def test_view_and_funcache_are_mutually_exclusive(self, tiny_video):
        funcache = _session(tiny_video, ReusePolicy.FUNCACHE)
        funcache.execute(
            "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id < 10 AND label='car' "
            "AND CarType(frame, bbox) = 'Nissan';")
        assert funcache.view_store.names() == []
        assert funcache.context.function_cache.entries("car_type") > 0

    def test_classifier_results_keyed_per_frame_and_box(self, tiny_video):
        session = _session(tiny_video)
        session.execute(
            "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id < 10 AND label='car' "
            "AND CarType(frame, bbox) = 'Nissan';")
        view = next(session.view_store.get(n)
                    for n in session.view_store.names()
                    if "car_type" in n)
        for key in view.keys():
            frame_id, bbox_key = key
            assert isinstance(frame_id, int)
            assert len(bbox_key) == 4


class TestHashStashOperator:
    def test_recycler_grows_per_query(self, tiny_video):
        session = _session(tiny_video, ReusePolicy.HASHSTASH)
        query = ("SELECT id FROM tiny CROSS APPLY "
                 "FastRCNNObjectDetector(frame) WHERE id < 15;")
        session.execute(query)
        session.execute(query)
        recycler = session.context.recycler
        entries = recycler.matched(
            "fastrcnnobjectdetector@tiny#fasterrcnn_resnet50")
        assert len(entries) == 2  # one materialization per executed query

    def test_hashstash_pays_dedup_hash_cost(self, tiny_video):
        session = _session(tiny_video, ReusePolicy.HASHSTASH)
        query = ("SELECT id FROM tiny CROSS APPLY "
                 "FastRCNNObjectDetector(frame) WHERE id < 15;")
        session.execute(query)
        first = session.metrics.query_metrics[-1]
        assert first.time(CostCategory.HASH) == 0.0
        session.execute(query)
        second = session.metrics.query_metrics[-1]
        assert second.time(CostCategory.HASH) > 0.0

    def test_a_limited_query_still_adds_its_entry(self, tiny_video):
        # LIMIT stops pulling after the first batch: what was resolved
        # until then still becomes a recycler entry.
        session = _session(tiny_video, ReusePolicy.HASHSTASH, batch_rows=10)
        result = session.execute("SELECT id FROM tiny CROSS APPLY "
                                 "FastRCNNObjectDetector(frame) "
                                 "WHERE id < 100 LIMIT 5;")
        assert len(result) == 5
        entries = session.context.recycler.matched(
            "fastrcnnobjectdetector@tiny#fasterrcnn_resnet50")
        assert [entry.num_keys for entry in entries] == [10]

    def test_a_query_that_scans_nothing_still_reads_the_recycler(
            self, tiny_video):
        session = _session(tiny_video, ReusePolicy.HASHSTASH)
        session.execute("SELECT id FROM tiny CROSS APPLY "
                        "FastRCNNObjectDetector(frame) WHERE id < 15;")
        result = session.execute("SELECT id FROM tiny CROSS APPLY "
                                 "FastRCNNObjectDetector(frame) "
                                 "WHERE id > 1000;")
        assert len(result) == 0
        empty = session.metrics.query_metrics[-1]
        assert empty.time(CostCategory.READ_VIDEO) == 0.0
        for category in (CostCategory.JOIN, CostCategory.READ_VIEW,
                         CostCategory.HASH):
            assert empty.time(category) > 0.0, category

    def test_logical_detectors_do_not_cross_reuse(self, tiny_video):
        """A logical detector resolved to different physical models must
        not reuse another model's operator results (recycler signatures
        include the resolved model)."""
        session = _session(tiny_video, ReusePolicy.HASHSTASH)
        low = ("SELECT id FROM tiny CROSS APPLY ObjectDetector(frame) "
               "ACCURACY 'LOW' WHERE id < 15;")
        high = ("SELECT id FROM tiny CROSS APPLY ObjectDetector(frame) "
                "ACCURACY 'HIGH' WHERE id < 15;")
        session.execute(low)
        session.execute(high)
        stats = session.metrics.udf_stats
        # Both models ran in full; nothing leaked across.
        assert stats["yolo_tiny"].reused_invocations == 0
        assert stats["fasterrcnn_resnet101"].reused_invocations == 0
        # Re-running each reuses its own model's entry.
        session.execute(low)
        assert stats["yolo_tiny"].reused_invocations == 15
        assert stats["fasterrcnn_resnet101"].reused_invocations == 0
