"""Exact cost-accounting tests: every operator charges the clock the
calibrated amounts, the ones that make benchmark ratios comparable with
the paper, and the planner costs each model at what it is charged."""

import pytest

from repro.clock import CostCategory
from repro.config import EvaConfig, ReusePolicy
from repro.session import EvaSession


def _session(tiny_video, policy=ReusePolicy.NONE):
    session = EvaSession(config=EvaConfig(reuse_policy=policy))
    session.register_video(tiny_video)
    return session


class TestScanCharges:
    def test_read_video_is_per_frame(self, tiny_video):
        session = _session(tiny_video)
        session.execute("SELECT id FROM tiny WHERE id < 37;")
        metrics = session.last_query_metrics()
        per_frame = session.config.costs.read_video_per_frame
        assert metrics.time(CostCategory.READ_VIDEO) == \
            pytest.approx(37 * per_frame)

    def test_disjoint_ranges_charge_only_scanned_frames(self, tiny_video):
        session = _session(tiny_video)
        session.execute("SELECT id FROM tiny WHERE id < 10 OR id >= 390;")
        metrics = session.last_query_metrics()
        per_frame = session.config.costs.read_video_per_frame
        assert metrics.time(CostCategory.READ_VIDEO) == \
            pytest.approx(20 * per_frame)


class TestUdfCharges:
    QUERY = ("SELECT id FROM tiny CROSS APPLY "
             "FastRCNNObjectDetector(frame) WHERE id < 25;")

    def test_detector_charged_per_frame(self, tiny_video):
        session = _session(tiny_video)
        session.execute(self.QUERY)
        metrics = session.last_query_metrics()
        assert metrics.time(CostCategory.UDF) == pytest.approx(25 * 0.099)

    def test_classifier_charged_per_evaluated_row(self, tiny_video):
        session = _session(tiny_video)
        session.execute(
            "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id < 25 "
            "AND label = 'car' AND CarType(frame, bbox) = 'Nissan';")
        metrics = session.last_query_metrics()
        cartype_count = metrics.udf_counts["car_type"]
        expected = 25 * 0.099 + cartype_count * 0.006
        assert metrics.time(CostCategory.UDF) == pytest.approx(expected)

    def test_reused_invocations_charge_views_not_udf(self, tiny_video):
        session = _session(tiny_video, ReusePolicy.EVA)
        session.execute(self.QUERY)
        session.execute(self.QUERY)
        metrics = session.last_query_metrics()
        costs = session.config.costs
        assert metrics.time(CostCategory.UDF) == 0.0
        # One key probe per frame plus one row read per detection.
        detections = metrics.udf_counts["fasterrcnn_resnet50"]
        rows_read = session.view_store.get(
            "mv::fasterrcnn_resnet50@tiny").num_output_rows
        expected = (25 * costs.view_read_per_key
                    + rows_read * costs.view_read_per_row)
        assert metrics.time(CostCategory.READ_VIEW) == \
            pytest.approx(expected)
        assert detections == 25

    def test_materialization_charged_once(self, tiny_video):
        session = _session(tiny_video, ReusePolicy.EVA)
        session.execute(self.QUERY)
        first = session.metrics.query_metrics[-1]
        assert first.time(CostCategory.MATERIALIZE) > 0
        session.execute(self.QUERY)
        second = session.metrics.query_metrics[-1]
        assert second.time(CostCategory.MATERIALIZE) == 0.0


class TestPlannerCostIsChargedCost:
    """Every planner read of ``c_e`` goes through
    ``Catalog.per_tuple_cost``; for each zoo model it is what the
    executor charges the clock per evaluated tuple."""

    DETECT = ("SELECT id FROM tiny CROSS APPLY "
              "FastRCNNObjectDetector(frame) WHERE id < 25")
    #: One query per zoo model that charges UDF time to that model only:
    #: every query runs after ``DETECT`` filled its view, so the
    #: classifier queries' detector invocations are reused.
    QUERIES = {
        "fasterrcnn_resnet50": "SELECT id FROM tiny CROSS APPLY "
                               "FastRCNNObjectDetector(frame) "
                               "WHERE id >= 25 AND id < 50;",
        "fasterrcnn_resnet101": "SELECT id FROM tiny CROSS APPLY "
                                "FasterRCNNResnet101(frame) WHERE id < 25;",
        "yolo_tiny": "SELECT id FROM tiny CROSS APPLY "
                     "YoloTiny(frame) WHERE id < 25;",
        "car_type": DETECT + " AND CarType(frame, bbox) = 'Nissan';",
        "color_det": DETECT + " AND ColorDet(frame, bbox) = 'Red';",
        "license_reader": DETECT + " AND License(frame, bbox) = 'X';",
        "vehicle_filter": "SELECT id FROM tiny WHERE id < 25 "
                          "AND VehicleFilter(frame);",
    }

    def test_every_zoo_model_has_a_query(self):
        from repro.models.zoo import default_zoo

        assert sorted(self.QUERIES) == default_zoo().names()

    @pytest.mark.parametrize("model", sorted(QUERIES))
    def test_planner_cost_equals_charged_cost(self, tiny_video, model):
        session = _session(tiny_video, ReusePolicy.EVA)
        session.execute(self.DETECT + ";")
        session.execute(self.QUERIES[model])
        metrics = session.last_query_metrics()
        executed = {name: count - metrics.reused_counts.get(name, 0)
                    for name, count in metrics.udf_counts.items()}
        assert executed[model] > 0
        assert {name for name, n in executed.items() if n} == {model}
        assert metrics.time(CostCategory.UDF) == pytest.approx(
            executed[model] * session.catalog.per_tuple_cost(model))

    def test_area_cost_is_the_registered_one_and_never_charged(
            self, tiny_video):
        """AREA is a cheap builtin: the planner ranks it by its
        registered ``c_e``, and the executor evaluates it inside the
        filter kernel without charging UDF time for it."""
        session = _session(tiny_video)
        assert session.catalog.per_tuple_cost("Area") == \
            session.catalog.udfs.get("Area").per_tuple_cost == 2e-6
        session.execute(self.DETECT + " AND Area(bbox) > 0.01;")
        metrics = session.last_query_metrics()
        assert metrics.time(CostCategory.UDF) == pytest.approx(
            25 * session.catalog.per_tuple_cost("fasterrcnn_resnet50"))


class TestFunCacheCharges:
    QUERY = ("SELECT id FROM tiny CROSS APPLY "
             "FastRCNNObjectDetector(frame) WHERE id < 10;")

    def test_hashing_charged_on_hits_and_misses(self, tiny_video):
        session = _session(tiny_video, ReusePolicy.FUNCACHE)
        session.execute(self.QUERY)
        first_hash = session.metrics.query_metrics[-1].time(
            CostCategory.HASH)
        session.execute(self.QUERY)
        second_hash = session.metrics.query_metrics[-1].time(
            CostCategory.HASH)
        costs = session.config.costs
        per_frame = (costs.hash_per_call
                     + tiny_video.frame(0).nbytes() * costs.hash_per_byte)
        assert first_hash == pytest.approx(10 * per_frame)
        # The repeat still hashes every probe - FunCache's structural
        # overhead (section 5.2's negative-speedup explanation).
        assert second_hash == pytest.approx(first_hash)

    def test_funcache_stores_nothing_in_views(self, tiny_video):
        session = _session(tiny_video, ReusePolicy.FUNCACHE)
        session.execute(self.QUERY)
        assert session.view_store.names() == []
        assert session.storage_footprint_bytes() == 0


class TestOptimizerChargesRealTime:
    def test_optimize_time_recorded(self, tiny_video):
        session = _session(tiny_video, ReusePolicy.EVA)
        session.execute("SELECT id FROM tiny WHERE id < 5;")
        metrics = session.last_query_metrics()
        assert 0 < metrics.time(CostCategory.OPTIMIZE) < 1.0


class TestConfigDefaults:
    def test_eva_defaults_to_materialization_aware_ranking(self):
        from repro.config import RankingMode

        assert EvaConfig(reuse_policy=ReusePolicy.EVA).ranking is \
            RankingMode.MATERIALIZATION_AWARE

    def test_baselines_default_to_canonical_ranking(self):
        from repro.config import RankingMode

        for policy in (ReusePolicy.NONE, ReusePolicy.HASHSTASH,
                       ReusePolicy.FUNCACHE):
            assert EvaConfig(reuse_policy=policy).ranking is \
                RankingMode.CANONICAL

    def test_explicit_ranking_not_overridden(self):
        from repro.config import RankingMode

        config = EvaConfig(reuse_policy=ReusePolicy.EVA,
                           ranking=RankingMode.CANONICAL)
        assert config.ranking is RankingMode.CANONICAL
