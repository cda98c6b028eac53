"""Tests for binding and the optimizer's plan construction."""

import pytest

from repro.config import (
    EvaConfig,
    ModelSelectionMode,
    RankingMode,
    ReusePolicy,
)
from repro.errors import BindingError
from repro.optimizer.plans import (
    PhysClassifierApply,
    PhysFilter,
    PhysGroupBy,
    PhysProject,
    PhysScan,
    explain,
    walk_plan,
)
from repro.parser.parser import parse
from repro.session import EvaSession


def _session(policy=ReusePolicy.EVA, video=None, **kwargs):
    session = EvaSession(config=EvaConfig(reuse_policy=policy, **kwargs))
    session.register_video(video)
    return session


@pytest.fixture
def session(tiny_video):
    return _session(video=tiny_video)


def optimize(session, sql):
    return session.optimizer.optimize(parse(sql))


def find(plan, node_type):
    return [n for n in walk_plan(plan) if isinstance(n, node_type)]


class TestBinding:
    def test_unknown_table(self, session):
        with pytest.raises(BindingError):
            optimize(session, "SELECT id FROM nope;")

    def test_unknown_column(self, session):
        with pytest.raises(BindingError):
            optimize(session, "SELECT wat FROM tiny;")

    def test_unknown_udf(self, session):
        with pytest.raises(BindingError):
            optimize(session, "SELECT id FROM tiny CROSS APPLY Wat(frame);")

    def test_cross_apply_must_be_table_valued(self, session):
        with pytest.raises(BindingError):
            optimize(session,
                     "SELECT id FROM tiny CROSS APPLY CarType(frame, bbox);")

    def test_detector_columns_require_apply(self, session):
        with pytest.raises(BindingError):
            optimize(session, "SELECT label FROM tiny;")

    def test_area_function_rewrites_to_column(self, session):
        plan = optimize(
            session,
            "SELECT id FROM tiny CROSS APPLY FastRCNNObjectDetector(frame) "
            "WHERE Area(bbox) > 0.3;").plan
        filters = find(plan, PhysFilter)
        assert any("area > 0.3" in f.predicate.to_sql() for f in filters)

    def test_timestamp_rewrites_to_id(self, session):
        # 4 seconds at 25 fps = frame 100.
        optimized = optimize(
            session,
            "SELECT id FROM tiny CROSS APPLY FastRCNNObjectDetector(frame) "
            "WHERE timestamp < 4;")
        scan = find(optimized.plan, PhysScan)[0]
        assert scan.ranges == ((0, 100),)


class TestScanRanges:
    def test_range_from_id_predicate(self, session):
        optimized = optimize(
            session, "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id >= 10 AND id < 20;")
        assert find(optimized.plan, PhysScan)[0].ranges == ((10, 20),)

    def test_strict_bounds(self, session):
        optimized = optimize(
            session, "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id > 10 AND id <= 20;")
        assert find(optimized.plan, PhysScan)[0].ranges == ((11, 21),)

    def test_disjunctive_ranges_merge(self, session):
        optimized = optimize(
            session, "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) "
            "WHERE (id < 10 OR id >= 5 AND id < 30);")
        assert find(optimized.plan, PhysScan)[0].ranges == ((0, 30),)

    def test_no_id_predicate_scans_everything(self, session):
        optimized = optimize(
            session, "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame);")
        assert find(optimized.plan, PhysScan)[0].ranges == ((0, 400),)

    def test_point_lookup(self, session):
        optimized = optimize(
            session, "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id = 42;")
        assert find(optimized.plan, PhysScan)[0].ranges == ((42, 43),)


class TestPlanShape:
    QUERY = ("SELECT id, bbox FROM tiny CROSS APPLY "
             "FastRCNNObjectDetector(frame) WHERE id < 50 AND label='car' "
             "AND area > 0.1 AND CarType(frame,bbox) = 'Nissan' "
             "AND ColorDet(frame,bbox) = 'Gray';")

    def test_udf_predicates_become_apply_filter_chain(self, session):
        plan = optimize(session, self.QUERY).plan
        classifiers = find(plan, PhysClassifierApply)
        assert len(classifiers) == 2
        names = {c.call.name for c in classifiers}
        assert names == {"cartype", "colordet"}

    def test_direct_filter_precedes_udf_applies(self, session):
        """Direct-column predicates must run before classifier applies."""
        plan = optimize(session, self.QUERY).plan
        order = [type(n).__name__ for n in walk_plan(plan)]
        # walk is root-first; the scan is last.
        direct_index = max(
            i for i, n in enumerate(walk_plan(plan))
            if isinstance(n, PhysFilter) and "label" in n.predicate.to_sql())
        classifier_index = min(
            i for i, n in enumerate(walk_plan(plan))
            if isinstance(n, PhysClassifierApply))
        assert classifier_index < direct_index
        assert order[-1] == "PhysScan"

    def test_select_list_udf_gets_applied(self, session):
        """UDFs in the projection (Q2's LICENSE) get their own APPLY."""
        optimized = optimize(
            session,
            "SELECT id, License(frame, bbox) FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id < 20 AND label='car';")
        classifiers = find(optimized.plan, PhysClassifierApply)
        assert [c.call.name for c in classifiers] == ["license"]

    def test_group_by_plan(self, session):
        optimized = optimize(
            session,
            "SELECT id, COUNT(*) FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE label='car' GROUP BY id;")
        assert find(optimized.plan, PhysGroupBy)
        assert not find(optimized.plan, PhysProject)

    def test_residual_multi_udf_conjunct(self, session):
        """A conjunct mixing two expensive UDFs still gets both applied."""
        optimized = optimize(
            session,
            "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) "
            "WHERE id < 20 AND (CarType(frame,bbox) = 'Nissan' "
            "OR ColorDet(frame,bbox) = 'Red');")
        classifiers = find(optimized.plan, PhysClassifierApply)
        assert {c.call.name for c in classifiers} == {"cartype", "colordet"}

    def test_explain_renders(self, session):
        text = explain(optimize(session, self.QUERY).plan)
        assert "Scan" in text and "DetectorApply" in text

    def test_updates_recorded_for_eva(self, session):
        optimized = optimize(session, self.QUERY)
        signatures = {u.signature.udf_name for u in optimized.updates}
        assert "fasterrcnn_resnet50" in signatures
        assert "car_type" in signatures
        assert "color_det" in signatures

    def test_no_updates_for_noreuse(self, tiny_video):
        session = _session(ReusePolicy.NONE, tiny_video)
        optimized = optimize(session, self.QUERY)
        assert optimized.updates == []


class TestDetectorSources:
    QUERY1 = ("SELECT id FROM tiny CROSS APPLY "
              "FastRCNNObjectDetector(frame) WHERE id < 50;")
    QUERY2 = ("SELECT id FROM tiny CROSS APPLY "
              "FastRCNNObjectDetector(frame) WHERE id < 80;")

    def test_first_query_has_model_source_only(self, session):
        sources = optimize(session, self.QUERY1).detector_sources
        assert len(sources) == 1
        assert not sources[0].use_view

    def test_second_query_gets_view_source(self, session):
        session.execute(self.QUERY1)
        sources = optimize(session, self.QUERY2).detector_sources
        assert sources[0].use_view
        assert sources[0].predicate.satisfied_by({"id": 30})
        # The model source covers only the uncovered tail [50, 80).
        model_source = sources[-1]
        assert not model_source.use_view
        assert model_source.predicate.satisfied_by({"id": 60})
        assert not model_source.predicate.satisfied_by({"id": 30})

    def test_fully_covered_query_has_false_model_region(self, session):
        session.execute(self.QUERY2)
        sources = optimize(session, self.QUERY1).detector_sources
        assert sources[0].use_view
        assert sources[-1].predicate.is_false()


class TestUdfPredicateOrder:
    QUERY = ("SELECT id FROM tiny CROSS APPLY "
             "FastRCNNObjectDetector(frame) WHERE id < 30 AND label='car' "
             "AND CarType(frame,bbox)='Nissan' "
             "AND ColorDet(frame,bbox)='Gray';")

    def test_canonical_order_by_cost_and_selectivity(self, tiny_video):
        session = _session(ReusePolicy.NONE, tiny_video)
        optimized = optimize(session, self.QUERY)
        assert len(optimized.predicate_order) == 2

    def test_materialization_flips_order(self, tiny_video):
        """Once CarType is materialized for this guard, the
        materialization-aware ranking moves it first (section 1's
        VEHICLEMODEL/VEHICLECOLOR example)."""
        session = _session(ReusePolicy.EVA, tiny_video)
        # Materialize CarType results over the guard region.
        session.execute(
            "SELECT id FROM tiny CROSS APPLY FastRCNNObjectDetector(frame) "
            "WHERE id < 30 AND label='car' AND CarType(frame,bbox)='Nissan';")
        optimized = optimize(session, self.QUERY)
        assert optimized.predicate_order[0].startswith("cartype")

    def test_canonical_ranking_mode_ignores_views(self, tiny_video):
        session = _session(ReusePolicy.EVA, tiny_video,
                           ranking=RankingMode.CANONICAL)
        session.execute(
            "SELECT id FROM tiny CROSS APPLY FastRCNNObjectDetector(frame) "
            "WHERE id < 30 AND label='car' AND CarType(frame,bbox)='Nissan';")
        optimized = optimize(session, self.QUERY)
        assert optimized.predicate_order[0].startswith("colordet")


class TestLogicalModelSelection:
    def test_min_cost_without_history(self, tiny_video):
        session = _session(ReusePolicy.EVA, tiny_video)
        optimized = optimize(
            session, "SELECT id FROM tiny CROSS APPLY "
            "ObjectDetector(frame) ACCURACY 'LOW' WHERE id < 20;")
        assert optimized.detector_sources[0].model_name == "yolo_tiny"

    def test_accuracy_constraint_respected(self, tiny_video):
        session = _session(ReusePolicy.EVA, tiny_video)
        optimized = optimize(
            session, "SELECT id FROM tiny CROSS APPLY "
            "ObjectDetector(frame) ACCURACY 'HIGH' WHERE id < 20;")
        assert optimized.detector_sources[0].model_name == \
            "fasterrcnn_resnet101"

    def test_low_accuracy_reuses_high_accuracy_view(self, tiny_video):
        """The traffic-monitoring scenario: a LOW-accuracy request reuses
        the MEDIUM model's materialized results (section 4.3)."""
        session = _session(ReusePolicy.EVA, tiny_video)
        session.execute(
            "SELECT id FROM tiny CROSS APPLY FastRCNNObjectDetector(frame) "
            "WHERE id < 50;")
        optimized = optimize(
            session, "SELECT id FROM tiny CROSS APPLY "
            "ObjectDetector(frame) ACCURACY 'LOW' WHERE id < 40;")
        sources = optimized.detector_sources
        assert sources[0].use_view
        assert sources[0].model_name == "fasterrcnn_resnet50"

    def test_min_cost_mode_ignores_other_views(self, tiny_video):
        session = _session(ReusePolicy.EVA, tiny_video,
                           model_selection=ModelSelectionMode.MIN_COST)
        session.execute(
            "SELECT id FROM tiny CROSS APPLY FastRCNNObjectDetector(frame) "
            "WHERE id < 50;")
        optimized = optimize(
            session, "SELECT id FROM tiny CROSS APPLY "
            "ObjectDetector(frame) ACCURACY 'LOW' WHERE id < 40;")
        sources = optimized.detector_sources
        assert all(s.model_name == "yolo_tiny" for s in sources)
