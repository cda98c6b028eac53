"""Tests for the optimization context and its helpers."""

import pytest

from repro.config import EvaConfig, ReusePolicy
from repro.costs import CostModel
from repro.optimizer.binder import bind
from repro.optimizer.opt_context import OptimizationContext
from repro.parser.parser import parse
from repro.session import EvaSession


def make_ctx(tiny_video, sql, policy=ReusePolicy.EVA):
    session = EvaSession(config=EvaConfig(reuse_policy=policy))
    session.register_video(tiny_video)
    bound = bind(parse(sql), session.catalog)
    return OptimizationContext(
        bound=bound,
        catalog=session.catalog,
        udf_manager=session.udf_manager,
        engine=session.symbolic,
        cost_model=CostModel(),
        config=session.config,
    )


BASE = ("SELECT id FROM tiny CROSS APPLY FastRCNNObjectDetector(frame) "
        "WHERE id < 10;")


class TestExpensiveCalls:
    def test_filters_cheap_builtins(self, tiny_video):
        ctx = make_ctx(tiny_video, BASE)
        predicate = parse(
            "SELECT id FROM t WHERE Area(bbox) > 0.1 "
            "AND CarType(frame, bbox) = 'Nissan';").where
        calls = ctx.expensive_calls(predicate)
        assert [c.name for c in calls] == ["cartype"]

    def test_unknown_functions_ignored(self, tiny_video):
        ctx = make_ctx(tiny_video, BASE)
        predicate = parse(
            "SELECT id FROM t WHERE mystery(bbox) > 0.1;").where
        assert ctx.expensive_calls(predicate) == []


class TestSignatures:
    def test_model_signature_scoped_to_table(self, tiny_video):
        ctx = make_ctx(tiny_video, BASE)
        signature = ctx.model_signature("yolo_tiny")
        assert signature.key() == "yolo_tiny@tiny"

    def test_classifier_signature_includes_detector(self, tiny_video):
        ctx = make_ctx(tiny_video, BASE)
        call = parse("SELECT id FROM t WHERE "
                     "CarType(frame, bbox) = 'x';").where.left
        signature = ctx.classifier_signature(call)
        assert signature.key() == \
            "car_type@tiny@fastrcnnobjectdetector"


class TestEstimatorResolution:
    def test_udf_dimension_resolves_to_model_stats(self, tiny_video):
        ctx = make_ctx(tiny_video, BASE)
        from repro.symbolic.dnf import dnf_from_expression

        predicate = dnf_from_expression(parse(
            "SELECT id FROM t WHERE "
            "CarType(frame, bbox) = 'Nissan';").where)
        selectivity = ctx.estimator.selectivity(predicate)
        # Backed by the video's actual vehicle-type distribution, not the
        # uninformative default.
        assert 0.1 < selectivity < 0.4
        assert selectivity != pytest.approx(0.33)

    def test_plain_columns_resolve(self, tiny_video):
        ctx = make_ctx(tiny_video, BASE)
        from repro.symbolic.dnf import dnf_from_expression

        predicate = dnf_from_expression(parse(
            "SELECT id FROM t WHERE id < 200;").where)
        assert ctx.estimator.selectivity(predicate) == pytest.approx(0.5)


class TestPolicyFlags:
    def test_uses_views(self, tiny_video):
        """The optimizer reads the session's config itself."""
        expected = {ReusePolicy.EVA: True, ReusePolicy.HASHSTASH: True,
                    ReusePolicy.FUNCACHE: False, ReusePolicy.NONE: False}
        for policy, uses_views in expected.items():
            ctx = make_ctx(tiny_video, BASE, policy)
            assert ctx.config.reuse_policy is policy
            assert ctx.config.uses_views is uses_views
