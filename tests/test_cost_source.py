"""One source for each UDF's per-tuple cost ``c_e``.

The planner reads ``c_e`` through :meth:`Catalog.per_tuple_cost` only:
Rule I ranking, Rule II costing and Algorithm 2's cheapest-model choice.
For a model that is the zoo model's profiled constant — the amount the
executor charges the clock per evaluated tuple.  Changing a model's cost
on a session's private zoo therefore moves the planner's decisions and
the clock's charges together.  (``default_zoo()`` is shared
process-wide, so these tests change costs on a :meth:`ModelZoo.clone`.)
"""

import pytest

from repro.clock import CostCategory
from repro.config import EvaConfig, ReusePolicy
from repro.costs import DEFAULT_PER_TUPLE_COST
from repro.models.zoo import default_zoo
from repro.obs.audit import KIND_CLASSIFIER, KIND_MODEL_SELECTION, \
    KIND_RANKING
from repro.obs.sinks import InMemorySink
from repro.session import STANDARD_MODEL_UDFS, EvaSession

DETECT = ("SELECT id FROM tiny CROSS APPLY "
          "ObjectDetector(frame) WHERE label = 'car' AND id < 40;")
CLASSIFY = ("SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id < 20 "
            "AND CarType(frame, bbox) = 'Nissan' "
            "AND ColorDet(frame, bbox) = 'Red';")


def _session(tiny_video, costs=None):
    """An EVA session over a private zoo, with ``costs`` (model name to
    per-tuple cost) set on its models, and an in-memory trace sink."""
    zoo = default_zoo().clone()
    for name, cost in (costs or {}).items():
        zoo.get(name).per_tuple_cost = cost
    session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA),
                         zoo=zoo)
    session.register_video(tiny_video)
    session.tracer.sink = InMemorySink()
    return session


def _audit(session, kind):
    return [e for e in session.tracer.sink.events("reuse_decision")
            if e["kind"] == kind]


def _executed(session):
    metrics = session.last_query_metrics()
    return {name: count - metrics.reused_counts.get(name, 0)
            for name, count in metrics.udf_counts.items()
            if count - metrics.reused_counts.get(name, 0)}


class TestAccessor:
    def test_models_read_their_profiled_cost(self, tiny_video):
        catalog = _session(tiny_video).catalog
        assert catalog.per_tuple_cost("yolo_tiny") == pytest.approx(0.009)
        assert catalog.per_tuple_cost("fasterrcnn_resnet50") == \
            pytest.approx(0.099)
        for name in catalog.zoo.names():
            assert catalog.per_tuple_cost(name) == \
                catalog.zoo.get(name).per_tuple_cost

    def test_builtin_reads_its_registered_cost(self, tiny_video):
        catalog = _session(tiny_video).catalog
        area = catalog.udfs.get("Area")
        catalog.register_builtin_udf("DearArea", area.impl,
                                     per_tuple_cost=0.25)
        assert catalog.per_tuple_cost("DearArea") == 0.25

    def test_unknown_name_reads_the_default(self, tiny_video):
        catalog = _session(tiny_video).catalog
        assert catalog.per_tuple_cost("no_such_model") == \
            DEFAULT_PER_TUPLE_COST

    def test_a_changed_model_cost_is_read_at_once(self, tiny_video):
        """No snapshot stands between the zoo and the planner."""
        session = _session(tiny_video)
        session.catalog.zoo.get("yolo_tiny").per_tuple_cost = 0.5
        assert session.catalog.per_tuple_cost("yolo_tiny") == 0.5

    def test_clone_keeps_the_shared_zoo_unchanged(self, tiny_video):
        _session(tiny_video, {"yolo_tiny": 0.5})
        assert default_zoo().get("yolo_tiny").per_tuple_cost == \
            pytest.approx(0.009)


class TestAlgorithm2:
    def test_cheapest_model_runs_the_uncovered_rows(self, tiny_video):
        session = _session(tiny_video)
        session.execute(DETECT)
        assert _executed(session) == {"yolo_tiny": 40}

    def test_choice_follows_a_changed_cost(self, tiny_video):
        """Made dearer than both Faster-RCNN variants, yolo_tiny is no
        longer the fallback; the cheaper one of them is."""
        session = _session(tiny_video, {"yolo_tiny": 0.2})
        session.execute(DETECT)
        assert _executed(session) == {"fasterrcnn_resnet50": 40}
        assert session.last_query_metrics().time(CostCategory.UDF) == \
            pytest.approx(40 * 0.099)

    def test_audit_prices_candidates_with_the_accessor(self, tiny_video):
        session = _session(tiny_video, {"fasterrcnn_resnet101": 0.07})
        session.execute(DETECT)
        (record,) = _audit(session, KIND_MODEL_SELECTION)
        named = [c for c in record["candidates"] if "model" in c]
        assert named
        for candidate in named:
            assert candidate["per_tuple_cost"] == \
                session.catalog.per_tuple_cost(candidate["model"])
        fallback = [c for c in record["candidates"] if "fallback" in c]
        assert fallback == [{"fallback": "yolo_tiny",
                             "per_tuple_cost": pytest.approx(0.009),
                             "remaining": fallback[0]["remaining"]}]


class TestRuleI:
    def _order(self, session):
        session.execute(CLASSIFY)
        (record,) = _audit(session, KIND_RANKING)
        models = {"cartype": "car_type", "colordet": "color_det"}
        for candidate in record["candidates"]:
            udf = candidate["predicate"].split("(")[0]
            assert candidate["udf_cost"] == \
                session.catalog.per_tuple_cost(models[udf])
        return [c["term"].split("(")[0] for c in record["chosen"]]

    @pytest.mark.parametrize("costs, first", [
        ({"car_type": 0.002, "color_det": 1.0}, "cartype"),
        ({"car_type": 1.0, "color_det": 0.002}, "colordet"),
    ], ids=["car-type-cheap", "color-cheap"])
    def test_order_follows_the_cost(self, tiny_video, costs, first):
        """A classifier far cheaper than the other is ranked first
        (Eq. 2 and Eq. 4 divide by ``c_e``)."""
        assert self._order(_session(tiny_video, costs))[0] == first


class TestRuleII:
    def test_classifier_audit_prices_with_the_accessor(self, tiny_video):
        session = _session(tiny_video, {"car_type": 0.03})
        session.execute(CLASSIFY)
        records = _audit(session, KIND_CLASSIFIER)
        assert {r["candidates"][0]["model"] for r in records} == \
            {"car_type", "color_det"}
        for record in records:
            (candidate,) = record["candidates"]
            assert candidate["per_tuple_cost"] == \
                session.catalog.per_tuple_cost(candidate["model"])
            assert record["costs"]["no-reuse"] > 0

    def test_charged_cost_follows_a_changed_cost(self, tiny_video):
        session = _session(tiny_video, {"yolo_tiny": 0.2})
        session.execute("SELECT id FROM tiny CROSS APPLY "
                        "YoloTiny(frame) WHERE id < 25;")
        assert session.last_query_metrics().time(CostCategory.UDF) == \
            pytest.approx(25 * session.catalog.per_tuple_cost("yolo_tiny"))
        assert session.catalog.per_tuple_cost("yolo_tiny") == 0.2

    def test_profile_observes_the_planner_cost(self, tiny_video):
        """The ``c_e`` the metrics collector holds for a model (the one
        ``repro profile`` prints) is the planner's, for every model that
        ran."""
        session = _session(tiny_video, {"car_type": 0.03})
        session.execute(CLASSIFY)
        ran = {name: stats for name, stats
               in session.metrics.udf_stats.items()
               if stats.total_invocations > 0}
        assert {"fasterrcnn_resnet50", "car_type"} <= set(ran)
        for name, stats in ran.items():
            assert stats.per_tuple_cost == \
                session.catalog.per_tuple_cost(name)


class TestCheapModelUdfs:
    """A model-backed UDF is applied by an operator however cheap its
    model: only builtins are evaluated inside the filter kernel."""

    TOYOTA_BLUE = ("SELECT id FROM tiny CROSS APPLY "
                   "FastRCNNObjectDetector(frame) WHERE id < 20 "
                   "AND CarType(frame, bbox) = 'Toyota' "
                   "AND ColorDet(frame, bbox) = 'Blue';")

    QUERIES = {
        "FastRCNNObjectDetector": "SELECT id, label FROM tiny CROSS APPLY "
                                  "FastRCNNObjectDetector(frame) "
                                  "WHERE id < 20 AND label = 'car';",
        "FasterRCNNResnet101": "SELECT id, label FROM tiny CROSS APPLY "
                               "FasterRCNNResnet101(frame) "
                               "WHERE id < 20 AND label = 'car';",
        "YoloTiny": "SELECT id, label FROM tiny CROSS APPLY "
                    "YoloTiny(frame) WHERE id < 20 AND label = 'car';",
        "CarType": TOYOTA_BLUE,
        "ColorDet": TOYOTA_BLUE,
        "License": "SELECT id, License(frame, bbox) FROM tiny CROSS APPLY "
                   "FastRCNNObjectDetector(frame) WHERE id < 20 "
                   "AND License(frame, bbox) != 'X' "
                   "AND ColorDet(frame, bbox) = 'Blue';",
        "VehicleFilter": "SELECT id FROM tiny WHERE id < 40 "
                         "AND VehicleFilter(frame);",
    }

    def test_every_model_udf_has_a_query(self):
        assert sorted(self.QUERIES) == sorted(STANDARD_MODEL_UDFS)

    @pytest.mark.parametrize("udf", sorted(QUERIES))
    def test_cheap_model_udf_returns_the_reference_rows(self, tiny_video,
                                                        udf):
        model = STANDARD_MODEL_UDFS[udf]
        session = _session(tiny_video, {model: 1e-5})
        assert session.catalog.udfs.get(udf).per_tuple_cost == 1e-5
        reference = EvaSession(config=EvaConfig(
            reuse_policy=ReusePolicy.NONE, execution_mode="row"))
        reference.register_video(tiny_video)
        sql = self.QUERIES[udf]
        rows = session.execute(sql).rows
        assert rows
        assert rows == reference.execute(sql).rows
        assert _executed(session)[model] > 0
