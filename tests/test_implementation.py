"""Unit tests for the physical implementation layer (Rule II + costing)."""


from repro.config import EvaConfig, ReusePolicy
from repro.costs import CostModel
from repro.optimizer.binder import bind
from repro.optimizer.builder import build_logical_plan
from repro.optimizer.implementation import (
    PhysicalImplementer,
    scan_ranges,
)
from repro.optimizer.opt_context import OptimizationContext
from repro.optimizer.plans import (
    PhysDetectorApply,
    walk_plan,
)
from repro.optimizer.reuse_rules import REUSE_RULES
from repro.optimizer.rules import (
    AnnotateApplyGuardRule,
    CANONICAL_RULES,
    RuleEngine,
)
from repro.parser.parser import parse
from repro.session import EvaSession
from repro.symbolic.dnf import dnf_from_expression
from repro.symbolic.reduce import reduce_predicate


def predicate(sql: str):
    return reduce_predicate(dnf_from_expression(
        parse(f"SELECT id FROM v WHERE {sql};").where))


class TestScanRanges:
    def test_simple_range(self):
        assert scan_ranges(predicate("id >= 3 AND id < 9"), 100) == [(3, 9)]

    def test_disjoint_ranges_sorted_and_merged(self):
        ranges = scan_ranges(
            predicate("id < 5 OR (id >= 20 AND id < 30) OR id >= 95"), 100)
        assert ranges == [(0, 5), (20, 30), (95, 100)]

    def test_adjacent_ranges_merge(self):
        ranges = scan_ranges(
            predicate("(id >= 0 AND id < 10) OR (id >= 10 AND id < 20)"),
            100)
        assert ranges == [(0, 20)]

    def test_point_predicates(self):
        assert scan_ranges(predicate("id = 7 OR id = 9"), 100) == \
            [(7, 8), (9, 10)]

    def test_false_predicate(self):
        assert scan_ranges(predicate("id < 3 AND id > 9"), 100) == []

    def test_unconstrained_dimension(self):
        assert scan_ranges(predicate("label = 'car'"), 50) == [(0, 50)]

    def test_clamps_to_video_bounds(self):
        assert scan_ranges(predicate("id >= -10 AND id < 999"), 50) == \
            [(0, 50)]


class TestImplementationCosting:
    def _implemented(self, tiny_video, sql, policy=ReusePolicy.EVA,
                     warm_queries=()):
        session = EvaSession(config=EvaConfig(reuse_policy=policy))
        session.register_video(tiny_video)
        for query in warm_queries:
            session.execute(query)
        bound = bind(parse(sql), session.catalog)
        ctx = OptimizationContext(
            bound=bound,
            catalog=session.catalog,
            udf_manager=session.udf_manager,
            engine=session.symbolic,
            cost_model=CostModel(),
            config=session.config,
        )
        engine = RuleEngine()
        plan = build_logical_plan(bound, ctx)
        plan = engine.rewrite(plan, list(CANONICAL_RULES), ctx)
        plan = engine.rewrite(plan, list(REUSE_RULES), ctx)
        plan = engine.rewrite(plan, [AnnotateApplyGuardRule()], ctx)
        return PhysicalImplementer(ctx).implement(plan)

    BASE = ("SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id < 50;")

    def test_estimated_rows_track_scan_and_fanout(self, tiny_video):
        implemented = self._implemented(tiny_video, self.BASE)
        # 50 frames x ~8.3 detections.
        assert 50 * 5 < implemented.rows < 50 * 12

    def test_reuse_plan_costs_less_than_fresh(self, tiny_video):
        cold = self._implemented(tiny_video, self.BASE)
        warm = self._implemented(tiny_video, self.BASE,
                                 warm_queries=[self.BASE])
        assert warm.cost < 0.25 * cold.cost
        detector = next(n for n in walk_plan(warm.plan)
                        if isinstance(n, PhysDetectorApply))
        assert detector.sources[0].use_view

    def test_cost_monotone_in_scan_width(self, tiny_video):
        narrow = self._implemented(tiny_video, self.BASE)
        wide = self._implemented(
            tiny_video, self.BASE.replace("id < 50", "id < 200"))
        assert wide.cost > narrow.cost

    def test_updates_carry_signature_and_guard(self, tiny_video):
        implemented = self._implemented(
            tiny_video,
            "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id < 50 AND label='car' "
            "AND CarType(frame,bbox)='Nissan';")
        names = {u.signature.udf_name for u in implemented.updates}
        assert names == {"fasterrcnn_resnet50", "car_type"}
        classifier_update = next(u for u in implemented.updates
                                 if u.signature.udf_name == "car_type")
        assert classifier_update.guard.satisfied_by(
            {"id": 10, "label": "car"})
        assert not classifier_update.guard.satisfied_by(
            {"id": 60, "label": "car"})

    def test_noreuse_policy_never_emits_view_sources(self, tiny_video):
        implemented = self._implemented(
            tiny_video, self.BASE, policy=ReusePolicy.NONE,
            warm_queries=[self.BASE])
        detector = next(n for n in walk_plan(implemented.plan)
                        if isinstance(n, PhysDetectorApply))
        assert all(not s.use_view for s in detector.sources)
        assert implemented.updates == []


class TestGuardFidelity:
    def test_detector_guard_excludes_post_apply_filters(self, tiny_video):
        """The detector's associated predicate covers only what held
        *before* it ran (scan conjuncts), never label/area filters."""
        session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
        session.register_video(tiny_video)
        session.execute(
            "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id < 50 AND label='car';")
        optimized = session.last_optimized
        detector_update = next(
            u for u in optimized.updates
            if u.signature.udf_name == "fasterrcnn_resnet50")
        # A non-car frame in range is still covered: the detector ran on it.
        assert detector_update.guard.satisfied_by({"id": 10})
        assert "label" not in repr(detector_update.guard)
