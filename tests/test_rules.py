"""Unit tests for the optimizer's rule framework and individual rules."""

import pytest

from repro.config import EvaConfig, ReusePolicy
from repro.costs import CostModel
from repro.optimizer.binder import bind
from repro.optimizer.builder import build_logical_plan
from repro.optimizer.opt_context import OptimizationContext
from repro.optimizer.plans import (
    LogicalApply,
    LogicalClassifierApply,
    LogicalDistinct,
    LogicalFilter,
    LogicalGet,
    LogicalProject,
    walk_plan,
)
from repro.errors import UnsupportedPredicateError
from repro.expressions.analysis import conjunction_of, split_conjuncts
from repro.optimizer.reuse_rules import (
    REUSE_RULES,
    UdfPredicateTransformationRule,
)
from repro.optimizer.rules import (
    AnnotateApplyGuardRule,
    CANONICAL_RULES,
    PushFilterThroughApplyRule,
    RuleEngine,
    TransformationRule,
    guard_below,
)
from repro.parser.parser import parse
from repro.session import EvaSession
from repro.symbolic.dnf import DnfPredicate
from repro.symbolic.engine import SymbolicEngine, predicate_key
from repro.vbench.queries import vbench_high


@pytest.fixture
def ctx(tiny_video):
    session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
    session.register_video(tiny_video)

    def make(sql: str):
        bound = bind(parse(sql), session.catalog)
        context = OptimizationContext(
            bound=bound,
            catalog=session.catalog,
            udf_manager=session.udf_manager,
            engine=session.symbolic,
            cost_model=CostModel(),
            config=session.config,
        )
        return build_logical_plan(bound, context), context

    return make


def node_types(plan) -> list[str]:
    return [type(n).__name__ for n in walk_plan(plan)]


class TestBuilder:
    def test_canonical_shape(self, ctx):
        plan, _ = ctx("SELECT id FROM tiny CROSS APPLY "
                      "FastRCNNObjectDetector(frame) WHERE id < 10;")
        assert node_types(plan) == [
            "LogicalProject", "LogicalFilter", "LogicalApply", "LogicalGet"]

    def test_distinct_and_groupby(self, ctx):
        plan, _ = ctx("SELECT DISTINCT id, COUNT(*) FROM tiny CROSS APPLY "
                      "FastRCNNObjectDetector(frame) GROUP BY id;")
        types = node_types(plan)
        assert types[0] == "LogicalDistinct"
        assert "LogicalGroupBy" in types

    def test_output_udf_terms_get_applies(self, ctx):
        plan, _ = ctx("SELECT id, License(frame, bbox) FROM tiny "
                      "CROSS APPLY FastRCNNObjectDetector(frame) "
                      "WHERE id < 5;")
        applies = [n for n in walk_plan(plan)
                   if isinstance(n, LogicalClassifierApply)]
        assert [a.call.name for a in applies] == ["license"]


class TestCanonicalRules:
    def test_push_filter_through_apply(self, ctx):
        plan, context = ctx(
            "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id < 10 AND label='car';")
        rewritten = RuleEngine().rewrite(
            plan, [PushFilterThroughApplyRule()], context)
        types = node_types(rewritten)
        # The id conjunct moved below the apply; label stayed above.
        apply_index = types.index("LogicalApply")
        assert types[apply_index + 1] == "LogicalFilter"
        above = next(n for n in walk_plan(rewritten)
                     if isinstance(n, LogicalFilter))
        assert "label" in above.predicate.to_sql()

    def test_merge_filter_into_get(self, ctx):
        plan, context = ctx(
            "SELECT id, timestamp FROM tiny WHERE id < 10;")
        rewritten = RuleEngine().rewrite(
            plan, list(CANONICAL_RULES), context)
        get = next(n for n in walk_plan(rewritten)
                   if isinstance(n, LogicalGet))
        assert get.predicate is not None
        assert "id < 10" in get.predicate.to_sql()
        assert not any(isinstance(n, LogicalFilter)
                       for n in walk_plan(rewritten))

    def test_frame_filter_moves_below_detector(self, ctx):
        plan, context = ctx(
            "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) "
            "WHERE id < 10 AND VehicleFilter(frame) AND label='car';")
        rewritten = RuleEngine().rewrite(
            plan, list(CANONICAL_RULES), context)
        nodes = list(walk_plan(rewritten))
        apply_index = next(i for i, n in enumerate(nodes)
                           if isinstance(n, LogicalApply))
        filter_apply_index = next(
            i for i, n in enumerate(nodes)
            if isinstance(n, LogicalClassifierApply)
            and n.call.name == "vehiclefilter")
        assert filter_apply_index > apply_index  # below = later in walk

    def test_guard_annotation(self, ctx):
        plan, context = ctx(
            "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id < 10;")
        rewritten = RuleEngine().rewrite(
            plan, list(CANONICAL_RULES), context)
        rewritten = RuleEngine().rewrite(
            rewritten, [AnnotateApplyGuardRule()], context)
        apply_node = next(n for n in walk_plan(rewritten)
                          if isinstance(n, LogicalApply))
        assert apply_node.guard is not None
        assert apply_node.guard.satisfied_by({"id": 5})
        assert not apply_node.guard.satisfied_by({"id": 15})

    def test_guard_below_collects_filters(self, ctx):
        plan, context = ctx(
            "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id < 10 AND label='car';")
        guard = guard_below(plan, context)
        assert guard.satisfied_by({"id": 5, "label": "car"})
        assert not guard.satisfied_by({"id": 5, "label": "bus"})


class TestRuleEngineMechanics:
    def test_fixpoint_guard_raises_on_oscillation(self, ctx):
        plan, context = ctx("SELECT id FROM tiny WHERE id < 10;")

        class FlipFlop(TransformationRule):
            name = "flip-flop"

            def apply(self, node, _ctx):
                if isinstance(node, LogicalProject):
                    # Toggle between two distinct-but-cycling shapes.
                    return LogicalProject(
                        LogicalDistinct(node.child)
                        if not isinstance(node.child, LogicalDistinct)
                        else node.child.child,
                        node.items)
                return None

        with pytest.raises(RuntimeError):
            RuleEngine().rewrite(plan, [FlipFlop()], context)

    def test_no_matching_rule_is_identity(self, ctx):
        plan, context = ctx("SELECT id FROM tiny WHERE id < 10;")

        class Never(TransformationRule):
            name = "never"

            def apply(self, node, _ctx):
                return None

        assert RuleEngine().rewrite(plan, [Never()], context) == plan


class TestUdfPredicateTransformationRule:
    def test_unpacks_selection_into_apply_chain(self, ctx):
        plan, context = ctx(
            "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id < 10 AND label='car' "
            "AND CarType(frame,bbox)='Nissan' "
            "AND ColorDet(frame,bbox)='Gray';")
        engine = RuleEngine()
        plan = engine.rewrite(plan, list(CANONICAL_RULES), context)
        plan = engine.rewrite(plan, [UdfPredicateTransformationRule()],
                              context)
        applies = [n for n in walk_plan(plan)
                   if isinstance(n, LogicalClassifierApply)]
        assert {a.call.name for a in applies} == {"cartype", "colordet"}
        assert len(context.predicate_order) == 2
        # Every classifier apply has an attached guard.
        assert all(a.guard is not None for a in applies)

    def test_rule_is_idempotent(self, ctx):
        plan, context = ctx(
            "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE id < 10 "
            "AND CarType(frame,bbox)='Nissan';")
        engine = RuleEngine()
        plan = engine.rewrite(plan, list(CANONICAL_RULES), context)
        once = engine.rewrite(plan, [UdfPredicateTransformationRule()],
                              context)
        twice = engine.rewrite(once, [UdfPredicateTransformationRule()],
                               context)
        assert once == twice


def where(sql: str):
    return parse(f"SELECT id FROM tiny WHERE {sql};").where


def _analyzed_guard(node, engine: SymbolicEngine) -> DnfPredicate:
    """The guard as ``engine.analyze`` of the AND of every conjunct below
    ``node`` that ``engine.analyze`` accepts on its own."""
    conjuncts = []
    for part in walk_plan(node):
        if isinstance(part, (LogicalGet, LogicalFilter)) and \
                part.predicate is not None:
            conjuncts.extend(split_conjuncts(part.predicate))
    analyzable = []
    for conjunct in conjuncts:
        try:
            engine.analyze(conjunct)
        except UnsupportedPredicateError:
            continue
        analyzable.append(conjunct)
    if not analyzable:
        return DnfPredicate.true()
    return engine.analyze(conjunction_of(analyzable))


#: (query, its unanalyzable conjunct): ``id = id`` is not axis-aligned;
#: the disjunction converts but mixes a categorical and a numeric
#: constraint on ``id``, so it cannot be reduced.
UNANALYZABLE = [
    ("SELECT id FROM tiny CROSS APPLY FastRCNNObjectDetector(frame) "
     "WHERE id < 30 AND id = id;", "id = id"),
    ("SELECT id FROM tiny CROSS APPLY FastRCNNObjectDetector(frame) "
     "WHERE (id = 'a' OR id > 20) AND id < 30 AND label = 'car';",
     "id = 'a' OR id > 20"),
]


class TestGuardIdentity:
    """One conversion per conjunct plus one reduction gives the guard
    (and so every ``p_u`` and plan-cache key) that analyzing the whole
    conjunction gives."""

    @pytest.mark.parametrize(
        "sql", vbench_high("tiny", 400) + [sql for sql, _ in UNANALYZABLE])
    def test_guard_below_matches_analyzing_the_conjunction(self, ctx, sql):
        plan, context = ctx(sql)
        engine = RuleEngine()
        plan = engine.rewrite(plan, list(CANONICAL_RULES), context)
        plan = engine.rewrite(plan, REUSE_RULES, context)
        reference = SymbolicEngine()
        nodes = list(walk_plan(plan))
        assert any(isinstance(n, LogicalApply) for n in nodes)
        for node in nodes:
            assert predicate_key(guard_below(node, context)) == \
                predicate_key(_analyzed_guard(node, reference))

    @pytest.mark.parametrize("sql, conjunct", UNANALYZABLE)
    def test_unanalyzable_conjunct_stays_out_of_the_scan(self, ctx, sql,
                                                         conjunct):
        plan, context = ctx(sql)
        rewritten = RuleEngine().rewrite(
            plan, list(CANONICAL_RULES), context)
        get = next(n for n in walk_plan(rewritten)
                   if isinstance(n, LogicalGet))
        assert get.predicate.to_sql() == "id < 30"
        filtered = [c for n in walk_plan(rewritten)
                    if isinstance(n, LogicalFilter)
                    for c in split_conjuncts(n.predicate)]
        assert where(conjunct) in filtered

