"""The semantic-reuse transformation rules (section 4.4).

**Rule I — UDF-based predicate transformation.**  A selection operator
containing UDF-based predicates is unpacked into a chain of APPLY
operators, one per UDF term, ordered by the (materialization-aware)
ranking function; each APPLY is followed by the comparison filter, so the
output of the preceding UDF-based predicate is the input of the
succeeding one (Fig. 3).

**Rule II — materialization-aware transformation.**  Each APPLY is
implemented against the materialized views: a view probe for tuples whose
results exist (the LEFT OUTER JOIN of Fig. 4), conditional evaluation for
the rest, and a STORE appending fresh results.  Implemented in
:mod:`repro.optimizer.implementation`, where logical applies become
physical operators with cost-based source selection.
"""

from __future__ import annotations

from repro.config import PredicateOrdering, RankingMode, ReusePolicy
from repro.errors import UnsupportedPredicateError
from repro.expressions.analysis import (
    conjunction_of,
    split_conjuncts,
    term_key,
)
from repro.expressions.expr import Expression, FunctionCall
from repro.obs.audit import (
    KIND_RANKING,
    ReuseDecisionRecord,
    predicate_sql,
)
from repro.optimizer.opt_context import OptimizationContext
from repro.optimizer.plans import (
    LogicalClassifierApply,
    LogicalFilter,
    LogicalNode,
    walk_plan,
)
from repro.optimizer.ranking import RankedPredicate, order_udf_predicates
from repro.optimizer.rules import TransformationRule, guard_below


class UdfPredicateTransformationRule(TransformationRule):
    """Rule I: unpack a selection containing UDF-based predicates."""

    name = "udf-predicate-transformation"

    def apply(self, node: LogicalNode, ctx: OptimizationContext
              ) -> LogicalNode | None:
        if not isinstance(node, LogicalFilter):
            return None
        applied_below = {term_key(n.call) for n in walk_plan(node.child)
                         if isinstance(n, LogicalClassifierApply)}
        direct, udf_groups, residual, computed = self._classify(
            node.predicate, ctx, applied_below)
        if not udf_groups and not residual:
            return None  # nothing to unpack (or already unpacked)

        child = node.child
        if direct:
            child = LogicalFilter(child, conjunction_of(direct))
        guard = guard_below(child, ctx)

        for predicate, call in self._rank(udf_groups, guard, ctx):
            child = LogicalClassifierApply(child, call, guard)
            child = LogicalFilter(child, predicate)
            ctx.predicate_order.append(term_key(call))
            try:
                guard = ctx.engine.intersection(
                    guard, ctx.engine.analyze(predicate))
            except UnsupportedPredicateError:
                pass  # guard stays an over-approximation (safe)

        # Residual conjuncts reference several UDF terms at once: apply
        # any terms not yet computed, then filter.
        for conjunct in residual:
            child = self._apply_missing_terms(child, conjunct, guard, ctx)
            child = LogicalFilter(child, conjunct)
        # Conjuncts over terms already applied below stay on top: their
        # UDF columns only exist above the corresponding APPLY.
        if computed:
            child = LogicalFilter(child, conjunction_of(computed))
        return child

    # -- classification --------------------------------------------------------

    def _classify(self, predicate: Expression, ctx: OptimizationContext,
                  applied_below: set[str]):
        direct: list[Expression] = []
        udf_groups: dict[str, list[Expression]] = {}
        residual: list[Expression] = []
        computed: list[Expression] = []
        for conjunct in split_conjuncts(predicate):
            calls = ctx.expensive_calls(conjunct)
            scalar_calls = {
                term_key(c) for c in calls
                if not ctx.udf_definition(c).is_table_valued
            }
            if not scalar_calls:
                direct.append(conjunct)
            elif scalar_calls <= applied_below:
                computed.append(conjunct)
            elif len(scalar_calls) == 1:
                udf_groups.setdefault(
                    next(iter(scalar_calls)), []).append(conjunct)
            else:
                residual.append(conjunct)
        return direct, udf_groups, residual, computed

    # -- materialization-aware ranking (section 4.2) ----------------------------

    def _rank(self, udf_groups: dict[str, list[Expression]],
              guard, ctx: OptimizationContext
              ) -> list[tuple[Expression, FunctionCall]]:
        if not udf_groups:
            return []
        guard_selectivity = max(ctx.estimator.selectivity(guard), 1e-9)
        ranked: list[RankedPredicate] = []
        lookup: dict[str, tuple[Expression, FunctionCall]] = {}
        for conjuncts in udf_groups.values():
            predicate = conjunction_of(conjuncts)
            call = next(
                c for c in ctx.expensive_calls(predicate)
                if not ctx.udf_definition(c).is_table_valued)
            definition = ctx.udf_definition(call)
            missing = 1.0
            if ctx.reuse_policy is ReusePolicy.EVA:
                signature = ctx.classifier_signature(call)
                if ctx.udf_manager.known(signature):
                    diff = ctx.udf_manager.difference_with_history(
                        signature, guard)
                    missing = min(1.0, ctx.estimator.selectivity(diff)
                                  / guard_selectivity)
            try:
                selectivity = ctx.estimator.selectivity(
                    ctx.engine.analyze(predicate))
            except UnsupportedPredicateError:
                selectivity = 0.33  # unanalyzable: uninformative default
            item = RankedPredicate(
                predicate=predicate,
                selectivity=selectivity,
                udf_cost=ctx.catalog.per_tuple_cost(
                    definition.model_name or definition.name),
                missing_fraction=missing,
                read_cost=ctx.cost_model.constants.view_read_per_tuple,
            )
            ranked.append(item)
            lookup[predicate.to_sql()] = (predicate, call)
        if ctx.predicate_ordering is PredicateOrdering.EXHAUSTIVE:
            chosen = self._search_order(ranked, lookup, guard, ctx)
            self._audit_ranking(ranked, chosen, guard, ctx,
                                strategy="exhaustive-memo")
            return chosen
        materialization_aware = (
            ctx.ranking is RankingMode.MATERIALIZATION_AWARE)
        ordered = order_udf_predicates(ranked, materialization_aware)
        chosen = [lookup[item.predicate.to_sql()] for item in ordered]
        self._audit_ranking(
            ranked, chosen, guard, ctx,
            strategy=("rank-eq4" if materialization_aware
                      else "rank-eq2"))
        return chosen

    @staticmethod
    def _audit_ranking(ranked: list[RankedPredicate],
                       chosen: list[tuple[Expression, FunctionCall]],
                       guard, ctx: OptimizationContext,
                       strategy: str) -> None:
        """Emit the predicate-ordering decision as an audit record."""
        materialization_aware = (
            ctx.ranking is RankingMode.MATERIALIZATION_AWARE)
        ctx.audit.record(ReuseDecisionRecord(
            kind=KIND_RANKING,
            signature=ctx.bound.table_name,
            query_predicate=predicate_sql(guard),
            selectivities={"guard": ctx.estimator.selectivity(guard)},
            costs={"strategy": strategy},
            candidates=[
                {
                    "predicate": item.predicate.to_sql(),
                    "selectivity": item.selectivity,
                    "udf_cost": item.udf_cost,
                    "missing_fraction": item.missing_fraction,
                    "read_cost": item.read_cost,
                    "rank": item.rank(materialization_aware),
                }
                for item in ranked
            ],
            chosen=[{"order": index, "term": term_key(call),
                     "predicate": predicate.to_sql()}
                    for index, (predicate, call) in enumerate(chosen)],
            reused=any(item.missing_fraction < 1.0 for item in ranked),
        ))

    @staticmethod
    def _search_order(ranked: list[RankedPredicate],
                      lookup: dict[str, tuple[Expression, FunctionCall]],
                      guard, ctx: OptimizationContext
                      ) -> list[tuple[Expression, FunctionCall]]:
        """Memo-based exhaustive ordering (the cost-based alternative to
        Theorem 4.1's rank sort)."""
        from repro.optimizer.memo import (
            OrderingCandidate,
            search_predicate_ordering,
        )

        candidates = [
            OrderingCandidate(
                key=item.predicate.to_sql(),
                selectivity=item.selectivity,
                udf_cost=item.udf_cost,
                missing_fraction=item.missing_fraction,
            )
            for item in ranked
        ]
        input_rows = (ctx.bound.metadata.num_frames
                      * max(1.0, ctx.bound.metadata.vehicles_per_frame)
                      * max(ctx.estimator.selectivity(guard), 1e-9))

        def step_cost(rows: float, candidate: OrderingCandidate) -> float:
            # In canonical-ranking mode the baseline cost model ignores
            # materialization: evaluate everything.
            missing = (candidate.missing_fraction
                       if ctx.ranking is RankingMode.MATERIALIZATION_AWARE
                       else 1.0)
            return ctx.cost_model.udf_predicate_cost(
                rows, candidate.udf_cost, missing)

        order, _cost, _memo = search_predicate_ordering(
            candidates, input_rows, step_cost)
        return [lookup[candidate.key] for candidate in order]

    # -- residual handling -----------------------------------------------------

    @staticmethod
    def _apply_missing_terms(child: LogicalNode, conjunct: Expression,
                             guard, ctx: OptimizationContext
                             ) -> LogicalNode:
        applied = {term_key(n.call) for n in walk_plan(child)
                   if isinstance(n, LogicalClassifierApply)}
        for call in ctx.expensive_calls(conjunct):
            if ctx.udf_definition(call).is_table_valued:
                continue
            if term_key(call) in applied:
                continue
            child = LogicalClassifierApply(child, call, guard)
            applied.add(term_key(call))
        return child


REUSE_RULES = [UdfPredicateTransformationRule()]
