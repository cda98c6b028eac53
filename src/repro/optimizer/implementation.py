"""Physical implementation: logical plans to costed physical operators.

This is where Rule II of section 4.4 — the materialization-aware
transformation — takes effect: each logical APPLY is implemented either
against the materialized views (the LEFT OUTER JOIN + conditional APPLY +
STORE composite of Fig. 4, realized by the executor's reuse-aware
operators) or as plain evaluation, chosen by the Eq. 3 cost model.  For a
logical detector, Algorithm 2 selects the physical model set.

Implementation folds bottom-up, tracking estimated cardinality so costs
compound the way Theorem 4.1's expansion does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.catalog.udf_registry import UdfDefinition
from repro.config import ModelSelectionMode, ReusePolicy
from repro.errors import OptimizerError, UnsupportedPredicateError
from repro.expressions.expr import FunctionCall
from repro.obs.audit import (
    KIND_CLASSIFIER,
    KIND_DETECTOR,
    KIND_MODEL_SELECTION,
    ReuseDecisionRecord,
    predicate_sql,
)
from repro.optimizer.model_selection import (
    ModelCandidate,
    select_physical_udfs,
)
from repro.optimizer.opt_context import OptimizationContext
from repro.optimizer.plans import (
    DetectorSource,
    LogicalApply,
    LogicalClassifierApply,
    LogicalDistinct,
    LogicalFilter,
    LogicalGet,
    LogicalGroupBy,
    LogicalLimit,
    LogicalNode,
    LogicalOrderBy,
    LogicalProject,
    PhysClassifierApply,
    PhysDetectorApply,
    PhysDistinct,
    PhysFilter,
    PhysGroupBy,
    PhysLimit,
    PhysOrderBy,
    PhysProject,
    PhysScan,
    PhysicalPlan,
)
from repro.optimizer.udf_manager import UdfSignature
from repro.symbolic.dnf import DnfPredicate


@dataclass
class ImplementedPlan:
    """A physical subtree plus the estimates costing needs."""

    plan: PhysicalPlan
    rows: float
    cost: float
    #: Post-execution UdfManager updates gathered along the way.
    updates: list = field(default_factory=list)


@dataclass(frozen=True)
class PlanUpdate:
    """One p_u := UNION(p_u, q) to record after the query runs."""

    signature: UdfSignature
    guard: DnfPredicate
    per_tuple_cost: float


class PhysicalImplementer:
    """Bottom-up logical-to-physical folding with Eq. 3 costing."""

    def __init__(self, ctx: OptimizationContext):
        self.ctx = ctx

    def implement(self, node: LogicalNode) -> ImplementedPlan:
        if isinstance(node, LogicalGet):
            return self._implement_get(node)
        if isinstance(node, LogicalApply):
            return self._implement_detector(node)
        if isinstance(node, LogicalClassifierApply):
            return self._implement_classifier(node)
        if isinstance(node, LogicalFilter):
            return self._implement_filter(node)
        if isinstance(node, LogicalProject):
            return self._passthrough(node, PhysProject, items=node.items)
        if isinstance(node, LogicalGroupBy):
            return self._passthrough(node, PhysGroupBy, keys=node.keys,
                                     items=node.items)
        if isinstance(node, LogicalDistinct):
            return self._passthrough(node, PhysDistinct)
        if isinstance(node, LogicalOrderBy):
            return self._passthrough(node, PhysOrderBy, keys=node.keys)
        if isinstance(node, LogicalLimit):
            return self._passthrough(node, PhysLimit, count=node.count)
        raise OptimizerError(
            f"no implementation rule for {type(node).__name__}")

    # -- leaf: scan ------------------------------------------------------------

    def _implement_get(self, node: LogicalGet) -> ImplementedPlan:
        num_frames = self.ctx.bound.metadata.num_frames
        predicate = (self.ctx.engine.analyze(node.predicate)
                     if node.predicate is not None
                     else DnfPredicate.true())
        ranges = scan_ranges(predicate, num_frames)
        rows = float(sum(stop - start for start, stop in ranges))
        cost = rows * self.ctx.cost_model.constants.read_video_per_frame
        return ImplementedPlan(
            PhysScan(node.table_name, tuple(ranges)), rows, cost)

    # -- Rule II: detector APPLY --------------------------------------------------

    def _implement_detector(self, node: LogicalApply) -> ImplementedPlan:
        child = self.implement(node.child)
        definition = self.ctx.udf_definition(node.call)
        guard = node.guard if node.guard is not None else \
            DnfPredicate.true()
        store = self.ctx.config.uses_views
        alternatives = self._detector_alternatives(
            node.call, definition, guard)
        best_sources, best_cost = None, math.inf
        alternative_costs: dict[str, float] = {}
        for sources in alternatives:
            cost = self._detector_cost(sources, guard, child.rows)
            label = ("reuse" if any(s.use_view for s in sources)
                     else "no-reuse")
            alternative_costs[label] = min(
                cost, alternative_costs.get(label, math.inf))
            if cost < best_cost:
                best_cost = cost
                best_sources = sources
        assert best_sources is not None
        self.ctx.detector_sources = tuple(best_sources)
        self._audit_detector(node, definition, guard, best_sources,
                             alternative_costs)
        plan = PhysDetectorApply(
            child=child.plan,
            signature=f"{node.call.name}@{self.ctx.bound.table_name}",
            sources=tuple(best_sources),
            store=store,
            guard=guard,
        )
        updates = list(child.updates)
        if store:
            for source in best_sources:
                if not source.use_view:
                    updates.append(PlanUpdate(
                        self.ctx.model_signature(source.model_name),
                        source.predicate,
                        self.ctx.catalog.per_tuple_cost(source.model_name)))
        rows = child.rows * self._detections_per_frame()
        return ImplementedPlan(plan, rows, child.cost + best_cost, updates)

    def _detector_alternatives(self, call: FunctionCall,
                               definition: UdfDefinition,
                               guard: DnfPredicate
                               ) -> list[list[DetectorSource]]:
        ctx = self.ctx
        self._detector_reuse_info = None
        if definition.is_logical:
            return [self._logical_detector_sources(call, definition, guard)]
        model = ctx.catalog.zoo.get(definition.model_name)
        signature = ctx.model_signature(model.name)
        no_reuse = [DetectorSource(model.name, False, guard)]
        if not ctx.config.uses_views or not ctx.udf_manager.known(signature):
            return [no_reuse]
        inter = ctx.udf_manager.intersection_with_history(signature, guard)
        diff = ctx.udf_manager.difference_with_history(signature, guard)
        self._detector_reuse_info = {
            "signature": signature.key(),
            "history": predicate_sql(
                ctx.udf_manager.history(signature).aggregated_predicate),
            "intersection": predicate_sql(inter),
            "difference": predicate_sql(diff),
            "inter_selectivity": ctx.estimator.selectivity(inter),
            "diff_selectivity": ctx.estimator.selectivity(diff),
        }
        if inter.is_false():
            return [no_reuse]
        reuse = [DetectorSource(model.name, True, inter),
                 DetectorSource(model.name, False, diff)]
        return [no_reuse, reuse]

    def _audit_detector(self, node: LogicalApply,
                        definition: UdfDefinition, guard: DnfPredicate,
                        chosen: list[DetectorSource],
                        alternative_costs: dict[str, float]) -> None:
        """Emit the Rule II detector decision (Eq. 3 inputs + winner)."""
        ctx = self.ctx
        info = self._detector_reuse_info or {}
        guard_selectivity = max(ctx.estimator.selectivity(guard), 1e-9)
        inter_selectivity = info.get("inter_selectivity")
        # No history at all => every guarded tuple is missing (f_miss=1).
        missing = 1.0
        if inter_selectivity is not None:
            missing = min(1.0, info["diff_selectivity"]
                          / guard_selectivity)
        selectivities = {"guard": guard_selectivity}
        if inter_selectivity is not None:
            selectivities["intersection"] = inter_selectivity
            selectivities["difference"] = info["diff_selectivity"]
        ctx.audit.record(ReuseDecisionRecord(
            kind=KIND_DETECTOR,
            signature=info.get("signature", "{}@{}".format(
                definition.model_name or node.call.name,
                ctx.bound.table_name)),
            query_predicate=predicate_sql(guard),
            history_predicate=info.get("history"),
            intersection=info.get("intersection"),
            difference=info.get("difference"),
            missing_fraction=missing,
            selectivities=selectivities,
            costs=dict(alternative_costs),
            candidates=[
                {"model": source.model_name, "use_view": source.use_view,
                 "predicate": predicate_sql(source.predicate)}
                for source in chosen
            ],
            chosen=[
                {"model": source.model_name, "use_view": source.use_view,
                 "predicate": predicate_sql(source.predicate)}
                for source in chosen
            ],
            reused=any(source.use_view for source in chosen),
        ))

    def _logical_detector_sources(self, call: FunctionCall,
                                  definition: UdfDefinition,
                                  guard: DnfPredicate
                                  ) -> list[DetectorSource]:
        ctx = self.ctx
        logical_type = definition.logical_type or "ObjectDetector"
        models = ctx.catalog.physical_detectors(
            logical_type, min_accuracy=call.accuracy)
        if not models:
            raise OptimizerError(
                f"no physical model implements {logical_type} at accuracy "
                f"{call.accuracy}")
        reuse = ctx.config.reuse_policy is ReusePolicy.EVA
        if reuse and ctx.config.model_selection is ModelSelectionMode.SET_COVER:
            candidates = [
                ModelCandidate(m, ctx.model_signature(m.name))
                for m in models
            ]
            iterations: list[dict] = []
            sources = select_physical_udfs(
                candidates, guard, ctx.udf_manager, ctx.engine,
                ctx.estimator, ctx.bound.metadata.num_frames,
                ctx.cost_model.constants.view_read_per_key,
                audit=iterations)
            self._audit_model_selection(
                call, logical_type, guard, candidates, iterations, sources)
            return sources
        cheapest = min(models,
                       key=lambda m: ctx.catalog.per_tuple_cost(m.name))
        signature = ctx.model_signature(cheapest.name)
        if reuse and ctx.udf_manager.known(signature):
            inter = ctx.udf_manager.intersection_with_history(
                signature, guard)
            diff = ctx.udf_manager.difference_with_history(signature, guard)
            sources = []
            if not inter.is_false():
                sources.append(DetectorSource(cheapest.name, True, inter))
            sources.append(DetectorSource(cheapest.name, False, diff))
            return sources
        return [DetectorSource(cheapest.name, False, guard)]

    def _audit_model_selection(self, call: FunctionCall, logical_type: str,
                               guard: DnfPredicate,
                               candidates: list[ModelCandidate],
                               iterations: list[dict],
                               sources: list[DetectorSource]) -> None:
        """Emit the Algorithm 2 greedy set-cover trace as an audit record."""
        ctx = self.ctx
        known = [c for c in candidates
                 if ctx.udf_manager.known(c.signature)]
        history = None
        if known:
            history = " OR ".join(
                predicate_sql(ctx.udf_manager
                              .history(c.signature).aggregated_predicate)
                for c in known)
        ctx.audit.record(ReuseDecisionRecord(
            kind=KIND_MODEL_SELECTION,
            signature=f"{logical_type}@{ctx.bound.table_name}",
            query_predicate=predicate_sql(guard),
            history_predicate=history,
            selectivities={"guard": ctx.estimator.selectivity(guard)},
            costs={f"model:{c.model.name}":
                   ctx.catalog.per_tuple_cost(c.model.name)
                   for c in candidates},
            candidates=[
                {"model": c.model.name,
                 "accuracy": c.model.accuracy.value,
                 "per_tuple_cost": ctx.catalog.per_tuple_cost(c.model.name),
                 "known": ctx.udf_manager.known(c.signature)}
                for c in candidates
            ] + iterations,
            chosen=[
                {"model": source.model_name, "use_view": source.use_view,
                 "predicate": predicate_sql(source.predicate)}
                for source in sources
            ],
            reused=any(source.use_view for source in sources),
        ))

    def _detector_cost(self, sources: list[DetectorSource],
                       guard: DnfPredicate, input_rows: float) -> float:
        """Eq. 3 applied to the chosen source mix, with each model's
        ``c_e`` from :meth:`Catalog.per_tuple_cost` — the amount the
        executor charges per evaluated tuple."""
        guard_selectivity = max(self.ctx.estimator.selectivity(guard), 1e-9)
        cost = 0.0
        for source in sources:
            fraction = min(1.0, self.ctx.estimator.selectivity(
                source.predicate) / guard_selectivity)
            rows = input_rows * fraction
            udf_cost = self.ctx.catalog.per_tuple_cost(source.model_name)
            if source.use_view:
                cost += self.ctx.cost_model.udf_predicate_cost(
                    rows, udf_cost, missing_fraction=0.0)
            else:
                cost += rows * udf_cost
        return cost

    # -- Rule II: classifier APPLY -----------------------------------------------

    def _implement_classifier(self, node: LogicalClassifierApply
                              ) -> ImplementedPlan:
        child = self.implement(node.child)
        ctx = self.ctx
        definition = ctx.udf_definition(node.call)
        if definition.model_name is None:
            raise OptimizerError(
                f"UDF {node.call.name!r} has no physical implementation")
        guard = node.guard if node.guard is not None else \
            DnfPredicate.true()
        signature = ctx.classifier_signature(node.call)
        use_view = ctx.config.reuse_policy is ReusePolicy.EVA
        store = use_view
        missing = 1.0
        history = inter = diff = None
        guard_selectivity = max(ctx.estimator.selectivity(guard), 1e-9)
        if use_view and ctx.udf_manager.known(signature):
            history = ctx.udf_manager.history(signature).aggregated_predicate
            inter = ctx.udf_manager.intersection_with_history(
                signature, guard)
            diff = ctx.udf_manager.difference_with_history(signature, guard)
            missing = min(1.0, ctx.estimator.selectivity(diff)
                          / guard_selectivity)
        udf_cost = ctx.catalog.per_tuple_cost(definition.model_name)
        cost = ctx.cost_model.udf_predicate_cost(
            child.rows, udf_cost, missing)
        no_reuse_cost = ctx.cost_model.udf_predicate_cost(
            child.rows, udf_cost, 1.0)
        selectivities = {"guard": guard_selectivity}
        if inter is not None:
            selectivities["intersection"] = ctx.estimator.selectivity(inter)
            selectivities["difference"] = ctx.estimator.selectivity(diff)
        ctx.audit.record(ReuseDecisionRecord(
            kind=KIND_CLASSIFIER,
            signature=signature.key(),
            query_predicate=predicate_sql(guard),
            history_predicate=(predicate_sql(history)
                               if history is not None else None),
            intersection=(predicate_sql(inter)
                          if inter is not None else None),
            difference=(predicate_sql(diff) if diff is not None else None),
            missing_fraction=missing,
            selectivities=selectivities,
            costs={"reuse": cost, "no-reuse": no_reuse_cost},
            candidates=[{"model": definition.model_name,
                         "per_tuple_cost": udf_cost}],
            chosen=[{"model": definition.model_name,
                     "use_view": use_view, "store": store,
                     "predicate": predicate_sql(guard)}],
            reused=use_view and missing < 1.0,
        ))
        plan = PhysClassifierApply(
            child=child.plan,
            signature=signature.key(),
            call=node.call,
            model_name=definition.model_name,
            use_view=use_view,
            store=store,
            guard=guard,
        )
        updates = list(child.updates)
        if store:
            updates.append(PlanUpdate(signature, guard, udf_cost))
        return ImplementedPlan(plan, child.rows, child.cost + cost, updates)

    # -- relational operators ------------------------------------------------------

    def _implement_filter(self, node: LogicalFilter) -> ImplementedPlan:
        child = self.implement(node.child)
        try:
            selectivity = self.ctx.estimator.selectivity(
                self.ctx.engine.analyze(node.predicate))
        except UnsupportedPredicateError:
            selectivity = 0.33
        plan = PhysFilter(child.plan, node.predicate)
        return ImplementedPlan(plan, child.rows * selectivity, child.cost,
                               child.updates)

    def _passthrough(self, node, physical_type, **fields) -> ImplementedPlan:
        child = self.implement(node.child)
        plan = physical_type(child.plan, **fields)
        return ImplementedPlan(plan, child.rows, child.cost, child.updates)

    def _detections_per_frame(self) -> float:
        density = self.ctx.bound.metadata.vehicles_per_frame
        return max(1.0, density)


# ---------------------------------------------------------------------------
# Scan-range derivation
# ---------------------------------------------------------------------------


def scan_ranges(predicate: DnfPredicate, num_frames: int
                ) -> list[tuple[int, int]]:
    """Half-open frame ranges covering the predicate's id constraint."""
    if predicate.is_false():
        return []
    intervals: list[tuple[int, int]] = []
    for conjunctive in predicate.conjunctives:
        constraint = conjunctive.constraint("id")
        if constraint is None:
            return [(0, num_frames)]
        intervals.extend(_integer_ranges(constraint.pieces, num_frames))
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for start, stop in intervals[1:]:
        last_start, last_stop = merged[-1]
        if start <= last_stop:
            merged[-1] = (last_start, max(last_stop, stop))
        else:
            merged.append((start, stop))
    return merged


def _integer_ranges(pieces, num_frames: int) -> list[tuple[int, int]]:
    ranges: list[tuple[int, int]] = []
    for lo, lo_open, hi, hi_open in pieces:
        if lo == -math.inf:
            start = 0
        else:
            start = math.ceil(lo)
            if lo_open and start == lo:
                start += 1
        if hi == math.inf:
            stop = num_frames - 1
        else:
            stop = math.floor(hi)
            if hi_open and stop == hi:
                stop -= 1
        start = max(0, start)
        stop = min(num_frames - 1, stop)
        if stop >= start:
            ranges.append((start, stop + 1))
    return ranges
