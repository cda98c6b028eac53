"""The optimizer driver: Fig. 1's query lifecycle as rule phases.

``Optimizer.optimize`` runs:

1. **Bind** the statement (:mod:`repro.optimizer.binder`).
2. **Build** the canonical logical plan (:mod:`repro.optimizer.builder`).
3. **Canonical rules** — predicate pushdown through the APPLY, frame-filter
   placement, scan-predicate merging (:mod:`repro.optimizer.rules`).
4. **Semantic reuse rules** — Rule I unpacks UDF-based predicates into an
   APPLY chain ordered by the materialization-aware ranking function
   (:mod:`repro.optimizer.reuse_rules`); guards (the associated predicates
   of section 4.1) are annotated on every APPLY.
5. **Implementation** — Rule II: cost-based, materialization-aware
   physical implementation (:mod:`repro.optimizer.implementation`).

The returned :class:`OptimizedQuery` carries the physical plan plus the
post-execution updates (``p_u := UNION(p_u, q)`` per stored UDF) and
introspection data used by tests and the evaluation harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.config import EvaConfig
from repro.costs import CostModel
from repro.obs.audit import ReuseDecisionRecord
from repro.obs.trace import NOOP_SPAN
from repro.optimizer.binder import bind
from repro.optimizer.builder import build_logical_plan
from repro.optimizer.implementation import PhysicalImplementer, PlanUpdate
from repro.optimizer.opt_context import OptimizationContext
from repro.optimizer.plans import DetectorSource, PhysicalPlan
from repro.optimizer.reuse_rules import REUSE_RULES
from repro.optimizer.rules import (
    AnnotateApplyGuardRule,
    CANONICAL_RULES,
    RuleEngine,
)
from repro.optimizer.udf_manager import UdfManager
from repro.parser.ast_nodes import SelectStatement
from repro.symbolic.engine import SymbolicEngine

#: Re-export: sessions record these after execution.
UdfUpdate = PlanUpdate


@dataclass
class OptimizedQuery:
    """The physical plan plus everything the session needs around it."""

    plan: PhysicalPlan
    updates: list[PlanUpdate] = field(default_factory=list)
    #: UDF-predicate evaluation order chosen by the ranking function
    #: (term keys, for tests and the Fig. 9 experiment).
    predicate_order: list[str] = field(default_factory=list)
    #: Detector sources chosen (for the Fig. 10 experiment).
    detector_sources: tuple[DetectorSource, ...] = ()
    #: Reuse-decision audit records accumulated while optimizing (the
    #: "why did EVA (not) reuse?" evidence); the session stamps trace
    #: ids on them and exports each through the tracer's sink.
    audit: list[ReuseDecisionRecord] = field(default_factory=list)


class Optimizer:
    """Produces physical plans with the semantic reuse algorithm applied."""

    def __init__(self, catalog: Catalog, udf_manager: UdfManager,
                 engine: SymbolicEngine, config: EvaConfig,
                 cost_model: CostModel | None = None):
        self.catalog = catalog
        self.udf_manager = udf_manager
        self.engine = engine
        self.config = config
        self.cost_model = cost_model or CostModel()
        self._rule_engine = RuleEngine()

    def optimize(self, statement: SelectStatement,
                 tracer=None) -> OptimizedQuery:
        """Optimize ``statement``.

        ``tracer`` (a :class:`repro.obs.trace.Tracer`, optional) receives
        one span per phase — bind, build, canonical-rules, reuse-rules,
        implement — plus per-rule spans for every successful rewrite.
        """
        with _span(tracer, "optimize:bind"):
            bound = bind(statement, self.catalog)
        memo_before = self.engine.memo_stats()
        ctx = OptimizationContext(
            bound=bound,
            catalog=self.catalog,
            udf_manager=self.udf_manager,
            engine=self.engine,
            cost_model=self.cost_model,
            config=self.config,
        )
        with _span(tracer, "optimize:build"):
            plan = build_logical_plan(bound, ctx)
        with _span(tracer, "optimize:canonical-rules"):
            plan = self._rule_engine.rewrite(plan, CANONICAL_RULES, ctx,
                                             tracer)
        with _span(tracer, "optimize:reuse-rules"):
            plan = self._rule_engine.rewrite(plan, REUSE_RULES, ctx,
                                             tracer)
            plan = self._rule_engine.rewrite(
                plan, [AnnotateApplyGuardRule()], ctx, tracer)
        with _span(tracer, "optimize:implement") as span:
            implemented = PhysicalImplementer(ctx).implement(plan)
            span.tag(estimated_cost=round(implemented.cost, 6),
                     estimated_rows=round(implemented.rows, 3))
        self._audit_memo(ctx, memo_before)
        return OptimizedQuery(
            plan=implemented.plan,
            updates=list(implemented.updates),
            predicate_order=list(ctx.predicate_order),
            detector_sources=ctx.detector_sources,
            audit=list(ctx.audit),
        )

    def _audit_memo(self, ctx, before) -> None:
        """Append this pass's reduction-memo hit/miss deltas to the audit.

        One ``symbolic-memo`` record per pass that exercised the memo.
        Under a shared (server) engine the deltas can include concurrent
        clients' traffic — they are an attribution of *activity during*
        this pass, not an exact per-pass ledger, which is the same
        trade the shared profiler makes.
        """
        delta = self.engine.memo_stats().delta(before)
        if delta.hits == 0 and delta.misses == 0:
            return
        from repro.obs.audit import KIND_SYMBOLIC_MEMO, ReuseDecisionRecord

        ctx.audit.record(ReuseDecisionRecord(
            kind=KIND_SYMBOLIC_MEMO,
            signature="symbolic-engine",
            costs={"memo_hits": delta.hits,
                   "memo_misses": delta.misses,
                   "memo_evictions": delta.evictions,
                   "memo_size": delta.size},
            reused=delta.hits > 0,
        ))


def _span(tracer, name: str, **tags):
    """A tracer span when tracing, the shared no-op handle otherwise."""
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **tags)
