"""Plan-to-operator translation and query execution."""

from __future__ import annotations

from repro.errors import ExecutorError
from repro.executor.context import ExecutionContext
from repro.executor.fusion import (build_pipeline, fusion_key,
                                   streaming_suffix_start)
from repro.executor.operators import (
    DistinctOperator,
    GroupByOperator,
    LimitOperator,
    Operator,
    OrderByOperator,
)
from repro.optimizer.plans import (
    PhysDistinct,
    PhysGroupBy,
    PhysLimit,
    PhysOrderBy,
    PhysicalPlan,
    walk_plan,
)
from repro.reference import Reference
from repro.storage.batch import Batch

#: Operator class of each blocking plan node.
BLOCKING_OPERATORS = {
    PhysGroupBy: GroupByOperator,
    PhysDistinct: DistinctOperator,
    PhysOrderBy: OrderByOperator,
    PhysLimit: LimitOperator,
}


class ExecutionEngine:
    """Builds operator trees from physical plans and runs them.

    One engine, whatever the reuse policy — EVA, FunCache, HashStash,
    fuzzy reuse or none: a plan's whole streaming suffix runs as one
    **streaming pipeline** (:mod:`repro.executor.fusion`) under one
    blocking operator per node of its prefix (GROUP BY, DISTINCT, ORDER
    BY, LIMIT).  A query runs on the thread that issued it.

    ``execution_mode="row"`` (``ReusePolicy.NONE`` only) hands the plan
    to :class:`~repro.reference.Reference` instead: the row-at-a-time
    oracle the engine is held to, which shares no code with it.
    """

    def __init__(self, context: ExecutionContext):
        self.context = context

    def fusion_key(self, plan: PhysicalPlan) -> tuple:
        """The kernel-cache key of ``plan``'s streaming suffix; a caller
        that runs one plan many times computes it once and passes it to
        :meth:`run`."""
        chain = list(walk_plan(plan))
        return fusion_key(chain[streaming_suffix_start(chain):],
                          self.context.config)

    def build(self, plan: PhysicalPlan,
              fusion_key: tuple | None = None) -> Operator:
        chain = list(walk_plan(plan))
        split = streaming_suffix_start(chain)
        root = self.built(chain[split], build_pipeline(
            chain[split:], self.context, fusion_key))
        for node in reversed(chain[:split]):
            operator = BLOCKING_OPERATORS.get(type(node))
            if operator is None:
                raise ExecutorError(
                    f"no operator for plan node {type(node).__name__}")
            root = self.built(node, operator(root, node, self.context))
        return root

    def built(self, node: PhysicalPlan, operator: Operator) -> Operator:
        """Hook: the operator that stands for ``node`` in the tree (the
        instrumented engine wraps it)."""
        return operator

    def run(self, plan: PhysicalPlan,
            fusion_key: tuple | None = None) -> Batch:
        """Execute ``plan`` to completion and return the result batch.
        ``fusion_key`` is :meth:`fusion_key` of ``plan``, when known."""
        if self.context.config.execution_mode == "row":
            return Reference(self.context.storage,
                             self.context.catalog).run(plan)
        return self.execute(plan, fusion_key)

    def execute(self, plan: PhysicalPlan,
                fusion_key: tuple | None = None) -> Batch:
        """Run ``plan`` on the engine, whatever the execution mode."""
        return self.build(plan, fusion_key).run_to_completion()
