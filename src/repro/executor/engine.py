"""Plan-to-operator translation and query execution."""

from __future__ import annotations

from repro.errors import ExecutorError
from repro.executor.context import ExecutionContext
from repro.executor.fusion import build_pipeline, streaming_suffix_start
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

    def build(self, plan: PhysicalPlan) -> Operator:
        chain = list(walk_plan(plan))
        split = streaming_suffix_start(chain)
        root = self.built(chain[split], build_pipeline(chain[split:],
                                                       self.context))
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

    def run(self, plan: PhysicalPlan) -> Batch:
        """Execute ``plan`` to completion and return the result batch."""
        if self.context.config.execution_mode == "row":
            return Reference(self.context.storage,
                             self.context.catalog).run(plan)
        return self.execute(plan)

    def execute(self, plan: PhysicalPlan) -> Batch:
        """Run ``plan`` on the engine, whatever the execution mode."""
        root = self.build(plan)
        batch = root.run_to_completion()
        self.record_kernel_fallbacks(root)
        return batch

    def record_kernel_fallbacks(self, root: Operator) -> None:
        """Roll per-operator runtime-fallback counts into the metrics.

        Every operator reports :meth:`Operator.fallback_counts` —
        batches that started on a compiled kernel but re-ran through the
        row interpreter, by plan-node label.  Harvesting them once per
        query (as ``kernel_fallback:<Label>`` counters) keeps the
        operators free of metrics plumbing while the Prometheus
        exposition can still report fallbacks per operator
        (``eva_kernel_fallback_batches_total``).
        """
        metrics = self.context.metrics
        op: Operator | None = root
        while op is not None:
            # Instrumented wrappers expose the real operator as .inner.
            real = getattr(op, "inner", op)
            for label, count in real.fallback_counts().items():
                if count:
                    metrics.increment(f"kernel_fallback:{label}", count)
            op = getattr(real, "child", None)
