"""Plan-to-operator translation and query execution."""

from __future__ import annotations

from repro.errors import ExecutorError
from repro.executor.context import ExecutionContext
from repro.executor.fusion import build_pipeline, streaming_suffix_start
from repro.executor.operators import (
    ClassifierApplyOperator,
    DetectorApplyOperator,
    DistinctOperator,
    FilterOperator,
    GroupByOperator,
    LimitOperator,
    Operator,
    OrderByOperator,
    ProjectOperator,
    ScanOperator,
)
from repro.optimizer.plans import (
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
    walk_plan,
)
from repro.storage.batch import Batch


class ExecutionEngine:
    """Builds operator trees from physical plans and runs them.

    One engine, one reference.  Every session runs the **streaming
    pipeline** (:mod:`repro.executor.fusion`): a plan's whole streaming
    suffix as one operator under the blocking operators of its prefix,
    whatever its reuse policy — EVA, FunCache, HashStash, fuzzy reuse or
    none.  ``execution_mode="row"`` builds the **row operator tree**
    instead, one row-at-a-time operator per plan node: the reference the
    differential suite holds the pipeline to, for ``ReusePolicy.NONE``
    and exact EVA reuse.  Either way a query runs on the thread that
    issued it.
    """

    def __init__(self, context: ExecutionContext):
        self.context = context

    def build(self, plan: PhysicalPlan) -> Operator:
        chain = list(walk_plan(plan))
        if self.context.config.execution_mode == "row":
            return self.build_over(chain, None)
        split = streaming_suffix_start(chain)
        pipeline = build_pipeline(chain[split:], self.context)
        return self.build_over(chain[:split],
                               self.built(chain[split], pipeline))

    def build_over(self, nodes: list[PhysicalPlan],
                   source: Operator | None) -> Operator:
        """Stack one operator per node of ``nodes`` (root first) on
        ``source``."""
        for node in reversed(nodes):
            source = self.built(node, self.build_node(node, source))
        return source

    def built(self, node: PhysicalPlan, operator: Operator) -> Operator:
        """Hook: the operator that stands for ``node`` in the tree (the
        instrumented engine wraps it)."""
        return operator

    def build_node(self, plan: PhysicalPlan,
                   child: Operator | None) -> Operator:
        """Build the operator for one plan node over a pre-built child."""
        if isinstance(plan, PhysScan):
            return ScanOperator(plan, self.context)
        if isinstance(plan, PhysDetectorApply):
            return DetectorApplyOperator(child, plan, self.context)
        if isinstance(plan, PhysClassifierApply):
            return ClassifierApplyOperator(child, plan, self.context)
        if isinstance(plan, PhysFilter):
            return FilterOperator(child, plan, self.context)
        if isinstance(plan, PhysProject):
            return ProjectOperator(child, plan, self.context)
        if isinstance(plan, PhysGroupBy):
            return GroupByOperator(child, plan, self.context)
        if isinstance(plan, PhysDistinct):
            return DistinctOperator(child, plan, self.context)
        if isinstance(plan, PhysOrderBy):
            return OrderByOperator(child, plan, self.context)
        if isinstance(plan, PhysLimit):
            return LimitOperator(child, plan, self.context)
        raise ExecutorError(f"no operator for plan node {type(plan).__name__}")

    def run(self, plan: PhysicalPlan) -> Batch:
        """Execute ``plan`` to completion and return the result batch."""
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
