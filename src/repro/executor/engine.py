"""Plan-to-operator translation and query execution."""

from __future__ import annotations

from repro.config import ReusePolicy
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

    Two engines, chosen per session by :meth:`uses_row_tree`: the
    **streaming pipeline** (:mod:`repro.executor.fusion`) runs a plan's
    whole streaming suffix as one operator under the blocking operators
    of its prefix; the **row operator tree** builds one row-at-a-time
    operator per plan node — the test oracle, and the host of the
    per-row baselines.  Either way a query runs on the thread that
    issued it.
    """

    def __init__(self, context: ExecutionContext):
        self.context = context

    def uses_row_tree(self) -> bool:
        """Does this session run on the row operator tree?

        ``execution_mode="row"`` asks for it.  FunCache charges hashing
        per lookup interleaved with stores, HashStash reads its recycler
        union up front per operator, and fuzzy bbox reuse walks per-row
        spatial candidates: those sessions resolve row-at-a-time
        whatever ``execution_mode`` says.
        """
        config = self.context.config
        return (config.execution_mode == "row"
                or config.reuse_policy in (ReusePolicy.FUNCACHE,
                                           ReusePolicy.HASHSTASH)
                or config.fuzzy_reuse)

    def build(self, plan: PhysicalPlan) -> Operator:
        chain = list(walk_plan(plan))
        if self.uses_row_tree():
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
