"""Operator instrumentation for EXPLAIN ANALYZE and span capture.

Wraps every operator the engine builds — the streaming pipeline, at its
fusion boundary, and each blocking operator of the prefix above it — in
a counting proxy that records output rows, batches, real elapsed time,
*and* virtual (simulation-clock) time, then renders the annotated plan
tree the way ``EXPLAIN`` does — with actuals attached.  Plan nodes the
pipeline covers report ``fused-into=<boundary>``.  The instrumented
engine always runs the engine, also under ``execution_mode="row"``: the
reference has no operators to instrument.

Each wrapper's ``elapsed`` / ``virtual`` measure the whole subtree below
it (the time spent inside ``next()`` on its pipeline, children
included).  Per-operator **self time** is therefore derived by
subtracting the children's subtree totals — reported as ``self=`` in
EXPLAIN ANALYZE and as the per-operator span durations in ``repro
trace`` — so a parent is no longer blamed for its children's work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from repro.executor.context import ExecutionContext
from repro.executor.engine import ExecutionEngine
from repro.executor.operators.base import Operator, node_label
from repro.optimizer.plans import PhysicalPlan, plan_children
from repro.storage.batch import Batch


class InstrumentedOperator(Operator):
    """Counts rows/batches and subtree wall + virtual time."""

    def __init__(self, inner: Operator, context: ExecutionContext):
        super().__init__(context)
        self.inner = inner
        self.rows_out = 0
        self.batches_out = 0
        #: Wall seconds spent inside this subtree (children included).
        self.elapsed = 0.0
        #: Virtual seconds charged while inside this subtree (children
        #: included).
        self.virtual = 0.0

    def execute(self) -> Iterator[Batch]:
        clock = self.context.clock
        start = time.perf_counter()
        virtual_start = clock.total()
        iterator = self.inner.execute()
        while True:
            try:
                batch = next(iterator)
            except StopIteration:
                break
            finally:
                # Attribute only the time spent *inside* this subtree; the
                # consumer's time between pulls is not ours.
                self.elapsed += time.perf_counter() - start
                self.virtual += clock.total() - virtual_start
            self.rows_out += batch.num_rows
            self.batches_out += 1
            yield batch
            start = time.perf_counter()
            virtual_start = clock.total()


class InstrumentedEngine(ExecutionEngine):
    """Execution engine that wraps every operator it builds."""

    def __init__(self, context: ExecutionContext):
        super().__init__(context)
        self.instrumented: dict[int, InstrumentedOperator] = {}
        #: Plan nodes *covered* by a fused pipeline built above them
        #: (node id → boundary label).  They never become operators, so
        #: EXPLAIN ANALYZE reports them as fused into their boundary
        #: instead of silently dropping them.
        self.fused_markers: dict[int, str] = {}

    def run(self, plan: PhysicalPlan,
            fusion_key: tuple | None = None) -> Batch:
        return self.execute(plan, fusion_key)

    def built(self, node: PhysicalPlan, operator: Operator) -> Operator:
        wrapper = InstrumentedOperator(operator, self.context)
        self.instrumented[id(node)] = wrapper
        covered = getattr(operator, "covered_nodes", None)
        if covered:
            boundary_label = node_label(covered[0])
            for below in covered[1:]:
                self.fused_markers[id(below)] = boundary_label
        return wrapper

    def operator_stats(self, plan: PhysicalPlan
                       ) -> "list[OperatorStats]":
        """Per-node actuals for ``plan`` in pre-order, with self times."""
        return collect_operator_stats(plan, self.instrumented,
                                      self.fused_markers)


@dataclass(frozen=True)
class OperatorStats:
    """Actuals for one plan node, with parent/child attribution."""

    node: PhysicalPlan
    label: str
    depth: int
    rows_out: int
    batches_out: int
    #: Subtree totals (children included).
    elapsed: float
    virtual: float
    #: This operator's own contribution (subtree minus children,
    #: clamped at zero against scheduling noise).
    self_elapsed: float
    self_virtual: float
    #: Kernel mode the operator ran with (see ``Operator.kernel_mode``)
    #: or None when not applicable.
    kernel_mode: str | None = None
    #: Label of the fusion boundary this node was compiled into, for
    #: nodes a fused pipeline covers (they run as stages of the
    #: boundary's pipeline and have no operator of their own).
    fused_into: str | None = None
    #: On a fusion boundary: how many plan nodes the fused pipeline
    #: replaced (itself included).
    fused_ops: int = 0


def collect_operator_stats(plan: PhysicalPlan,
                           instrumented: dict[int, InstrumentedOperator],
                           fused_markers: dict[int, str] | None = None
                           ) -> list[OperatorStats]:
    """Walk ``plan`` pre-order pairing nodes with their wrappers.

    Self time is the node's subtree time minus its direct children's
    subtree times: the wrappers measure whole pipelines (a parent's pull
    blocks on its child's ``next()``), so without the subtraction every
    ancestor double-counts the leaf work below it.  Nodes listed in
    ``fused_markers`` executed as stages of a fused pipeline: their work
    is measured at the fusion boundary, so they report zero of their own
    and carry the boundary's label instead.
    """
    out: list[OperatorStats] = []
    fused_markers = fused_markers or {}

    def visit(node: PhysicalPlan, depth: int) -> None:
        stats = instrumented.get(id(node))
        children = plan_children(node)
        if stats is None and id(node) in fused_markers:
            out.append(OperatorStats(
                node=node,
                label=node_label(node),
                depth=depth,
                rows_out=0,
                batches_out=0,
                elapsed=0.0,
                virtual=0.0,
                self_elapsed=0.0,
                self_virtual=0.0,
                kernel_mode="fused",
                fused_into=fused_markers[id(node)],
            ))
        elif stats is not None:
            child_elapsed = sum(
                instrumented[id(c)].elapsed for c in children
                if id(c) in instrumented)
            child_virtual = sum(
                instrumented[id(c)].virtual for c in children
                if id(c) in instrumented)
            out.append(OperatorStats(
                node=node,
                label=node_label(node),
                depth=depth,
                rows_out=stats.rows_out,
                batches_out=stats.batches_out,
                elapsed=stats.elapsed,
                virtual=stats.virtual,
                self_elapsed=max(0.0, stats.elapsed - child_elapsed),
                self_virtual=max(0.0, stats.virtual - child_virtual),
                kernel_mode=stats.inner.kernel_mode,
                fused_ops=len(getattr(stats.inner, "covered_nodes", ())),
            ))
        for child in children:
            visit(child, depth + 1)

    visit(plan, 0)
    return out


def explain_analyze(plan: PhysicalPlan, context: ExecutionContext
                    ) -> tuple[Batch, str]:
    """Execute ``plan`` instrumented; return (result, annotated tree)."""
    from repro.optimizer.plans import explain

    engine = InstrumentedEngine(context)
    result = engine.run(plan)
    base_lines = explain(plan).splitlines()
    stats_by_node = {id(s.node): s
                     for s in engine.operator_stats(plan)}
    annotated = []
    for line, node in zip(base_lines, _walk(plan)):
        stats = stats_by_node.get(id(node))
        if stats is None:  # pragma: no cover - every node is wrapped
            annotated.append(line)
            continue
        if stats.fused_into is not None:
            annotated.append(
                f"{line}  (kernel=fused fused-into={stats.fused_into})")
            continue
        kernel = ""
        if stats.kernel_mode is not None:
            kernel = f" kernel={stats.kernel_mode}"
            if stats.kernel_mode == "fused" and stats.fused_ops:
                kernel += f" fusion-boundary={stats.fused_ops}ops"
        annotated.append(
            f"{line}  "
            f"(rows={stats.rows_out} batches={stats.batches_out} "
            f"time={stats.elapsed * 1000:.1f}ms "
            f"self={stats.self_elapsed * 1000:.1f}ms "
            f"virtual={stats.self_virtual:.3f}s{kernel})")
    return result, "\n".join(annotated)


def _walk(plan: PhysicalPlan):
    yield plan
    for child in plan_children(plan):
        yield from _walk(child)
