"""The streaming engine: one pipeline per plan.

Every physical plan is a blocking prefix (``[Limit][OrderBy][Distinct]
[GroupBy]``) over a **streaming suffix** (``Project``/``Filter``/APPLY
nodes down to the ``Scan``).  BlazeIt-style engines show that once model
cost is amortized by reuse, the cheap pipeline *is* the query — so the
whole suffix runs as one :class:`FusedPipelineOperator`, under every
reuse policy: compiled expression kernels, a stage tuple, a pruned scan
column set, and one plain loop that pushes each columnar scan batch
through the stages.  Nothing is generated or ``exec``-ed; a stage is
data.  A kernel the expression compiler could not vectorize takes
``run_kernel_*``'s row fallback inside its stage; APPLY stages never
fall back — they cut a batch into segments instead.

Batch size is invisible by contract: a query's rows, the views it
leaves, its #TI / #reused / #DI and every clock category except APPLY
(one ``apply_per_batch`` per batch an APPLY stage sees) and OPTIMIZE are
the same at every ``EvaConfig.batch_rows``, down to one row per batch.
APPLY stages keep it by cutting batches into segments
(:func:`~repro.executor.operators.base.segments`); filter groups that
combine masks speculatively re-run sequentially whenever an upper kernel
errors, so errors never surface for rows a lower filter would have
removed; and a project that no batch reached still emits its (empty)
output schema through the end-of-stream drain.  The rows themselves are
held to :mod:`repro.reference`, the row-at-a-time oracle.

The plan→kernel cache
---------------------

Compilation is off the hot path: a process-wide :class:`KernelCache`
(LRU, ``EvaConfig.kernel_cache_size``) maps a *structural* plan key —
the chain's node reprs with scan ranges stripped, plus the reuse policy
— to its ``FusedPlan``.  Stripping the ranges is what lets repeat
queries over different windows (and every client of a shared server)
reuse one compiled plan.  Cost-calibration catalog rebuilds invalidate
the cache the same way they clear the session plan cache.  A context
without a cache compiles the same pipeline on every build.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from repro.clock import CostCategory
from repro.config import ReusePolicy
from repro.executor.context import ExecutionContext
from repro.executor.operators.base import Operator, node_label
from repro.executor.operators.classifier import ClassifierApplyOperator
from repro.executor.operators.detector import DetectorApplyOperator
from repro.expressions.compiler import (
    CompiledKernel,
    compile_expression,
    run_kernel_mask,
    run_kernel_mask_vectorized,
    run_kernel_values,
)
from repro.expressions.expr import ColumnRef, Star
from repro.optimizer.plans import (
    PhysClassifierApply,
    PhysDetectorApply,
    PhysFilter,
    PhysProject,
    PhysScan,
    PhysicalPlan,
)
from repro.storage.batch import Batch

#: Plan nodes that stream batches without cross-batch state: the
#: pipeline runs them.  Everything else (GROUP BY, DISTINCT, ORDER BY,
#: LIMIT) is a blocking operator above the pipeline.
STREAMING_NODES = (PhysScan, PhysFilter, PhysProject,
                   PhysClassifierApply, PhysDetectorApply)

#: Base scan columns, in schema order.
_SCAN_COLUMNS = ("id", "timestamp", "frame")


def streaming_suffix_start(chain: list[PhysicalPlan]) -> int:
    """Index in root-to-scan ``chain`` where the streaming suffix begins.

    0 means the whole plan streams (no blocking prefix).
    """
    split = len(chain) - 1
    while split > 0 and isinstance(chain[split - 1], STREAMING_NODES):
        split -= 1
    return split


# ---------------------------------------------------------------------------
# plan -> kernel cache
# ---------------------------------------------------------------------------


class KernelCache:
    """Thread-safe LRU cache of structural plan key → :class:`FusedPlan`.

    Keyed like the PR 1 session plan cache (an ``OrderedDict`` LRU with
    an eviction counter), but **process-wide**: one instance is shared by
    every client of an :class:`~repro.server.state.SharedReuseState`,
    so hit/miss/eviction counters are guarded by a lock.  Calibration
    rebuilds call :meth:`invalidate`.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"kernel cache capacity must be >= 1, "
                             f"got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, FusedPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def lookup(self, key: tuple) -> "FusedPlan | None":
        """The compiled plan cached under ``key``, or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
            return entry

    def store(self, key: tuple, entry: "FusedPlan") -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self) -> None:
        """Drop every compiled plan (cost-calibration catalog rebuild)."""
        with self._lock:
            self._entries.clear()
            self.invalidations += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }


# ---------------------------------------------------------------------------
# fused plan representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FusedPlan:
    """The context-free compiled form of one streaming suffix.

    Holds only shareable state: the stage tuple (whose compiled
    expression kernels are stateless when run through the
    ``run_kernel_*`` counters-outside runners) and the pruned scan
    column set.  Everything per-execution — APPLY operator instances,
    fallback counters, clocks — lives in the :class:`_FusedRuntime` of
    the operator running it.

    A stage is ``(kind, payload, index)``:

    * ``("filters", ((kernel, label), ...), None)`` — a run of adjacent
      filters (scan residual included) applied as one mask group;
    * ``("detector" | "classifier", label, apply_index)`` — one APPLY,
      run by the runtime's ``ops[apply_index]``;
    * ``("project", ((name, kernel | None), ...), project_index)`` — a
      select list; a ``None`` kernel is ``*``.
    """

    stages: tuple[tuple, ...]
    scan_columns: tuple[str, ...] | None


class _FusedRuntime:
    """Per-execution state threaded through the stages."""

    __slots__ = ("policy", "ops", "fallbacks", "projects_reached")

    def __init__(self, policy: ReusePolicy, ops: list):
        self.policy = policy
        self.ops = ops
        #: plan-node label -> batches an expression kernel re-ran through
        #: the row interpreter (the ``kernel_fallback:<Label>`` metrics).
        self.fallbacks: dict[str, int] = {}
        #: ``project_index`` of every project stage a batch has reached.
        self.projects_reached: set[int] = set()


# ---------------------------------------------------------------------------
# stage bodies
# ---------------------------------------------------------------------------


def _filter_group(batch: Batch, rt: _FusedRuntime, group: tuple
                  ) -> Batch | None:
    """Apply a run of adjacent filters with one combined mask.

    The lowest kernel evaluates with full fallback semantics; the upper
    kernels evaluate **speculatively** on the unfiltered batch and AND
    into the combined mask — one ``filter_mask`` instead of one per
    filter.  Serial short-circuiting is preserved exactly: if the
    combined mask empties, later kernels never run (serial operators
    would never see a batch), and if a speculative kernel raises — its
    error might be caused by a row a lower filter removes — the group
    demotes and re-runs sequentially, reproducing serial values, errors,
    and charges (expression kernels never touch the clock).  A lone
    filter, or a group holding a kernel that did not vectorize, runs
    sequentially from the start.
    """
    if len(group) > 1 and all(kernel.vectorized
                              for kernel, _ in group[1:]):
        first_kernel, first_label = group[0]
        mask = run_kernel_mask(first_kernel, batch, rt.fallbacks,
                               first_label)
        combined = np.asarray(mask, dtype=bool)
        try:
            for kernel, _label in group[1:]:
                if not combined.any():
                    return None
                combined = combined & run_kernel_mask_vectorized(kernel,
                                                                 batch)
            out = batch.filter_mask(combined)
            return out if out.num_rows else None
        except Exception:
            pass  # demote: an upper kernel failed on the full batch
    for kernel, label in group:
        mask = run_kernel_mask(kernel, batch, rt.fallbacks, label)
        batch = batch.filter_mask(mask)
        if not batch.num_rows:
            return None
    return batch


def _classifier_step(batch: Batch, rt: _FusedRuntime,
                     op: ClassifierApplyOperator) -> Batch:
    """One classifier APPLY stage: the UDF column for the whole batch.
    A row whose key cannot be built raises the reference's error; what
    the clock holds after a failed query is not part of the contract."""
    context = op.context
    context.clock.charge(CostCategory.APPLY,
                         context.costs.apply_per_batch)
    return batch.with_column(op.column, op._resolve_batch(batch, rt.policy))


def _detector_step(batch: Batch, rt: _FusedRuntime,
                   op: DetectorApplyOperator) -> Batch | None:
    """One detector APPLY stage: bulk view probe + conditional APPLY.
    A batch without a ``frame`` or ``id`` column raises the reference's
    error; what the clock holds after a failed query is not part of the
    contract."""
    context = op.context
    context.clock.charge(CostCategory.APPLY,
                         context.costs.apply_per_batch)
    out = op._apply_batch_vectorized(batch, rt.policy)
    return out if out.num_rows else None


def _project_batch(batch: Batch, rt: _FusedRuntime, spec: tuple) -> Batch:
    """One project stage: the select list over ``batch``."""
    columns: dict[str, list] = {}
    for name, kernel in spec:
        if kernel is None:  # star: pass through input columns
            for column in batch.column_names:
                if not column.startswith("__udf::"):
                    columns[column] = batch.column(column)
        else:
            columns[name] = run_kernel_values(kernel, batch, rt.fallbacks,
                                              "Project")
    return Batch(columns)


# ---------------------------------------------------------------------------
# cache key + scan pruning
# ---------------------------------------------------------------------------


def fusion_key(chain: list[PhysicalPlan], config) -> tuple:
    """Structural cache key for a streaming chain.

    Scan ranges are stripped so plans that differ *only* in ranges
    (repeat queries over different windows) share one compiled plan;
    everything else the compiled form depends on — node structure,
    expressions, signatures — is captured through the frozen-dataclass
    reprs, plus the reuse policy the APPLY stages run under.
    """
    parts = []
    for node in chain:
        if isinstance(node, PhysScan):
            parts.append(repr(replace(node, ranges=())))
        else:
            parts.append(repr(replace(node, child=None)))
    return (config.reuse_policy.value, tuple(parts))


def _scan_column_pruning(chain: list[PhysicalPlan]
                         ) -> tuple[str, ...] | None:
    """Scan columns the chain actually needs, or None for all.

    Pruning applies only when the boundary is a star-free project: the
    project's output then fully determines what downstream operators can
    see, so any base column no chain expression (or APPLY stage)
    references is never built (``frame`` is a lazy range either way,
    ``id`` and ``timestamp`` are one list each).  APPLY stages pin their
    operating set: a detector reads ``id``/``frame`` and feeds
    ``timestamp`` (when present) to its source predicates; a classifier
    reads ``frame``.  The READ_VIDEO charge is per-row and unaffected.
    """
    boundary = chain[0]
    if not isinstance(boundary, PhysProject):
        return None
    if any(isinstance(expr, Star) for expr, _ in boundary.items):
        return None
    needed: set[str] = set()

    def add_expr(expr) -> None:
        for node in expr.walk():
            if isinstance(node, ColumnRef):
                needed.add(node.name)

    for member in chain:
        if isinstance(member, PhysScan):
            if member.residual is not None:
                add_expr(member.residual)
        elif isinstance(member, PhysFilter):
            add_expr(member.predicate)
        elif isinstance(member, PhysProject):
            for expr, _name in member.items:
                add_expr(expr)
        elif isinstance(member, PhysClassifierApply):
            add_expr(member.call)
            needed.add("frame")
        else:  # PhysDetectorApply
            needed.update(_SCAN_COLUMNS)
    columns = tuple(c for c in _SCAN_COLUMNS if c in needed)
    if len(columns) == len(_SCAN_COLUMNS):
        return None
    return columns or ("id",)  # keep the row count observable


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


def compile_fused_plan(chain: list[PhysicalPlan],
                       context: ExecutionContext) -> FusedPlan:
    """Compile a streaming chain (boundary first, scan last)."""
    evaluator = context.evaluator
    stages: list[tuple] = []
    pending_filters: list[tuple[CompiledKernel, str]] = []
    num_applies = 0
    num_projects = 0

    def flush_filters() -> None:
        nonlocal pending_filters
        if pending_filters:
            stages.append(("filters", tuple(pending_filters), None))
            pending_filters = []

    for node in reversed(chain):  # bottom-up = execution order
        label = node_label(node)
        if isinstance(node, PhysScan):
            if node.residual is not None:
                pending_filters.append(
                    (compile_expression(node.residual, evaluator), label))
        elif isinstance(node, PhysFilter):
            pending_filters.append(
                (compile_expression(node.predicate, evaluator), label))
        elif isinstance(node, (PhysDetectorApply, PhysClassifierApply)):
            flush_filters()
            kind = ("detector" if isinstance(node, PhysDetectorApply)
                    else "classifier")
            stages.append((kind, label, num_applies))
            num_applies += 1
        else:  # PhysProject
            flush_filters()
            spec = tuple(
                (name, None if isinstance(expr, Star)
                 else compile_expression(expr, evaluator))
                for expr, name in node.items)
            stages.append(("project", spec, num_projects))
            num_projects += 1
    flush_filters()
    return FusedPlan(tuple(stages), _scan_column_pruning(chain))


# ---------------------------------------------------------------------------
# the pipeline operator
# ---------------------------------------------------------------------------


class FusedPipelineOperator(Operator):
    """Runs a whole streaming suffix, one loop over its stages per batch.

    Built by the engine under the plan's blocking operators.  Owns the
    scan loop (a cancel check and a READ_VIDEO charge per scan batch) and
    a per-execution runtime with fresh APPLY stage instances, so the
    shared :class:`FusedPlan` carries no mutable state.
    """

    def __init__(self, chain: list[PhysicalPlan], fused: FusedPlan,
                 context: ExecutionContext):
        super().__init__(context)
        self.child = None
        self.node = chain[0]
        self.fused = fused
        #: Plan nodes this operator replaces, boundary first (EXPLAIN
        #: ANALYZE reports every covered node as ``kernel=fused``).
        self.covered_nodes = list(chain)
        self.kernel_mode = "fused"
        self._scan = chain[-1]
        ops: list[ClassifierApplyOperator | DetectorApplyOperator] = []
        for node in reversed(chain):
            if isinstance(node, PhysClassifierApply):
                ops.append(ClassifierApplyOperator(node, context))
            elif isinstance(node, PhysDetectorApply):
                ops.append(DetectorApplyOperator(node, context))
        self.rt = _FusedRuntime(context.config.reuse_policy, ops)

    def execute(self) -> Iterator[Batch]:
        context = self.context
        table = context.storage.table(self._scan.table_name)
        run_stages = self._run_stages
        clock_charge = context.clock.charge
        per_frame = context.costs.read_video_per_frame
        batch_rows = context.config.batch_rows
        columns = self.fused.scan_columns
        produced = False
        # HashStash reads the recycler when the query starts, even if the
        # scan yields nothing.
        recycling = ([op for op in self.rt.ops
                      if isinstance(op, DetectorApplyOperator)]
                     if self.rt.policy is ReusePolicy.HASHSTASH else [])
        for op in recycling:
            op._prepare_hashstash()
        try:
            for start, stop in self._scan.ranges:
                for batch in table.scan(start, stop, batch_rows,
                                        columns=columns):
                    # The one cancel point every plan shape passes, even
                    # with a blocking operator above the pipeline.
                    context.check_cancelled()
                    clock_charge(CostCategory.READ_VIDEO,
                                 batch.num_rows * per_frame)
                    out = run_stages(batch)
                    if out is not None and out.num_rows:
                        produced = True
                        yield out
            if not produced:
                tail = run_stages(None)
                if tail is not None:
                    yield tail
        finally:
            for op in recycling:
                op._add_recycler_entry()
            self.kernel_fallback_batches = sum(self.rt.fallbacks.values())

    def _run_stages(self, batch: Batch | None) -> Batch | None:
        """Push one scan batch through the stages; None when it dies.

        ``batch=None`` is the end-of-stream drain, run once when no
        batch survived the pipeline.  A project emits its (empty) output
        schema when it never received input, and anything stacked above
        it reacts to that empty batch —
        classifiers charge APPLY for it, filters and detectors swallow
        it, upper projects re-map it.  So where a live batch that dies
        ends the walk, the drain keeps walking: the first project no
        batch ever reached revives it as that empty schema, and the
        stages above treat it like any other batch.
        """
        rt = self.rt
        draining = batch is None
        for kind, payload, index in self.fused.stages:
            if batch is None:
                if not draining:
                    return None
                if kind == "project" and index not in rt.projects_reached:
                    batch = Batch({name: [] for name, kernel in payload
                                   if kernel is not None})
            elif kind == "filters":
                # A filter never yields an empty batch.
                batch = (_filter_group(batch, rt, payload)
                         if batch.num_rows else None)
            elif kind == "detector":
                batch = _detector_step(batch, rt, rt.ops[index])
            elif kind == "classifier":
                batch = _classifier_step(batch, rt, rt.ops[index])
            else:  # project
                rt.projects_reached.add(index)
                batch = _project_batch(batch, rt, payload)
        return batch

    def fallback_counts(self) -> dict[str, int]:
        """Expression-kernel row-fallback batch counts, keyed by plan-node
        label."""
        return dict(self.rt.fallbacks)


def build_pipeline(chain: list[PhysicalPlan], context: ExecutionContext
                   ) -> FusedPipelineOperator:
    """The pipeline operator for a streaming ``chain`` (scan last).

    The compiled plan comes from the context's :class:`KernelCache`;
    a context without one compiles the chain for this build alone.
    """
    cache: KernelCache | None = context.kernel_cache
    if cache is None:
        fused = compile_fused_plan(chain, context)
    else:
        key = fusion_key(chain, context.config)
        fused = cache.lookup(key)
        if fused is None:
            fused = compile_fused_plan(chain, context)
            cache.store(key, fused)
            context.metrics.increment("kernel_cache:compile", 1)
        else:
            context.metrics.increment("kernel_cache:hit", 1)
    return FusedPipelineOperator(chain, fused, context)
