"""Morsel-driven intra-query parallelism.

Partitions a plan's scan output into fixed-size frame-range *morsels*
(aligned to ``EvaConfig.batch_rows`` multiples) and drives the streaming
suffix of the plan — scan, compiled filters, projections, and the
APPLY operators — across a shared :class:`ThreadPoolExecutor`
(``EvaConfig.parallelism`` workers; 0/1 keep the serial path).  Results
are merged **in morsel-index order**, so the concatenated output is
bit-identical to the serial run; blocking operators above the streaming
suffix (GROUP BY, DISTINCT, ORDER BY) then run serially over the merged
stream.

Determinism contract (asserted by ``tests/test_parallel_differential.py``
and the benchmark harness):

* **rows** — morsels partition the scan's frame ranges disjointly and
  every materialized-view key contains the frame id, so per-morsel
  results are independent; the ordered merge reproduces the serial row
  order exactly.
* **view contents** — stores are keyed by frame (id, bbox), morsels own
  disjoint frames, and :class:`~repro.storage.view_store.MaterializedView`
  is internally locked, so the union of morsel stores equals the serial
  stores.
* **virtual clocks** — each morsel charges a *private*
  :class:`~repro.clock.SimulationClock`; morsel boundaries are multiples
  of ``batch_rows``, so each morsel produces exactly the batches the
  serial scan would have produced over the same range, and per-batch
  charges match term by term.  Once-per-query charges (Eq. 3's hash-join
  setup) go through :class:`~repro.executor.context.OnceGates` so exactly
  one morsel pays them.  The driver folds morsel clocks and invocation
  records into the session's clock/metrics in morsel-index order via the
  existing snapshot/merge seam (floating-point sums may differ from
  serial only by association order, i.e. ~1 ulp).

When any precondition fails — a LIMIT anywhere in the plan
(short-circuiting saves charges serially), the FunCache/HashStash
baselines (shared mutable caches with per-lookup charges / recycler
entries appended per operator), a store-mode APPLY whose consulted view
does not exist yet (mid-query view creation changes later probe charges
nondeterministically), or overlapping scan ranges (a frame in two
morsels races its own store) — the query silently runs serially and the
``parallel_fallback_serial`` counter is bumped.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator

from repro.clock import SimulationClock
from repro.config import ReusePolicy
from repro.executor.context import ExecutionContext, OnceGates
from repro.executor.fusion import streaming_suffix_start
from repro.obs.flight import record_morsels
from repro.obs.lineage import (
    current_lineage,
    install_lineage,
    uninstall_lineage,
)
from repro.executor.operators.base import Operator
from repro.metrics import MetricsCollector
from repro.optimizer.plans import (
    PhysClassifierApply,
    PhysDetectorApply,
    PhysLimit,
    PhysScan,
    PhysicalPlan,
    walk_plan,
)
from repro.storage.batch import Batch


@dataclass(frozen=True)
class Morsel:
    """One unit of parallel work: a frame range of the scan."""

    index: int
    start: int
    stop: int

    @property
    def frames(self) -> int:
        return self.stop - self.start


class _MorselMetrics:
    """Records a morsel's metric calls for deterministic replay.

    Operators report UDF invocations and counter bumps through the
    context's collector; replaying the recorded calls into the session's
    collector *in morsel-index order* reproduces exactly the state the
    serial run builds (distinct-key sets, per-query counts, counters) —
    regardless of the order worker threads actually finished in.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def record_invocations(self, udf_name: str, keys, reused: bool,
                           per_tuple_cost: float = 0.0) -> None:
        self.events.append(
            ("invocations", udf_name, list(keys), reused, per_tuple_cost))

    def increment(self, counter: str, by: int = 1) -> None:
        self.events.append(("counter", counter, by))

    def replay(self, metrics: MetricsCollector) -> None:
        for event in self.events:
            if event[0] == "invocations":
                _, name, keys, reused, cost = event
                metrics.record_invocations(name, keys, reused,
                                           per_tuple_cost=cost)
            else:
                _, counter, by = event
                metrics.increment(counter, by)


@dataclass
class MorselResult:
    """What one morsel hands back to the driver."""

    morsel: Morsel
    batch: Batch
    clock: SimulationClock
    metrics: _MorselMetrics
    wall_seconds: float


class ParallelExecutor:
    """Drives the streaming suffix of plans across a worker pool.

    One instance lives on each :class:`~repro.executor.engine.
    ExecutionEngine`; its thread pool is created lazily on the first
    parallel query and shared by every subsequent one (morsels from all
    of a session's queries share the same workers).
    """

    def __init__(self, context: ExecutionContext):
        self.context = context
        self._pool: ThreadPoolExecutor | None = None
        self._pool_size = 0
        self._pool_lock = threading.Lock()

    # -- eligibility ----------------------------------------------------------

    def morsels_for(self, plan: PhysicalPlan) -> list[Morsel] | None:
        """The morsel partition for ``plan``, or None to run serially."""
        config = self.context.config
        if config.parallelism < 2:
            return None
        if config.reuse_policy in (ReusePolicy.FUNCACHE,
                                   ReusePolicy.HASHSTASH):
            # FunCache interleaves per-lookup hash charges with stores on
            # one shared table; HashStash appends one recycler entry per
            # operator instance.  Both would diverge from serial.
            return None
        nodes = list(walk_plan(plan))
        if any(isinstance(node, PhysLimit) for node in nodes):
            # LIMIT short-circuits: serial execution stops pulling (and
            # charging) once satisfied; morsels would not.
            return None
        scan = nodes[-1]
        if not isinstance(scan, PhysScan):
            return None
        if self._cold_store_view(nodes):
            return None
        ranges = list(scan.ranges)
        if _ranges_overlap(ranges):
            return None
        morsel_rows = config.effective_morsel_rows
        morsels: list[Morsel] = []
        for start, stop in ranges:
            position = start
            while position < stop:
                end = min(position + morsel_rows, stop)
                morsels.append(Morsel(len(morsels), position, end))
                position = end
        if len(morsels) < 2:
            return None
        return morsels

    def _cold_store_view(self, nodes: list[PhysicalPlan]) -> bool:
        """Does a store-mode APPLY consult a view that does not exist yet?

        Serially, the first stored row *creates* the view mid-query and
        every later probe charges view-read costs; morsels racing the
        creation would observe it at nondeterministic points.  Views that
        already exist (the reuse-heavy steady state this layer targets)
        are safe: probes charge per key whether they hit or miss.
        """
        view_store = self.context.view_store
        scan = nodes[-1]
        assert isinstance(scan, PhysScan)
        try:
            video_name = self.context.video(scan.table_name).name
        except Exception:
            video_name = scan.table_name
        for node in nodes:
            if isinstance(node, PhysClassifierApply):
                if (node.use_view and node.store
                        and self.context.config.reuse_policy
                        is ReusePolicy.EVA
                        and view_store.get(f"mv::{node.signature}") is None):
                    return True
            elif isinstance(node, PhysDetectorApply):
                if not node.store:
                    continue
                from repro.optimizer.udf_manager import UdfSignature

                for source in node.sources:
                    if not source.use_view:
                        continue
                    key = UdfSignature(source.model_name,
                                       (video_name,)).key()
                    if view_store.get(f"mv::{key}") is None:
                        return True
        return False

    # -- execution ------------------------------------------------------------

    def run(self, plan: PhysicalPlan, engine) -> Batch | None:
        """Run ``plan`` with morsel parallelism, or None to fall back.

        ``engine`` builds the serial prefix's operators (the blocking
        operators above the streaming suffix, if any).
        """
        morsels = self.morsels_for(plan)
        if morsels is None:
            if self.context.config.parallelism >= 2:
                self.context.metrics.increment("parallel_fallback_serial")
            return None
        chain = list(walk_plan(plan))
        split = streaming_suffix_start(chain)
        suffix_root = chain[split]
        gates = OnceGates()
        wall_start = time.perf_counter()
        results = self._run_morsels(suffix_root, morsels, gates)
        merged = self._merge(results)
        record_morsels([r.wall_seconds for r in results])
        metrics = self.context.metrics
        metrics.increment("parallel_queries")
        metrics.increment("parallel_morsels", len(morsels))
        self._emit_spans(results, time.perf_counter() - wall_start)
        if split == 0:
            return merged
        # Blocking prefix: build the operators above the suffix over a
        # source that replays the merged stream.
        source = _SourceOperator(self.context, merged)
        return engine.build_over(chain[:split], source).run_to_completion()

    def _run_morsels(self, suffix_root: PhysicalPlan,
                     morsels: list[Morsel],
                     gates: OnceGates) -> list[MorselResult]:
        pool = self._get_pool(self.context.config.parallelism)
        lineage = current_lineage()
        futures = [pool.submit(self._run_one, suffix_root, morsel, gates,
                               lineage)
                   for morsel in morsels]
        results: list[MorselResult] = []
        error: BaseException | None = None
        for future in futures:  # morsel-index order
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                # Deterministic propagation: the smallest morsel index
                # wins (matching where the serial run would have failed
                # first); later morsels' errors are suppressed.
                if error is None:
                    error = exc
        if error is not None:
            raise error
        return results

    def _run_one(self, suffix_root: PhysicalPlan, morsel: Morsel,
                 gates: OnceGates,
                 lineage=None) -> MorselResult:
        """Execute the streaming suffix over one morsel's frame range."""
        from repro.executor.engine import ExecutionEngine

        if lineage is not None:
            # Share the driver's per-query lineage accumulator: its
            # counts are commutative, so worker interleaving cannot
            # change the per-query totals the ledger folds.
            install_lineage(lineage)
        try:
            clock = SimulationClock()
            metrics = _MorselMetrics()
            context = self.context.for_morsel(clock, metrics)
            context.join_gates = gates
            subplan = _replace_scan(suffix_root,
                                    ((morsel.start, morsel.stop),))
            engine = ExecutionEngine(context)
            root = engine.build(subplan)
            start = time.perf_counter()
            batch = root.run_to_completion()
            engine.record_kernel_fallbacks(root)
            return MorselResult(morsel, batch, clock, metrics,
                                time.perf_counter() - start)
        finally:
            if lineage is not None:
                uninstall_lineage()

    def _merge(self, results: list[MorselResult]) -> Batch:
        """Fold morsel outputs into the session state, in index order."""
        clock = self.context.clock
        metrics = self.context.metrics
        for result in results:
            for category, seconds in result.clock.breakdown().items():
                if seconds > 0:
                    clock.charge(category, seconds)
            result.metrics.replay(metrics)
        batches = [r.batch for r in results if r.batch.num_rows]
        if not batches:
            # All-empty result: keep a morsel's (empty) batch so the
            # column names survive, exactly like the serial run's.
            for result in results:
                if result.batch.column_names:
                    return result.batch
            return results[0].batch
        return Batch.concat(batches)

    def _emit_spans(self, results: list[MorselResult],
                    wall_seconds: float) -> None:
        """Per-morsel spans under the active query trace (when tracing)."""
        tracer = self.context.tracer
        if tracer is None or not getattr(tracer, "enabled", False):
            return
        add_span = getattr(tracer, "add_span", None)
        trace_id = getattr(tracer, "current_trace_id", None)
        if add_span is None or trace_id is None:
            return
        parent = add_span(
            "parallel-execute", trace_id=trace_id,
            parent_id=getattr(tracer, "current_span_id", None),
            wall_seconds=wall_seconds,
            virtual_seconds=sum(r.clock.total() for r in results),
            morsels=len(results),
            parallelism=self.context.config.parallelism)
        parent_id = parent.span_id if parent is not None else None
        for result in results:
            add_span(
                f"morsel:{result.morsel.index}",
                trace_id=trace_id, parent_id=parent_id,
                wall_seconds=result.wall_seconds,
                virtual_seconds=result.clock.total(),
                rows=result.batch.num_rows,
                frames=result.morsel.frames)

    def _get_pool(self, workers: int) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None or self._pool_size < workers:
                self._pool = ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix="eva-morsel")
                self._pool_size = workers
            return self._pool


# -- plan surgery -------------------------------------------------------------


def _replace_scan(suffix_root: PhysicalPlan,
                  ranges: tuple[tuple[int, int], ...]) -> PhysicalPlan:
    """A copy of the streaming suffix with the scan's ranges swapped.

    Only the :class:`PhysScan` leaf is replaced; intermediate nodes are
    rebuilt with ``dataclasses.replace`` so their payloads (signatures,
    sources, compiled predicates) are shared across morsels.
    """
    if isinstance(suffix_root, PhysScan):
        return replace(suffix_root, ranges=ranges)
    child = getattr(suffix_root, "child")
    return replace(suffix_root, child=_replace_scan(child, ranges))


class _SourceOperator(Operator):
    """Feeds an already-computed batch into a rebuilt operator chain."""

    def __init__(self, context: ExecutionContext, batch: Batch):
        super().__init__(context)
        self._batch = batch

    def execute(self) -> Iterator[Batch]:
        if self._batch.num_rows or self._batch.column_names:
            yield self._batch


def _ranges_overlap(ranges: list[tuple[int, int]]) -> bool:
    """Do any two half-open [start, stop) ranges share a frame?"""
    ordered = sorted(ranges)
    for (_, stop), (start, _) in zip(ordered, ordered[1:]):
        if start < stop:
            return True
    return False
