"""The public entry point: :func:`connect` and :class:`EvaSession`.

A session owns one instance of every subsystem (catalog, storage, view
store, optimizer state, virtual clock, metrics) and executes EVAQL
statements end to end::

    import repro

    session = repro.connect()
    session.register_video(repro.video.ua_detrac("medium"))
    result = session.execute(
        "SELECT id, label FROM ua_detrac_medium "
        "CROSS APPLY FastRCNNObjectDetector(frame) "
        "WHERE id < 100 AND label = 'car';")

Reuse behavior is controlled by the session's :class:`~repro.config.EvaConfig`.

The components a session runs on are bundled in a :class:`SessionState`.
:meth:`SessionState.fresh` builds a fully isolated set (the classic
single-user session above); the multi-client server
(:mod:`repro.server`) instead constructs states whose *reuse* components
(catalog, storage, view store, UDF manager, model zoo) are shared across
clients while everything per-client (clock, metrics, plan cache) stays
private.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.cancellation import CancelToken
from repro.catalog.catalog import Catalog
from repro.clock import CostCategory, SimulationClock
from repro.config import EvaConfig
from repro.errors import CatalogError, EvaError, StorageError
from repro.executor.context import ExecutionContext
from repro.executor.engine import ExecutionEngine
from repro.metrics import MetricsCollector, QueryMetrics
from repro.models.zoo import ModelZoo, default_zoo
from repro.obs.flight import FlightRecorder, FlightStats
from repro.obs.lineage import (QueryLineage, ViewLedger, install_lineage,
                               parse_view_name, uninstall_lineage)
from repro.obs.profiler import ProfileStore
from repro.obs.slo import SloTracker
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import Tracer
from repro.optimizer.optimizer import OptimizedQuery, Optimizer
from repro.optimizer.udf_manager import UdfManager
from repro.parser.ast_nodes import (
    CreateUdfStatement,
    DropUdfStatement,
    ExplainStatement,
    SelectStatement,
    ShowUdfsStatement,
)
from repro.parser.parser import parse
from repro.storage.engine import StorageEngine
from repro.storage.view_store import ViewStore
from repro.store import (DurableViewStore, StoreLayout, attach_reuse_state,
                         copy_views, open_reuse_state, restore_udf_histories)
from repro.symbolic.engine import SymbolicEngine
from repro.symbolic.reduce import budget_exhaustions
from repro.types import QueryResult
from repro.video.synthetic import SyntheticVideo

#: UDF name -> zoo model registered by :meth:`EvaSession.register_standard_udfs`.
STANDARD_MODEL_UDFS = {
    "FastRCNNObjectDetector": "fasterrcnn_resnet50",
    "FasterRCNNResnet101": "fasterrcnn_resnet101",
    "YoloTiny": "yolo_tiny",
    "CarType": "car_type",
    "ColorDet": "color_det",
    "License": "license_reader",
    "VehicleFilter": "vehicle_filter",
}


def connect(config: EvaConfig | None = None,
            zoo: ModelZoo | None = None) -> "EvaSession":
    """Create a fresh session (standard UDFs pre-registered)."""
    return EvaSession(config=config, zoo=zoo)


@dataclass
class SessionState:
    """The component bundle a session executes over.

    This is the seam between "library" and "service" deployments: every
    field is duck-typed, so the server substitutes lock-guarded facades
    (e.g. :class:`repro.server.state.SharedReuseState` view stores) for
    the plain single-threaded implementations without the session — or
    any operator below it — knowing the difference.
    """

    config: EvaConfig
    catalog: Catalog
    storage: StorageEngine
    view_store: ViewStore
    udf_manager: UdfManager
    symbolic: SymbolicEngine
    clock: SimulationClock = field(default_factory=SimulationClock)
    metrics: MetricsCollector = field(default_factory=MetricsCollector)
    #: Span recorder for the query lifecycle; defaults to an enabled
    #: tracer over this state's clock with a null sink (negligible
    #: overhead).  The server substitutes per-client tracers that share
    #: one export sink.
    tracer: Tracer | None = None
    #: Per-operator self-time rollups (:mod:`repro.obs.profiler`); they
    #: fill only while the tracer captures operators.
    profiler: ProfileStore = field(default_factory=ProfileStore)
    #: Latency SLO accounting (:class:`repro.obs.slo.SloTracker`).
    #: Private per session by default (built from the config's
    #: ``slo_latency_*`` targets); the server substitutes one shared
    #: tracker so burn rates and latency quantiles are fleet-wide.
    slo: object | None = None
    #: Aggregate flight-record rollups
    #: (:class:`repro.obs.flight.FlightStats`); shared under the server
    #: for the same reason.
    flight_stats: object | None = None
    #: Plan→kernel cache of the streaming pipeline
    #: (:class:`repro.executor.fusion.KernelCache`).  Private per session
    #: by default; the server substitutes one shared cache so every
    #: client reuses the same compiled plans.
    kernel_cache: object | None = None
    #: View lineage & reuse-provenance ledger
    #: (:class:`repro.obs.lineage.ViewLedger`).  Private per session by
    #: default (built when ``config.view_ledger`` is on); the server
    #: substitutes one shared ledger so reader attribution spans
    #: clients.  None disables per-view provenance entirely.
    ledger: object | None = None
    #: True when the reuse components are shared with other sessions (a
    #: server deployment).  Destructive whole-state operations
    #: (:meth:`EvaSession.reset_reuse_state`, ``load_reuse_state``) are
    #: refused on shared states — they would yank state from under every
    #: other client.
    shared: bool = False

    def __post_init__(self):
        if self.tracer is None:
            self.tracer = Tracer(clock=self.clock)
        if self.slo is None:
            self.slo = SloTracker.from_config(self.config)
        if self.flight_stats is None:
            self.flight_stats = FlightStats()
        if self.kernel_cache is None:
            from repro.executor.fusion import KernelCache

            self.kernel_cache = KernelCache(self.config.kernel_cache_size)
        if self.ledger is None and self.config.view_ledger:
            self.ledger = ViewLedger()

    @classmethod
    def fresh(cls, config: EvaConfig | None = None,
              zoo: ModelZoo | None = None) -> "SessionState":
        """A fully isolated component set (single-user session)."""
        config = config or EvaConfig()
        symbolic = SymbolicEngine(memo_size=config.symbolic_memo_size)
        view_store, udf_manager = open_reuse_state(config, symbolic)
        state = cls(
            config=config,
            catalog=Catalog(zoo or default_zoo()),
            storage=StorageEngine(),
            view_store=view_store,
            udf_manager=udf_manager,
            symbolic=symbolic,
        )
        attach_reuse_state(view_store, state.ledger)
        return state


class _PlanEntry:
    """One plan-cache entry: a SELECT's parsed statement and optimized
    plan, the :class:`UdfManager` version it was planned at (None with
    the cache off), and what its runs may reuse — its kernel-cache key,
    and whether its ``p_u`` updates are recorded at that version."""

    __slots__ = ("version", "statement", "optimized", "fusion_key",
                 "recorded")

    def __init__(self, version: int | None, statement: SelectStatement,
                 optimized: OptimizedQuery):
        self.version = version
        self.statement = statement
        self.optimized = optimized
        self.fusion_key: tuple | None = None
        self.recorded = False


class EvaSession:
    """One VDBMS instance: catalog + storage + optimizer + executor."""

    def __init__(self, config: EvaConfig | None = None,
                 zoo: ModelZoo | None = None,
                 register_standard_udfs: bool = True,
                 state: SessionState | None = None):
        if state is None:
            state = SessionState.fresh(config, zoo)
        elif config is not None and config is not state.config:
            raise EvaError(
                "pass configuration through SessionState when providing "
                "an explicit state")
        self.state = state
        self.config = state.config
        self.catalog = state.catalog
        self.storage = state.storage
        self.view_store = state.view_store
        self.clock = state.clock
        self.metrics = state.metrics
        self.symbolic = state.symbolic
        self.udf_manager = state.udf_manager
        self.tracer = state.tracer
        self.profiler = state.profiler
        #: View provenance ledger; the store emits create/drop events
        #: into it (wired where the store was opened).
        self.ledger = state.ledger
        self.slow_log = SlowQueryLog(self.config.slow_query_threshold)
        #: Per-query flight recorder (docs/observability.md).  SLO
        #: accounting and aggregate stage rollups live on the state so
        #: the server can share them fleet-wide; flight ids stay
        #: per-session deterministic.
        self.flight = FlightRecorder(self.tracer, slo=state.slo,
                                     stats=state.flight_stats)
        #: Per-operator actuals of the last instrumented query.
        self._last_operator_stats: list = []
        self.optimizer = Optimizer(
            self.catalog, self.udf_manager, self.symbolic, self.config)
        self.context = ExecutionContext(
            catalog=self.catalog,
            storage=self.storage,
            view_store=self.view_store,
            clock=self.clock,
            metrics=self.metrics,
            config=self.config,
            tracer=state.tracer,
            kernel_cache=state.kernel_cache,
        )
        self.engine = ExecutionEngine(self.context)
        #: The OptimizedQuery of the most recent SELECT (introspection).
        self.last_optimized = None
        #: LRU plan cache: query text -> :class:`_PlanEntry`; bounded by
        #: ``config.plan_cache_size``.
        self._plan_cache: OrderedDict[str, _PlanEntry] = OrderedDict()
        if register_standard_udfs:
            self.register_standard_udfs()
        if not state.shared:
            self._emit_recovery_span()

    def _emit_recovery_span(self) -> None:
        """One ``store-recover`` trace span per store recovery."""
        report = self.view_store.recovery_report
        if report is None or report.span_emitted:
            return
        report.span_emitted = True
        with self.tracer.span(
                "store-recover",
                views=report.views_recovered,
                partitions=report.partitions_replayed,
                records=report.records_replayed,
                keys=report.keys_recovered,
                torn_tails=report.torn_tails_repaired,
                recovery_wall_s=round(report.wall_seconds, 6)):
            pass

    # -- setup ---------------------------------------------------------------

    def register_video(self, video: SyntheticVideo) -> None:
        """Register a video as a scannable table in catalog and storage."""
        self.catalog.register_video(video)
        self.storage.register_video(video)

    def register_standard_udfs(self) -> None:
        """Register the paper's UDF suite (Table 1 / Table 5 names)."""
        for udf_name, model_name in STANDARD_MODEL_UDFS.items():
            if udf_name not in self.catalog.udfs:
                self.catalog.register_model_udf(udf_name, model_name)
        if "ObjectDetector" not in self.catalog.udfs:
            self.catalog.register_logical_udf("ObjectDetector",
                                              "ObjectDetector")
        if "Area" not in self.catalog.udfs:
            # AREA is the canonical *inexpensive* UDF the optimizer must
            # not materialize (section 3.1, step 1).
            self.catalog.register_builtin_udf("Area", impl=None,
                                              per_tuple_cost=2e-6)

    # -- execution -----------------------------------------------------------

    def execute(self, sql: str,
                cancel: CancelToken | None = None) -> QueryResult:
        """Parse, optimize, and run one EVAQL statement.

        ``cancel`` installs a cooperative cancellation token for the
        duration of the statement (used by the server for per-query
        timeouts); batch-boundary checks raise
        :class:`~repro.errors.QueryCancelledError` once it trips.
        """
        previous = self.context.cancel
        if cancel is not None:
            self.context.cancel = cancel
        try:
            result = self._execute(sql)
        finally:
            self.context.cancel = previous
        # One fsync for every control record (UDF history, lineage) the
        # statement appended to a durable store.
        self.view_store.commit()
        return result

    def _execute(self, sql: str) -> QueryResult:
        # Consume any admission wait the server deposited for this
        # statement up front: only SELECTs produce flight records, and a
        # stale wait must never leak onto a later query.
        queue_wait_s = self.flight.take_queue_wait()
        # Only text that parsed as a SELECT is ever cached, so a cached
        # entry's statement is what parsing the text again would give.
        entry = self._plan_cache.get(sql)
        statement = parse(sql) if entry is None else entry.statement
        if isinstance(statement, CreateUdfStatement):
            return self._execute_create_udf(statement)
        if isinstance(statement, SelectStatement):
            return self._execute_select(sql, statement, queue_wait_s)
        if isinstance(statement, ShowUdfsStatement):
            return self._execute_show_udfs()
        if isinstance(statement, DropUdfStatement):
            self.catalog.udfs.drop(statement.name)
            return QueryResult(columns=["status"],
                               rows=[(f"UDF {statement.name} dropped",)])
        if isinstance(statement, ExplainStatement):
            from repro.optimizer.plans import explain as explain_plan

            optimized = self.optimizer.optimize(statement.query)
            if statement.analyze:
                from repro.executor.instrument import explain_analyze

                _, annotated = explain_analyze(optimized.plan, self.context)
                for update in optimized.updates:
                    self.udf_manager.record_execution(
                        update.signature, update.guard,
                        update.per_tuple_cost)
                return QueryResult(
                    columns=["plan"],
                    rows=[(line,) for line in annotated.splitlines()])
            return QueryResult(
                columns=["plan"],
                rows=[(line,)
                      for line in explain_plan(optimized.plan).splitlines()])
        raise EvaError(f"unsupported statement {type(statement).__name__}")

    def _execute_show_udfs(self) -> QueryResult:
        rows = []
        for udf in self.catalog.udfs.definitions():
            rows.append((
                udf.name,
                udf.kind.value,
                udf.model_name or ("<logical>" if udf.is_logical
                                   else "<builtin>"),
                udf.accuracy.value if udf.accuracy else "",
                round(udf.per_tuple_cost * 1000, 3),
            ))
        return QueryResult(
            columns=["name", "kind", "implementation", "accuracy",
                     "cost_ms"],
            rows=rows)

    def _execute_select(self, sql: str, statement: SelectStatement,
                        queue_wait_s: float = 0.0) -> QueryResult:
        tracer = self.tracer
        # Flight recording rides the tracer: a disabled tracer (the
        # documented zero-overhead mode) also records no flights, so
        # the wait-time hooks stay dictionary misses.
        flight_ctx = self.flight.begin(queue_wait_s) \
            if tracer.enabled else None
        exhaustions_before = budget_exhaustions()
        # Per-query view-touch accumulator (repro.obs.lineage): the
        # store's probe/write hooks feed it from every executor thread;
        # it folds into the ledger once the query finishes.
        qlin = QueryLineage() if self.ledger is not None else None
        if qlin is not None:
            install_lineage(qlin)
        try:
            with tracer.span("query", sql=sql) as root:
                self.metrics.begin_query(sql, self.clock)
                before = self.clock.snapshot()
                entry = self._cached_plan(sql)
                cache_hit = entry is not None
                if entry is None:
                    version = self.udf_manager.version \
                        if self._plan_cache_enabled else None
                    with tracer.span("optimize"):
                        with self.clock.measure(CostCategory.OPTIMIZE):
                            optimized = self.optimizer.optimize(
                                statement, tracer=tracer)
                    self._count_memo(optimized)
                    entry = _PlanEntry(version, statement, optimized)
                    self._cache_plan(sql, entry)
                optimized = entry.optimized
                self.last_optimized = optimized
                self._emit_audit(optimized)
                with tracer.span("execute"):
                    batch = self._run_plan(entry)
                with tracer.span("record-updates",
                                 updates=len(optimized.updates)):
                    with self.clock.measure(CostCategory.OPTIMIZE):
                        self._record_updates(entry)
                exhausted = budget_exhaustions() - exhaustions_before
                if exhausted:
                    # Process-wide deltas: under a server, concurrent
                    # clients' reductions can land in each other's count.
                    self.metrics.increment("symbolic_budget_exhausted",
                                           exhausted)
                query_metrics = self.metrics.end_query(self.clock,
                                                       batch.num_rows)
                reused = any(r.reused for r in optimized.audit)
                root.tag(rows=batch.num_rows, cache_hit=cache_hit,
                         reused=reused)
        except BaseException:
            self.flight.abort()
            raise
        finally:
            if qlin is not None:
                uninstall_lineage()
        views = None
        if qlin is not None:
            views = self._observe_lineage(
                qlin, sql, trace_id=getattr(root, "trace_id", None),
                audit=optimized.audit)
        # Assembled after the root span closes so wall_seconds is final;
        # the flight record then feeds the slow-query observation (the
        # entry links the flight id and dominant-stage attribution).
        record = None
        if flight_ctx is not None:
            record = self._observe_flight(
                flight_ctx, sql, root, query_metrics, batch.num_rows,
                cache_hit=cache_hit, reused=reused, optimized=optimized,
                views=views)
            if views is not None and views["created"]:
                self.ledger.attach_flight(views["created"],
                                          record.get("flight_id"))
        if views is not None:
            self._persist_lineage(views["touched"])
        self._observe_slow(sql, query_metrics, before, batch.num_rows,
                           trace_id=getattr(root, "trace_id", None),
                           flight=record,
                           views=[probe["id"] for probe
                                  in views["probed"]] if views else ())
        return QueryResult(
            columns=batch.column_names,
            rows=batch.to_tuples(),
            metrics=query_metrics,
        )

    def _observe_lineage(self, qlin, sql: str, *, trace_id, audit):
        """Fold the finished query's view touches into the ledger.

        Returns the ledger's summary (touched / created / written /
        probed lineage ids) for the flight record and slow-query log,
        or None when the query touched no views.
        """
        if not qlin.touched:
            return None
        names = set(qlin.probes) | set(qlin.writes) | set(qlin.creates)
        # view_bytes (not get + serialize) on purpose: the fold runs
        # after the root span closed, so it must not acquire view locks
        # (flight contention attribution).
        view_bytes = self.view_store.view_bytes(sorted(names))
        return self.ledger.observe_query(
            qlin,
            query=sql,
            trace_id=trace_id,
            client_id=self.tracer.client_id,
            view_bytes=view_bytes,
            model_costs={model: self.catalog.per_tuple_cost(model)
                         for model, _video in map(parse_view_name, names)
                         if model},
            costs=self.context.costs,
            audit=audit,
        )

    def _persist_lineage(self, lineage_ids) -> None:
        """Append the touched ledger records to the durable control log."""
        if not lineage_ids or not self.view_store.is_durable:
            return
        records = [self.ledger.export_record(lineage_id)
                   for lineage_id in lineage_ids]
        self.view_store.log_lineage(
            [record for record in records if record is not None])

    def _observe_flight(self, flight_ctx, sql: str, root,
                        query_metrics: QueryMetrics, rows_returned: int,
                        *, cache_hit: bool, reused: bool, optimized,
                        views: dict | None = None) -> dict:
        """Assemble and emit the query's flight record."""
        from repro.obs.audit import KIND_SYMBOLIC_MEMO

        total_invocations = sum(query_metrics.udf_counts.values())
        reused_invocations = sum(query_metrics.reused_counts.values())
        decisions = 0
        reused_decisions = 0
        eq_costs: dict[str, float] = {}
        for decision in optimized.audit:
            if decision.kind == KIND_SYMBOLIC_MEMO:
                continue
            decisions += 1
            reused_decisions += bool(decision.reused)
            for label, value in decision.costs.items():
                if isinstance(value, (int, float)):
                    eq_costs[label] = eq_costs.get(label, 0.0) \
                        + float(value)
        return self.flight.finish(
            flight_ctx,
            query=sql,
            trace_id=root.trace_id,
            wall_seconds=root.wall_seconds,
            virtual_seconds=query_metrics.total_time,
            virtual_breakdown={category.value: seconds
                               for category, seconds
                               in query_metrics.time_breakdown.items()},
            rows_returned=rows_returned,
            cache_hit=cache_hit,
            reused=reused,
            invocations={
                "total": total_invocations,
                "reused": reused_invocations,
                "executed": total_invocations - reused_invocations,
            },
            reuse={
                "decisions": decisions,
                "reused_decisions": reused_decisions,
                "eq_costs": {label: round(value, 9) for label, value
                             in sorted(eq_costs.items())},
            },
            views=views,
        )

    def _record_updates(self, entry: _PlanEntry) -> None:
        """p_u := UNION(p_u, q) for every UDF whose results the plan
        stored, unless this plan recorded them at the version the manager
        still has: no ``p_u`` changed since (any change bumps the
        version) and UNION is deterministic, so it would change nothing.
        """
        manager = self.udf_manager
        if entry.recorded and entry.version == manager.version:
            return
        for update in entry.optimized.updates:
            manager.record_execution(update.signature, update.guard,
                                     update.per_tuple_cost)
        if self._plan_cache_enabled:
            entry.recorded = entry.version == manager.version

    def _run_plan(self, entry: _PlanEntry):
        """Run ``entry``'s plan, capturing per-operator spans when asked
        to.

        With ``tracer.capture_operators`` set (``repro trace``), the plan
        runs under the instrumented engine and each operator's *self*
        actuals (subtree minus children — see
        :mod:`repro.executor.instrument`) become spans nested to match
        the plan tree.
        """
        tracer = self.tracer
        plan = entry.optimized.plan
        if entry.fusion_key is None:
            entry.fusion_key = self.engine.fusion_key(plan)
        if not (tracer.enabled and tracer.capture_operators):
            self._last_operator_stats = []
            return self.engine.run(plan, fusion_key=entry.fusion_key)
        from repro.executor.instrument import InstrumentedEngine

        engine = InstrumentedEngine(self.context)
        batch = engine.run(plan, fusion_key=entry.fusion_key)
        operator_stats = engine.operator_stats(plan)
        self._last_operator_stats = operator_stats
        self.profiler.observe_operator_stats(operator_stats)
        trace_id = tracer.current_trace_id
        if trace_id is not None:
            parents: dict[int, str | None] = {
                0: tracer.current_span_id}
            for stats in operator_stats:
                tags: dict = {}
                if stats.kernel_mode is not None:
                    tags["kernel"] = stats.kernel_mode
                span = tracer.add_span(
                    f"op:{stats.label}",
                    trace_id=trace_id,
                    parent_id=parents.get(stats.depth),
                    wall_seconds=stats.self_elapsed,
                    virtual_seconds=stats.self_virtual,
                    rows=stats.rows_out,
                    batches=stats.batches_out,
                    **tags,
                )
                if span is not None:
                    parents[stats.depth + 1] = span.span_id
        return batch

    def _count_memo(self, optimized) -> None:
        """Fold a fresh pass's symbolic-memo deltas into the counters.

        Only called for freshly optimized plans — a plan-cache hit skips
        the symbolic engine entirely, so its (stale) memo record must
        not be re-counted.
        """
        from repro.obs.audit import KIND_SYMBOLIC_MEMO

        for record in optimized.audit:
            if record.kind != KIND_SYMBOLIC_MEMO:
                continue
            hits = int(record.costs.get("memo_hits", 0))
            misses = int(record.costs.get("memo_misses", 0))
            evictions = int(record.costs.get("memo_evictions", 0))
            if hits:
                self.metrics.increment("symbolic_memo_hits", hits)
            if misses:
                self.metrics.increment("symbolic_memo_misses", misses)
            if evictions:
                self.metrics.increment("symbolic_memo_evictions",
                                       evictions)

    def _emit_audit(self, optimized) -> None:
        """Stamp and export fresh reuse-decision audit records.

        Records carry ``trace_id=None`` until their first export; a plan
        served from the cache keeps its original stamps and is not
        re-emitted (the decisions were made when the plan was built).
        """
        tracer = self.tracer
        if not tracer.enabled:
            return
        trace_id = tracer.current_trace_id
        ledger = self.ledger
        for record in optimized.audit:
            if record.trace_id is not None:
                continue
            record.trace_id = trace_id
            record.client_id = tracer.client_id
            # Apply decisions reference an existing view's content; link
            # its live generation in the ledger.  A view first
            # materialized *by* this query has no generation yet at
            # optimize time — the flight record's ``views.created`` list
            # carries that link instead.
            if ledger is not None and record.lineage_id is None \
                    and record.kind in ("classifier-apply",
                                        "detector-apply"):
                record.lineage_id = ledger.current_id(
                    "mv::" + str(record.signature))
            tracer.emit_event(record.to_event())

    def _observe_slow(self, sql: str, query_metrics: QueryMetrics,
                      before, rows_returned: int, *,
                      trace_id: str | None = None,
                      flight: dict | None = None,
                      views=()) -> None:
        top_operators = [
            {
                "operator": stats.label,
                "self_virtual_s": round(stats.self_virtual, 9),
                "self_wall_ms": round(stats.self_elapsed * 1000.0, 6),
                "rows": stats.rows_out,
            }
            for stats in sorted(
                self._last_operator_stats,
                key=lambda s: (-s.self_virtual, s.label))[:3]
        ]
        entry = self.slow_log.observe(
            sql,
            query_metrics.total_time,
            breakdown={category.value: seconds
                       for category, seconds
                       in self.clock.snapshot_delta(before).items()},
            trace_id=(trace_id if trace_id is not None
                      else self.tracer.current_trace_id),
            client_id=self.tracer.client_id,
            rows_returned=rows_returned,
            top_operators=top_operators,
            flight_id=flight["flight_id"] if flight else None,
            dominant_stage=flight["dominant_stage"] if flight else None,
            views=views,
        )
        if entry is not None:
            self.tracer.emit_event(entry.to_event())

    # -- plan cache ----------------------------------------------------------

    @property
    def _plan_cache_enabled(self) -> bool:
        return self.config.plan_cache_size > 0

    def _cached_plan(self, sql: str) -> _PlanEntry | None:
        """A still-valid cache entry for ``sql``, refreshing its LRU slot."""
        entry = self._plan_cache.get(sql)
        if entry is None or entry.version != self.udf_manager.version:
            return None
        self._plan_cache.move_to_end(sql)
        return entry

    def _cache_plan(self, sql: str, entry: _PlanEntry) -> None:
        if not self._plan_cache_enabled:
            return
        self._plan_cache[sql] = entry
        self._plan_cache.move_to_end(sql)
        while len(self._plan_cache) > self.config.plan_cache_size:
            self._plan_cache.popitem(last=False)
            self.metrics.increment("plan_cache_evictions")

    def _execute_create_udf(self, statement: CreateUdfStatement
                            ) -> QueryResult:
        impl = statement.impl
        replace = statement.or_replace
        if impl.startswith("model:"):
            self.catalog.register_model_udf(
                statement.name, impl.removeprefix("model:"),
                replace=replace)
        elif impl.startswith("logical:"):
            self.catalog.register_logical_udf(
                statement.name, impl.removeprefix("logical:"),
                replace=replace)
        elif impl.startswith("builtin:"):
            self.catalog.register_builtin_udf(
                statement.name, impl=None, replace=replace,
                builtin_name=impl.removeprefix("builtin:"))
        else:
            raise CatalogError(
                "IMPL must be 'model:<zoo-name>', 'logical:<type>', or "
                f"'builtin:<name>'; got {impl!r}")
        return QueryResult(columns=["status"],
                           rows=[(f"UDF {statement.name} registered",)])

    # -- introspection & lifecycle -----------------------------------------------

    def explain(self, sql: str) -> str:
        """The physical plan EVA would run for ``sql``."""
        from repro.optimizer.plans import explain as explain_plan

        statement = parse(sql)
        if not isinstance(statement, SelectStatement):
            raise EvaError("EXPLAIN supports SELECT statements only")
        return explain_plan(self.optimizer.optimize(statement).plan)

    def last_query_metrics(self) -> QueryMetrics | None:
        if not self.metrics.query_metrics:
            return None
        return self.metrics.query_metrics[-1]

    def workload_time(self) -> float:
        """Total virtual seconds across all executed queries."""
        return self.metrics.workload_time()

    def hit_percentage(self) -> float:
        return self.metrics.hit_percentage()

    def storage_footprint_bytes(self) -> int:
        """Serialized size of all materialized views."""
        return self.view_store.total_serialized_bytes()

    def save_reuse_state(self, directory) -> int:
        """Export the views and every ``p_u`` as an ``eva-store-v3``
        store at ``directory`` (replacing an earlier export there), which
        :meth:`load_reuse_state` reads and ``repro store check``
        validates; returns the bytes the export holds on disk."""
        self._refuse_if_shared("save_reuse_state")
        directory = self._export_path(directory, "save_reuse_state")
        export, manager = open_reuse_state(replace(
            self.config, store_mode="durable", store_path=str(directory)),
            self.symbolic)
        try:
            export.drop_all()
            manager.reset()
            copy_views(self.view_store, export)
            for history in self.udf_manager.histories():
                manager.record_execution(history.signature,
                                         history.aggregated_predicate,
                                         history.per_tuple_cost)
        finally:
            export.close()
        return sum(path.stat().st_size for path in directory.rglob("*")
                   if path.is_file())

    def load_reuse_state(self, directory) -> None:
        """Replace this session's views and ``p_u`` with an export written
        by :meth:`save_reuse_state`, copied into the session's own store
        (a durable session logs them)."""
        self._refuse_if_shared("load_reuse_state")
        directory = self._export_path(directory, "load_reuse_state")
        layout = StoreLayout(directory)
        meta = layout.read_manifest()["meta"]
        if meta is None or not layout.control_log_path.exists():
            raise StorageError(f"no exported reuse state at {directory}")
        # Its own partitioning: closing the export then rewrites nothing.
        export = DurableViewStore(
            directory, partition_frames=meta["partition_frames"])
        try:
            self.view_store.drop_all()
            self.udf_manager.reset()
            copy_views(export, self.view_store)
            restore_udf_histories(export, self.udf_manager, self.symbolic)
            self.view_store.flush()
        finally:
            export.close()

    def _export_path(self, directory, operation: str) -> Path:
        """``directory`` resolved; refuses the session's own store."""
        directory = Path(directory).resolve()
        own = self.config.store_path
        if own and Path(own).resolve() == directory:
            raise StorageError(
                f"{operation} cannot use the session's own store {own}; "
                "export to another directory")
        return directory

    def reset_reuse_state(self) -> None:
        """Drop all materialized state (views, caches, histories, metrics)."""
        self._refuse_if_shared("reset_reuse_state")
        self.view_store.drop_all()
        self.udf_manager.reset()
        if self.context.function_cache is not None:
            self.context.function_cache.clear()
        if self.context.recycler is not None:
            self.context.recycler.reset()
        self.metrics = MetricsCollector()
        self.state.metrics = self.metrics
        self.context.metrics = self.metrics
        self.clock.reset()
        self._plan_cache.clear()
        if self.context.kernel_cache is not None:
            self.context.kernel_cache.invalidate()

    def close(self) -> None:
        """Flush and snapshot a durable store (no-op otherwise).

        Server-managed sessions skip this — the store's lifecycle belongs
        to the :class:`~repro.server.EvaServer`, which snapshots it during
        its draining shutdown.  Safe to call more than once.
        """
        if not self.state.shared:
            self.state.view_store.close()

    def _refuse_if_shared(self, operation: str) -> None:
        if self.state.shared:
            raise EvaError(
                f"{operation} is not allowed on a server-managed session: "
                "its reuse state is shared with other clients (use the "
                "server's administrative API instead)")
