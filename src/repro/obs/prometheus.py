"""Prometheus text-format exposition of the reproduction's metrics.

Builds the classic ``# HELP`` / ``# TYPE`` exposition (text format
0.0.4) from the structures the system already maintains:

* :class:`~repro.metrics.MetricsCollector` — per-UDF #TI / #DI / reused
  counts and hit ratios (section 5.2), named event counters, and a
  histogram of per-query virtual seconds;
* :class:`~repro.clock.SimulationClock` — per-category virtual-time
  totals (the Fig. 6 / Table 4 buckets);
* :class:`~repro.server.stats.ServerStatsSnapshot` — admission /
  backpressure / lifecycle counters, queue depth, view storage, and
  cross-client hit attribution.

No client library is required; the output is a string suitable for an
HTTP scrape endpoint or ``repro metrics-dump``.
"""

from __future__ import annotations

#: Upper bounds (virtual seconds) of the query-latency histogram.
QUERY_SECONDS_BUCKETS = (1.0, 10.0, 60.0, 300.0, 1800.0, 7200.0)


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _labels(**labels) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape(str(value))}"'
                     for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Exposition:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def header(self, name: str, help_text: str, type_: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {type_}")

    def sample(self, name: str, value: float, **labels) -> None:
        self.lines.append(f"{name}{_labels(**labels)} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _expose_udf_stats(exp: _Exposition, metrics) -> None:
    exp.header("eva_udf_invocations_total",
               "UDF invocations by disposition (total=#TI, "
               "distinct=#DI, reused=served from materialized views, "
               "executed=model actually ran)", "counter")
    for name in sorted(metrics.udf_stats):
        stats = metrics.udf_stats[name]
        exp.sample("eva_udf_invocations_total", stats.total_invocations,
                   udf=name, disposition="total")
        exp.sample("eva_udf_invocations_total",
                   stats.distinct_invocations,
                   udf=name, disposition="distinct")
        exp.sample("eva_udf_invocations_total", stats.reused_invocations,
                   udf=name, disposition="reused")
        exp.sample("eva_udf_invocations_total",
                   stats.executed_invocations,
                   udf=name, disposition="executed")
    exp.header("eva_udf_hit_ratio",
               "Fraction of a UDF's invocations served from "
               "materialized views (section 5.2 hit percentage / 100)",
               "gauge")
    for name in sorted(metrics.udf_stats):
        stats = metrics.udf_stats[name]
        ratio = (stats.reused_invocations / stats.total_invocations
                 if stats.total_invocations else 0.0)
        exp.sample("eva_udf_hit_ratio", ratio, udf=name)
    exp.header("eva_hit_ratio",
               "Aggregate reuse hit ratio across all UDFs", "gauge")
    exp.sample("eva_hit_ratio", metrics.hit_percentage() / 100.0)


def _expose_counters(exp: _Exposition, metrics) -> None:
    events = metrics.counters
    if events:
        exp.header("eva_events_total",
                   "Named event counters (plan-cache evictions, ...)",
                   "counter")
        for name in sorted(events):
            exp.sample("eva_events_total", events[name], event=name)


def _expose_query_histogram(exp: _Exposition, metrics) -> None:
    exp.header("eva_query_virtual_seconds",
               "Histogram of per-query virtual execution time",
               "histogram")
    times = [m.total_time for m in metrics.query_metrics]
    cumulative = 0
    for bound in QUERY_SECONDS_BUCKETS:
        cumulative = sum(1 for t in times if t <= bound)
        exp.sample("eva_query_virtual_seconds_bucket", cumulative,
                   le=_fmt(bound))
    exp.sample("eva_query_virtual_seconds_bucket", len(times), le="+Inf")
    exp.sample("eva_query_virtual_seconds_sum", sum(times))
    exp.sample("eva_query_virtual_seconds_count", len(times))


def _expose_clock(exp: _Exposition, clock) -> None:
    exp.header("eva_virtual_seconds_total",
               "Virtual seconds charged per cost category "
               "(Fig. 6 / Table 4 buckets)", "counter")
    breakdown = clock.breakdown()
    for category in sorted(breakdown, key=lambda c: c.value):
        exp.sample("eva_virtual_seconds_total", breakdown[category],
                   category=category.value)


def _expose_server(exp: _Exposition, snapshot) -> None:
    exp.header("eva_server_queries_total",
               "Queries by admission/lifecycle outcome "
               "(rejected = admission-control backpressure)", "counter")
    for outcome in ("submitted", "completed", "failed", "rejected",
                    "timed_out", "cancelled"):
        exp.sample("eva_server_queries_total",
                   getattr(snapshot, outcome), outcome=outcome)
    exp.header("eva_server_queue_depth", "Admitted-but-waiting queries",
               "gauge")
    exp.sample("eva_server_queue_depth", snapshot.queue_depth)
    exp.header("eva_server_queue_depth_peak",
               "High-water mark of the admission queue", "gauge")
    exp.sample("eva_server_queue_depth_peak", snapshot.peak_queue_depth)
    exp.header("eva_server_uptime_seconds", "Server uptime", "gauge")
    exp.sample("eva_server_uptime_seconds", snapshot.uptime)
    exp.header("eva_server_views", "Materialized views currently stored",
               "gauge")
    exp.sample("eva_server_views", snapshot.num_views)
    exp.header("eva_server_view_storage_bytes",
               "Serialized size of all materialized views", "gauge")
    exp.sample("eva_server_view_storage_bytes",
               snapshot.view_storage_bytes)
    exp.header("eva_server_cross_client_hits_total",
               "View probes served from another client's materialized "
               "work (prober/owner attribution)", "counter")
    for (prober, owner), count in sorted(
            snapshot.cross_client_hits.items()):
        exp.sample("eva_server_cross_client_hits_total", count,
                   prober=prober, owner=owner)
    if snapshot.clients:
        exp.header("eva_server_client_queries_total",
                   "Per-client query outcomes", "counter")
        for client in snapshot.clients:
            for outcome in ("submitted", "completed", "rejected",
                            "timed_out", "cancelled"):
                exp.sample("eva_server_client_queries_total",
                           getattr(client, outcome),
                           client=client.client_id, outcome=outcome)


def _expose_batcher(exp: _Exposition, snapshot) -> None:
    """Model-call totals (:class:`~repro.server.stats.BatcherSnapshot`)."""
    exp.header("eva_batcher_requests_total",
               "Model calls made by the server's sessions", "counter")
    exp.sample("eva_batcher_requests_total", snapshot.requests)
    exp.header("eva_batcher_tuples_total",
               "Tuples passed to the server's model calls", "counter")
    exp.sample("eva_batcher_tuples_total", snapshot.tuples)
    exp.header("eva_batcher_dispatches_total",
               "Physical predict_batch calls", "counter")
    exp.sample("eva_batcher_dispatches_total", snapshot.dispatches)


def _expose_store(exp: _Exposition, snapshot) -> None:
    """Durable view-store health (``repro.store.StoreSnapshot``)."""
    exp.header("eva_store_bytes",
               "Estimated serialized bytes of the store's views", "gauge")
    exp.sample("eva_store_bytes", snapshot.bytes)
    exp.header("eva_store_views", "Live views in the store", "gauge")
    exp.sample("eva_store_views", snapshot.views)
    exp.header("eva_store_wal_bytes",
               "Bytes across all open WAL segments (control log "
               "included); falls back to 0 after the store closes",
               "gauge")
    exp.sample("eva_store_wal_bytes", snapshot.wal_bytes)
    exp.header("eva_store_snapshot_files",
               "Partition snapshot files on disk", "gauge")
    exp.sample("eva_store_snapshot_files", snapshot.snapshot_files)
    if snapshot.snapshot_age_seconds is not None:
        exp.header("eva_store_snapshot_age_seconds",
                   "Seconds since the last partition snapshot was "
                   "written by this process", "gauge")
        exp.sample("eva_store_snapshot_age_seconds",
                   snapshot.snapshot_age_seconds)
    exp.header("eva_store_wal_records_total",
               "Put records appended to partition WALs", "counter")
    exp.sample("eva_store_wal_records_total",
               snapshot.counters.get("wal_records", 0))
    exp.header("eva_store_snapshots_total",
               "Partition snapshots written", "counter")
    exp.sample("eva_store_snapshots_total",
               snapshot.counters.get("snapshots", 0))
    recovery = snapshot.recovery
    if recovery:
        exp.header("eva_store_recovery_info",
                   "Startup recovery pass results (views/partitions/"
                   "records replayed, torn tails repaired)", "gauge")
        for key in ("views_recovered", "partitions_replayed",
                    "records_replayed", "keys_recovered",
                    "torn_tails_repaired", "stale_files_removed"):
            exp.sample("eva_store_recovery_info", recovery.get(key, 0),
                       stat=key)


def _expose_views(exp: _Exposition, views: list) -> None:
    """Per-view lineage gauges (:meth:`ViewLedger.snapshot` rows)."""
    if not views:
        return
    exp.header("eva_view_age_seconds",
               "Seconds since the (view, generation) was first tracked "
               "by this process (restored views restart at recovery)",
               "gauge")
    for row in views:
        exp.sample("eva_view_age_seconds", row["age_s"], view=row["id"])
    exp.header("eva_view_idle_seconds",
               "Seconds since the view was last probed or written",
               "gauge")
    for row in views:
        exp.sample("eva_view_idle_seconds", row["idle_s"],
                   view=row["id"])
    exp.header("eva_view_bytes",
               "Serialized size of the view at its last observation",
               "gauge")
    for row in views:
        exp.sample("eva_view_bytes", row["bytes"], view=row["id"],
                   status=row["status"])
    exp.header("eva_view_hits_total",
               "Probes served from the view's materialized content",
               "counter")
    for row in views:
        exp.sample("eva_view_hits_total", row["hits"], view=row["id"])
    exp.header("eva_view_rows_served_total",
               "Materialized rows served from the view", "counter")
    for row in views:
        exp.sample("eva_view_rows_served_total", row["rows_served"],
                   view=row["id"])
    exp.header("eva_view_net_benefit_virtual_seconds",
               "Eq. 3 virtual seconds saved by reads minus the virtual "
               "seconds invested materializing (negative = the view "
               "has not yet paid for itself)", "gauge")
    for row in views:
        exp.sample("eva_view_net_benefit_virtual_seconds",
                   row["net_benefit"], view=row["id"])


def _expose_lock_waits(exp: _Exposition, lock_waits: dict) -> None:
    """Per-lock-class contention rollups (``snapshot.lock_waits``)."""
    if not lock_waits:
        return
    exp.header("eva_lock_wait_seconds_total",
               "Seconds spent waiting to acquire shared locks, by lock "
               "class and side (read=shared, write=exclusive)", "counter")
    for name in sorted(lock_waits):
        waits = lock_waits[name]
        exp.sample("eva_lock_wait_seconds_total", waits["read_s"],
                   lock_class=name, kind="read")
        exp.sample("eva_lock_wait_seconds_total", waits["write_s"],
                   lock_class=name, kind="write")
    exp.header("eva_lock_wait_acquisitions_total",
               "Timed lock acquisitions per lock class", "counter")
    for name in sorted(lock_waits):
        exp.sample("eva_lock_wait_acquisitions_total",
                   lock_waits[name]["waits"], lock_class=name)
    exp.header("eva_lock_writers_waiting_high_water",
               "Most writers ever simultaneously queued on one lock",
               "gauge")
    for name in sorted(lock_waits):
        exp.sample("eva_lock_writers_waiting_high_water",
                   lock_waits[name].get("writers_waiting_high_water", 0),
                   lock_class=name)


def _expose_admission_wait(exp: _Exposition, wait: dict) -> None:
    """Admission-wait summary (``snapshot.admission_wait``)."""
    if not wait or not wait.get("count"):
        return
    exp.header("eva_server_admission_wait_seconds",
               "Wall seconds between submit and a worker picking the "
               "query up (stat=p50|p99|max|mean)", "gauge")
    mean = wait["sum_s"] / wait["count"]
    for stat, value in (("p50", wait["p50_s"]), ("p99", wait["p99_s"]),
                        ("max", wait["max_s"]), ("mean", mean)):
        exp.sample("eva_server_admission_wait_seconds", value, stat=stat)
    exp.header("eva_server_admission_wait_total",
               "Queries whose admission wait was measured", "counter")
    exp.sample("eva_server_admission_wait_total", wait["count"])


def _expose_flight(exp: _Exposition, stats: dict) -> None:
    """Flight-recorder rollups (``FlightStats.snapshot()``)."""
    exp.header("eva_flight_records_total",
               "Per-query flight records assembled", "counter")
    exp.sample("eva_flight_records_total", stats["records"])
    exp.header("eva_flight_stage_seconds_total",
               "Wall seconds attributed per latency stage across all "
               "recorded queries", "counter")
    for stage in sorted(stats["stage_seconds"]):
        exp.sample("eva_flight_stage_seconds_total",
                   stats["stage_seconds"][stage], stage=stage)
    exp.header("eva_flight_dominant_stage_total",
               "Queries whose latency was dominated by each stage",
               "counter")
    for stage in sorted(stats["dominant"]):
        exp.sample("eva_flight_dominant_stage_total",
                   stats["dominant"][stage], stage=stage)
    exp.header("eva_flight_over_slo_total",
               "Recorded queries that violated the p99 latency SLO, "
               "by dominant stage", "counter")
    for stage in sorted(stats["over_slo_by_stage"]):
        exp.sample("eva_flight_over_slo_total",
                   stats["over_slo_by_stage"][stage], stage=stage)


def _expose_slo(exp: _Exposition, snapshot) -> None:
    """Latency SLO state (:class:`~repro.obs.slo.SloSnapshot`)."""
    latency = snapshot.latency
    exp.header("eva_slo_latency_seconds",
               "Histogram of total query latency (admission wait + "
               "execution wall time)", "histogram")
    cumulative = 0
    for bound, count in zip(latency.buckets, latency.counts):
        cumulative += count
        exp.sample("eva_slo_latency_seconds_bucket", cumulative,
                   le=_fmt(bound))
    exp.sample("eva_slo_latency_seconds_bucket", latency.count, le="+Inf")
    exp.sample("eva_slo_latency_seconds_sum", latency.sum_seconds)
    exp.sample("eva_slo_latency_seconds_count", latency.count)
    exp.header("eva_slo_latency_quantile_seconds",
               "Streaming latency quantile estimates", "gauge")
    for stat, value in (("p50", latency.p50), ("p95", latency.p95),
                        ("p99", latency.p99)):
        exp.sample("eva_slo_latency_quantile_seconds", value,
                   quantile=stat)
    targets = (("p50", snapshot.target_p50, snapshot.over_p50,
                snapshot.burn_rate_p50),
               ("p99", snapshot.target_p99, snapshot.over_p99,
                snapshot.burn_rate_p99))
    configured = [t for t in targets if t[1] is not None]
    if not configured:
        return
    exp.header("eva_slo_target_seconds",
               "Configured latency SLO targets", "gauge")
    for objective, target, _, _ in configured:
        exp.sample("eva_slo_target_seconds", target, objective=objective)
    exp.header("eva_slo_violations_total",
               "Queries over each configured SLO target", "counter")
    for objective, _, over, _ in configured:
        exp.sample("eva_slo_violations_total", over, objective=objective)
    exp.header("eva_slo_burn_rate",
               "Error-budget burn rate (violation fraction / budget; "
               ">1 means the objective is being missed)", "gauge")
    for objective, _, _, burn in configured:
        exp.sample("eva_slo_burn_rate", burn, objective=objective)


def prometheus_text(metrics=None, clock=None, server=None, *,
                    batcher=None, store=None, flight=None, slo=None,
                    views=None) -> str:
    """Render the exposition for any subset of metric sources.

    Args:
        metrics: a :class:`~repro.metrics.MetricsCollector` (per-UDF
            stats, counters, query-latency histogram).
        clock: a :class:`~repro.clock.SimulationClock` (category totals).
        server: a :class:`~repro.server.stats.ServerStatsSnapshot`
            (admission / backpressure / attribution counters).
        batcher: a :class:`~repro.server.stats.BatcherSnapshot`
            (model-call and tuple totals).
        store: a :class:`~repro.store.StoreSnapshot` (durable
            view-store view count and bytes, WAL bytes, write counters).
        flight: a ``FlightStats.snapshot()`` dict (per-stage wall-time
            rollups and dominant-stage counts; ``eva_flight_*``).
        slo: a :class:`~repro.obs.slo.SloSnapshot` (latency histogram,
            targets, violations, burn rates; ``eva_slo_*``).
        views: a :meth:`~repro.obs.lineage.ViewLedger.snapshot` list
            (per-view age/idle/bytes/hits/net-benefit; ``eva_view_*``).
    """
    exp = _Exposition()
    if metrics is not None:
        _expose_udf_stats(exp, metrics)
        _expose_counters(exp, metrics)
        _expose_query_histogram(exp, metrics)
    if clock is not None:
        _expose_clock(exp, clock)
    if server is not None:
        _expose_server(exp, server)
        _expose_lock_waits(exp, getattr(server, "lock_waits", {}))
        _expose_admission_wait(exp, getattr(server, "admission_wait", {}))
    if batcher is not None:
        _expose_batcher(exp, batcher)
    if store is not None:
        _expose_store(exp, store)
    if flight is not None:
        _expose_flight(exp, flight)
    if slo is not None:
        _expose_slo(exp, slo)
    if views is not None:
        _expose_views(exp, views)
    return exp.text()
