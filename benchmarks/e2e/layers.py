"""Per-layer metrics of one traced repetition.

Layer = module name under ``src/repro``.  Seconds are span self times
(:mod:`tracing`); counts come from the spans that enter a layer and from the
program's own counters (``memo_stats()``, ``KernelCache.stats()``,
``EvaServer.stats()``, ``recovery_report``), read at the end of the
repetition by the workload driver.

Which end-to-end metric each of these should move, and on which workload,
is tabulated in README.md.
"""

from __future__ import annotations

from tracing import layer_totals

SYMBOLIC_OPS = ("analyze", "reduce", "intersection", "difference", "union",
                "negation")


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer_metrics(rep, spans: list[dict], queries: int) -> dict:
    totals = layer_totals(spans)
    counters = rep.counters

    def seconds(key: str) -> float:
        return totals.get(key, {}).get("self_s", 0.0)

    def calls(key: str) -> int:
        return totals.get(key, {}).get("calls", 0)

    def units(key: str) -> int:
        return totals.get(key, {}).get("units", 0)

    view_bytes = counters.get("view_store_bytes", 0)
    disk_bytes = counters.get("disk_bytes", 0)
    dispatches = counters.get("batcher_dispatches", 0)
    values = {
        "parser.parse_s": (seconds("parser.parse"), "s"),
        "parser.calls": (calls("parser.parse"), "count"),
        "optimizer.optimize_s": (seconds("optimizer.optimize"), "s"),
        "optimizer.record_s": (seconds("optimizer.record"), "s"),
        "optimizer.plan_cache_hit_ratio": (
            1.0 - calls("optimizer.optimize") / queries, "ratio"),
        "symbolic.ops_s": (
            sum(seconds(f"symbolic.{op}") for op in SYMBOLIC_OPS), "s"),
        "symbolic.calls": (
            sum(calls(f"symbolic.{op}") for op in SYMBOLIC_OPS), "count"),
        "symbolic.memo_hit_ratio": (
            _ratio(counters["memo_hits"], counters["memo_misses"]),
            "ratio"),
        "executor.run_s": (seconds("executor.run"), "s"),
        "executor.kernel_cache_hit_ratio": (
            _ratio(counters["kernel_hits"], counters["kernel_misses"]),
            "ratio"),
        "expressions.compile_s": (seconds("expressions.compile"), "s"),
        "models.predict_s": (seconds("models.predict"), "s"),
        "models.calls": (calls("models.predict"), "count"),
        "models.tuples": (units("models.predict"), "count"),
        "storage.probe_s": (seconds("storage.probe"), "s"),
        "storage.probe_keys": (units("storage.probe"), "count"),
        "storage.write_s": (seconds("storage.write"), "s"),
        "storage.write_keys": (units("storage.write"), "count"),
        "storage.hit_ratio": (counters["hit_ratio"], "ratio"),
        "store.wal_append_s": (seconds("store.wal_append"), "s"),
        "store.wal_appends": (calls("store.wal_append"), "count"),
        "store.flush_s": (seconds("store.flush"), "s"),
        "store.flushes": (calls("store.flush"), "count"),
        "store.open_s": (seconds("store.open"), "s"),
        "store.close_s": (seconds("store.close"), "s"),
        "store.keys_recovered": (counters.get("keys_recovered", 0),
                                 "count"),
        "store.disk_mb": (disk_bytes / 1e6, "MB"),
        "store.disk_bytes_per_view_byte": (
            disk_bytes / view_bytes if view_bytes else 0.0, "ratio"),
        "server.admission_wait_s": (
            counters.get("admission_wait_s", 0.0), "s"),
        "server.lock_wait_s": (counters.get("lock_wait_s", 0.0), "s"),
        "server.batcher_mean_requests": (
            counters.get("batcher_requests", 0) / dispatches
            if dispatches else 0.0, "ratio"),
        "session.other_s": (seconds("session.query"), "s"),
        "clock.virtual_s": (counters["virtual_s"], "s"),
        "metrics.udf_invocations": (counters["udf_invocations"], "count"),
        "metrics.udf_reused": (counters["udf_reused"], "count"),
        "trace.repetition_s": (rep.wall_s, "s"),
    }
    return {key: {"value": value, "unit": unit}
            for key, (value, unit) in values.items()}
