"""Workload execution harness for VBENCH."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clock import CostCategory
from repro.config import EvaConfig, ReusePolicy
from repro.metrics import QueryMetrics, UdfInvocationStats
from repro.session import EvaSession
from repro.video.synthetic import SyntheticVideo


@dataclass
class WorkloadResult:
    """Everything the evaluation reports for one workload run."""

    config: EvaConfig
    query_metrics: list[QueryMetrics] = field(default_factory=list)
    udf_stats: dict[str, UdfInvocationStats] = field(default_factory=dict)
    hit_percentage: float = 0.0
    storage_bytes: int = 0
    speedup_upper_bound: float = 1.0

    @property
    def total_time(self) -> float:
        """Virtual seconds spent across the workload."""
        return sum(m.total_time for m in self.query_metrics)

    def query_times(self) -> list[float]:
        return [m.total_time for m in self.query_metrics]

    def speedup_over(self, baseline: "WorkloadResult") -> float:
        if self.total_time <= 0:
            return float("inf")
        return baseline.total_time / self.total_time

    def category_times(self, category: CostCategory) -> list[float]:
        return [m.time(category) for m in self.query_metrics]


def workload_session(video: SyntheticVideo,
                     config: EvaConfig | None = None) -> EvaSession:
    """A fresh session with ``video`` registered (clean state, section 5.1)."""
    session = EvaSession(config=config)
    session.register_video(video)
    return session


def run_workload(video: SyntheticVideo, queries: list[str],
                 config: EvaConfig | None = None,
                 session: EvaSession | None = None,
                 artifacts_dir=None) -> WorkloadResult:
    """Run ``queries`` in order on a clean session and collect metrics.

    ``artifacts_dir`` (a path, optional) turns on observability export:
    the session's tracer writes every span / reuse-decision / slow-query
    event to ``trace.jsonl`` (one trace per query), per-query breakdowns
    land in ``metrics.json``, and the Prometheus exposition in
    ``metrics.prom``.
    """
    if session is None:
        session = workload_session(video, config)
    sink = None
    if artifacts_dir is not None:
        from pathlib import Path

        from repro.obs.sinks import JsonlFileSink

        directory = Path(artifacts_dir)
        directory.mkdir(parents=True, exist_ok=True)
        sink = JsonlFileSink(directory / "trace.jsonl", truncate=True)
        session.tracer.sink = sink
    for query in queries:
        session.execute(query)
    if sink is not None:
        sink.close()
        _write_metrics_artifacts(directory, session)
    return WorkloadResult(
        config=session.config,
        query_metrics=list(session.metrics.query_metrics),
        udf_stats=dict(session.metrics.udf_stats),
        hit_percentage=session.hit_percentage(),
        storage_bytes=session.storage_footprint_bytes(),
        speedup_upper_bound=session.metrics.speedup_upper_bound(),
    )


def _write_metrics_artifacts(directory, session: EvaSession) -> None:
    """``metrics.json`` (per-query actuals) + ``metrics.prom``."""
    import json

    from repro.obs.prometheus import prometheus_text

    payload = {
        "hit_percentage": session.hit_percentage(),
        "storage_bytes": session.storage_footprint_bytes(),
        "clock": {category.value: seconds for category, seconds
                  in session.clock.breakdown().items()},
        "queries": [
            {
                "query": m.query_text,
                "virtual_seconds": m.total_time,
                "rows_returned": m.rows_returned,
                "breakdown": {category.value: seconds
                              for category, seconds
                              in m.time_breakdown.items()},
                "udf_counts": m.udf_counts,
                "reused_counts": m.reused_counts,
            }
            for m in session.metrics.query_metrics
        ],
    }
    (directory / "metrics.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    (directory / "metrics.prom").write_text(
        prometheus_text(metrics=session.metrics, clock=session.clock),
        encoding="utf-8")


def run_all_policies(video: SyntheticVideo, queries: list[str],
                     policies: tuple[ReusePolicy, ...] = (
                         ReusePolicy.NONE, ReusePolicy.HASHSTASH,
                         ReusePolicy.FUNCACHE, ReusePolicy.EVA),
                     ) -> dict[ReusePolicy, WorkloadResult]:
    """Run the same workload under each policy, each from a clean state."""
    return {
        policy: run_workload(video, queries, _bench_config(policy))
        for policy in policies
    }


def _bench_config(policy: ReusePolicy) -> EvaConfig:
    """The paper's FunCache is a tuple-level function cache that never
    evicts, so it runs uncapped (``funcache_max_entries=0``), not with
    the LRU cap a long-lived session gets by default."""
    if policy is ReusePolicy.FUNCACHE:
        return EvaConfig(reuse_policy=policy, funcache_max_entries=0)
    return EvaConfig(reuse_policy=policy)
