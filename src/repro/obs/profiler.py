"""Continuous profiling: per-operator self-time rollups plus the
per-model table of the session's metrics collector.

The tracer (:mod:`repro.obs.trace`) answers "what happened in *this*
query"; the profiler answers "where has the time been going".  A
:class:`ProfileStore` folds, by operator label, the instrumented
engine's :class:`~repro.executor.instrument.OperatorStats`: self wall
seconds, self virtual seconds, rows, batches and kernel-mode counts.
It fills only when the session runs instrumented (``repro profile`` /
``repro trace`` set ``tracer.capture_operators``).

The per-model table is not kept here.  The session's
:class:`~repro.metrics.MetricsCollector` already counts each model's
invocations, total and reused, and holds the per-tuple cost ``c_e`` the
executor charged (``Catalog.per_tuple_cost``), so executed × ``c_e`` is
the virtual time the model cost.  :func:`render_profile` and
:meth:`ProfileStore.save_jsonl` read that table from the collector when
they render it.

The store is thread-safe and writes JSONL — one ``profile_meta`` header
plus one ``profile_model`` / ``profile_operator`` record per row
(``tests/schemas/profile.schema.json``).

This module deliberately does **not** import :mod:`repro.metrics`
(enforced by ``tests/test_obs_imports.py``): it reads the collector's
``udf_stats`` and ``query_metrics`` by duck typing.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class OperatorProfile:
    """Rolling self-time telemetry for one operator label."""

    operator: str
    calls: int = 0
    rows: int = 0
    batches: int = 0
    #: Self wall seconds (subtree minus children; instrumented runs).
    self_wall_seconds: float = 0.0
    #: Self virtual seconds.
    self_virtual_seconds: float = 0.0
    #: Operator instances per kernel mode (fused/vectorized).
    kernel_modes: dict[str, int] = field(default_factory=dict)

    def to_event(self) -> dict:
        return {
            "type": "profile_operator",
            "operator": self.operator,
            "calls": self.calls,
            "rows": self.rows,
            "batches": self.batches,
            "self_wall_seconds": round(self.self_wall_seconds, 9),
            "self_virtual_seconds": round(self.self_virtual_seconds, 9),
            "kernel_modes": dict(sorted(self.kernel_modes.items())),
        }


@dataclass(frozen=True)
class ProfileSnapshot:
    """An immutable point-in-time copy of a :class:`ProfileStore`."""

    operators: dict[str, OperatorProfile]

    def top_operators(self, n: int = 10) -> list[OperatorProfile]:
        """Operators by self wall seconds, descending (name tiebreak)."""
        return sorted(self.operators.values(),
                      key=lambda p: (-p.self_wall_seconds, p.operator))[:n]


class ProfileStore:
    """Thread-safe per-operator rollup store of one session."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._operators: dict[str, OperatorProfile] = {}

    def observe_operator(self, operator: str, *, rows: int = 0,
                         batches: int = 0,
                         self_wall_seconds: float = 0.0,
                         self_virtual_seconds: float = 0.0,
                         kernel_mode: str | None = None) -> None:
        """Fold one operator instance's actuals into its label rollup."""
        with self._lock:
            profile = self._operators.get(operator)
            if profile is None:
                profile = self._operators[operator] = \
                    OperatorProfile(operator)
            profile.calls += 1
            profile.rows += rows
            profile.batches += batches
            profile.self_wall_seconds += self_wall_seconds
            profile.self_virtual_seconds += self_virtual_seconds
            if kernel_mode is not None:
                profile.kernel_modes[kernel_mode] = \
                    profile.kernel_modes.get(kernel_mode, 0) + 1

    def observe_operator_stats(self, stats_list) -> None:
        """Fold a plan's :class:`~repro.executor.instrument.OperatorStats`.

        Duck-typed on the stats attributes so this module stays free of
        executor imports.
        """
        for stats in stats_list:
            self.observe_operator(
                stats.label,
                rows=stats.rows_out,
                batches=stats.batches_out,
                self_wall_seconds=stats.self_elapsed,
                self_virtual_seconds=stats.self_virtual,
                kernel_mode=stats.kernel_mode,
            )

    def snapshot(self) -> ProfileSnapshot:
        """A deep, immutable copy safe to read without the lock."""
        with self._lock:
            return ProfileSnapshot({
                name: OperatorProfile(
                    p.operator, p.calls, p.rows, p.batches,
                    p.self_wall_seconds, p.self_virtual_seconds,
                    dict(p.kernel_modes))
                for name, p in self._operators.items()
            })

    def events(self, metrics) -> list[dict]:
        """The JSONL records of this store and of ``metrics`` (a
        :class:`~repro.metrics.MetricsCollector`), deterministically
        ordered."""
        operators = self.snapshot().operators
        models = _models(metrics)
        records: list[dict] = [{
            "type": "profile_meta",
            "queries": len(metrics.query_metrics),
            "models": len(models),
            "operators": len(operators),
        }]
        for stats in models:
            executed = stats.executed_invocations
            records.append({
                "type": "profile_model",
                "model": stats.name,
                "invocations": stats.total_invocations,
                "reused": stats.reused_invocations,
                "executed": executed,
                "virtual_seconds": round(executed * stats.per_tuple_cost, 9),
                "observed_per_tuple_cost": (round(stats.per_tuple_cost, 12)
                                            if executed > 0 else None),
            })
        for name in sorted(operators):
            records.append(operators[name].to_event())
        return records

    def save_jsonl(self, path, metrics) -> int:
        """Write :meth:`events` as JSONL; returns the record count."""
        records = self.events(metrics)
        text = "".join(json.dumps(r, sort_keys=True) + "\n"
                       for r in records)
        Path(path).write_text(text, encoding="utf-8")
        return len(records)


def _models(metrics) -> list:
    """The collector's per-model stats of every model that ran, by
    name."""
    return [metrics.udf_stats[name] for name in sorted(metrics.udf_stats)
            if metrics.udf_stats[name].total_invocations > 0]


def render_profile(snapshot: ProfileSnapshot, metrics,
                   top: int = 10) -> str:
    """Human-readable profile tables (``repro profile`` output):
    ``snapshot``'s operators and the models of ``metrics`` (a
    :class:`~repro.metrics.MetricsCollector`)."""
    lines = [f"profile over {len(metrics.query_metrics)} queries"]
    operators = snapshot.top_operators(top)
    if operators:
        lines.append("")
        lines.append(f"top {len(operators)} operators by self wall time:")
        lines.append(f"  {'operator':<20} {'calls':>6} {'rows':>10} "
                     f"{'self wall':>11} {'self virt':>11} kernels")
        for p in operators:
            kernels = ",".join(f"{mode}:{count}" for mode, count
                               in sorted(p.kernel_modes.items())) or "-"
            lines.append(
                f"  {p.operator:<20} {p.calls:>6} {p.rows:>10} "
                f"{p.self_wall_seconds * 1000:>9.2f}ms "
                f"{p.self_virtual_seconds:>10.3f}s {kernels}")
    models = sorted(_models(metrics), key=lambda s: (
        -s.executed_invocations * s.per_tuple_cost, s.name))[:top]
    if models:
        lines.append("")
        lines.append(f"top {len(models)} models by charged virtual time:")
        lines.append(f"  {'model':<24} {'invoked':>8} {'reused':>8} "
                     f"{'executed':>8} {'hit%':>6} {'virtual':>10} "
                     f"{'observed c_e':>12}")
        for s in models:
            executed = s.executed_invocations
            cost_text = f"{s.per_tuple_cost:.6f}" if executed > 0 else "-"
            lines.append(
                f"  {s.name:<24} {s.total_invocations:>8} "
                f"{s.reused_invocations:>8} {executed:>8} "
                f"{s.reused_invocations / s.total_invocations * 100:>5.1f}% "
                f"{executed * s.per_tuple_cost:>9.3f}s {cost_text:>12}")
    if not operators and not models:
        lines.append("(no telemetry recorded)")
    return "\n".join(lines)
