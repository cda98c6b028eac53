"""Continuous profiling: rolling per-model / per-operator telemetry.

The tracer (:mod:`repro.obs.trace`) answers "what happened in *this*
query"; the profiler answers "what has been happening *lately*".  A
:class:`ProfileStore` accumulates two rollups across every executed
query:

* **per model** — invocation counts split into reused (served from
  materialized views) vs executed (the model actually ran), plus the
  virtual seconds the executor charged for the executed invocations.
  The ratio ``virtual_seconds / executed`` is the *observed* per-tuple
  cost — what evaluation costs on the simulation clock, the same
  ``c_e`` the planner reads from ``Catalog.per_tuple_cost``.
* **per operator** — self wall seconds, self virtual seconds, rows,
  batches and kernel-mode counts, aggregated by operator label from
  the instrumented engine's
  :class:`~repro.executor.instrument.OperatorStats`.  Available whenever
  the session runs instrumented (``repro profile`` / ``repro trace``
  turn that on); the per-model rollup needs no instrumentation at all.

The store is thread-safe (the server shares one across all clients) and
persists to JSONL — one ``profile_meta`` header plus one
``profile_model`` / ``profile_operator`` record per rollup entry — so
profiles survive process restarts and merge across runs
(:meth:`ProfileStore.load_jsonl` / :meth:`ProfileStore.merge`).

This module deliberately does **not** import the legacy
:mod:`repro.metrics` collector (enforced by ``tests/test_obs_imports.py``):
sessions push plain numbers into the store, keeping the two metric
surfaces decoupled.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class ModelProfile:
    """Rolling invocation/cost telemetry for one physical model."""

    model: str
    #: Total invocations observed (#TI contribution).
    invocations: int = 0
    #: Invocations served from materialized views.
    reused: int = 0
    #: Virtual seconds the executor charged for executed invocations.
    virtual_seconds: float = 0.0

    @property
    def executed(self) -> int:
        """Invocations where the model actually ran."""
        return self.invocations - self.reused

    @property
    def observed_per_tuple_cost(self) -> float | None:
        """Observed c_e: charged virtual seconds per executed invocation.

        ``None`` until at least one invocation executed (a 100% hit-rate
        model never reveals its true cost).
        """
        if self.executed <= 0:
            return None
        return self.virtual_seconds / self.executed

    @property
    def hit_ratio(self) -> float:
        if self.invocations <= 0:
            return 0.0
        return self.reused / self.invocations

    def to_event(self) -> dict:
        observed = self.observed_per_tuple_cost
        return {
            "type": "profile_model",
            "model": self.model,
            "invocations": self.invocations,
            "reused": self.reused,
            "executed": self.executed,
            "virtual_seconds": round(self.virtual_seconds, 9),
            "observed_per_tuple_cost": (round(observed, 12)
                                        if observed is not None else None),
        }


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

    queries: int
    models: dict[str, ModelProfile]
    operators: dict[str, OperatorProfile]

    def top_operators(self, n: int = 10) -> list[OperatorProfile]:
        """Operators by self wall seconds, descending (name tiebreak)."""
        return sorted(self.operators.values(),
                      key=lambda p: (-p.self_wall_seconds, p.operator))[:n]

    def top_models(self, n: int = 10) -> list[ModelProfile]:
        """Models by charged virtual seconds, descending (name tiebreak)."""
        return sorted(self.models.values(),
                      key=lambda p: (-p.virtual_seconds, p.model))[:n]


class ProfileStore:
    """Thread-safe rollup store with JSONL persistence.

    One store per session; the server replaces it with a single shared
    instance so every client's telemetry lands in the same rollups
    (mirroring how materialized views are shared).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._models: dict[str, ModelProfile] = {}
        self._operators: dict[str, OperatorProfile] = {}
        self._queries = 0

    # -- ingestion ----------------------------------------------------------

    def observe_query(self) -> None:
        with self._lock:
            self._queries += 1

    def observe_model(self, model: str, invocations: int, reused: int,
                      virtual_seconds: float) -> None:
        """Fold one query's invocation telemetry for ``model``."""
        if invocations <= 0:
            return
        with self._lock:
            profile = self._models.get(model)
            if profile is None:
                profile = self._models[model] = ModelProfile(model)
            profile.invocations += invocations
            profile.reused += reused
            profile.virtual_seconds += virtual_seconds

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

    # -- introspection ------------------------------------------------------

    @property
    def queries(self) -> int:
        with self._lock:
            return self._queries

    def snapshot(self) -> ProfileSnapshot:
        """A deep, immutable copy safe to read without the lock."""
        with self._lock:
            models = {
                name: ModelProfile(p.model, p.invocations, p.reused,
                                   p.virtual_seconds)
                for name, p in self._models.items()
            }
            operators = {
                name: OperatorProfile(
                    p.operator, p.calls, p.rows, p.batches,
                    p.self_wall_seconds, p.self_virtual_seconds,
                    dict(p.kernel_modes))
                for name, p in self._operators.items()
            }
            return ProfileSnapshot(self._queries, models, operators)

    def top_operators(self, n: int = 10) -> list[OperatorProfile]:
        return self.snapshot().top_operators(n)

    def top_models(self, n: int = 10) -> list[ModelProfile]:
        return self.snapshot().top_models(n)

    # -- persistence --------------------------------------------------------

    def events(self) -> list[dict]:
        """The JSONL records for this store, deterministically ordered."""
        snapshot = self.snapshot()
        records: list[dict] = [{
            "type": "profile_meta",
            "queries": snapshot.queries,
            "models": len(snapshot.models),
            "operators": len(snapshot.operators),
        }]
        for name in sorted(snapshot.models):
            records.append(snapshot.models[name].to_event())
        for name in sorted(snapshot.operators):
            records.append(snapshot.operators[name].to_event())
        return records

    def save_jsonl(self, path) -> int:
        """Write the rollups as JSONL; returns the record count."""
        records = self.events()
        text = "".join(json.dumps(r, sort_keys=True) + "\n"
                       for r in records)
        Path(path).write_text(text, encoding="utf-8")
        return len(records)

    @classmethod
    def load_jsonl(cls, path) -> "ProfileStore":
        """Rebuild a store from :meth:`save_jsonl` output."""
        store = cls()
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "profile_meta":
                store._queries += int(record.get("queries", 0))
            elif kind == "profile_model":
                store.observe_model(
                    record["model"], int(record["invocations"]),
                    int(record["reused"]),
                    float(record["virtual_seconds"]))
            elif kind == "profile_operator":
                profile = store._operators.get(record["operator"])
                if profile is None:
                    profile = store._operators[record["operator"]] = \
                        OperatorProfile(record["operator"])
                profile.calls += int(record["calls"])
                profile.rows += int(record["rows"])
                profile.batches += int(record["batches"])
                profile.self_wall_seconds += \
                    float(record["self_wall_seconds"])
                profile.self_virtual_seconds += \
                    float(record["self_virtual_seconds"])
                for mode, count in record.get("kernel_modes", {}).items():
                    profile.kernel_modes[mode] = \
                        profile.kernel_modes.get(mode, 0) + int(count)
        return store

    def merge(self, other: "ProfileStore | ProfileSnapshot") -> None:
        """Fold another store's rollups into this one."""
        snapshot = (other.snapshot() if isinstance(other, ProfileStore)
                    else other)
        with self._lock:
            self._queries += snapshot.queries
        for name in sorted(snapshot.models):
            p = snapshot.models[name]
            self.observe_model(p.model, p.invocations, p.reused,
                               p.virtual_seconds)
        for name in sorted(snapshot.operators):
            p = snapshot.operators[name]
            with self._lock:
                mine = self._operators.get(name)
                if mine is None:
                    mine = self._operators[name] = OperatorProfile(name)
                mine.calls += p.calls
                mine.rows += p.rows
                mine.batches += p.batches
                mine.self_wall_seconds += p.self_wall_seconds
                mine.self_virtual_seconds += p.self_virtual_seconds
                for mode, count in p.kernel_modes.items():
                    mine.kernel_modes[mode] = \
                        mine.kernel_modes.get(mode, 0) + count


def render_profile(snapshot: ProfileSnapshot, top: int = 10) -> str:
    """Human-readable profile tables (``repro profile`` output)."""
    lines = [f"profile over {snapshot.queries} queries"]
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
    models = snapshot.top_models(top)
    if models:
        lines.append("")
        lines.append(f"top {len(models)} models by charged virtual time:")
        lines.append(f"  {'model':<24} {'invoked':>8} {'reused':>8} "
                     f"{'executed':>8} {'hit%':>6} {'virtual':>10} "
                     f"{'observed c_e':>12}")
        for p in models:
            observed = p.observed_per_tuple_cost
            observed_text = (f"{observed:.6f}" if observed is not None
                             else "-")
            lines.append(
                f"  {p.model:<24} {p.invocations:>8} {p.reused:>8} "
                f"{p.executed:>8} {p.hit_ratio * 100:>5.1f}% "
                f"{p.virtual_seconds:>9.3f}s {observed_text:>12}")
    if not operators and not models:
        lines.append("(no telemetry recorded)")
    return "\n".join(lines)
