"""Streaming latency histograms, SLO burn accounting, and tail attribution.

This module is the *policy* half of the flight-recorder pair
(:mod:`repro.obs.flight` is the measurement half): it turns per-query
latencies into the three signals a service operator actually watches —

* **quantiles** — :class:`LatencyHistogram` keeps fixed-bucket counts
  (Prometheus-style cumulative-on-export) and estimates p50/p95/p99 by
  linear interpolation inside the owning bucket.  Streaming, bounded,
  thread-safe; never stores raw samples.
* **SLO burn** — :class:`SloTracker` compares each observed latency
  against the ``EvaConfig.slo_*`` targets and maintains burn-rate
  counters: the fraction of queries over a target divided by that
  objective's error budget (a p99 objective tolerates 1% violations, so
  a burn rate of 1.0 means the budget is being consumed exactly as
  provisioned; > 1.0 means the SLO will be missed over the window).
* **attribution** — :func:`attribute` classifies a query's dominant
  stage from its flight-record stage breakdown using the fixed taxonomy
  :data:`STAGES` (``queueing | contention | inference | store-io |
  compute``).  The tail-latency attribution pass runs this over every
  over-SLO query and feeds the result to the
  :class:`~repro.obs.slowlog.SlowQueryLog` and the
  ``eva_slo_over_total{stage=...}`` Prometheus family.

Latencies here are **wall seconds** (``time.perf_counter`` intervals):
under concurrency the interesting failures — admission queueing, lock
convoys, fsync stalls — are real-time phenomena the virtual clock by
design cannot see (see docs/observability.md).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

#: The attribution taxonomy, in tie-break priority order: when two
#: stages account for the same time, the earlier entry wins (queueing
#: before contention before inference ...), so attribution is
#: deterministic under ``PYTHONHASHSEED=random``.
STAGES = ("queueing", "contention", "inference", "store-io", "compute")

#: Default latency buckets (seconds).  Chosen to straddle the bench
#: workloads: sub-millisecond hit probes up to tens of seconds of
#: saturated-queue tail.  The last bucket is open-ended (+Inf).
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Isolated point-in-time copy of a :class:`LatencyHistogram`."""

    buckets: tuple          # upper bounds, seconds (exclusive of +Inf)
    counts: tuple           # per-bucket counts; len(buckets) + 1 (+Inf)
    count: int
    sum_seconds: float
    min_seconds: float
    max_seconds: float
    p50: float
    p95: float
    p99: float

    def to_dict(self) -> dict:
        """JSON-friendly form (server stats snapshots, ``repro top``)."""
        return {
            "count": self.count,
            "sum_s": round(self.sum_seconds, 9),
            "min_s": round(self.min_seconds, 9),
            "max_s": round(self.max_seconds, 9),
            "p50_s": round(self.p50, 9),
            "p95_s": round(self.p95, 9),
            "p99_s": round(self.p99, 9),
        }

    @classmethod
    def merge(cls, snapshots: "list[HistogramSnapshot]"
              ) -> "HistogramSnapshot":
        """Combine per-process snapshots into one fleet histogram.

        Associative and commutative: bucket counts add, min/max fold,
        and the quantiles are re-estimated from the merged counts —
        *never* averaged from the inputs' quantiles, which would not
        compose.  All inputs must share one bucket grid
        (every histogram in this codebase uses a fixed, config-free
        grid per call site, so worker processes always agree).
        """
        snapshots = [s for s in snapshots if s is not None]
        if not snapshots:
            return LatencyHistogram().snapshot()
        buckets = snapshots[0].buckets
        for other in snapshots[1:]:
            if other.buckets != buckets:
                raise ValueError(
                    f"cannot merge histograms with different bucket "
                    f"grids: {buckets!r} vs {other.buckets!r}")
        counts = [0] * (len(buckets) + 1)
        count = 0
        total = 0.0
        minimum = 0.0
        maximum = 0.0
        for s in snapshots:
            for i, c in enumerate(s.counts):
                counts[i] += c
            if s.count:
                minimum = (s.min_seconds if count == 0
                           else min(minimum, s.min_seconds))
                maximum = max(maximum, s.max_seconds)
                count += s.count
                total += s.sum_seconds
        return cls(
            buckets=buckets,
            counts=tuple(counts),
            count=count,
            sum_seconds=total,
            min_seconds=minimum,
            max_seconds=maximum,
            p50=_quantile_from_counts(buckets, counts, count, maximum,
                                      0.50),
            p95=_quantile_from_counts(buckets, counts, count, maximum,
                                      0.95),
            p99=_quantile_from_counts(buckets, counts, count, maximum,
                                      0.99),
        )


def _quantile_from_counts(buckets, counts, count: int, maximum: float,
                          q: float) -> float:
    """Interpolated quantile over raw bucket counts: linear within the
    bucket holding the target rank, capped at ``maximum``; a rank in
    the open +Inf bucket reports ``maximum``."""
    if count == 0:
        return 0.0
    rank = q * count
    cumulative = 0.0
    for i, upper in enumerate(buckets):
        previous = cumulative
        cumulative += counts[i]
        if cumulative >= rank:
            if counts[i] == 0:
                return upper
            lower = buckets[i - 1] if i else 0.0
            fraction = (rank - previous) / counts[i]
            return min(lower + (upper - lower) * fraction, maximum)
    return maximum


class LatencyHistogram:
    """Fixed-bucket streaming histogram with interpolated quantiles.

    ``observe`` is O(len(buckets)) with one lock acquisition and no
    allocation — cheap enough to sit on the per-query completion path.
    Quantiles interpolate linearly within the bucket that contains the
    target rank; ranks landing in the open +Inf bucket report the
    largest observed sample (the honest answer for a bounded sketch).
    """

    def __init__(self, buckets: tuple = DEFAULT_BUCKETS):
        if not buckets or any(b <= 0 for b in buckets) \
                or list(buckets) != sorted(set(buckets)):
            raise ValueError(
                "buckets must be positive, strictly increasing")
        self._buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self._buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        value = max(0.0, float(seconds))
        with self._lock:
            for i, upper in enumerate(self._buckets):
                if value <= upper:
                    self._counts[i] += 1
                    break
            else:
                self._counts[-1] += 1
            if self._count == 0 or value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._count += 1
            self._sum += value

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            p50, p95, p99 = (
                _quantile_from_counts(self._buckets, self._counts,
                                      self._count, self._max, q)
                for q in (0.50, 0.95, 0.99))
            return HistogramSnapshot(
                buckets=self._buckets,
                counts=tuple(self._counts),
                count=self._count,
                sum_seconds=self._sum,
                min_seconds=self._min,
                max_seconds=self._max,
                p50=p50,
                p95=p95,
                p99=p99,
            )


@dataclass(frozen=True)
class SloSnapshot:
    """Point-in-time SLO accounting (``repro top``, Prometheus)."""

    target_p50: float | None
    target_p99: float | None
    observed: int
    over_p50: int
    over_p99: int
    burn_rate_p50: float
    burn_rate_p99: float
    latency: HistogramSnapshot

    @property
    def enabled(self) -> bool:
        return self.target_p50 is not None or self.target_p99 is not None

    @classmethod
    def merge(cls, snapshots: "list[SloSnapshot]") -> "SloSnapshot":
        """Fleet SLO accounting over per-process snapshots.

        Counters add, latency histograms merge bucket-wise, and burn
        rates are recomputed from the merged counters (every process
        shares the targets, which come from one config).  Associative.
        """
        snapshots = [s for s in snapshots if s is not None]
        if not snapshots:
            return cls(target_p50=None, target_p99=None, observed=0,
                       over_p50=0, over_p99=0, burn_rate_p50=0.0,
                       burn_rate_p99=0.0,
                       latency=LatencyHistogram().snapshot())
        target_p50 = snapshots[0].target_p50
        target_p99 = snapshots[0].target_p99
        observed = sum(s.observed for s in snapshots)
        over_p50 = sum(s.over_p50 for s in snapshots)
        over_p99 = sum(s.over_p99 for s in snapshots)
        burn_p50 = burn_p99 = 0.0
        if observed:
            if target_p50 is not None:
                burn_p50 = (over_p50 / observed) / SloTracker._BUDGET_P50
            if target_p99 is not None:
                burn_p99 = (over_p99 / observed) / SloTracker._BUDGET_P99
        return cls(
            target_p50=target_p50,
            target_p99=target_p99,
            observed=observed,
            over_p50=over_p50,
            over_p99=over_p99,
            burn_rate_p50=burn_p50,
            burn_rate_p99=burn_p99,
            latency=HistogramSnapshot.merge(
                [s.latency for s in snapshots]),
        )


class SloTracker:
    """Burn-rate counters over configured latency targets.

    ``p50_target`` / ``p99_target`` come from ``EvaConfig.slo_latency_p50``
    / ``slo_latency_p99`` (seconds of *total* latency: admission wait +
    execution wall).  Either may be None — the tracker still maintains
    the latency histogram so quantiles are available even without SLOs.

    A query is an **SLO violation** when it exceeds the p99 target (the
    per-query bound the tail-attribution pass keys on); the p50 target
    only feeds its own burn counter.
    """

    #: Error budgets per objective: a p50 objective tolerates half the
    #: traffic over target, a p99 objective 1%.
    _BUDGET_P50 = 0.50
    _BUDGET_P99 = 0.01

    def __init__(self, *, p50_target: float | None = None,
                 p99_target: float | None = None,
                 buckets: tuple = DEFAULT_BUCKETS):
        for name, value in (("p50_target", p50_target),
                            ("p99_target", p99_target)):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set")
        if p50_target is not None and p99_target is not None \
                and p50_target > p99_target:
            raise ValueError("p50 target must not exceed the p99 target")
        self.p50_target = p50_target
        self.p99_target = p99_target
        self.latency = LatencyHistogram(buckets)
        self._lock = threading.Lock()
        self._observed = 0
        self._over_p50 = 0
        self._over_p99 = 0

    @classmethod
    def from_config(cls, config) -> "SloTracker":
        """Build from an :class:`~repro.config.EvaConfig` (duck-typed:
        any object with ``slo_latency_p50`` / ``slo_latency_p99``)."""
        return cls(p50_target=getattr(config, "slo_latency_p50", None),
                   p99_target=getattr(config, "slo_latency_p99", None))

    def is_violation(self, latency_seconds: float) -> bool:
        """Over the p99 target?  Always False when no target is set."""
        return self.p99_target is not None \
            and latency_seconds > self.p99_target

    def observe(self, latency_seconds: float) -> bool:
        """Fold one finished query in; returns :meth:`is_violation`."""
        self.latency.observe(latency_seconds)
        violation = self.is_violation(latency_seconds)
        with self._lock:
            self._observed += 1
            if self.p50_target is not None \
                    and latency_seconds > self.p50_target:
                self._over_p50 += 1
            if violation:
                self._over_p99 += 1
        return violation

    def snapshot(self) -> SloSnapshot:
        with self._lock:
            observed = self._observed
            over_p50 = self._over_p50
            over_p99 = self._over_p99
        burn_p50 = burn_p99 = 0.0
        if observed:
            if self.p50_target is not None:
                burn_p50 = (over_p50 / observed) / self._BUDGET_P50
            if self.p99_target is not None:
                burn_p99 = (over_p99 / observed) / self._BUDGET_P99
        return SloSnapshot(
            target_p50=self.p50_target,
            target_p99=self.p99_target,
            observed=observed,
            over_p50=over_p50,
            over_p99=over_p99,
            burn_rate_p50=burn_p50,
            burn_rate_p99=burn_p99,
            latency=self.latency.snapshot(),
        )


def attribute(stages: dict) -> str:
    """The dominant stage of a query's latency breakdown.

    ``stages`` maps stage names (a subset of :data:`STAGES`) to seconds.
    Ties break toward the earlier taxonomy entry; an empty or all-zero
    breakdown attributes to ``compute`` (the residual stage).
    """
    best = "compute"
    best_seconds = 0.0
    for name in STAGES:
        seconds = float(stages.get(name, 0.0))
        if seconds > best_seconds:
            best = name
            best_seconds = seconds
    return best
