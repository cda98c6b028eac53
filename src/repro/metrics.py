"""Workload- and query-level metric collection.

Tracks the quantities the paper's evaluation reports:

* per-UDF invocation counts — total (#TI) and distinct (#DI) — and how many
  invocations were satisfied from materialized results (the *hit percentage*
  of section 5.2);
* per-query virtual-time breakdowns (Fig. 6, Table 4);
* storage footprint of materialized views (section 5.2).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.clock import ClockSnapshot, CostCategory, SimulationClock


@dataclass
class UdfInvocationStats:
    """Invocation accounting for one UDF signature (Table 3 rows)."""

    name: str
    per_tuple_cost: float = 0.0
    total_invocations: int = 0
    reused_invocations: int = 0
    #: video name -> the distinct int keys (frame ids, packed patch keys)
    #: seen on that video, sorted, as one int64 array.
    _distinct_ints: dict[str, np.ndarray] = field(default_factory=dict,
                                                  repr=False)
    #: video name -> the distinct keys of any other kind (key tuples).
    _distinct_keys: dict[str, set] = field(default_factory=dict,
                                           repr=False)

    @property
    def distinct_invocations(self) -> int:
        return (sum(map(len, self._distinct_ints.values()))
                + sum(map(len, self._distinct_keys.values())))

    def record(self, keys, reused: bool, video: str = "") -> None:
        """Record a batch of invocations on ``video`` identified by
        hashable ``keys`` — or by an int array, the same inputs as its
        ints.  An int key counts once however it arrives."""
        count = len(keys)
        self.total_invocations += count
        if reused:
            self.reused_invocations += count
        if isinstance(keys, np.ndarray):
            self._add_ints(video, keys)
            return
        ints = [key for key in keys if isinstance(key, int)]
        if ints:
            self._add_ints(video, np.array(ints, dtype=np.int64))
        if len(ints) < count:
            self._distinct_keys.setdefault(video, set()).update(
                key for key in keys if not isinstance(key, int))

    def _add_ints(self, video: str, keys: np.ndarray) -> None:
        """Merge the int keys ``video`` has not seen yet into its sorted
        array: one probe of the array, and a copy only when a key is
        new."""
        seen = self._distinct_ints.get(video)
        if seen is not None and len(seen):
            at = np.minimum(np.searchsorted(seen, keys), len(seen) - 1)
            keys = keys[seen[at] != keys]
            if not len(keys):
                return
        fresh = _sorted_distinct(keys)
        self._distinct_ints[video] = fresh if seen is None else np.insert(
            seen, np.searchsorted(seen, fresh), fresh)

    def merge(self, other: "UdfInvocationStats") -> None:
        """Fold ``other``'s counts and distinct keys into this one."""
        self.total_invocations += other.total_invocations
        self.reused_invocations += other.reused_invocations
        for video, keys in other._distinct_ints.items():
            seen = self._distinct_ints.get(video)
            self._distinct_ints[video] = keys if seen is None \
                else _sorted_distinct(np.concatenate((seen, keys)))
        for video, keys in other._distinct_keys.items():
            self._distinct_keys.setdefault(video, set()).update(keys)

    @property
    def executed_invocations(self) -> int:
        return self.total_invocations - self.reused_invocations


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """``keys`` sorted, each once.  (Not ``np.unique``: its first call
    imports ``numpy.ma``, a megabyte of resident memory.)"""
    ordered = np.sort(keys)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


@dataclass
class QueryMetrics:
    """Metrics for one executed query."""

    query_text: str
    time_breakdown: dict[CostCategory, float] = field(default_factory=dict)
    udf_counts: dict[str, int] = field(default_factory=dict)
    reused_counts: dict[str, int] = field(default_factory=dict)
    rows_returned: int = 0

    @property
    def total_time(self) -> float:
        return sum(self.time_breakdown.values())

    def time(self, category: CostCategory) -> float:
        return self.time_breakdown.get(category, 0.0)

    @property
    def udf_time(self) -> float:
        return self.time(CostCategory.UDF)

    @property
    def reuse_time(self) -> float:
        """Time spent on reuse machinery rather than UDF evaluation."""
        reuse_categories = (
            CostCategory.READ_VIEW,
            CostCategory.MATERIALIZE,
            CostCategory.OPTIMIZE,
            CostCategory.JOIN,
            CostCategory.APPLY,
            CostCategory.HASH,
        )
        return sum(self.time(c) for c in reuse_categories)


class MetricsCollector:
    """Accumulates statistics across a workload run.

    One collector lives on the execution context; operators report UDF
    invocations through it, and the session closes out per-query metrics by
    diffing clock snapshots.
    """

    def __init__(self) -> None:
        self.udf_stats: dict[str, UdfInvocationStats] = {}
        self.query_metrics: list[QueryMetrics] = []
        #: Named event counters (e.g. ``plan_cache_evictions``); anything
        #: worth counting that is not a UDF invocation lands here.
        self.counters: dict[str, int] = defaultdict(int)
        self._open_query: QueryMetrics | None = None
        self._open_snapshot: ClockSnapshot | None = None
        self._open_udf_counts: dict[str, int] = defaultdict(int)
        self._open_reused_counts: dict[str, int] = defaultdict(int)

    def increment(self, counter: str, by: int = 1) -> None:
        """Bump a named event counter."""
        self.counters[counter] += by

    # -- workload-level UDF accounting ------------------------------------

    def stats_for(self, udf_name: str, per_tuple_cost: float = 0.0
                  ) -> UdfInvocationStats:
        stats = self.udf_stats.get(udf_name)
        if stats is None:
            stats = UdfInvocationStats(udf_name, per_tuple_cost)
            self.udf_stats[udf_name] = stats
        elif per_tuple_cost and not stats.per_tuple_cost:
            stats.per_tuple_cost = per_tuple_cost
        return stats

    def record_invocations(self, udf_name: str, keys, reused: bool,
                           per_tuple_cost: float = 0.0,
                           video: str = "") -> None:
        """Record UDF invocations on ``video``; ``keys`` (or frame ids)
        identify distinct inputs."""
        self.stats_for(udf_name, per_tuple_cost).record(keys, reused, video)
        if self._open_query is not None:
            self._open_udf_counts[udf_name] += len(keys)
            if reused:
                self._open_reused_counts[udf_name] += len(keys)

    def hit_percentage(self) -> float:
        """Fraction of UDF invocations satisfied from materialized results.

        Defined in section 5.2:
        ``reused invocations / total invocations * 100``.
        """
        total = sum(s.total_invocations for s in self.udf_stats.values())
        if total == 0:
            return 0.0
        reused = sum(s.reused_invocations for s in self.udf_stats.values())
        return 100.0 * reused / total

    # -- per-query accounting ----------------------------------------------

    def begin_query(self, query_text: str, clock: SimulationClock) -> None:
        self._open_query = QueryMetrics(query_text)
        self._open_snapshot = clock.snapshot()
        self._open_udf_counts = defaultdict(int)
        self._open_reused_counts = defaultdict(int)

    def end_query(self, clock: SimulationClock, rows_returned: int
                  ) -> QueryMetrics:
        if self._open_query is None or self._open_snapshot is None:
            raise RuntimeError("end_query called without begin_query")
        metrics = self._open_query
        metrics.time_breakdown = self._open_snapshot.delta(clock)
        metrics.udf_counts = dict(self._open_udf_counts)
        metrics.reused_counts = dict(self._open_reused_counts)
        metrics.rows_returned = rows_returned
        self.query_metrics.append(metrics)
        self._open_query = None
        self._open_snapshot = None
        return metrics

    # -- workload summaries --------------------------------------------------

    def workload_time(self) -> float:
        return sum(m.total_time for m in self.query_metrics)

    def speedup_upper_bound(self) -> float:
        """Eq. 7 upper bound: total UDF cost / distinct UDF cost."""
        total = sum(s.per_tuple_cost * s.total_invocations
                    for s in self.udf_stats.values())
        distinct = sum(s.per_tuple_cost * s.distinct_invocations
                       for s in self.udf_stats.values())
        if distinct == 0:
            return 1.0
        return total / distinct
