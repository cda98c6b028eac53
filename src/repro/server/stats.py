"""Server-level observability.

Three layers of accounting:

* **admission / lifecycle** — per-client and aggregate submitted,
  completed, failed, rejected (backpressure), timed-out, and cancelled
  query counts, queue depth (current and peak), and QPS over the
  server's uptime;
* **cross-client reuse attribution** — every view probe that returns
  materialized rows is attributed ``(prober, owner)`` where *owner* is
  the client that first materialized the key.  The off-diagonal of this
  matrix is the server's value proposition: work one analyst paid for,
  served to another;
* **MetricsCollector-compatible aggregation** — :func:`merged_metrics`
  folds the per-client :class:`~repro.metrics.MetricsCollector` objects
  into one collector, so workload-level summaries (hit percentage,
  speedup upper bound, Table-3-style UDF stats) work unchanged on the
  whole server.

All mutation is mutex-guarded; counters are touched from worker threads,
client threads, and the admission path concurrently.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping

from repro.clock import SimulationClock
from repro.metrics import MetricsCollector
from repro.obs.slo import HistogramSnapshot, LatencyHistogram

#: Attribution owner recorded when a key's materializing client is
#: unknown (e.g. state loaded from disk before the server started).
UNKNOWN_OWNER = "<unknown>"

#: Wait-time buckets (seconds): admission and lock waits are usually
#: far below query latency, so the grid starts at 100 microseconds.
WAIT_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
                0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


def _window_qps(completed: int, first_activity: float | None,
                last_completed: float | None) -> float:
    """Completed-query throughput over the *active* wall-clock window.

    The window runs from the first submission to the most recent
    completion, so an idle server reports its historical rate instead of
    a figure that decays toward zero with uptime (the old
    ``completed / uptime`` behaviour).
    """
    if not completed or first_activity is None or last_completed is None:
        return 0.0
    return completed / max(last_completed - first_activity, 1e-9)


@dataclass(frozen=True)
class ClientStatsSnapshot:
    """Point-in-time accounting for one client."""

    client_id: str
    submitted: int
    completed: int
    failed: int
    rejected: int
    timed_out: int
    cancelled: int
    keys_materialized: int
    #: View probes served to this client from materialized state.
    hits_received: int
    #: Of those, how many were served by *another* client's work.
    hits_from_others: int
    #: Probes by *other* clients served from this client's work.
    hits_donated: int
    qps: float
    #: Raw QPS window bounds (``time.monotonic``), carried so
    #: multi-process snapshots merge associatively: the fleet window is
    #: ``min(first_activity)..max(last_completed)``, never a sum of
    #: per-process windows (which would double-count overlap).  On
    #: Linux ``time.monotonic`` is ``CLOCK_MONOTONIC``, comparable
    #: across processes on one host.
    first_activity: float | None = None
    last_completed: float | None = None

    @classmethod
    def merge(cls, snapshots: "list[ClientStatsSnapshot]"
              ) -> "ClientStatsSnapshot":
        """Combine per-process views of *the same client id*."""
        first = None
        last = None
        for s in snapshots:
            if s.first_activity is not None and (
                    first is None or s.first_activity < first):
                first = s.first_activity
            if s.last_completed is not None and (
                    last is None or s.last_completed > last):
                last = s.last_completed
        completed = sum(s.completed for s in snapshots)
        return cls(
            client_id=snapshots[0].client_id,
            submitted=sum(s.submitted for s in snapshots),
            completed=completed,
            failed=sum(s.failed for s in snapshots),
            rejected=sum(s.rejected for s in snapshots),
            timed_out=sum(s.timed_out for s in snapshots),
            cancelled=sum(s.cancelled for s in snapshots),
            keys_materialized=sum(s.keys_materialized for s in snapshots),
            hits_received=sum(s.hits_received for s in snapshots),
            hits_from_others=sum(s.hits_from_others for s in snapshots),
            hits_donated=sum(s.hits_donated for s in snapshots),
            qps=_window_qps(completed, first, last),
            first_activity=first,
            last_completed=last,
        )


@dataclass(frozen=True)
class ServerStatsSnapshot:
    """Point-in-time accounting for the whole server."""

    uptime: float
    workers: int
    submitted: int
    completed: int
    failed: int
    rejected: int
    timed_out: int
    cancelled: int
    queue_depth: int
    peak_queue_depth: int
    aggregate_qps: float
    #: Aggregate hit percentage across every client's UDF invocations.
    hit_percentage: float
    num_views: int
    view_storage_bytes: int
    clients: tuple[ClientStatsSnapshot, ...] = ()
    #: (prober, owner) -> count of attributed view hits.
    cross_client_hits: dict = field(default_factory=dict)
    #: Admission-wait histogram summary (submit -> worker start), from
    #: :class:`~repro.obs.slo.LatencyHistogram.snapshot`'s ``to_dict``.
    admission_wait: dict = field(default_factory=dict)
    #: Per-lock-class contention: lock class -> ``read_s`` / ``write_s``
    #: / ``waits`` / ``writers_waiting_high_water`` / histogram summary.
    lock_waits: dict = field(default_factory=dict)
    #: Aggregate QPS window bounds (raw ``time.monotonic``); see
    #: :class:`ClientStatsSnapshot`.  These — not ``aggregate_qps`` —
    #: are what :meth:`merge` combines, so fleet QPS is recomputed over
    #: the union window instead of double-counting the admission window
    #: once per process.
    first_activity: float | None = None
    last_completed: float | None = None
    #: Raw admission-wait histogram (bucket counts), carried alongside
    #: the ``admission_wait`` summary dict so snapshots merge without
    #: averaging quantiles.
    admission_histogram: HistogramSnapshot | None = None
    #: Lock class -> raw :class:`HistogramSnapshot` backing the
    #: ``lock_waits[...]["wait"]`` summaries.
    lock_wait_histograms: dict = field(default_factory=dict)

    @classmethod
    def merge(cls, snapshots: "list[ServerStatsSnapshot]"
              ) -> "ServerStatsSnapshot":
        """Fold per-worker-process snapshots into one fleet snapshot.

        Associative:

        * lifecycle counters and reuse attribution add;
        * the QPS window is ``min(first_activity)`` to
          ``max(last_completed)`` across processes — each query is
          counted once over one shared wall-clock window, so merging N
          snapshots of the same interval does **not** report N× QPS;
        * latency histograms merge bucket-wise with quantiles
          re-estimated from the merged counts
          (:meth:`HistogramSnapshot.merge`);
        * per-client rows with the same ``client_id`` merge the same
          way (a client's queries may have run on several workers);
        * ``num_views`` / ``view_storage_bytes`` add (shards are
          disjoint across workers); ``hit_percentage`` is a
          completed-query-weighted estimate — callers holding the
          per-worker :class:`~repro.metrics.MetricsCollector` objects
          should recompute the exact figure via
          :func:`merged_metrics` and report that instead;
        * ``queue_depth`` adds; ``peak_queue_depth`` adds too, an
          upper bound on the true fleet peak (per-process peaks need
          not coincide in time).
        """
        if not snapshots:
            return cls(uptime=0.0, workers=0, submitted=0, completed=0,
                       failed=0, rejected=0, timed_out=0, cancelled=0,
                       queue_depth=0, peak_queue_depth=0,
                       aggregate_qps=0.0, hit_percentage=0.0,
                       num_views=0, view_storage_bytes=0)
        first = None
        last = None
        for s in snapshots:
            if s.first_activity is not None and (
                    first is None or s.first_activity < first):
                first = s.first_activity
            if s.last_completed is not None and (
                    last is None or s.last_completed > last):
                last = s.last_completed
        by_client: dict[str, list[ClientStatsSnapshot]] = defaultdict(list)
        for s in snapshots:
            for c in s.clients:
                by_client[c.client_id].append(c)
        clients = tuple(ClientStatsSnapshot.merge(by_client[client_id])
                        for client_id in sorted(by_client))
        cross: dict[tuple[str, str], int] = defaultdict(int)
        for s in snapshots:
            for pair, n in s.cross_client_hits.items():
                cross[pair] += n
        admission = HistogramSnapshot.merge(
            [s.admission_histogram for s in snapshots])
        lock_classes = sorted({name for s in snapshots
                               for name in s.lock_waits})
        lock_waits = {}
        lock_histograms = {}
        for name in lock_classes:
            parts = [s.lock_waits[name] for s in snapshots
                     if name in s.lock_waits]
            histogram = HistogramSnapshot.merge(
                [s.lock_wait_histograms.get(name) for s in snapshots])
            lock_histograms[name] = histogram
            lock_waits[name] = {
                "read_s": round(sum(p["read_s"] for p in parts), 9),
                "write_s": round(sum(p["write_s"] for p in parts), 9),
                "waits": sum(p["waits"] for p in parts),
                "writers_waiting_high_water": max(
                    p["writers_waiting_high_water"] for p in parts),
                "wait": histogram.to_dict(),
            }
        completed = sum(s.completed for s in snapshots)
        weighted = sum(s.hit_percentage * s.completed for s in snapshots)
        return cls(
            uptime=max(s.uptime for s in snapshots),
            workers=sum(s.workers for s in snapshots),
            submitted=sum(s.submitted for s in snapshots),
            completed=completed,
            failed=sum(s.failed for s in snapshots),
            rejected=sum(s.rejected for s in snapshots),
            timed_out=sum(s.timed_out for s in snapshots),
            cancelled=sum(s.cancelled for s in snapshots),
            queue_depth=sum(s.queue_depth for s in snapshots),
            peak_queue_depth=sum(s.peak_queue_depth for s in snapshots),
            aggregate_qps=_window_qps(completed, first, last),
            hit_percentage=(weighted / completed) if completed else 0.0,
            num_views=sum(s.num_views for s in snapshots),
            view_storage_bytes=sum(s.view_storage_bytes
                                   for s in snapshots),
            clients=clients,
            cross_client_hits=dict(cross),
            admission_wait=admission.to_dict(),
            lock_waits=lock_waits,
            first_activity=first,
            last_completed=last,
            admission_histogram=admission,
            lock_wait_histograms=lock_histograms,
        )

    @property
    def cross_client_hit_count(self) -> int:
        """Hits where the prober and the owner are different clients."""
        return sum(n for (prober, owner), n in self.cross_client_hits.items()
                   if prober != owner and owner != UNKNOWN_OWNER)

    def format(self) -> str:
        """A human-readable multi-line report (used by the CLI)."""
        from repro.vbench.reporting import format_table

        lines = [
            f"uptime {self.uptime:.2f}s, workers {self.workers}, "
            f"queue {self.queue_depth} (peak {self.peak_queue_depth})",
            f"queries: {self.completed} ok / {self.failed} failed / "
            f"{self.rejected} rejected / {self.timed_out} timed out / "
            f"{self.cancelled} cancelled "
            f"({self.aggregate_qps:.1f} qps aggregate)",
            f"reuse: {self.hit_percentage:.1f}% hit rate, "
            f"{self.cross_client_hit_count} cross-client hits, "
            f"{self.num_views} views "
            f"({self.view_storage_bytes / 1024:.0f} KiB)",
        ]
        if self.admission_wait.get("count"):
            lines.append(
                f"admission wait: p50 "
                f"{self.admission_wait['p50_s'] * 1000:.2f}ms, p99 "
                f"{self.admission_wait['p99_s'] * 1000:.2f}ms over "
                f"{self.admission_wait['count']} queries")
        if self.clients:
            rows = [[c.client_id, c.submitted, c.completed, c.rejected,
                     c.keys_materialized, c.hits_received,
                     c.hits_from_others, c.hits_donated,
                     f"{c.qps:.1f}"]
                    for c in self.clients]
            lines.append(format_table(
                ["client", "sub", "ok", "rej", "keys", "hits",
                 "from others", "donated", "qps"], rows,
                title="per-client"))
        return "\n".join(lines)


@dataclass(frozen=True)
class BatcherSnapshot:
    """A server's model calls: ``requests`` and ``dispatches`` count
    ``predict_batch`` calls, ``tuples`` their inputs.

    Every call goes straight to the model
    (:meth:`~repro.executor.context.ExecutionContext.invoke_model`), so
    ``requests == dispatches`` by construction.  The name and the
    duplicate field stay only until the end-to-end harness stops reading
    ``batcher_snapshot()`` (ROADMAP item 1).
    """

    requests: int = 0
    tuples: int = 0
    dispatches: int = 0

    @classmethod
    def of(cls, metrics: MetricsCollector) -> "BatcherSnapshot":
        """The model-call counters of ``metrics``."""
        calls = metrics.counters.get("model_calls", 0)
        return cls(requests=calls, dispatches=calls,
                   tuples=metrics.counters.get("model_tuples", 0))

    @classmethod
    def merge(cls, snapshots) -> "BatcherSnapshot":
        """Field-wise sum of per-process snapshots."""
        snapshots = [s for s in snapshots if s is not None]
        return cls(requests=sum(s.requests for s in snapshots),
                   tuples=sum(s.tuples for s in snapshots),
                   dispatches=sum(s.dispatches for s in snapshots))


class _ClientCounters:
    __slots__ = ("submitted", "completed", "failed", "rejected",
                 "timed_out", "cancelled", "keys_materialized",
                 "hits_received", "hits_from_others", "hits_donated",
                 "first_activity", "last_completed")

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.timed_out = 0
        self.cancelled = 0
        self.keys_materialized = 0
        self.hits_received = 0
        self.hits_from_others = 0
        self.hits_donated = 0
        #: First submission / latest completion (``time.monotonic``);
        #: the QPS window — see :func:`_window_qps`.
        self.first_activity: float | None = None
        self.last_completed: float | None = None


class _LockClassWaits:
    """Aggregated contention for one lock class."""

    __slots__ = ("read_seconds", "write_seconds", "waits",
                 "writers_waiting_high_water", "histogram")

    def __init__(self) -> None:
        self.read_seconds = 0.0
        self.write_seconds = 0.0
        self.waits = 0
        self.writers_waiting_high_water = 0
        self.histogram = LatencyHistogram(WAIT_BUCKETS)

    def to_dict(self) -> dict:
        return {
            "read_s": round(self.read_seconds, 9),
            "write_s": round(self.write_seconds, 9),
            "waits": self.waits,
            "writers_waiting_high_water": self.writers_waiting_high_water,
            "wait": self.histogram.snapshot().to_dict(),
        }


class ServerStats:
    """Thread-safe counter hub the server and the shared state report to."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._clients: dict[str, _ClientCounters] = {}
        self._queue_depth = 0
        self._peak_queue_depth = 0
        self._cross_hits: dict[tuple[str, str], int] = defaultdict(int)
        self._admission_wait = LatencyHistogram(WAIT_BUCKETS)
        self._lock_waits: dict[str, _LockClassWaits] = {}

    def _client(self, client_id: str) -> _ClientCounters:
        counters = self._clients.get(client_id)
        if counters is None:
            counters = _ClientCounters()
            self._clients[client_id] = counters
        return counters

    # -- lifecycle events ------------------------------------------------------

    def record_submitted(self, client_id: str) -> None:
        with self._lock:
            counters = self._client(client_id)
            counters.submitted += 1
            if counters.first_activity is None:
                counters.first_activity = time.monotonic()

    def record_completed(self, client_id: str) -> None:
        with self._lock:
            counters = self._client(client_id)
            counters.completed += 1
            counters.last_completed = time.monotonic()

    def record_failed(self, client_id: str) -> None:
        with self._lock:
            self._client(client_id).failed += 1

    def record_rejected(self, client_id: str) -> None:
        with self._lock:
            self._client(client_id).rejected += 1

    def record_timeout(self, client_id: str) -> None:
        with self._lock:
            self._client(client_id).timed_out += 1

    def record_cancelled(self, client_id: str) -> None:
        with self._lock:
            self._client(client_id).cancelled += 1

    def set_queue_depth(self, depth: int) -> None:
        with self._lock:
            self._queue_depth = depth
            self._peak_queue_depth = max(self._peak_queue_depth, depth)

    # -- wait-time accounting --------------------------------------------------

    def record_admission_wait(self, seconds: float) -> None:
        """Submit-to-worker-start gap of one admitted query."""
        self._admission_wait.observe(seconds)

    def record_lock_wait(self, lock_class: str, kind: str,
                         seconds: float, *,
                         writers_waiting_high_water: int = 0) -> None:
        """One blocked RW-lock acquisition (``kind`` read|write)."""
        with self._lock:
            waits = self._lock_waits.get(lock_class)
            if waits is None:
                waits = _LockClassWaits()
                self._lock_waits[lock_class] = waits
            if kind == "read":
                waits.read_seconds += seconds
            else:
                waits.write_seconds += seconds
            waits.waits += 1
            if writers_waiting_high_water > waits.writers_waiting_high_water:
                waits.writers_waiting_high_water = \
                    writers_waiting_high_water
        waits.histogram.observe(seconds)

    # -- reuse attribution -----------------------------------------------------

    def record_materialization(self, client_id: str, keys: int = 1) -> None:
        with self._lock:
            self._client(client_id).keys_materialized += keys

    def record_view_hits(self, view_name: str, prober: str,
                         owners: Mapping[str | None, int]) -> None:
        """One probe's hits: ``owners[o]`` keys were materialized by ``o``."""
        with self._lock:
            counters = self._client(prober)
            for owner, hits in owners.items():
                owner = owner if owner is not None else UNKNOWN_OWNER
                self._cross_hits[(prober, owner)] += hits
                counters.hits_received += hits
                if owner != prober:
                    if owner != UNKNOWN_OWNER:
                        self._client(owner).hits_donated += hits
                    counters.hits_from_others += hits

    # -- snapshots -------------------------------------------------------------

    def snapshot(self, *, workers: int = 0, hit_percentage: float = 0.0,
                 num_views: int = 0, view_storage_bytes: int = 0
                 ) -> ServerStatsSnapshot:
        with self._lock:
            uptime = max(1e-9, time.monotonic() - self._started)
            clients = []
            for client_id in sorted(self._clients):
                c = self._clients[client_id]
                clients.append(ClientStatsSnapshot(
                    client_id=client_id,
                    submitted=c.submitted,
                    completed=c.completed,
                    failed=c.failed,
                    rejected=c.rejected,
                    timed_out=c.timed_out,
                    cancelled=c.cancelled,
                    keys_materialized=c.keys_materialized,
                    hits_received=c.hits_received,
                    hits_from_others=c.hits_from_others,
                    hits_donated=c.hits_donated,
                    qps=_window_qps(c.completed, c.first_activity,
                                    c.last_completed),
                    first_activity=c.first_activity,
                    last_completed=c.last_completed,
                ))
            total = _ClientCounters()
            for c in self._clients.values():
                total.submitted += c.submitted
                total.completed += c.completed
                total.failed += c.failed
                total.rejected += c.rejected
                total.timed_out += c.timed_out
                total.cancelled += c.cancelled
                if c.first_activity is not None and (
                        total.first_activity is None
                        or c.first_activity < total.first_activity):
                    total.first_activity = c.first_activity
                if c.last_completed is not None and (
                        total.last_completed is None
                        or c.last_completed > total.last_completed):
                    total.last_completed = c.last_completed
            admission = self._admission_wait.snapshot()
            lock_histograms = {name: waits.histogram.snapshot()
                               for name, waits
                               in sorted(self._lock_waits.items())}
            return ServerStatsSnapshot(
                uptime=uptime,
                workers=workers,
                submitted=total.submitted,
                completed=total.completed,
                failed=total.failed,
                rejected=total.rejected,
                timed_out=total.timed_out,
                cancelled=total.cancelled,
                queue_depth=self._queue_depth,
                peak_queue_depth=self._peak_queue_depth,
                aggregate_qps=_window_qps(total.completed,
                                          total.first_activity,
                                          total.last_completed),
                hit_percentage=hit_percentage,
                num_views=num_views,
                view_storage_bytes=view_storage_bytes,
                clients=tuple(clients),
                cross_client_hits=dict(self._cross_hits),
                admission_wait=admission.to_dict(),
                lock_waits={name: waits.to_dict()
                            for name, waits
                            in sorted(self._lock_waits.items())},
                first_activity=total.first_activity,
                last_completed=total.last_completed,
                admission_histogram=admission,
                lock_wait_histograms=lock_histograms,
            )


def merged_metrics(collectors) -> MetricsCollector:
    """Fold per-client collectors into one aggregate collector.

    The result supports the standard workload summaries
    (``hit_percentage``, ``speedup_upper_bound``, per-UDF stats) over
    the union of every client's invocations — "what did the whole server
    do", in the same shape single-session tooling already consumes.
    """
    merged = MetricsCollector()
    for collector in collectors:
        for name, stats in collector.udf_stats.items():
            merged.stats_for(name, stats.per_tuple_cost).merge(stats)
        merged.query_metrics.extend(collector.query_metrics)
        for counter, value in collector.counters.items():
            merged.counters[counter] += value
    return merged


def merged_clock(breakdowns) -> SimulationClock:
    """One clock totalling per-client (or per-worker) clock breakdowns
    (``category -> seconds``)."""
    total = SimulationClock()
    for breakdown in breakdowns:
        for category, seconds in breakdown.items():
            if seconds > 0:
                total.charge(category, seconds)
    return total
