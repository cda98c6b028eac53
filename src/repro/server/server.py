"""The concurrent multi-client query server.

An :class:`EvaServer` runs queries from many clients on a
``ThreadPoolExecutor``-backed worker pool over one
:class:`~repro.server.state.SharedReuseState`:

* **admission control** — at most ``max_workers + max_queue`` queries
  may be in flight; beyond that, :meth:`submit` fails fast with
  :class:`~repro.errors.ServerOverloadedError` carrying a
  ``retry_after`` estimate (backpressure, not unbounded queueing);
* **per-query timeout + cancellation** — each query gets a
  :class:`~repro.cancellation.CancelToken`; workers check it before
  starting (a query that spent its whole deadline queued never runs)
  and the executor checks it at batch boundaries while running;
* **per-client serialization** — one client's queries run one at a
  time against its private session (checkout/checkin via the client's
  lock), while *different* clients run fully in parallel;
* **graceful shutdown** — ``shutdown(drain=True)`` stops admission and
  waits for every queued and running query to finish;
  ``drain=False`` additionally trips every outstanding token so
  in-flight queries unwind at their next batch boundary.

The simulated models make each query cheap in wall-clock terms, but the
concurrency skeleton — shared state locking, admission, cancellation —
is exactly what a GPU-backed deployment needs; swapping the model zoo
swaps the cost profile, not the server.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.cancellation import CancelToken
from repro.config import EvaConfig
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ServerClosedError,
    ServerError,
    ServerOverloadedError,
)
from repro.models.zoo import ModelZoo
from repro.obs.sinks import InMemorySink, TraceSink
from repro.server.client import ClientHandle
from repro.server.state import SharedReuseState
from repro.server.stats import BatcherSnapshot, ServerStats, \
    ServerStatsSnapshot, merged_clock, merged_metrics
from repro.session import EvaSession
from repro.types import QueryResult
from repro.video.synthetic import SyntheticVideo

#: Sentinel: "use the server's default timeout".
_DEFAULT = object()


@dataclass
class _Client:
    """Server-side record for one connected client."""

    client_id: str
    session: EvaSession
    #: Checkout lock: serializes this client's queries (sessions are not
    #: reentrant — metrics begin/end pairs and the virtual clock assume
    #: one query at a time).
    lock: threading.Lock = field(default_factory=threading.Lock)
    closed: bool = False


class EvaServer:
    """Multiplexes concurrent clients over shared reuse state."""

    def __init__(self, config: EvaConfig | None = None,
                 zoo: ModelZoo | None = None, *,
                 max_workers: int = 4,
                 max_queue: int = 16,
                 default_timeout: float | None = None,
                 trace_sink: TraceSink | None = None,
                 state: SharedReuseState | None = None):
        if max_workers < 1:
            raise ServerError("max_workers must be >= 1")
        if max_queue < 0:
            raise ServerError("max_queue must be >= 0")
        self.max_workers = max_workers
        self.max_queue = max_queue
        self.default_timeout = default_timeout
        #: Shared export sink for every client's tracer (spans, audit
        #: records, slow queries — all stamped with the client id).
        self.trace_sink: TraceSink = (trace_sink if trace_sink is not None
                                      else InMemorySink())
        #: ``state`` injection seam: the worker pool embeds one
        #: EvaServer per worker process over a pre-built
        #: :class:`~repro.server.shard.ShardedWorkerState` instead of
        #: letting the server construct the default single-store state.
        self.state = (state if state is not None
                      else SharedReuseState(config, zoo))
        self.stats_hub = ServerStats()
        self.state.attach_stats(self.stats_hub)
        self._lock = threading.Lock()
        self._clients: dict[str, _Client] = {}
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False
        #: Queries admitted but not yet done (queued + running).
        self._pending = 0
        #: Notified when ``_pending`` falls to zero (bounded shutdown).
        self._idle = threading.Condition(self._lock)
        self._active_tokens: set[CancelToken] = set()
        #: EWMA of recent query latency, seeds retry_after estimates.
        self._latency_ewma = 0.05
        self._next_client = 1

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "EvaServer":
        """Spin up the worker pool (idempotent)."""
        with self._lock:
            if self._closed:
                raise ServerClosedError("server already shut down")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="eva-worker")
        return self

    def __enter__(self) -> "EvaServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    @property
    def running(self) -> bool:
        with self._lock:
            return self._executor is not None and not self._closed

    def shutdown(self, drain: bool = True,
                 timeout: float | None = None) -> None:
        """Stop the server.

        ``drain=True`` (graceful): stop admitting new queries, then wait
        for everything queued and running to complete.  ``drain=False``:
        additionally cancel queued work and trip every running query's
        token so workers unwind at the next batch boundary.  ``timeout``
        bounds the final wait (None = wait indefinitely).
        """
        with self._lock:
            self._closed = True
            executor = self._executor
            tokens = list(self._active_tokens) if not drain else []
        for token in tokens:
            token.cancel("server shutting down")
        if executor is not None:
            if timeout is None:
                executor.shutdown(wait=True, cancel_futures=not drain)
            else:
                # ThreadPoolExecutor.shutdown has no timeout; wait for
                # the pending count instead.
                executor.shutdown(wait=False, cancel_futures=not drain)
                with self._idle:
                    self._idle.wait_for(lambda: self._pending == 0, timeout)
        # Workers are quiesced: snapshot and close a durable view store
        # so the next server over this path recovers from snapshots
        # instead of replaying the whole WAL.
        self.state.close_store()

    # -- setup -----------------------------------------------------------------

    def register_video(self, video: SyntheticVideo) -> None:
        """Register a video for every current and future client."""
        self.state.register_video(video)

    # -- clients ---------------------------------------------------------------

    def connect(self, client_id: str | None = None) -> ClientHandle:
        """Check out a client handle with its own private session."""
        with self._lock:
            if self._closed:
                raise ServerClosedError("server is shut down")
            if client_id is None:
                client_id = f"client-{self._next_client}"
                self._next_client += 1
            if client_id in self._clients:
                raise ServerError(
                    f"client id {client_id!r} already connected")
            # Session construction registers standard UDFs against the
            # shared catalog (idempotent, but not concurrency-safe), so
            # it happens under the server lock.
            session = EvaSession(
                state=self.state.session_state(
                    client_id, trace_sink=self.trace_sink))
            client = _Client(client_id=client_id, session=session)
            self._clients[client_id] = client
        return ClientHandle(self, client)

    def disconnect(self, client_id: str) -> None:
        """Close a client; its metrics remain for attribution."""
        with self._lock:
            client = self._clients.get(client_id)
            if client is not None:
                client.closed = True

    # -- query admission -------------------------------------------------------

    def submit(self, client_id: str, sql: str,
               timeout: float | None = _DEFAULT) -> "Future[QueryResult]":
        """Admit one query for ``client_id``; returns a Future.

        Raises:
            ServerClosedError: the server is not running.
            ServerOverloadedError: the admission queue is full; the
                error's ``retry_after`` suggests a client back-off.
        """
        if timeout is _DEFAULT:
            timeout = self.default_timeout
        with self._lock:
            client = self._clients.get(client_id)
            if client is None or client.closed:
                raise ServerError(f"unknown or closed client {client_id!r}")
            if self._closed or self._executor is None:
                raise ServerClosedError(
                    "server is not accepting queries (closed or not "
                    "started)")
            capacity = self.max_workers + self.max_queue
            if self._pending >= capacity:
                retry_after = self._estimate_retry_after_locked()
                self.stats_hub.record_rejected(client_id)
                raise ServerOverloadedError(
                    f"admission queue full ({self._pending} in flight, "
                    f"capacity {capacity}); retry in {retry_after:.2f}s",
                    retry_after=retry_after)
            token = CancelToken.with_timeout(timeout)
            self._pending += 1
            self._active_tokens.add(token)
            self.stats_hub.record_submitted(client_id)
            self._update_queue_depth_locked()
            executor = self._executor
        submitted_at = time.monotonic()
        future = executor.submit(self._run_query, client, sql, token,
                                 submitted_at)
        future.add_done_callback(
            lambda f: self._on_done(f, client.client_id, token))
        return future

    def _estimate_retry_after_locked(self) -> float:
        queued = max(0, self._pending - self.max_workers)
        return max(0.05,
                   (queued + 1) * self._latency_ewma / self.max_workers)

    def _update_queue_depth_locked(self) -> None:
        self.stats_hub.set_queue_depth(
            max(0, self._pending - self.max_workers))

    # -- worker body -----------------------------------------------------------

    def _run_query(self, client: _Client, sql: str,
                   token: CancelToken,
                   submitted_at: float | None = None) -> QueryResult:
        started = time.monotonic()
        try:
            # A query that burned its whole deadline in the queue must
            # not start executing.
            token.check()
            # Session checkout: one query at a time per client.
            with client.lock:
                token.check()
                # Admission wait: submit-to-worker-start, including the
                # checkout wait above (a query stuck behind its own
                # client's previous query is queued, not computing).
                queue_wait = (time.monotonic() - submitted_at
                              if submitted_at is not None else 0.0)
                self.stats_hub.record_admission_wait(queue_wait)
                client.session.flight.deposit_queue_wait(queue_wait)
                result = client.session.execute(sql, cancel=token)
            self.stats_hub.record_completed(client.client_id)
            return result
        except QueryTimeoutError:
            self.stats_hub.record_timeout(client.client_id)
            raise
        except QueryCancelledError:
            self.stats_hub.record_cancelled(client.client_id)
            raise
        except BaseException:
            self.stats_hub.record_failed(client.client_id)
            raise
        finally:
            elapsed = time.monotonic() - started
            with self._lock:
                self._latency_ewma = (0.8 * self._latency_ewma
                                      + 0.2 * elapsed)

    def _on_done(self, future: "Future[QueryResult]", client_id: str,
                 token: CancelToken) -> None:
        """Accounting for *every* admitted query, including futures that
        were cancelled while still queued (``shutdown(drain=False)``)."""
        if future.cancelled():
            self.stats_hub.record_cancelled(client_id)
        with self._lock:
            self._pending -= 1
            self._active_tokens.discard(token)
            self._update_queue_depth_locked()
            if self._pending == 0:
                self._idle.notify_all()

    # -- introspection ---------------------------------------------------------

    def clients(self) -> list[str]:
        with self._lock:
            return sorted(self._clients)

    def queue_depth(self) -> int:
        with self._lock:
            return max(0, self._pending - self.max_workers)

    def aggregate_metrics(self):
        """One MetricsCollector over every client's work."""
        with self._lock:
            collectors = [c.session.metrics
                          for c in self._clients.values()]
        return merged_metrics(collectors)

    def hit_percentage(self) -> float:
        """Aggregate hit percentage across all clients."""
        return self.aggregate_metrics().hit_percentage()

    def stats(self) -> ServerStatsSnapshot:
        """A point-in-time snapshot of server-level observability."""
        store = self.state.view_store
        return self.stats_hub.snapshot(
            workers=self.max_workers,
            hit_percentage=self.hit_percentage(),
            num_views=len(store.names()),
            view_storage_bytes=store.total_serialized_bytes(),
        )

    def trace_events(self, type: str | None = None) -> list[dict]:
        """Events captured by the server's trace sink (when it buffers).

        Works with the default :class:`~repro.obs.sinks.InMemorySink`;
        returns ``[]`` for write-only sinks (e.g. JSONL files).
        """
        events = getattr(self.trace_sink, "events", None)
        if events is None:
            return []
        return events(type)

    def aggregate_clock(self):
        """One clock totalling virtual time across every client."""
        with self._lock:
            clocks = [c.session.clock for c in self._clients.values()]
        return merged_clock(clock.breakdown() for clock in clocks)

    def clock_breakdown(self) -> dict:
        """:meth:`aggregate_clock`'s category -> seconds breakdown (a
        clock holds a lock; its breakdown can travel)."""
        return dict(self.aggregate_clock().breakdown())

    def batcher_snapshot(self) -> BatcherSnapshot:
        """Model calls and tuples across every client
        (:class:`~repro.server.stats.BatcherSnapshot`)."""
        return BatcherSnapshot.of(self.aggregate_metrics())

    def slo_snapshot(self):
        """Fleet-wide SLO accounting: latency quantiles over every
        completed query plus burn-rate counters against the configured
        ``slo_latency_*`` targets
        (:class:`~repro.obs.slo.SloSnapshot`)."""
        return self.state.slo.snapshot()

    def flight_stats(self):
        """Aggregate flight-record rollups (records, per-stage wall
        seconds, dominant-stage and over-SLO attribution counts)."""
        return self.state.flight_stats.snapshot()

    def store_snapshot(self):
        """Durable-store health, or None over a memory-backed store."""
        return self.state.view_store.store_snapshot()

    def ledger_snapshot(self) -> list[dict]:
        """Per-view lineage gauges from the shared provenance ledger
        (:meth:`~repro.obs.lineage.ViewLedger.snapshot`); empty when
        ``config.view_ledger`` is off."""
        ledger = self.state.ledger
        return ledger.snapshot() if ledger is not None else []

    def prometheus_text(self) -> str:
        """The Prometheus exposition for the whole server: merged
        per-UDF #TI/#DI/hit-rate metrics, summed per-client virtual-time
        categories, the admission/backpressure counters, the model-call
        totals, and the flight/SLO/lock-contention families."""
        from repro.obs.prometheus import prometheus_text

        metrics = self.aggregate_metrics()
        return prometheus_text(
            metrics=metrics,
            clock=self.aggregate_clock(),
            server=self.stats(),
            batcher=BatcherSnapshot.of(metrics),
            store=self.store_snapshot(),
            flight=self.flight_stats(),
            slo=self.slo_snapshot(),
            views=self.ledger_snapshot(),
        )
