"""Cross-client inference micro-batching (continuous batching).

The :class:`InferenceBatcher` *merges* miss sub-batches from concurrent
clients that target the same physical model into a single
``predict_batch`` call.  In the paper's inference-dominated regime
every model call carries real serving latency (a GPU round-trip); one
coalesced call amortizes the per-call component across every rider.

Design — leader/follower continuous batching, one queue per
``(model.name, video.name)`` pair:

* a thread arriving at an idle queue becomes the **leader**: it holds a
  coalescing window open (``micro_batch_timeout_ms``) while follower
  requests pile on, closing early the moment the pending tuple count
  reaches ``micro_batch_max_size``;
* the leader then drains the queue and dispatches request-granular
  chunks of at most ``micro_batch_max_size`` tuples — one
  ``predict_batch`` per chunk, one shared service round-trip — and
  de-interleaves the concatenated outputs back onto each request, in
  each request's own input order;
* **followers** just block on their request's event; their wall time is
  the leader's dispatch, which is the amortization being measured.

The batcher never touches virtual clocks.  Operators pre-charge
``len(inputs) * per_tuple_cost`` to *their own* session clock before
calling :meth:`~repro.executor.context.ExecutionContext.invoke_model`,
so per-client virtual totals are identical with and without batching —
coalescing changes real seconds only.  Result equivalence holds because
``predict_batch`` is deterministic per input and order-preserving:
slicing the concatenated batch back apart returns exactly what each
client's solo call would have.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.flight import current_flight, record_batcher_wait

__all__ = ["InferenceBatcher", "BatcherSnapshot"]


@dataclass(frozen=True)
class BatcherSnapshot:
    """Point-in-time statistics of one :class:`InferenceBatcher`.

    ``dispatches`` counts physical ``predict_batch`` calls;
    ``coalesced_dispatches`` the subset that carried more than one
    client request (the micro-batching win); ``requests`` / ``tuples``
    the logical demand.  ``mean_batch_tuples > tuples/requests`` — i.e.
    ``mean_batch_requests > 1`` — is the acceptance signal that
    coalescing actually happened.
    """

    requests: int
    tuples: int
    dispatches: int
    coalesced_dispatches: int
    max_batch_tuples: int
    max_batch_requests: int
    queue_depth: int
    #: Requests that arrived from *another process* over the pool's
    #: shard protocol (:meth:`InferenceBatcher.submit_remote`).  A
    #: positive count alongside ``coalesced_dispatches`` is the
    #: observable proof that miss coalescing spans processes.
    remote_requests: int = 0

    @property
    def mean_batch_tuples(self) -> float:
        return self.tuples / self.dispatches if self.dispatches else 0.0

    @property
    def mean_batch_requests(self) -> float:
        return self.requests / self.dispatches if self.dispatches else 0.0

    @classmethod
    def merge(cls, snapshots: "list[BatcherSnapshot]"
              ) -> "BatcherSnapshot":
        """Fleet rollup of per-process batcher snapshots (associative).

        Counters add and maxima fold.  Under the worker pool each
        ``(model, video)`` pair is owned by exactly one dispatcher
        process, so the per-process figures count disjoint physical
        dispatches and the sums are exact, not estimates.
        """
        snapshots = [s for s in snapshots if s is not None]
        if not snapshots:
            return cls(requests=0, tuples=0, dispatches=0,
                       coalesced_dispatches=0, max_batch_tuples=0,
                       max_batch_requests=0, queue_depth=0)
        return cls(
            requests=sum(s.requests for s in snapshots),
            tuples=sum(s.tuples for s in snapshots),
            dispatches=sum(s.dispatches for s in snapshots),
            coalesced_dispatches=sum(s.coalesced_dispatches
                                     for s in snapshots),
            max_batch_tuples=max(s.max_batch_tuples for s in snapshots),
            max_batch_requests=max(s.max_batch_requests
                                   for s in snapshots),
            queue_depth=sum(s.queue_depth for s in snapshots),
            remote_requests=sum(s.remote_requests for s in snapshots),
        )


class _Request:
    """One client's miss sub-batch, parked until its chunk dispatches."""

    __slots__ = ("inputs", "outputs", "error", "done", "window_requests")

    def __init__(self, inputs: list):
        self.inputs = inputs
        self.outputs: list | None = None
        self.error: BaseException | None = None
        self.done = threading.Event()
        #: How many requests rode the physical dispatch that served this
        #: one (set by the leader; window-occupancy telemetry).
        self.window_requests = 0


@dataclass
class _ModelQueue:
    """Pending requests for one ``(model, video)`` pair."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    cond: threading.Condition = None  # type: ignore[assignment]
    pending: list[_Request] = field(default_factory=list)
    #: True while some thread is holding the coalescing window open.
    leader_active: bool = False

    def __post_init__(self) -> None:
        self.cond = threading.Condition(self.lock)


class InferenceBatcher:
    """Coalesces concurrent clients' model calls into shared dispatches.

    Duck-types the ``inference`` seam of
    :class:`~repro.executor.context.ExecutionContext`: operators call
    :meth:`submit` (via ``context.invoke_model``) instead of invoking
    ``model.predict_batch`` directly.

    Args:
        max_batch_size: tuple budget per physical dispatch; a window
            closes early once the pending tuple count reaches it.
            ``1`` degenerates to per-request dispatch (still counted).
        timeout_ms: how long a leader holds the coalescing window open
            waiting for riders.  ``0`` dispatches immediately — only
            requests that were already queued coalesce.
    """

    def __init__(self, max_batch_size: int = 256,
                 timeout_ms: float = 2.0):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if timeout_ms < 0:
            raise ValueError("timeout_ms must be non-negative")
        self.max_batch_size = max_batch_size
        self.timeout_ms = timeout_ms
        self._registry_lock = threading.Lock()
        self._queues: dict[tuple[str, str], _ModelQueue] = {}
        self._stats_lock = threading.Lock()
        self._requests = 0
        self._tuples = 0
        self._dispatches = 0
        self._coalesced_dispatches = 0
        self._max_batch_tuples = 0
        self._max_batch_requests = 0
        self._remote_requests = 0

    # -- the seam the executor calls ------------------------------------------

    def submit(self, model, video, inputs: Sequence) -> list:
        """Evaluate ``model`` over ``inputs``, possibly ride-sharing.

        Blocks until this request's outputs are ready; returns them in
        ``inputs`` order.  Never charges any virtual clock.
        """
        inputs = list(inputs)
        if not inputs:
            return []
        flight = current_flight()
        started = time.perf_counter() if flight is not None else 0.0
        queue = self._queue_for((model.name, video.name))
        request = _Request(inputs)
        with queue.lock:
            queue.pending.append(request)
            if queue.leader_active:
                # Follower: wake the leader in case this request filled
                # the window, then park on the event below.
                queue.cond.notify_all()
                is_leader = False
            else:
                queue.leader_active = True
                is_leader = True
        if is_leader:
            self._lead(queue, model, video)
        request.done.wait()
        if flight is not None:
            record_batcher_wait("leader" if is_leader else "follower",
                                time.perf_counter() - started,
                                request.window_requests)
        if request.error is not None:
            raise request.error
        assert request.outputs is not None
        return request.outputs

    def submit_remote(self, model, video, inputs: Sequence
                      ) -> tuple[list, int]:
        """:meth:`submit` for requests proxied from another process.

        Called by the pool's shard service thread on the dispatcher
        process that owns ``(model, video)``; the requesting worker
        blocks on the RPC instead of on the event.  Returns
        ``(outputs, window_requests)`` so the requester can record its
        own flight-record batcher wait with the true window occupancy
        (the thread-local flight context lives in the *requesting*
        process, not here).
        """
        inputs = list(inputs)
        if not inputs:
            return [], 0
        queue = self._queue_for((model.name, video.name))
        request = _Request(inputs)
        with queue.lock:
            queue.pending.append(request)
            if queue.leader_active:
                queue.cond.notify_all()
                is_leader = False
            else:
                queue.leader_active = True
                is_leader = True
        if is_leader:
            self._lead(queue, model, video)
        request.done.wait()
        with self._stats_lock:
            self._remote_requests += 1
        if request.error is not None:
            raise request.error
        assert request.outputs is not None
        return request.outputs, request.window_requests

    # -- leader protocol -------------------------------------------------------

    def _lead(self, queue: _ModelQueue, model, video) -> None:
        """Hold the coalescing window, then drain and dispatch."""
        deadline = time.monotonic() + self.timeout_ms / 1000.0
        with queue.lock:
            while True:
                total = sum(len(r.inputs) for r in queue.pending)
                if total >= self.max_batch_size:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                queue.cond.wait(remaining)
            batch = list(queue.pending)
            queue.pending.clear()
            queue.leader_active = False
        for chunk in self._chunks(batch):
            self._dispatch(model, video, chunk)

    def _chunks(self, batch: list[_Request]) -> list[list[_Request]]:
        """Request-granular chunks of <= ``max_batch_size`` tuples.

        A single oversized request still dispatches whole — requests
        are never split, so each client's outputs stay one contiguous
        slice of one physical call.
        """
        chunks: list[list[_Request]] = []
        current: list[_Request] = []
        current_tuples = 0
        for request in batch:
            if current and (current_tuples + len(request.inputs)
                            > self.max_batch_size):
                chunks.append(current)
                current, current_tuples = [], 0
            current.append(request)
            current_tuples += len(request.inputs)
        if current:
            chunks.append(current)
        return chunks

    def _dispatch(self, model, video, chunk: list[_Request]) -> None:
        """One physical ``predict_batch`` over a chunk's concatenation."""
        merged: list = []
        for request in chunk:
            merged.extend(request.inputs)
        try:
            outputs = model.predict_batch(video, merged)
            if len(outputs) != len(merged):
                raise RuntimeError(
                    f"{model.name}.predict_batch returned {len(outputs)} "
                    f"outputs for {len(merged)} inputs")
        except BaseException as error:  # noqa: BLE001 - propagate per request
            for request in chunk:
                request.error = error
                request.done.set()
            return
        offset = 0
        for request in chunk:
            request.window_requests = len(chunk)
            request.outputs = outputs[offset:offset + len(request.inputs)]
            offset += len(request.inputs)
        self._record(chunk, len(merged))
        for request in chunk:
            request.done.set()

    # -- bookkeeping -----------------------------------------------------------

    def _queue_for(self, key: tuple[str, str]) -> _ModelQueue:
        with self._registry_lock:
            queue = self._queues.get(key)
            if queue is None:
                queue = _ModelQueue()
                self._queues[key] = queue
            return queue

    def _record(self, chunk: list[_Request], tuples: int) -> None:
        with self._stats_lock:
            self._requests += len(chunk)
            self._tuples += tuples
            self._dispatches += 1
            if len(chunk) > 1:
                self._coalesced_dispatches += 1
            self._max_batch_tuples = max(self._max_batch_tuples, tuples)
            self._max_batch_requests = max(self._max_batch_requests,
                                           len(chunk))

    def snapshot(self) -> BatcherSnapshot:
        with self._registry_lock:
            depth = sum(len(q.pending) for q in self._queues.values())
        with self._stats_lock:
            return BatcherSnapshot(
                requests=self._requests,
                tuples=self._tuples,
                dispatches=self._dispatches,
                coalesced_dispatches=self._coalesced_dispatches,
                max_batch_tuples=self._max_batch_tuples,
                max_batch_requests=self._max_batch_requests,
                queue_depth=depth,
                remote_requests=self._remote_requests,
            )
