"""Execution context: everything operators need at run time."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.baselines.hashstash import RecyclerGraph
from repro.cancellation import CancelToken
from repro.catalog.catalog import Catalog
from repro.clock import SimulationClock
from repro.config import EvaConfig, ReusePolicy
from repro.errors import ExecutorError
from repro.expressions.evaluator import ExpressionEvaluator
from repro.executor.function_cache import FunctionCache
from repro.metrics import MetricsCollector
from repro.obs.flight import current_flight
from repro.storage.engine import StorageEngine
from repro.storage.view_store import ViewStore
from repro.types import BoundingBox
from repro.video.synthetic import SyntheticVideo


def _builtin_area(bbox, frame=None) -> float:
    """AREA(bbox[, frame]): box area relative to its frame."""
    if not isinstance(bbox, BoundingBox):
        raise ExecutorError(f"AREA expects a bounding box, got {bbox!r}")
    if frame is not None:
        return bbox.relative_area(frame.width, frame.height)
    # Fallback: absolute pixel area (callers normally pass the frame).
    return bbox.area()


class OnceGates:
    """Thread-safe once-per-query gates shared by morsel workers.

    Serial operators charge one-time costs (Eq. 3's hash-join setup)
    behind a per-operator boolean; under morsel parallelism every morsel
    clones the operator tree, so the boolean alone would multiply the
    charge by the number of morsels.  A gate keyed by the plan node's
    identity lets exactly one morsel win the charge — the *total* across
    morsel clocks then matches the serial clock.
    """

    __slots__ = ("_lock", "_taken")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._taken: set = set()

    def acquire(self, key) -> bool:
        """True exactly once per distinct ``key``."""
        with self._lock:
            if key in self._taken:
                return False
            self._taken.add(key)
            return True


@dataclass
class ExecutionContext:
    """Shared state for one session's operators."""

    catalog: Catalog
    storage: StorageEngine
    view_store: ViewStore
    clock: SimulationClock
    metrics: MetricsCollector
    config: EvaConfig
    function_cache: FunctionCache | None = None
    recycler: RecyclerGraph | None = None
    #: Cooperative cancellation for the currently running query (set by the
    #: server per query; None for plain library sessions).
    cancel: CancelToken | None = None
    #: The session's tracer (:class:`repro.obs.trace.Tracer`), duck-typed
    #: to avoid an executor->obs import; operators may attach events to
    #: the active trace through it.  None disables.
    tracer: object | None = None
    #: Cross-query inference router
    #: (:class:`repro.server.batcher.InferenceBatcher`), duck-typed to a
    #: ``submit(model, video, inputs) -> list`` method so the executor
    #: never imports server code.  None invokes models directly.
    inference: object | None = None
    #: Once-per-query charge gates shared across morsel contexts during a
    #: parallel run; None on the serial path (per-operator booleans
    #: suffice there — one operator tree exists per query).
    join_gates: OnceGates | None = None
    #: Process-wide plan→kernel cache
    #: (:class:`repro.executor.fusion.KernelCache`), duck-typed to avoid
    #: a context->fusion import cycle.  Shared by every client of a
    #: server and every morsel worker (``for_morsel`` clones keep it);
    #: None compiles every pipeline afresh.
    kernel_cache: object | None = None
    evaluator: ExpressionEvaluator = field(init=False)

    def __post_init__(self):
        self.evaluator = ExpressionEvaluator(builtins={
            "area": _builtin_area,
        })
        if (self.config.reuse_policy is ReusePolicy.FUNCACHE
                and self.function_cache is None):
            self.function_cache = FunctionCache(
                self.clock, self.config.costs,
                max_entries=self.config.funcache_max_entries,
                metrics=self.metrics)
        if (self.config.reuse_policy is ReusePolicy.HASHSTASH
                and self.recycler is None):
            self.recycler = RecyclerGraph()

    def check_cancelled(self) -> None:
        """Raise if this query's cancel token has tripped (no-op without
        a token).  Operators call this at batch boundaries."""
        if self.cancel is not None:
            self.cancel.check()

    def video(self, table_name: str) -> SyntheticVideo:
        return self.storage.table(table_name).video

    @property
    def costs(self):
        return self.config.costs

    # -- model invocation seam ------------------------------------------------

    def invoke_model(self, model, video: SyntheticVideo,
                     inputs: Sequence) -> list:
        """Run ``model.predict_batch`` through the inference router.

        Without a router this is a direct call plus the model's simulated
        service latency (one serving round-trip per call).  With a router
        (the server's :class:`~repro.server.batcher.InferenceBatcher`),
        the call may be coalesced with concurrent clients' sub-batches
        targeting the same physical model — results are identical, the
        per-call service latency is amortized.  Virtual-clock charges are
        *not* made here: the calling operator already charged
        ``len(inputs) * per_tuple_cost`` to its own clock, so each
        client/morsel pays for exactly its own tuples no matter how the
        wall-clock work was shared.
        """
        flight = current_flight()
        started = time.perf_counter() if flight is not None else 0.0
        try:
            if self.inference is not None:
                return self.inference.submit(model, video, inputs)
            outputs = model.predict_batch(video, inputs)
            simulate = getattr(model, "simulate_service_latency", None)
            if simulate is not None:
                simulate(len(inputs))
            return outputs
        finally:
            if flight is not None:
                flight.add_inference(time.perf_counter() - started)

    # -- once-per-query gates -------------------------------------------------

    def acquire_join_gate(self, key) -> bool:
        """Should the caller charge a once-per-query cost for ``key``?

        Serial mode (no shared gates): always True — the per-operator
        boolean guarding the call already makes it once-per-query.
        Parallel mode: True for exactly one morsel across the run.
        """
        gates = self.join_gates
        if gates is None:
            return True
        return gates.acquire(key)

    # -- morsel cloning -------------------------------------------------------

    def for_morsel(self, clock: SimulationClock,
                   metrics: MetricsCollector) -> "ExecutionContext":
        """A morsel-private context over this context's shared state.

        The clone shares everything whose contents are global (catalog,
        storage, view store, caches, cancel token, inference router, the
        join gates) and takes a private ``clock`` and ``metrics`` so the
        parallel driver can merge virtual charges and invocation records
        deterministically — in morsel-index order — after the workers
        finish.  The tracer is dropped: its span stacks are
        thread-affine, and per-morsel spans are emitted by the driver.
        """
        return replace(self, clock=clock, metrics=metrics, tracer=None)
