"""Execution context: everything operators need at run time."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
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
    #: Process-wide plan→kernel cache
    #: (:class:`repro.executor.fusion.KernelCache`), duck-typed to avoid
    #: a context->fusion import cycle.  Shared by every client of a
    #: server; None compiles every pipeline afresh.
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

        Without a router this is a direct call.  With a router (the
        server's :class:`~repro.server.batcher.InferenceBatcher`), the
        call may be coalesced with concurrent clients' sub-batches
        targeting the same physical model — results are identical.
        Virtual-clock charges are
        *not* made here: the calling operator already charged
        ``len(inputs) * per_tuple_cost`` to its own clock, so each
        client pays for exactly its own tuples no matter how the
        wall-clock work was shared.
        """
        flight = current_flight()
        started = time.perf_counter() if flight is not None else 0.0
        try:
            if self.inference is not None:
                return self.inference.submit(model, video, inputs)
            return model.predict_batch(video, inputs)
        finally:
            if flight is not None:
                flight.add_inference(time.perf_counter() - started)
