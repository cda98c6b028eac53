"""A slow-query log thresholded on *virtual* seconds.

Wall time is meaningless for query cost in this reproduction (models are
simulated), so "slow" means expensive on the
:class:`~repro.clock.SimulationClock` — exactly the quantity the paper's
Fig. 6 / Table 4 report.  Sessions observe every finished query; entries
above the threshold are kept in a bounded ring and exported as
``slow_query`` events through the tracer's sink.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SlowQueryEntry:
    """One query that exceeded the virtual-seconds threshold."""

    query_text: str
    virtual_seconds: float
    threshold: float
    trace_id: str | None = None
    client_id: str | None = None
    #: Per-category virtual breakdown (category value -> seconds).
    breakdown: dict = field(default_factory=dict)
    rows_returned: int = 0
    #: The top self-time operators of the offending query: dicts of
    #: ``operator`` / ``self_virtual_s`` / ``self_wall_ms`` / ``rows``,
    #: ordered by self virtual seconds descending.  Empty when the query
    #: did not run instrumented (per-operator actuals need the
    #: instrumented engine; see :mod:`repro.executor.instrument`).
    top_operators: tuple = ()
    #: The query's :mod:`~repro.obs.flight` record id and dominant-stage
    #: attribution (``queueing | contention | inference | store-io |
    #: compute``) — the wall-time "why" next to the virtual-time "what".
    #: None when the query ran without flight recording.
    flight_id: str | None = None
    dominant_stage: str | None = None
    #: Lineage ids of every materialized view the query probed (hit or
    #: miss) — joins a slow query to the exact views it touched in the
    #: :mod:`~repro.obs.lineage` ledger.
    views: tuple = ()

    def to_event(self) -> dict:
        return {
            "type": "slow_query",
            "query": self.query_text,
            "virtual_s": round(self.virtual_seconds, 9),
            "threshold_s": self.threshold,
            "trace_id": self.trace_id,
            "client_id": self.client_id,
            "virtual_breakdown": {k: round(v, 9)
                                  for k, v in self.breakdown.items()},
            "rows_returned": self.rows_returned,
            "top_operators": [dict(op) for op in self.top_operators],
            "flight_id": self.flight_id,
            "dominant_stage": self.dominant_stage,
            "views": list(self.views),
        }


class SlowQueryLog:
    """Bounded, thread-safe log of queries slower than ``threshold``
    virtual seconds.  ``threshold=None`` disables observation."""

    def __init__(self, threshold: float | None,
                 capacity: int = 128):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.threshold = threshold
        self._entries: deque[SlowQueryEntry] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def observe(self, query_text: str, virtual_seconds: float, *,
                breakdown: dict | None = None,
                trace_id: str | None = None,
                client_id: str | None = None,
                rows_returned: int = 0,
                top_operators=(),
                flight_id: str | None = None,
                dominant_stage: str | None = None,
                views=()
                ) -> SlowQueryEntry | None:
        """Record the query if it crossed the threshold.

        Returns the entry when the query was slow, else None.
        """
        if self.threshold is None or virtual_seconds < self.threshold:
            return None
        entry = SlowQueryEntry(
            query_text=query_text,
            virtual_seconds=virtual_seconds,
            threshold=self.threshold,
            trace_id=trace_id,
            client_id=client_id,
            breakdown=dict(breakdown or {}),
            rows_returned=rows_returned,
            top_operators=tuple(top_operators),
            flight_id=flight_id,
            dominant_stage=dominant_stage,
            views=tuple(views),
        )
        with self._lock:
            self._entries.append(entry)
        return entry

    def entries(self) -> list[SlowQueryEntry]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
