"""Observability: end-to-end tracing, reuse-decision audit, and export.

The paper's argument is a *time-accounting* argument — Fig. 6 / Table 4
breakdowns, section 5.2 hit percentages, the optimizer's INTER/DIFF/UNION
reuse decisions.  This package makes those signals first-class:

* :mod:`repro.obs.trace` — a lightweight span API.  One
  :class:`~repro.obs.trace.Tracer` per session threads a single trace
  through parse → optimize (per-rule spans) → execute (per-operator
  spans) → post-execution view updates, recording both *wall* seconds
  and *virtual* seconds (the simulation clock's per-category deltas).
* :mod:`repro.obs.audit` — structured
  :class:`~repro.obs.audit.ReuseDecisionRecord` entries emitted by the
  optimizer capturing the symbolic ``p_u``/``q``, the reduced
  INTER/DIFF, Eq. 3/4 cost inputs, candidate models with weights, and
  the chosen physical sources — "why did EVA (not) reuse the view?" is
  answerable from logs.
* :mod:`repro.obs.sinks` — pluggable export: in-memory ring buffer,
  JSONL file sink, composites, and a no-op sink for zero-overhead runs.
* :mod:`repro.obs.prometheus` — Prometheus text exposition built from
  :class:`~repro.metrics.MetricsCollector` /
  :class:`~repro.server.stats.ServerStats` counters and histograms.
* :mod:`repro.obs.slowlog` — a slow-query log thresholded on *virtual*
  seconds (the honest cost in this reproduction).
* :mod:`repro.obs.schema` — a dependency-free JSON-schema validator for
  the exported JSONL event stream (used by CI and tests).
* :mod:`repro.obs.profiler` — continuous profiling: one session's
  per-operator rollups (:class:`~repro.obs.profiler.ProfileStore`) and
  the metrics collector's per-model table, exported as JSONL.
* :mod:`repro.obs.chrome` — Chrome-trace / Perfetto export of recorded
  spans on a synthetic deterministic timeline.

CLI surfaces: ``repro trace "<query>"`` renders the hierarchical span
tree with actuals (EXPLAIN ANALYZE, but hierarchical and exportable;
``--chrome-trace`` exports the flame-graph JSON), ``repro profile``
prints the top-N operator/model tables, and ``repro metrics-dump``
prints the Prometheus exposition.
"""

from repro.obs.audit import ReuseAuditTrail, ReuseDecisionRecord
from repro.obs.chrome import chrome_trace_document, write_chrome_trace
from repro.obs.profiler import (
    ProfileSnapshot,
    ProfileStore,
    render_profile,
)
from repro.obs.prometheus import prometheus_text
from repro.obs.sinks import (
    CompositeSink,
    InMemorySink,
    JsonlFileSink,
    NullSink,
    TraceSink,
)
from repro.obs.slowlog import SlowQueryEntry, SlowQueryLog
from repro.obs.trace import Span, Tracer, render_spans

__all__ = [
    "Tracer",
    "Span",
    "render_spans",
    "ReuseDecisionRecord",
    "ReuseAuditTrail",
    "TraceSink",
    "NullSink",
    "InMemorySink",
    "JsonlFileSink",
    "CompositeSink",
    "SlowQueryLog",
    "SlowQueryEntry",
    "prometheus_text",
    "ProfileStore",
    "ProfileSnapshot",
    "render_profile",
    "chrome_trace_document",
    "write_chrome_trace",
]
