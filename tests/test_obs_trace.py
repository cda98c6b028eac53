"""Tests for the span API and its session integration."""

import json
import time

import pytest

from repro.clock import CostCategory, SimulationClock
from repro.config import EvaConfig, ReusePolicy
from repro.obs.sinks import InMemorySink
from repro.obs.trace import NOOP_SPAN, Span, Tracer, render_spans
from repro.session import EvaSession

DETECT = ("SELECT id, label FROM tiny CROSS APPLY "
          "FastRCNNObjectDetector(frame) "
          "WHERE id < 40 AND label = 'car';")


def _traced_session(video, **config):
    session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA,
                                          **config))
    session.register_video(video)
    session.tracer.sink = InMemorySink()
    session.tracer.capture_operators = True
    return session


@pytest.fixture
def traced_session(tiny_video):
    """An EVA session whose tracer buffers events and captures
    per-operator spans."""
    return _traced_session(tiny_video)


class TestTracerUnit:
    def test_ids_are_deterministic_counters(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        spans = tracer.spans()
        assert [s.span_id for s in spans] == ["s000002", "s000001"]
        assert all(s.trace_id == "t000001" for s in spans)

    def test_root_span_starts_new_trace(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.trace_id for s in tracer.spans()] == \
            ["t000001", "t000002"]

    def test_nested_spans_link_parents(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                pass
        assert child.parent_id == root.span_id
        assert root.parent_id is None

    def test_virtual_delta_per_category(self):
        clock = SimulationClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work") as span:
            clock.charge(CostCategory.UDF, 2.0)
            clock.charge(CostCategory.JOIN, 0.5)
        assert span.virtual_seconds == pytest.approx(2.5)
        assert span.virtual_breakdown == {
            "udf": pytest.approx(2.0), "join": pytest.approx(0.5)}

    def test_disabled_tracer_returns_shared_noop(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("x") is NOOP_SPAN
        with tracer.span("x") as span:
            span.tag(ignored=True)
        assert tracer.spans() == []
        assert tracer.add_span("y", trace_id="t000001") is None

    def test_exception_marks_span_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        (span,) = tracer.spans()
        assert span.status == "error"
        assert span.tags["error"] == "RuntimeError"

    def test_ring_buffer_bounds_retention(self):
        tracer = Tracer(keep=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.spans()) == 4
        assert [s.name for s in tracer.spans()] == \
            ["s6", "s7", "s8", "s9"]

    def test_events_flow_to_sink(self):
        sink = InMemorySink()
        tracer = Tracer(sink=sink)
        with tracer.span("a"):
            pass
        tracer.emit_event({"type": "custom"})
        assert [e["type"] for e in sink.events()] == ["span", "custom"]

    def test_tags_are_json_safe(self):
        tracer = Tracer()
        with tracer.span("a") as span:
            span.tag(count=3, obj=object())
        event = tracer.spans()[0].to_event()
        assert event["tags"]["count"] == 3
        assert isinstance(event["tags"]["obj"], str)
        json.dumps(event)  # must not raise

    def test_render_tree_indents_children(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        text = tracer.render()
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")

    def test_render_spans_handles_orphans(self):
        orphan = Span(trace_id="t000001", span_id="s000002",
                      parent_id="s000001", name="orphan")
        assert "orphan" in render_spans([orphan])
        assert render_spans([]) == "(no spans)"


class TestSessionTracing:
    def test_lifecycle_stages_present(self, traced_session):
        traced_session.execute(DETECT)
        names = [s.name for s in traced_session.tracer.spans()]
        for stage in ("query", "optimize", "optimize:bind",
                      "optimize:reuse-rules", "optimize:implement",
                      "execute", "record-updates"):
            assert stage in names, f"missing span {stage!r}"

    def test_per_rule_spans_recorded(self, traced_session):
        traced_session.execute(DETECT)
        rule_spans = [s for s in traced_session.tracer.spans()
                      if s.name.startswith("rule:")]
        assert rule_spans, "no optimizer rule spans"

    def test_per_operator_spans_recorded(self, traced_session):
        # The pipeline reports at its fusion boundary (the project), the
        # nodes it covers get spans of their own tagged as fused, and the
        # blocking operator above it reports its own actuals.
        result = traced_session.execute(
            DETECT.replace(";", " ORDER BY id DESC;"))
        op_spans = {s.name: s for s in traced_session.tracer.spans()
                    if s.name.startswith("op:")}
        assert op_spans["op:OrderBy"].tags["rows"] == len(result.rows)
        assert op_spans["op:OrderBy"].tags["kernel"] == "vectorized"
        boundary = op_spans["op:Project"]
        assert boundary.tags["kernel"] == "fused"
        assert boundary.tags["rows"] == len(result.rows) > 0
        assert boundary.parent_id == op_spans["op:OrderBy"].span_id
        for covered in ("op:DetectorApply", "op:Scan"):
            assert op_spans[covered].tags["kernel"] == "fused"
            assert op_spans[covered].tags["rows"] == 0

    def test_root_span_reconciles_with_clock(self, traced_session):
        """Acceptance: span-tree virtual totals match the clock +-eps."""
        before = traced_session.clock.total()
        traced_session.execute(DETECT)
        charged = traced_session.clock.total() - before
        root = next(s for s in traced_session.tracer.spans()
                    if s.parent_id is None)
        assert root.name == "query"
        assert root.virtual_seconds == pytest.approx(charged, abs=1e-9)

    def test_operator_self_times_reconcile_with_execute_span(
            self, traced_session):
        traced_session.execute(DETECT)
        spans = traced_session.tracer.spans()
        execute = next(s for s in spans if s.name == "execute")
        op_virtual = sum(s.virtual_seconds for s in spans
                         if s.name.startswith("op:"))
        assert op_virtual == pytest.approx(execute.virtual_seconds,
                                           abs=1e-9)

    def test_trace_ids_stable_across_fresh_sessions(self, tiny_video):
        """Byte-stable ids: no hash()/id()-derived identifiers."""

        def run() -> list[tuple[str, str, str | None, str]]:
            session = EvaSession(
                config=EvaConfig(reuse_policy=ReusePolicy.EVA))
            session.register_video(tiny_video)
            session.tracer.capture_operators = True
            session.execute(DETECT)
            return [(s.trace_id, s.span_id, s.parent_id, s.name)
                    for s in session.tracer.spans()]

        assert run() == run()

    def test_no_memory_addresses_in_events(self, traced_session):
        traced_session.execute(DETECT)
        for event in traced_session.tracer.sink.events():
            assert "0x" not in json.dumps(event)

    def test_disabled_tracer_session_still_works(self, traced_session):
        traced_session.tracer.enabled = False
        result = traced_session.execute(DETECT)
        assert len(result) > 0
        assert traced_session.tracer.spans() == []
        assert traced_session.tracer.sink.events() == []

    def test_tracing_overhead_is_small(self, traced_session):
        """Acceptance: tracing with a no-op sink costs <5% of a query.

        Measured structurally: the per-span bookkeeping cost times the
        number of spans a query emits must be a small fraction of the
        query's own wall time.  The per-span cost is the fastest of
        several rounds (timeit's convention): preemption on a shared
        machine only ever inflates a round.
        """
        start = time.perf_counter()
        traced_session.execute(DETECT)
        query_wall = time.perf_counter() - start
        spans_per_query = len(traced_session.tracer.spans())

        tracer = Tracer(clock=SimulationClock())  # NullSink default
        iterations = 2000
        rounds = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(iterations):
                with tracer.span("bench"):
                    pass
            rounds.append(time.perf_counter() - start)
        per_span = min(rounds) / iterations
        overhead = spans_per_query * per_span
        assert overhead < 0.05 * query_wall, (
            f"tracing overhead {overhead * 1e3:.3f}ms vs query "
            f"{query_wall * 1e3:.1f}ms")
