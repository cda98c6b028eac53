"""Tests for the Chrome-trace / Perfetto exporter (repro.obs.chrome)."""

import json

from repro.config import EvaConfig
from repro.obs.chrome import (
    chrome_trace_document,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.obs.trace import Tracer
from repro.session import EvaSession
from repro.types import VideoMetadata
from repro.video.synthetic import SyntheticVideo

#: Keys every complete ("X") event must carry.
X_KEYS = {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}


def traced_session():
    session = EvaSession(config=EvaConfig())
    session.register_video(SyntheticVideo(
        VideoMetadata(name="v", num_frames=80, width=960, height=540,
                      fps=25.0, vehicles_per_frame=6.0), seed=5))
    session.tracer.capture_operators = True
    return session


def run_query(session, hi=40, lo=0):
    session.execute(
        f"SELECT id FROM v CROSS APPLY FastRCNNObjectDetector(frame) "
        f"WHERE label = 'car' AND id >= {lo} AND id < {hi};")


class TestEventStructure:
    def test_schema_of_emitted_events(self):
        session = traced_session()
        run_query(session)
        events = chrome_trace_events(session.tracer.spans())
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(metadata) == 2
        assert complete, "expected at least one complete event"
        for event in complete:
            assert set(event) == X_KEYS
            assert isinstance(event["ts"], int) and event["ts"] >= 0
            assert isinstance(event["dur"], int) and event["dur"] >= 1
            assert event["args"]["span_id"].startswith("s")
            assert event["args"]["trace_id"].startswith("t")
            assert event["args"]["virtual_s"] >= 0

    def test_children_nest_inside_parents(self):
        session = traced_session()
        run_query(session)
        spans = session.tracer.spans()
        events = {e["args"]["span_id"]: e
                  for e in chrome_trace_events(spans) if e["ph"] == "X"}
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.parent_id not in by_id:
                continue
            child, parent = events[span.span_id], events[span.parent_id]
            assert child["ts"] >= parent["ts"]
            assert child["ts"] + child["dur"] <= \
                parent["ts"] + parent["dur"]

    def test_operator_spans_carry_kernel_tags(self):
        session = traced_session()
        run_query(session)
        events = chrome_trace_events(session.tracer.spans())
        detector = [e for e in events
                    if e.get("name") == "op:DetectorApply"]
        assert detector
        assert detector[0]["args"]["tag.kernel"] == "fused"

    def test_traces_are_sequential_and_non_overlapping(self):
        session = traced_session()
        run_query(session, hi=40)
        run_query(session, lo=40, hi=80)
        events = [e for e in chrome_trace_events(session.tracer.spans())
                  if e["ph"] == "X"]
        roots = [e for e in events if e["args"]["span_id"] in {
            s.span_id for s in session.tracer.spans()
            if s.parent_id is None}]
        assert len(roots) == 2
        first, second = sorted(roots, key=lambda e: e["ts"])
        assert first["ts"] + first["dur"] <= second["ts"]

    def test_document_shape_and_write(self, tmp_path):
        session = traced_session()
        run_query(session)
        document = chrome_trace_document(session.tracer.spans())
        assert set(document) == {"traceEvents", "displayTimeUnit",
                                 "otherData"}
        assert document["otherData"]["timeline"] == \
            "synthetic-deterministic"
        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, session.tracer.spans())
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == count
        # The document round-trips as JSON (no stray objects).
        json.dumps(document)


class TestDeterminism:
    def test_structure_identical_across_builds(self):
        """Two tracers recording the same span structure export the
        same (name, span_id) sequence — layout never depends on dict
        order or ambient state, only on span ids."""
        def build():
            tracer = Tracer()
            with tracer.span("query"):
                with tracer.span("optimize"):
                    pass
                with tracer.span("execute"):
                    pass
            return [(e["name"], e["args"].get("span_id"))
                    for e in chrome_trace_events(tracer.spans())
                    if e["ph"] == "X"]

        assert build() == build()

    def test_zero_duration_spans_stay_visible(self):
        tracer = Tracer()
        with tracer.span("instant"):
            pass
        events = [e for e in chrome_trace_events(tracer.spans())
                  if e["ph"] == "X"]
        assert events and all(e["dur"] >= 1 for e in events)

    def test_export_is_repeatable(self):
        session = traced_session()
        run_query(session)
        spans = session.tracer.spans()
        assert chrome_trace_events(spans) == chrome_trace_events(spans)
