"""Tests for export: sinks, slow-query log, Prometheus, JSONL schema."""

import json
from pathlib import Path

import pytest

from repro.clock import CostCategory, SimulationClock
from repro.config import EvaConfig, ReusePolicy
from repro.obs.prometheus import prometheus_text
from repro.obs.schema import (
    SchemaError,
    load_schema,
    validate,
    validate_jsonl,
)
from repro.obs.sinks import (
    CompositeSink,
    InMemorySink,
    JsonlFileSink,
    NullSink,
)
from repro.obs.slowlog import SlowQueryLog
from repro.session import EvaSession

SCHEMA_PATH = Path(__file__).parent / "schemas" / "trace.schema.json"

DETECT = ("SELECT id, label FROM tiny CROSS APPLY "
          "FastRCNNObjectDetector(frame) "
          "WHERE id < 60 AND label = 'car';")


class TestSinks:
    def test_in_memory_ring_caps_and_counts_drops(self):
        sink = InMemorySink(capacity=3)
        for i in range(5):
            sink.emit({"type": "span", "i": i})
        assert len(sink) == 3
        assert sink.dropped == 2
        assert [e["i"] for e in sink.events()] == [2, 3, 4]
        sink.clear()
        assert len(sink) == 0 and sink.dropped == 0

    def test_in_memory_filters_by_type(self):
        sink = InMemorySink()
        sink.emit({"type": "span"})
        sink.emit({"type": "reuse_decision"})
        assert len(sink.events("span")) == 1

    def test_jsonl_sink_writes_one_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlFileSink(path)
        sink.emit({"type": "span", "name": "a"})
        sink.emit({"type": "span", "name": "b"})
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["name"] == "b"
        assert sink.events_written == 2

    def test_jsonl_sink_appends_by_default(self, tmp_path):
        path = tmp_path / "events.jsonl"
        JsonlFileSink(path).emit({"n": 1})
        JsonlFileSink(path).emit({"n": 2})
        assert len(path.read_text().splitlines()) == 2

    def test_jsonl_sink_truncate_starts_fresh(self, tmp_path):
        path = tmp_path / "events.jsonl"
        JsonlFileSink(path).emit({"n": 1})
        JsonlFileSink(path, truncate=True).emit({"n": 2})
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["n"] == 2

    def test_jsonl_sink_stringifies_unserializable(self, tmp_path):
        path = tmp_path / "events.jsonl"
        JsonlFileSink(path).emit({"obj": object()})
        assert "object" in json.loads(path.read_text())["obj"]

    def test_composite_fans_out(self):
        a, b = InMemorySink(), InMemorySink()
        CompositeSink([a, b]).emit({"type": "span"})
        assert len(a) == len(b) == 1

    def test_null_sink_swallows(self):
        NullSink().emit({"type": "span"})  # must not raise


class TestSlowQueryLog:
    def test_threshold_filters(self):
        log = SlowQueryLog(threshold=10.0)
        assert log.observe("fast", 1.0) is None
        entry = log.observe("slow", 25.0, trace_id="t000001",
                            breakdown={"udf": 24.0}, rows_returned=7)
        assert entry is not None
        assert entry.virtual_seconds == 25.0
        event = entry.to_event()
        assert event["type"] == "slow_query"
        assert event["virtual_breakdown"]["udf"] == 24.0
        assert [e.query_text for e in log.entries()] == ["slow"]

    def test_disabled_when_threshold_none(self):
        log = SlowQueryLog(threshold=None)
        assert log.observe("q", 1e9) is None

    def test_session_emits_slow_query_events(self, tiny_video):
        config = EvaConfig(reuse_policy=ReusePolicy.EVA,
                           slow_query_threshold=0.001)
        session = EvaSession(config=config)
        session.register_video(tiny_video)
        session.tracer.sink = InMemorySink()
        session.execute(DETECT)
        events = session.tracer.sink.events("slow_query")
        assert events, "expensive query must land in the slow log"
        event = events[0]
        assert event["virtual_s"] > config.slow_query_threshold
        assert event["trace_id"] is not None
        assert "udf" in event["virtual_breakdown"]

    def test_session_slow_log_off_by_default(self, eva_session):
        eva_session.tracer.sink = InMemorySink()
        eva_session.execute(DETECT)
        assert eva_session.tracer.sink.events("slow_query") == []


class TestPrometheus:
    @pytest.fixture
    def exposition(self, eva_session):
        eva_session.execute(DETECT)
        eva_session.execute(DETECT.replace("id < 60", "id < 90"))
        return prometheus_text(metrics=eva_session.metrics,
                               clock=eva_session.clock)

    def test_udf_ti_di_counters(self, exposition):
        assert ('eva_udf_invocations_total{disposition="total",'
                'udf="fasterrcnn_resnet50"}') in exposition
        assert ('eva_udf_invocations_total{disposition="distinct",'
                'udf="fasterrcnn_resnet50"}') in exposition
        assert ('eva_udf_invocations_total{disposition="reused",'
                'udf="fasterrcnn_resnet50"} 60') in exposition

    def test_hit_ratios(self, exposition):
        assert 'eva_udf_hit_ratio{udf="fasterrcnn_resnet50"} 0.4' \
            in exposition
        assert "\neva_hit_ratio 0.4" in exposition

    def test_virtual_time_categories(self, exposition):
        assert 'eva_virtual_seconds_total{category="udf"}' in exposition
        assert 'eva_virtual_seconds_total{category="read_video"}' \
            in exposition

    def test_query_histogram(self, exposition):
        assert "eva_query_virtual_seconds_count 2" in exposition
        assert 'eva_query_virtual_seconds_bucket{le="+Inf"} 2' \
            in exposition

    def test_help_and_type_headers(self, exposition):
        for name in ("eva_udf_invocations_total", "eva_hit_ratio",
                     "eva_virtual_seconds_total"):
            assert f"# HELP {name} " in exposition
            assert f"# TYPE {name} " in exposition

    def test_label_escaping(self):
        clock = SimulationClock()
        clock.charge(CostCategory.UDF, 1.0)
        text = prometheus_text(clock=clock)
        assert 'category="udf"' in text

    def test_server_exposition_includes_admission_counters(
            self, tiny_video):
        from repro.server.server import EvaServer

        with EvaServer(config=EvaConfig(reuse_policy=ReusePolicy.EVA),
                       max_workers=2) as server:
            server.register_video(tiny_video)
            alice = server.connect("alice")
            bob = server.connect("bob")
            alice.execute(DETECT)
            bob.execute(DETECT)
            text = server.prometheus_text()
            calls = server.batcher_snapshot()
        assert 'eva_server_queries_total{outcome="submitted"} 2' in text
        assert 'eva_server_queries_total{outcome="completed"} 2' in text
        assert 'eva_server_queries_total{outcome="rejected"} 0' in text
        assert "eva_server_queue_depth 0" in text
        # bob's probe was served by alice's materialization
        assert ('eva_server_cross_client_hits_total{owner="alice",'
                'prober="bob"}') in text
        assert ('eva_server_client_queries_total{client="alice",'
                'outcome="completed"} 1') in text
        # per-UDF counters merge across clients
        assert ('eva_udf_invocations_total{disposition="total",'
                'udf="fasterrcnn_resnet50"} 120') in text
        # model-call totals: every call goes straight to the model
        assert calls.requests == calls.dispatches > 0
        assert f"eva_batcher_requests_total {calls.requests}\n" in text
        assert f"eva_batcher_dispatches_total {calls.dispatches}\n" in text
        assert f"eva_batcher_tuples_total {calls.tuples}\n" in text

    def test_store_exposition(self, tmp_path):
        from repro.store import DurableViewStore

        store = DurableViewStore(tmp_path, fsync_every=1)
        view = store.create_or_get("mv::m@v", ["id"], ["label"])
        view.put((1,), [{"label": "car"}])
        text = prometheus_text(store=store.store_snapshot())
        store.close()
        assert "eva_store_views 1\n" in text
        assert f"eva_store_bytes {view.serialized_bytes()}\n" in text
        assert "eva_store_wal_records_total 1" in text
        assert 'eva_store_recovery_info{stat="views_recovered"} 0' in text
        assert "# TYPE eva_store_wal_bytes gauge" in text

    def test_durable_server_exposition_includes_store(self, tiny_video,
                                                      tmp_path):
        from repro.server.server import EvaServer

        config = EvaConfig(reuse_policy=ReusePolicy.EVA,
                           store_mode="durable",
                           store_path=str(tmp_path))
        with EvaServer(config=config, max_workers=2) as server:
            server.register_video(tiny_video)
            server.connect("alice").execute(DETECT)
            text = server.prometheus_text()
        assert "eva_store_views " in text
        assert "eva_store_wal_records_total" in text


class TestServerTraceSink:
    def test_server_stamps_client_ids_on_spans(self, tiny_video):
        from repro.server.server import EvaServer

        with EvaServer(config=EvaConfig(reuse_policy=ReusePolicy.EVA),
                       max_workers=2) as server:
            server.register_video(tiny_video)
            alice = server.connect("alice")
            bob = server.connect("bob")
            alice.execute(DETECT)
            bob.execute(DETECT)
            spans = server.trace_events("span")
            decisions = server.trace_events("reuse_decision")
        clients = {s["client_id"] for s in spans}
        assert clients == {"alice", "bob"}
        assert {d["client_id"] for d in decisions} == {"alice", "bob"}


class TestJsonlSchema:
    def test_real_session_stream_validates(self, tiny_video, tmp_path):
        session = EvaSession(
            config=EvaConfig(reuse_policy=ReusePolicy.EVA,
                             slow_query_threshold=0.001))
        session.register_video(tiny_video)
        path = tmp_path / "trace.jsonl"
        sink = JsonlFileSink(path, truncate=True)
        session.tracer.sink = sink
        session.tracer.capture_operators = True
        session.execute(DETECT)
        session.execute(DETECT.replace("id < 60", "id < 90"))
        sink.close()
        schema = load_schema(SCHEMA_PATH)
        count = validate_jsonl(path, schema)
        assert count == sink.events_written
        types = {json.loads(line)["type"]
                 for line in path.read_text().splitlines()}
        assert types == {"span", "reuse_decision", "slow_query",
                         "flight"}

    def test_schema_rejects_malformed_events(self):
        schema = load_schema(SCHEMA_PATH)
        with pytest.raises(SchemaError):
            validate({"type": "span"}, schema)  # missing required keys
        with pytest.raises(SchemaError):
            validate({"type": "nonsense"}, schema)
