"""Tests for the continuous profiler (repro.obs.profiler)."""

import json
import threading

import pytest

from repro.clock import CostCategory, SimulationClock
from repro.config import EvaConfig
from repro.metrics import MetricsCollector
from repro.obs.profiler import ProfileStore, render_profile
from repro.obs.schema import load_schema, validate_jsonl
from repro.session import EvaSession
from repro.types import VideoMetadata
from repro.vbench.queries import vbench_high
from repro.video.synthetic import SyntheticVideo

SCHEMA = load_schema("tests/schemas/profile.schema.json")


def make_video(frames=120, name="v"):
    return SyntheticVideo(
        VideoMetadata(name=name, num_frames=frames, width=960, height=540,
                      fps=25.0, vehicles_per_frame=6.0), seed=5)


def collector(*queries):
    """A collector that ran one query per ``{model: (executed, reused)}``
    of ``queries``, at a per-tuple cost of 0.2."""
    metrics = MetricsCollector()
    clock = SimulationClock()
    for counts in queries:
        metrics.begin_query("q", clock)
        for model, (executed, reused) in counts.items():
            metrics.record_invocations(model, list(range(executed)),
                                       False, per_tuple_cost=0.2)
            metrics.record_invocations(model, list(range(reused)),
                                       True, per_tuple_cost=0.2)
        metrics.end_query(clock, 0)
    return metrics


def model_records(store, metrics):
    return {r["model"]: r for r in store.events(metrics)
            if r["type"] == "profile_model"}


class TestModelRecords:
    def test_observed_cost_is_virtual_per_executed(self):
        record = model_records(ProfileStore(),
                               collector({"m": (6, 4)}))["m"]
        assert (record["invocations"], record["reused"],
                record["executed"]) == (10, 4, 6)
        assert record["virtual_seconds"] == pytest.approx(1.2)
        assert record["observed_per_tuple_cost"] == 0.2

    def test_fully_reused_model_hides_its_cost(self):
        record = model_records(ProfileStore(),
                               collector({"m": (0, 5)}))["m"]
        assert record["virtual_seconds"] == 0.0
        assert record["observed_per_tuple_cost"] is None

    def test_meta_counts_the_collectors_queries(self):
        metrics = collector({"m": (1, 0)}, {"m": (0, 1)})
        metrics.stats_for("idle")
        meta = ProfileStore().events(metrics)[0]
        assert meta == {"type": "profile_meta", "queries": 2,
                        "models": 1, "operators": 0}

    def test_vbench_high_records_are_the_collectors(self):
        """Each ``profile_model`` record of a VBENCH-high session is its
        collector's ``udf_stats`` entry, and the charged virtual seconds
        add up to the queries' UDF time."""
        session = EvaSession(config=EvaConfig())
        session.register_video(make_video(frames=150))
        queries = vbench_high("v", 150)
        for sql in queries:
            session.execute(sql)
        metrics = session.metrics
        events = session.profiler.events(metrics)
        assert events[0]["queries"] == len(queries) == \
            len(metrics.query_metrics)
        records = model_records(session.profiler, metrics)
        assert set(records) == {name for name, s in metrics.udf_stats.items()
                                if s.total_invocations > 0}
        assert {"fasterrcnn_resnet50", "car_type", "color_det"} <= \
            set(records)
        for name, record in records.items():
            stats = metrics.udf_stats[name]
            executed = stats.total_invocations - stats.reused_invocations
            assert record["invocations"] == stats.total_invocations == \
                sum(q.udf_counts.get(name, 0)
                    for q in metrics.query_metrics)
            assert record["reused"] == stats.reused_invocations == \
                sum(q.reused_counts.get(name, 0)
                    for q in metrics.query_metrics)
            assert record["executed"] == executed
            assert record["virtual_seconds"] == \
                round(executed * stats.per_tuple_cost, 9)
            assert stats.per_tuple_cost == \
                session.catalog.per_tuple_cost(name)
        assert sum(r["virtual_seconds"] for r in records.values()) == \
            pytest.approx(sum(q.time(CostCategory.UDF)
                              for q in metrics.query_metrics))


class TestProfileStore:
    def test_rollups_accumulate(self):
        store = ProfileStore()
        store.observe_operator("Filter", rows=100, batches=2,
                               self_wall_seconds=0.01,
                               kernel_mode="vectorized")
        store.observe_operator("Filter", rows=50, batches=1,
                               self_wall_seconds=0.02,
                               kernel_mode="fused")
        op = store.snapshot().operators["Filter"]
        assert op.calls == 2
        assert op.rows == 150
        assert op.batches == 3
        assert op.kernel_modes == {"vectorized": 1, "fused": 1}

    def test_snapshot_is_isolated(self):
        store = ProfileStore()
        store.observe_operator("Scan", rows=1)
        snapshot = store.snapshot()
        store.observe_operator("Scan", rows=9)
        assert snapshot.operators["Scan"].rows == 1

    def test_top_operators_order_deterministic(self):
        store = ProfileStore()
        store.observe_operator("B", self_wall_seconds=0.5)
        store.observe_operator("A", self_wall_seconds=0.5)
        store.observe_operator("C", self_wall_seconds=0.9)
        top = store.snapshot().top_operators(3)
        assert [p.operator for p in top] == ["C", "A", "B"]

    def test_jsonl_export_validates_against_the_schema(self, tmp_path):
        store = ProfileStore()
        store.observe_operator("Scan", rows=10, batches=1,
                               self_virtual_seconds=0.5)
        path = tmp_path / "profile.jsonl"
        count = store.save_jsonl(path, collector({"m": (6, 4)}))
        assert count == 3
        assert validate_jsonl(path, SCHEMA) == 3
        assert [json.loads(line)["type"]
                for line in path.read_text().splitlines()] == \
            ["profile_meta", "profile_model", "profile_operator"]

    def test_thread_safety_under_concurrent_ingestion(self):
        store = ProfileStore()

        def work():
            for _ in range(200):
                store.observe_operator("Filter", rows=1)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        op = store.snapshot().operators["Filter"]
        assert (op.calls, op.rows) == (800, 800)


class TestSessionIntegration:
    def test_session_populates_model_rollups(self):
        session = EvaSession(config=EvaConfig())
        session.register_video(make_video())
        session.execute(
            "SELECT id FROM v CROSS APPLY FastRCNNObjectDetector(frame) "
            "WHERE label = 'car' AND id < 60;")
        assert session.profiler.events(session.metrics)[0]["queries"] == 1
        record = model_records(session.profiler,
                               session.metrics)["fasterrcnn_resnet50"]
        assert record["executed"] > 0
        # The executor charges len(batch) * per_tuple_cost.
        true_cost = session.catalog.zoo.get(
            "fasterrcnn_resnet50").per_tuple_cost
        assert record["observed_per_tuple_cost"] == \
            pytest.approx(true_cost)

    def test_operator_rollups_need_instrumented_runs(self):
        session = EvaSession(config=EvaConfig())
        session.register_video(make_video())
        sql = ("SELECT id FROM v CROSS APPLY "
               "FastRCNNObjectDetector(frame) "
               "WHERE label = 'car' AND id < 30;")
        session.execute(sql)
        assert not session.profiler.snapshot().operators
        session.tracer.capture_operators = True
        session.execute(sql.replace("30", "60"))
        operators = session.profiler.snapshot().operators
        assert "Scan" in operators
        assert "DetectorApply" in operators

    def test_server_clients_keep_their_own_profiles(self):
        from repro.server import EvaServer

        server = EvaServer(max_workers=2)
        server.register_video(make_video(name="v"))
        with server.start():
            first = server.connect()
            second = server.connect()
            with first.checkout() as session:
                session.tracer.capture_operators = True
            first.execute(
                "SELECT id FROM v CROSS APPLY "
                "FastRCNNObjectDetector(frame) "
                "WHERE label = 'car' AND id < 40;")
            second.execute(
                "SELECT id FROM v CROSS APPLY "
                "FastRCNNObjectDetector(frame) "
                "WHERE label = 'car' AND id >= 40 AND id < 80;")
            with first.checkout() as one, second.checkout() as two:
                assert one.profiler is not two.profiler
                # Only the instrumented client folds operator rollups.
                assert "DetectorApply" in one.profiler.snapshot().operators
                assert not two.profiler.snapshot().operators
                # Each client's profile counts its own query only.
                for session in (one, two):
                    meta = session.profiler.events(session.metrics)[0]
                    assert meta["queries"] == 1
                    assert model_records(session.profiler,
                                         session.metrics)
            text = server.prometheus_text()
        # The server-wide per-model counts are the merged collectors'.
        assert ('eva_udf_invocations_total{disposition="total",'
                'udf="fasterrcnn_resnet50"} 80') in text


class TestRenderProfile:
    def test_render_contains_tables(self):
        store = ProfileStore()
        store.observe_operator("Scan", rows=10, batches=1,
                               self_wall_seconds=0.01,
                               kernel_mode="vectorized")
        text = render_profile(store.snapshot(), collector({"m": (6, 4)}),
                              top=5)
        lines = text.splitlines()
        assert lines[0] == "profile over 1 queries"
        assert "Scan" in text
        assert "vectorized:1" in text
        row = lines[-1].split()
        assert row == ["m", "10", "4", "6", "40.0%", "1.200s", "0.200000"]

    def test_render_empty_store(self):
        text = render_profile(ProfileStore().snapshot(), MetricsCollector())
        assert "no telemetry" in text

    def test_events_are_json_serializable(self):
        for record in ProfileStore().events(collector({"m": (2, 1)})):
            json.dumps(record)
