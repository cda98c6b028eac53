"""Tests for the continuous profiler (repro.obs.profiler)."""

import json
import threading

from repro.config import EvaConfig
from repro.obs.profiler import (
    ModelProfile,
    ProfileStore,
    render_profile,
)
from repro.obs.schema import load_schema, validate_jsonl
from repro.session import EvaSession
from repro.types import VideoMetadata
from repro.video.synthetic import SyntheticVideo

SCHEMA = load_schema("tests/schemas/profile.schema.json")


def make_video(frames=120, name="v"):
    return SyntheticVideo(
        VideoMetadata(name=name, num_frames=frames, width=960, height=540,
                      fps=25.0, vehicles_per_frame=6.0), seed=5)


class TestModelProfile:
    def test_observed_cost_is_virtual_per_executed(self):
        profile = ModelProfile("m", invocations=10, reused=4,
                               virtual_seconds=1.2)
        assert profile.executed == 6
        assert abs(profile.observed_per_tuple_cost - 0.2) < 1e-12
        assert abs(profile.hit_ratio - 0.4) < 1e-12

    def test_fully_reused_model_hides_its_cost(self):
        profile = ModelProfile("m", invocations=5, reused=5)
        assert profile.observed_per_tuple_cost is None


class TestProfileStore:
    def test_rollups_accumulate(self):
        store = ProfileStore()
        store.observe_query()
        store.observe_query()
        store.observe_model("m", 10, 4, 1.2)
        store.observe_model("m", 6, 6, 0.0)
        store.observe_operator("Filter", rows=100, batches=2,
                               self_wall_seconds=0.01,
                               kernel_mode="vectorized")
        store.observe_operator("Filter", rows=50, batches=1,
                               self_wall_seconds=0.02,
                               kernel_mode="fused")
        snapshot = store.snapshot()
        assert snapshot.queries == 2
        model = snapshot.models["m"]
        assert model.invocations == 16
        assert model.reused == 10
        assert model.executed == 6
        op = snapshot.operators["Filter"]
        assert op.calls == 2
        assert op.rows == 150
        assert op.kernel_modes == {"vectorized": 1, "fused": 1}

    def test_snapshot_is_isolated(self):
        store = ProfileStore()
        store.observe_model("m", 1, 0, 0.1)
        snapshot = store.snapshot()
        store.observe_model("m", 9, 0, 0.9)
        assert snapshot.models["m"].invocations == 1

    def test_top_operators_order_deterministic(self):
        store = ProfileStore()
        store.observe_operator("B", self_wall_seconds=0.5)
        store.observe_operator("A", self_wall_seconds=0.5)
        store.observe_operator("C", self_wall_seconds=0.9)
        top = store.top_operators(3)
        assert [p.operator for p in top] == ["C", "A", "B"]

    def test_jsonl_round_trip_and_schema(self, tmp_path):
        store = ProfileStore()
        store.observe_query()
        store.observe_model("m", 10, 4, 1.2)
        store.observe_operator("Scan", rows=10, batches=1,
                               self_virtual_seconds=0.5)
        path = tmp_path / "profile.jsonl"
        count = store.save_jsonl(path)
        assert count == 3
        assert validate_jsonl(path, SCHEMA) == 3
        loaded = ProfileStore.load_jsonl(path)
        assert loaded.events() == store.events()

    def test_merge_folds_rollups(self):
        a = ProfileStore()
        a.observe_query()
        a.observe_model("m", 4, 1, 0.3)
        b = ProfileStore()
        b.observe_query()
        b.observe_model("m", 6, 3, 0.3)
        b.observe_operator("Scan", rows=5)
        a.merge(b)
        snapshot = a.snapshot()
        assert snapshot.queries == 2
        assert snapshot.models["m"].invocations == 10
        assert snapshot.operators["Scan"].rows == 5

    def test_thread_safety_under_concurrent_ingestion(self):
        store = ProfileStore()

        def work():
            for _ in range(200):
                store.observe_model("m", 2, 1, 0.01)
                store.observe_operator("Filter", rows=1)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snapshot = store.snapshot()
        assert snapshot.models["m"].invocations == 1600
        assert snapshot.operators["Filter"].calls == 800


class TestSessionIntegration:
    def test_session_populates_model_rollups(self):
        session = EvaSession(config=EvaConfig())
        session.register_video(make_video())
        session.execute(
            "SELECT id FROM v CROSS APPLY FastRCNNObjectDetector(frame) "
            "WHERE label = 'car' AND id < 60;")
        snapshot = session.profiler.snapshot()
        assert snapshot.queries == 1
        model = snapshot.models["fasterrcnn_resnet50"]
        assert model.executed > 0
        # Observed cost equals the zoo's true cost: the executor charges
        # len(batch) * per_tuple_cost.
        true_cost = session.catalog.zoo.get(
            "fasterrcnn_resnet50").per_tuple_cost
        assert abs(model.observed_per_tuple_cost - true_cost) < 1e-9

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

    def test_server_shares_one_store_across_clients(self):
        from repro.server import EvaServer

        server = EvaServer(max_workers=2)
        server.register_video(make_video(name="v"))
        with server.start():
            first = server.connect()
            second = server.connect()
            first.execute(
                "SELECT id FROM v CROSS APPLY "
                "FastRCNNObjectDetector(frame) "
                "WHERE label = 'car' AND id < 40;")
            second.execute(
                "SELECT id FROM v CROSS APPLY "
                "FastRCNNObjectDetector(frame) "
                "WHERE label = 'car' AND id >= 40 AND id < 80;")
            snapshot = server.profile_snapshot()
            text = server.prometheus_text()
        assert snapshot.queries == 2
        assert snapshot.models["fasterrcnn_resnet50"].invocations >= 80
        assert "eva_profile_queries_total 2" in text


class TestRenderProfile:
    def test_render_contains_tables(self):
        store = ProfileStore()
        store.observe_query()
        store.observe_model("m", 10, 4, 1.2)
        store.observe_operator("Scan", rows=10, batches=1,
                               self_wall_seconds=0.01,
                               kernel_mode="vectorized")
        text = render_profile(store.snapshot(), top=5)
        assert "profile over 1 queries" in text
        assert "Scan" in text
        assert "m" in text
        assert "vectorized:1" in text

    def test_render_empty_store(self):
        text = render_profile(ProfileStore().snapshot())
        assert "no telemetry" in text

    def test_events_are_json_serializable(self):
        store = ProfileStore()
        store.observe_model("m", 3, 1, 0.1)
        for record in store.events():
            json.dumps(record)
