"""Multi-client flight recording, wait-time stats, and SLO attribution.

The contract under concurrency: every completed query yields exactly
one schema-valid flight record whose stage partition sums to its total
latency; lock-class waits and admission waits aggregate into the server
stats snapshot; a saturated admission queue shows up as ``queueing``
dominance on the queries that waited; and the windowed QPS figure no
longer decays toward zero while the server sits idle.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import pytest

from repro.config import EvaConfig
from repro.obs.schema import load_schema, validate
from repro.server import EvaServer
from repro.server.stats import ServerStats, _window_qps
from repro.types import VideoMetadata
from repro.video.synthetic import SyntheticVideo

FLIGHT_SCHEMA = load_schema(
    Path(__file__).parent / "schemas" / "flight.schema.json")

NUM_CLIENTS = 8


def make_video(name: str = "stress", frames: int = 160) -> SyntheticVideo:
    return SyntheticVideo(
        VideoMetadata(name=name, num_frames=frames, width=640, height=360,
                      fps=25.0, vehicles_per_frame=5.0), seed=13)


def client_queries(index: int, table: str = "stress") -> list[str]:
    lo = 10 * index
    hi = lo + 70
    return [
        f"SELECT id, label FROM {table} CROSS APPLY "
        f"FastRCNNObjectDetector(frame) "
        f"WHERE id >= {lo} AND id < {hi} AND label = 'car';",
        f"SELECT id FROM {table} CROSS APPLY "
        f"FastRCNNObjectDetector(frame) "
        f"WHERE id < {hi - 30} AND label = 'bus';",
    ]


class TestEightClientFlightRecords:
    def test_one_valid_record_per_completed_query(self):
        server = EvaServer(
            EvaConfig(slo_latency_p50=5.0, slo_latency_p99=30.0),
            max_workers=4, max_queue=32)
        server.register_video(make_video())
        errors: list[str] = []

        def run_client(handle, index: int) -> None:
            try:
                for sql in client_queries(index):
                    handle.execute(sql)
            except Exception as error:  # pragma: no cover - fail loudly
                errors.append(f"{handle.client_id}: {error}")

        with server.start():
            handles = [server.connect() for _ in range(NUM_CLIENTS)]
            threads = [threading.Thread(target=run_client, args=(h, i))
                       for i, h in enumerate(handles)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            snapshot = server.stats()
            records = server.trace_events(type="flight")
            slo = server.slo_snapshot()
            flight_stats = server.flight_stats()
        assert errors == []
        completed = NUM_CLIENTS * 2
        assert snapshot.completed == completed
        # Exactly one record per completed query ...
        assert len(records) == completed
        per_client: dict[str, list] = {}
        for record in records:
            # ... each schema-valid ...
            validate(record, FLIGHT_SCHEMA)
            # ... whose stage partition sums to its total latency.
            assert sum(record["stages"].values()) == pytest.approx(
                record["total_s"], abs=1e-5)
            assert record["total_s"] == pytest.approx(
                record["queue_wait_s"] + record["wall_s"], abs=1e-6)
            per_client.setdefault(record["client_id"], []).append(record)
        # Flight ids are per-client deterministic counters.
        for client_records in per_client.values():
            ids = [r["flight_id"] for r in client_records]
            assert ids == [f"f{i:06d}" for i in
                           range(1, len(ids) + 1)]
        # The shared SLO tracker and stats saw every record.
        assert slo.observed == completed
        assert flight_stats["records"] == completed
        assert sum(flight_stats["dominant"].values()) == completed
        # Overlapping windows contend on the shared view locks, and
        # every admission wait was measured.
        assert snapshot.admission_wait["count"] == completed
        assert any(name.startswith("view:")
                   for name in snapshot.lock_waits)
        assert "udf-manager" in snapshot.lock_waits
        for waits in snapshot.lock_waits.values():
            assert waits["waits"] > 0
            assert waits["wait"]["count"] == waits["waits"]

    def test_saturated_queue_attributed_to_queueing(self):
        server = EvaServer(
            EvaConfig(slo_latency_p99=0.001), max_workers=1,
            max_queue=16)
        server.register_video(make_video("sat", frames=120))
        sql = ("SELECT id, label FROM sat CROSS APPLY "
               "FastRCNNObjectDetector(frame) "
               "WHERE id < 100 AND label = 'car';")
        with server.start():
            handle = server.connect()
            futures = [server.submit(handle.client_id, sql)
                       for _ in range(6)]
            for future in futures:
                future.result(timeout=60)
            records = server.trace_events(type="flight")
            flight_stats = server.flight_stats()
        assert len(records) == 6
        # The single worker serializes execution: later submissions
        # spend their latency waiting for admission, and the p99 target
        # is tight enough that the tail attribution pass fires.
        queued = [r for r in records if r["dominant_stage"] == "queueing"]
        assert queued, "no query was dominated by admission wait"
        assert all(r["over_slo"] for r in queued)
        assert flight_stats["over_slo_by_stage"]["queueing"] \
            >= len(queued)

    def test_miss_queries_record_inference_seconds(self):
        server = EvaServer(EvaConfig(), max_workers=4, max_queue=32)
        server.register_video(make_video("ride", frames=120))
        sql_for = ("SELECT id, label FROM ride CROSS APPLY "
                   "FastRCNNObjectDetector(frame) "
                   "WHERE id >= {lo} AND id < {hi} AND label = 'car';"
                   .format)
        with server.start():
            handles = [server.connect() for _ in range(4)]
            threads = [
                threading.Thread(
                    target=handles[i].execute,
                    args=(sql_for(lo=5 * i, hi=5 * i + 80),))
                for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            records = server.trace_events(type="flight")
        assert len(records) == 4
        # Model seconds land in the inference stage of exactly the
        # queries that evaluated misses.
        assert any(r["invocations"]["executed"] for r in records)
        for record in records:
            if record["invocations"]["executed"]:
                assert record["stages"]["inference"] > 0.0
            else:
                assert record["stages"]["inference"] == 0.0


class TestWindowedQps:
    def test_window_qps_function(self):
        assert _window_qps(0, None, None) == 0.0
        assert _window_qps(10, 0.0, 2.0) == pytest.approx(5.0)
        # Degenerate window (single instantaneous query) stays finite.
        assert _window_qps(1, 5.0, 5.0) > 0.0

    def test_idle_server_keeps_historical_rate(self):
        stats = ServerStats()
        stats.record_submitted("c-1")
        stats.record_completed("c-1")
        stats.record_submitted("c-1")
        stats.record_completed("c-1")
        first = stats.snapshot().aggregate_qps
        assert first > 0.0
        time.sleep(0.15)  # idle time must not decay the rate
        second = stats.snapshot().aggregate_qps
        assert second == pytest.approx(first)
        client = stats.snapshot().clients[0]
        assert client.qps == pytest.approx(first)

    def test_wait_histograms_in_snapshot(self):
        stats = ServerStats()
        stats.record_admission_wait(0.002)
        stats.record_admission_wait(0.010)
        stats.record_lock_wait("view:v", "read", 0.001)
        stats.record_lock_wait("view:v", "write", 0.004,
                               writers_waiting_high_water=3)
        snap = stats.snapshot()
        assert snap.admission_wait["count"] == 2
        assert snap.admission_wait["max_s"] == pytest.approx(0.010)
        waits = snap.lock_waits["view:v"]
        assert waits["read_s"] == pytest.approx(0.001)
        assert waits["write_s"] == pytest.approx(0.004)
        assert waits["waits"] == 2
        assert waits["writers_waiting_high_water"] == 3
        assert waits["wait"]["count"] == 2
        # The snapshot format line mentions the admission wait.
        assert "admission wait" in snap.format()

    def test_server_prometheus_includes_new_families(self):
        server = EvaServer(
            EvaConfig(slo_latency_p50=0.5, slo_latency_p99=1.0),
            max_workers=2)
        server.register_video(make_video("prom", frames=120))
        sql = ("SELECT id, label FROM prom CROSS APPLY "
               "FastRCNNObjectDetector(frame) "
               "WHERE id < 60 AND label = 'car';")
        with server.start():
            handle = server.connect()
            handle.execute(sql)
            handle.execute(sql)
            text = server.prometheus_text()
        assert "eva_flight_records_total 2" in text
        assert "eva_slo_latency_seconds_count 2" in text
        assert 'eva_slo_target_seconds{objective="p50"} 0.5' in text
        assert 'eva_lock_wait_seconds_total{kind="write",' \
               'lock_class="udf-manager"}' in text
        assert "eva_lock_writers_waiting_high_water" in text
        assert 'eva_server_admission_wait_seconds{stat="p99"}' in text
