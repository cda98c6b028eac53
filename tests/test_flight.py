"""Flight recorder, latency SLOs, and tail-latency attribution.

Unit tests for :mod:`repro.obs.slo` (streaming histograms, burn
accounting, the stage taxonomy) and :mod:`repro.obs.flight` (the
per-query wide record), plus session-level integration: every SELECT
yields one schema-valid record whose stage partition sums to its total
latency, slow-query entries link their flight id, and injected
bottlenecks (an artificially slow fsync, a staged admission wait) are
attributed to the right stage.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.config import EvaConfig
from repro.obs.flight import (
    FlightRecorder,
    FlightStats,
    current_flight,
    record_lock_wait,
    record_store_io,
)
from repro.obs.schema import SchemaError, load_schema, validate
from repro.obs.sinks import InMemorySink
from repro.obs.slo import (
    DEFAULT_BUCKETS,
    STAGES,
    LatencyHistogram,
    SloTracker,
    attribute,
)
from repro.server.locks import RWLock

SCHEMA_DIR = Path(__file__).parent / "schemas"
FLIGHT_SCHEMA = load_schema(SCHEMA_DIR / "flight.schema.json")
TRACE_SCHEMA = load_schema(SCHEMA_DIR / "trace.schema.json")

DETECT = ("SELECT id, label FROM tiny CROSS APPLY "
          "FastRCNNObjectDetector(frame) "
          "WHERE id < 80 AND label = 'car';")


class TestLatencyHistogram:
    def test_quantiles_interpolate_within_bucket(self):
        hist = LatencyHistogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap.count == 4
        assert snap.min_seconds == 0.5
        assert snap.max_seconds == 3.0
        # p50 rank=2 lands in the (1, 2] bucket.
        assert 1.0 <= snap.p50 <= 2.0
        # p99 rank=3.96 lands in the (2, 4] bucket but is capped at max.
        assert snap.p99 == 3.0

    def test_overflow_bucket_reports_max_observed(self):
        hist = LatencyHistogram(buckets=(0.001,))
        hist.observe(7.5)
        assert hist.snapshot().p99 == 7.5

    def test_empty_histogram_is_zero(self):
        snap = LatencyHistogram().snapshot()
        assert (snap.p50, snap.p95, snap.p99, snap.count) == (0, 0, 0, 0)

    def test_negative_samples_clamp_to_zero(self):
        hist = LatencyHistogram()
        hist.observe(-1.0)
        assert hist.snapshot().min_seconds == 0.0

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram(buckets=())
        with pytest.raises(ValueError):
            LatencyHistogram(buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            LatencyHistogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            LatencyHistogram(buckets=(0.0, 1.0))


class TestSloTracker:
    def test_burn_rates_scale_by_budget(self):
        slo = SloTracker(p50_target=0.1, p99_target=1.0)
        # 2/4 over p50 (budget 0.50 -> burn 1.0); 1/4 over p99
        # (budget 0.01 -> burn 25.0).
        for latency in (0.05, 0.2, 0.5, 2.0):
            slo.observe(latency)
        snap = slo.snapshot()
        assert snap.observed == 4
        assert snap.over_p50 == 3
        assert snap.over_p99 == 1
        assert snap.burn_rate_p50 == pytest.approx((3 / 4) / 0.50)
        assert snap.burn_rate_p99 == pytest.approx((1 / 4) / 0.01)

    def test_violation_keys_on_p99_only(self):
        slo = SloTracker(p50_target=0.01, p99_target=1.0)
        assert slo.observe(0.5) is False      # over p50, under p99
        assert slo.observe(1.5) is True

    def test_disabled_tracker_never_violates(self):
        slo = SloTracker()
        assert slo.observe(1e9) is False
        snap = slo.snapshot()
        assert not snap.enabled
        assert snap.burn_rate_p99 == 0.0
        assert snap.latency.count == 1

    def test_target_validation(self):
        with pytest.raises(ValueError):
            SloTracker(p99_target=0.0)
        with pytest.raises(ValueError):
            SloTracker(p50_target=2.0, p99_target=1.0)

    def test_from_config(self):
        slo = SloTracker.from_config(
            EvaConfig(slo_latency_p50=0.2, slo_latency_p99=0.9))
        assert slo.p50_target == 0.2
        assert slo.p99_target == 0.9


class TestAttribute:
    def test_argmax_over_taxonomy(self):
        assert attribute({"queueing": 0.1, "inference": 0.5,
                          "compute": 0.2}) == "inference"

    def test_ties_break_in_taxonomy_order(self):
        assert attribute({"contention": 0.5, "store-io": 0.5}) \
            == "contention"

    def test_empty_defaults_to_compute(self):
        assert attribute({}) == "compute"
        assert attribute({s: 0.0 for s in STAGES}) == "compute"


class TestConfigValidation:
    def test_targets_must_be_positive(self):
        with pytest.raises(ValueError):
            EvaConfig(slo_latency_p50=0.0)
        with pytest.raises(ValueError):
            EvaConfig(slo_latency_p99=-1.0)

    def test_p50_must_not_exceed_p99(self):
        with pytest.raises(ValueError):
            EvaConfig(slo_latency_p50=2.0, slo_latency_p99=1.0)
        EvaConfig(slo_latency_p50=1.0, slo_latency_p99=1.0)  # equal ok


class TestRWLockContention:
    def test_no_timing_without_listener(self):
        lock = RWLock()
        with lock.read_locked():
            pass
        with lock.write_locked():
            pass
        assert lock.read_wait_seconds == 0.0
        assert lock.write_wait_seconds == 0.0

    def test_listener_receives_waits(self):
        lock = RWLock()
        events = []
        lock.set_listener(lambda kind, waited: events.append(
            (kind, waited)))
        with lock.read_locked():
            pass
        with lock.write_locked():
            pass
        kinds = [kind for kind, _ in events]
        assert kinds == ["read", "write"]
        assert all(waited >= 0.0 for _, waited in events)
        assert lock.read_wait_seconds >= 0.0
        assert lock.write_wait_seconds >= 0.0

    def test_writers_waiting_high_water(self):
        import threading

        lock = RWLock()
        assert lock.writers_waiting_high_water == 0
        started = threading.Event()
        release = threading.Event()

        def hold_read():
            with lock.read_locked():
                started.set()
                release.wait(5.0)

        holder = threading.Thread(target=hold_read)
        holder.start()
        started.wait(5.0)
        def write_once():
            lock.acquire_write()
            lock.release_write()

        writers = [threading.Thread(target=write_once) for _ in range(2)]
        for writer in writers:
            writer.start()
        deadline = time.monotonic() + 5.0
        while lock.writers_waiting_high_water < 2 \
                and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        holder.join(5.0)
        for writer in writers:
            writer.join(5.0)
        assert lock.writers_waiting_high_water >= 2


class TestFlightContextHooks:
    def test_hooks_are_noops_without_context(self):
        assert current_flight() is None
        record_lock_wait("view:x", "read", 1.0)   # must not raise
        record_store_io("fsync", 1.0)

    def test_context_accumulates(self):
        tracer_stub = type("T", (), {"client_id": None,
                                     "emit_event": lambda self, e: None})()
        recorder = FlightRecorder(tracer_stub)
        ctx = recorder.begin(queue_wait_s=0.25)
        assert current_flight() is ctx
        record_lock_wait("view:x", "read", 0.5)
        record_lock_wait("view:x", "write", 0.25)
        ctx.add_inference(1.5)
        record_store_io("fsync", 0.75)
        assert ctx.contention_s == pytest.approx(0.75)
        assert ctx.store_io_s == pytest.approx(0.75)
        record = recorder.finish(
            ctx, query="SELECT 1;", trace_id="t000001",
            wall_seconds=4.0, virtual_seconds=2.0, virtual_breakdown={},
            rows_returned=1, cache_hit=False, reused=False,
            invocations={"total": 0, "reused": 0, "executed": 0},
            reuse={"decisions": 0, "reused_decisions": 0, "eq_costs": {}})
        assert current_flight() is None
        assert record["flight_id"] == "f000001"
        stages = record["stages"]
        assert stages["queueing"] == pytest.approx(0.25)
        assert stages["contention"] == pytest.approx(0.75)
        assert stages["inference"] == pytest.approx(1.5)
        assert stages["store-io"] == pytest.approx(0.75)
        # compute = wall - contention - inference - store_io.
        assert stages["compute"] == pytest.approx(1.0)
        assert record["total_s"] == pytest.approx(4.25)
        assert sum(stages.values()) == pytest.approx(record["total_s"])
        assert record["dominant_stage"] == "inference"
        validate(record, FLIGHT_SCHEMA)

    def test_abort_clears_context(self):
        tracer_stub = type("T", (), {"client_id": None,
                                     "emit_event": lambda self, e: None})()
        recorder = FlightRecorder(tracer_stub)
        recorder.begin()
        recorder.abort()
        assert current_flight() is None

    def test_queue_wait_deposit_is_one_shot(self):
        tracer_stub = type("T", (), {"client_id": None,
                                     "emit_event": lambda self, e: None})()
        recorder = FlightRecorder(tracer_stub)
        recorder.deposit_queue_wait(0.5)
        assert recorder.take_queue_wait() == 0.5
        assert recorder.take_queue_wait() == 0.0


class TestFlightStats:
    def test_rollup(self):
        stats = FlightStats()
        stats.observe({"stages": {"queueing": 1.0, "compute": 2.0},
                       "dominant_stage": "compute", "over_slo": True})
        stats.observe({"stages": {"inference": 3.0},
                       "dominant_stage": "inference", "over_slo": False})
        snap = stats.snapshot()
        assert snap["records"] == 2
        assert snap["over_slo"] == 1
        assert snap["stage_seconds"]["compute"] == pytest.approx(2.0)
        assert snap["dominant"] == {"queueing": 0, "contention": 0,
                                    "inference": 1, "store-io": 0,
                                    "compute": 1}
        assert snap["over_slo_by_stage"]["compute"] == 1


class TestSessionFlight:
    def make_recorded_session(self, make_session, **config_kwargs):
        session = make_session(config=EvaConfig(**config_kwargs))
        memory = InMemorySink()
        session.tracer.sink = memory
        return session, memory

    def test_every_select_emits_one_valid_record(self, make_session):
        session, memory = self.make_recorded_session(make_session)
        session.execute(DETECT)
        session.execute(DETECT)
        records = memory.events("flight")
        assert len(records) == 2
        for record in records:
            validate(record, FLIGHT_SCHEMA)
            validate(record, TRACE_SCHEMA)
            stages = record["stages"]
            assert sum(stages.values()) == pytest.approx(
                record["total_s"], abs=1e-5)
            assert record["trace_id"].startswith("t")
        assert [r["flight_id"] for r in records] == ["f000001", "f000002"]
        # The repeat is a plan-cache hit with full view reuse.
        assert records[1]["invocations"]["reused"] \
            == records[1]["invocations"]["total"] > 0
        assert records[1]["reuse"]["reused_decisions"] >= 1
        assert records[1]["reuse"]["eq_costs"]

    def test_disabled_tracer_emits_nothing(self, make_session):
        session, memory = self.make_recorded_session(make_session)
        session.tracer.enabled = False
        session.execute(DETECT)
        assert memory.events("flight") == []
        assert session.flight.emitted == 0

    def test_failed_query_leaves_no_record_or_context(self, make_session):
        from repro.errors import EvaError

        session, memory = self.make_recorded_session(make_session)
        with pytest.raises(EvaError):
            session.execute("SELECT nope FROM missing_table;")
        assert memory.events("flight") == []
        assert current_flight() is None

    def test_staged_queue_wait_lands_in_queueing(self, make_session):
        session, memory = self.make_recorded_session(
            make_session, slo_latency_p99=0.001)
        session.flight.deposit_queue_wait(30.0)
        session.execute(DETECT)
        record = memory.events("flight")[0]
        assert record["queue_wait_s"] == pytest.approx(30.0)
        assert record["dominant_stage"] == "queueing"
        assert record["over_slo"] is True
        stats = session.flight.stats.snapshot()
        assert stats["over_slo_by_stage"]["queueing"] == 1
        # The wait must not leak onto the next query.
        session.execute(DETECT)
        assert memory.events("flight")[1]["queue_wait_s"] == 0.0

    def test_slow_fsync_attributed_to_store_io(self, make_session,
                                               tmp_path, monkeypatch):
        import repro.store.wal as wal_module

        real_fsync = wal_module.os.fsync

        def slow_fsync(fd):
            real_fsync(fd)
            time.sleep(0.05)

        monkeypatch.setattr(wal_module.os, "fsync", slow_fsync)
        session, memory = self.make_recorded_session(
            make_session, store_mode="durable",
            store_path=str(tmp_path / "store"), store_fsync_every=1,
            slo_latency_p99=0.001)
        try:
            session.execute(DETECT)
        finally:
            session.close()
        record = memory.events("flight")[0]
        assert record["store_io"]["fsync"] > 0.0
        assert record["dominant_stage"] == "store-io"
        assert record["over_slo"] is True
        stats = session.flight.stats.snapshot()
        assert stats["over_slo_by_stage"]["store-io"] == 1

    def test_slow_log_links_flight_record(self, make_session):
        session, memory = self.make_recorded_session(
            make_session, slow_query_threshold=0.0)
        session.execute(DETECT)
        entries = session.slow_log.entries()
        assert len(entries) == 1
        record = memory.events("flight")[0]
        assert entries[0].flight_id == record["flight_id"]
        assert entries[0].dominant_stage == record["dominant_stage"]
        event = memory.events("slow_query")[0]
        assert event["flight_id"] == record["flight_id"]
        assert event["dominant_stage"] == record["dominant_stage"]
        validate(event, TRACE_SCHEMA)


class TestPrometheusExposition:
    def test_flight_slo_and_lock_families_render(self, make_session):
        from repro.obs.prometheus import prometheus_text

        session = make_session(
            config=EvaConfig(slo_latency_p50=0.5, slo_latency_p99=1.0))
        memory = InMemorySink()
        session.tracer.sink = memory
        session.execute(DETECT)
        text = prometheus_text(flight=session.flight.stats.snapshot(),
                               slo=session.flight.slo.snapshot())
        assert "eva_flight_records_total 1" in text
        assert 'eva_flight_stage_seconds_total{stage="compute"}' in text
        assert 'eva_slo_target_seconds{objective="p99"} 1' in text
        assert "eva_slo_latency_seconds_bucket" in text
        assert 'eva_slo_burn_rate{objective="p50"}' in text
        # Bucket counts must be cumulative and end at the total count.
        last = [line for line in text.splitlines()
                if line.startswith("eva_slo_latency_seconds_bucket")][-1]
        assert last.endswith(" 1") and 'le="+Inf"' in last


def test_schema_files_reject_corrupt_records(tmp_path):
    record = {"type": "flight", "flight_id": "f000001",
              "trace_id": "t000001", "query": "SELECT 1;",
              "status": "ok", "queue_wait_s": 0.0, "wall_s": 0.0,
              "total_s": 0.0, "stages": {s: 0.0 for s in STAGES},
              "dominant_stage": "warp-drive", "over_slo": False}
    with pytest.raises(SchemaError):
        validate(record, TRACE_SCHEMA)


def test_default_buckets_are_valid():
    LatencyHistogram(DEFAULT_BUCKETS)  # must not raise
