"""End-to-end tests for the multi-client query server (`repro.server`).

Covers the acceptance bar of the serving subsystem:

* N concurrent clients running overlapping detector/classifier queries
  over the same video produce results identical to a serial reference
  run, with no lost view entries;
* cross-client reuse: the shared view store yields a strictly higher
  aggregate hit percentage than the same workload on isolated sessions;
* admission control rejects with retry-after when the queue is full;
* graceful shutdown drains queued and running queries;
* per-query timeouts cancel cooperatively.
"""

from __future__ import annotations

import tempfile
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import CostCategory
from repro.config import EvaConfig, ReusePolicy
from repro.errors import (
    EvaError,
    QueryTimeoutError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.models.detectors import SimulatedDetector
from repro.models.zoo import default_zoo
from repro.server import EvaServer, merged_metrics
from repro.server.state import ClientViewHandle
from repro.server.stats import UNKNOWN_OWNER
from repro.session import EvaSession
from repro.types import Accuracy, VideoMetadata
from repro.video.synthetic import SyntheticVideo

NUM_CLIENTS = 8
FRAMES = 160


def make_video(name: str = "stress", frames: int = FRAMES) -> SyntheticVideo:
    return SyntheticVideo(
        VideoMetadata(name=name, num_frames=frames, width=640, height=360,
                      fps=25.0, vehicles_per_frame=5.0), seed=13)


def client_queries(index: int, table: str = "stress") -> list[str]:
    """Overlapping per-client workload: sliding detector windows plus a
    classifier query, so both view shapes see cross-client traffic."""
    lo = 10 * index
    hi = lo + 70
    return [
        f"SELECT id, label FROM {table} CROSS APPLY "
        f"FastRCNNObjectDetector(frame) "
        f"WHERE id >= {lo} AND id < {hi} AND label = 'car';",
        f"SELECT id FROM {table} CROSS APPLY "
        f"FastRCNNObjectDetector(frame) "
        f"WHERE id < {hi - 30} AND label = 'bus';",
        f"SELECT id, label FROM {table} CROSS APPLY "
        f"FastRCNNObjectDetector(frame) "
        f"WHERE id >= {lo} AND id < {lo + 40} AND label = 'car' "
        f"AND CarType(frame, bbox) = 'Nissan';",
    ]


class GatedDetector(SimulatedDetector):
    """A detector that blocks on an event — deterministic slow queries."""

    def __init__(self, gate: threading.Event, started: threading.Event):
        super().__init__(name="gated", per_tuple_cost=0.01,
                         accuracy=Accuracy.LOW, recall=0.9,
                         label_accuracy=0.9, false_positive_rate=0.0,
                         bbox_jitter=0.0)
        self.gate = gate
        self.started = started

    def detect(self, video, frame_id):
        self.started.set()
        self.gate.wait(timeout=30)
        return super().detect(video, frame_id)


def gated_server(**kwargs):
    """A server whose ``Gated`` UDF blocks until the gate opens."""
    gate = threading.Event()
    started = threading.Event()
    zoo = default_zoo()
    zoo.register(GatedDetector(gate, started),
                 logical_type="GatedDetector")
    server = EvaServer(zoo=zoo, **kwargs)
    server.register_video(make_video("gv", frames=30))
    server.state.catalog.register_model_udf("Gated", "gated")
    return server, gate, started


GATED_QUERY = ("SELECT id FROM gv CROSS APPLY Gated(frame) "
               "WHERE id < 20;")


# -- correctness under concurrency ----------------------------------------------


class TestConcurrentCorrectness:
    def test_stress_matches_serial_and_beats_isolated(self):
        """The acceptance-criteria stress test: 8 concurrent clients,
        overlapping queries, zero races, strictly more reuse than 8
        isolated sessions."""
        workloads = [client_queries(i) for i in range(NUM_CLIENTS)]

        # Serial reference: one fresh session, no sharing between runs.
        reference: dict[str, list] = {}
        for queries in workloads:
            for sql in queries:
                if sql not in reference:
                    session = EvaSession(config=EvaConfig())
                    session.register_video(make_video())
                    reference[sql] = sorted(session.execute(sql).rows)

        # Isolated baseline: one private session per client.
        isolated_collectors = []
        for queries in workloads:
            session = EvaSession(config=EvaConfig())
            session.register_video(make_video())
            for sql in queries:
                session.execute(sql)
            isolated_collectors.append(session.metrics)
        isolated_hit = merged_metrics(isolated_collectors).hit_percentage()

        # Concurrent run: all clients' queries in flight together.
        server = EvaServer(max_workers=NUM_CLIENTS, max_queue=64)
        server.register_video(make_video())
        with server.start():
            handles = [server.connect(f"c{i}")
                       for i in range(NUM_CLIENTS)]
            futures = [(sql, handle.submit(sql))
                       for handle, queries in zip(handles, workloads)
                       for sql in queries]
            for sql, future in futures:
                assert sorted(future.result(timeout=120).rows) \
                    == reference[sql], f"diverged on {sql}"
            server_hit = server.hit_percentage()
            snapshot = server.stats()

            # No lost view entries: the detector view covers exactly the
            # union of every client's scanned frame ranges.
            expected = set()
            for i in range(NUM_CLIENTS):
                expected |= set(range(10 * i, min(FRAMES, 10 * i + 70)))
                expected |= set(range(0, 10 * i + 40))
            view = server.state.view_store.base.get(
                "mv::fasterrcnn_resnet50@stress")
            assert view is not None
            assert {key[0] for key in view.keys()} == expected

        assert snapshot.failed == 0
        assert snapshot.completed == NUM_CLIENTS * 3
        assert snapshot.cross_client_hit_count > 0
        assert server_hit > isolated_hit, (
            f"shared store must beat isolation: {server_hit:.1f}% vs "
            f"{isolated_hit:.1f}%")

    def test_policy_none_clients_match_the_solo_run(self):
        """Under ``ReusePolicy.NONE`` nothing is shared between clients,
        so 8 concurrent clients each return the solo run's rows and its
        non-OPTIMIZE virtual clock, and each makes the solo run's model
        calls."""
        def server(workers: int) -> EvaServer:
            server = EvaServer(EvaConfig(reuse_policy=ReusePolicy.NONE),
                               max_workers=workers)
            server.register_video(SyntheticVideo(
                VideoMetadata(name="shared", num_frames=200, width=960,
                              height=540, fps=25.0, vehicles_per_frame=8.3),
                seed=7))
            return server

        def clock_of(handle) -> dict:
            with handle.checkout() as session:
                return {c: s for c, s in session.clock.breakdown().items()
                        if c is not CostCategory.OPTIMIZE}

        sql = ("SELECT id, label FROM shared CROSS APPLY "
               "FastRCNNObjectDetector(frame) WHERE label = 'car';")
        solo = server(1)
        with solo.start():
            handle = solo.connect()
            baseline = handle.execute(sql)
            baseline_clock = clock_of(handle)
            solo_calls = solo.batcher_snapshot()

        shared = server(NUM_CLIENTS)
        results: dict[str, object] = {}
        with shared.start():
            handles = [shared.connect() for _ in range(NUM_CLIENTS)]

            def run(handle) -> None:
                results[handle.client_id] = handle.execute(sql)

            threads = [threading.Thread(target=run, args=(h,))
                       for h in handles]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            calls = shared.batcher_snapshot()
            clocks = {h.client_id: clock_of(h) for h in handles}

        assert len(results) == NUM_CLIENTS
        for client_id, result in results.items():
            assert tuple(result.rows) == tuple(baseline.rows), client_id
        for client_id, clock in clocks.items():
            assert set(clock) == set(baseline_clock), client_id
            for category, seconds in baseline_clock.items():
                assert clock[category] == pytest.approx(
                    seconds, rel=1e-9, abs=1e-12), (client_id, category)
        assert solo_calls.requests > 0
        assert calls.requests == calls.dispatches \
            == NUM_CLIENTS * solo_calls.requests
        assert calls.tuples == NUM_CLIENTS * solo_calls.tuples

    def test_hit_percentage_monotone_across_rounds(self):
        """Re-running the same overlapping workload only adds hits."""
        server = EvaServer(max_workers=4, max_queue=64)
        server.register_video(make_video())
        with server.start():
            handles = [server.connect(f"c{i}") for i in range(4)]
            previous = 0.0
            for _round in range(3):
                futures = [h.submit(sql)
                           for i, h in enumerate(handles)
                           for sql in client_queries(i)]
                for future in futures:
                    future.result(timeout=120)
                current = server.hit_percentage()
                assert current >= previous
                previous = current
            assert previous > 0.0

    def test_results_attributed_across_clients(self):
        server = EvaServer(max_workers=2)
        server.register_video(make_video("attr", frames=40))
        query = ("SELECT id, label FROM attr CROSS APPLY "
                 "FastRCNNObjectDetector(frame) WHERE id < 30;")
        with server.start():
            alice = server.connect("alice")
            bob = server.connect("bob")
            alice.execute(query)
            bob.execute(query)
            snapshot = server.stats()
        assert snapshot.cross_client_hits.get(("bob", "alice"), 0) == 30
        by_client = {c.client_id: c for c in snapshot.clients}
        assert by_client["alice"].keys_materialized == 30
        assert by_client["alice"].hits_donated == 30
        assert by_client["bob"].hits_from_others == 30
        assert by_client["bob"].keys_materialized == 0


class TestServedAttribution:
    """Served probes report one stats call each, with per-owner counts;
    the (prober, owner) matrix and every client counter must equal the
    per-key attribution of the same hits, across a restart (after which
    recovered keys have an unknown owner)."""

    @settings(max_examples=4, deadline=None)
    @given(queries=st.lists(st.tuples(st.sampled_from(["alice", "bob"]),
                                      st.integers(0, 5), st.booleans()),
                            min_size=2, max_size=7),
           restart=st.integers(1, 6))
    def test_batched_attribution_equals_per_key(self, queries, restart):
        video = make_video("served", frames=80)
        hits: Counter = Counter()
        materialized: Counter = Counter()
        get_many, put_many = ClientViewHandle.get_many, \
            ClientViewHandle.put_many

        def per_key_get_many(handle, keys):
            if not isinstance(keys, np.ndarray):
                keys = list(keys)
            result = get_many(handle, keys)
            for i in result.hit_positions()[0].tolist():
                key = (handle._view.key_tuples(keys[i:i + 1])[0]
                       if isinstance(keys, np.ndarray) else keys[i])
                owner = handle._owners.get(key)
                hits[handle._client_id, owner or UNKNOWN_OWNER] += 1
            return result

        def counting_put_many(handle, *args, **kwargs):
            inserted = put_many(handle, *args, **kwargs)
            materialized[handle._client_id] += sum(inserted)
            return inserted

        with tempfile.TemporaryDirectory() as path, \
                pytest.MonkeyPatch.context() as patch:
            patch.setattr(ClientViewHandle, "get_many", per_key_get_many)
            patch.setattr(ClientViewHandle, "put_many", counting_put_many)
            config = EvaConfig(store_mode="durable", store_path=path)
            for part in (queries[:restart], queries[restart:]):
                hits.clear()
                materialized.clear()
                server = EvaServer(config, max_workers=2)
                server.register_video(video)
                with server.start():
                    handles = {client: server.connect(client)
                               for client in ("alice", "bob")}
                    for client, start, classify in part:
                        handles[client].execute(
                            "SELECT id, bbox FROM served CROSS APPLY "
                            f"ObjectDetector(frame) WHERE id >= {10 * start}"
                            f" AND id < {10 * start + 25} AND label = 'car'"
                            + (" AND CarType(frame, bbox) = 'Nissan'"
                               if classify else "") + ";")
                    snapshot = server.stats()
                assert snapshot.cross_client_hits == dict(hits)
                for client in snapshot.clients:
                    me = client.client_id
                    assert client.keys_materialized == materialized[me]
                    assert client.hits_received == sum(
                        n for (prober, _), n in hits.items() if prober == me)
                    assert client.hits_from_others == sum(
                        n for (prober, owner), n in hits.items()
                        if prober == me != owner)
                    assert client.hits_donated == sum(
                        n for (prober, owner), n in hits.items()
                        if owner == me != prober)


# -- admission control -----------------------------------------------------------


class TestBackpressure:
    def test_overflow_rejects_with_retry_after(self):
        server, gate, started = gated_server(max_workers=1, max_queue=1)
        try:
            with server.start():
                a = server.connect("a")
                b = server.connect("b")
                c = server.connect("c")
                running = a.submit(GATED_QUERY)
                assert started.wait(timeout=10)  # worker is busy
                queued = b.submit(GATED_QUERY)
                with pytest.raises(ServerOverloadedError) as excinfo:
                    c.submit(GATED_QUERY)
                assert excinfo.value.retry_after > 0
                snapshot = server.stats()
                assert snapshot.rejected == 1
                assert snapshot.queue_depth == 1
                gate.set()
                assert running.result(timeout=30).rows
                assert queued.result(timeout=30).rows
        finally:
            gate.set()
        assert server.stats().rejected == 1

    def test_capacity_frees_after_completion(self):
        server, gate, started = gated_server(max_workers=1, max_queue=0)
        try:
            with server.start():
                a = server.connect("a")
                first = a.submit(GATED_QUERY)
                assert started.wait(timeout=10)
                with pytest.raises(ServerOverloadedError):
                    a.submit(GATED_QUERY)
                gate.set()
                first.result(timeout=30)
                # Admission capacity is released once the query is done.
                assert a.submit(GATED_QUERY).result(timeout=30).rows
        finally:
            gate.set()


# -- shutdown --------------------------------------------------------------------


class TestShutdown:
    def test_graceful_shutdown_drains_queue(self):
        server, gate, started = gated_server(max_workers=2, max_queue=8)
        server.start()
        handles = [server.connect(f"c{i}") for i in range(4)]
        futures = [h.submit(GATED_QUERY) for h in handles]
        assert started.wait(timeout=10)
        opener = threading.Timer(0.15, gate.set)
        opener.start()
        try:
            server.shutdown(drain=True)  # blocks until everything ran
        finally:
            opener.cancel()
            gate.set()
        for future in futures:
            assert future.done()
            assert future.result().rows  # ran to completion, not dropped
        with pytest.raises(ServerClosedError):
            handles[0].submit(GATED_QUERY)
        with pytest.raises(ServerClosedError):
            server.connect("late")

    def test_non_drain_shutdown_cancels_outstanding_work(self):
        server, gate, started = gated_server(max_workers=1, max_queue=8)
        server.start()
        a = server.connect("a")
        b = server.connect("b")
        running = a.submit(GATED_QUERY)
        assert started.wait(timeout=10)
        queued = b.submit(GATED_QUERY)
        threading.Timer(0.05, gate.set).start()
        server.shutdown(drain=False)
        # The running query was cooperatively cancelled or (if it won the
        # race with the gate) completed; the queued one never ran.
        assert running.done()
        assert queued.done()
        assert queued.cancelled() or isinstance(
            queued.exception(), EvaError)

    def test_bounded_drain_returns_once_the_last_query_finishes(self):
        server, gate, started = gated_server(max_workers=1)
        server.start()
        future = server.connect("a").submit(GATED_QUERY)
        assert started.wait(timeout=10)
        opener = threading.Timer(0.1, gate.set)
        opener.start()
        began = time.monotonic()
        try:
            server.shutdown(drain=True, timeout=30)
        finally:
            opener.cancel()
            gate.set()
        assert time.monotonic() - began < 2.0
        assert future.done()
        assert future.result().rows

    def test_shutdown_without_start_is_clean(self):
        server = EvaServer()
        server.shutdown()
        with pytest.raises(ServerClosedError):
            server.start()


# -- timeouts --------------------------------------------------------------------


class TestTimeouts:
    def test_timeout_cancels_long_query(self):
        server, gate, started = gated_server(max_workers=1)
        try:
            with server.start():
                a = server.connect("a")
                future = a.submit(GATED_QUERY, timeout=0.05)
                assert started.wait(timeout=10)
                time.sleep(0.2)  # let the 0.05s deadline definitely pass
                gate.set()  # query resumes after its deadline passed
                with pytest.raises(QueryTimeoutError):
                    future.result(timeout=30)
                assert server.stats().timed_out == 1
        finally:
            gate.set()

    def test_expired_while_queued_never_runs(self):
        server, gate, started = gated_server(max_workers=1, max_queue=4)
        try:
            with server.start():
                a = server.connect("a")
                b = server.connect("b")
                blocker = a.submit(GATED_QUERY)
                assert started.wait(timeout=10)
                doomed = b.submit(GATED_QUERY, timeout=0.01)
                threading.Timer(0.2, gate.set).start()
                with pytest.raises(QueryTimeoutError):
                    doomed.result(timeout=30)
                assert blocker.result(timeout=30).rows
        finally:
            gate.set()

    def test_no_timeout_by_default(self):
        server = EvaServer(max_workers=1)
        server.register_video(make_video("nt", frames=20))
        with server.start():
            a = server.connect("a")
            result = a.execute(
                "SELECT id FROM nt CROSS APPLY "
                "FastRCNNObjectDetector(frame) WHERE id < 10;")
            assert result.rows


# -- session isolation guards ----------------------------------------------------


class TestSharedSessionGuards:
    def test_server_sessions_refuse_destructive_state_ops(self, tmp_path):
        server = EvaServer(max_workers=1)
        server.register_video(make_video("guard", frames=10))
        with server.start():
            client = server.connect("a")
            with client.checkout() as session:
                with pytest.raises(EvaError, match="shared"):
                    session.reset_reuse_state()
                with pytest.raises(EvaError, match="shared"):
                    session.load_reuse_state(tmp_path)
                with pytest.raises(EvaError, match="shared"):
                    session.save_reuse_state(tmp_path)

    def test_clients_have_private_metrics_and_clock(self):
        server = EvaServer(max_workers=2)
        server.register_video(make_video("priv", frames=30))
        query = ("SELECT id FROM priv CROSS APPLY "
                 "FastRCNNObjectDetector(frame) WHERE id < 20;")
        with server.start():
            a = server.connect("a")
            b = server.connect("b")
            a.execute(query)
            assert a.workload_time() > 0
            assert b.workload_time() == 0
            assert a.last_query_metrics() is not None
            assert b.last_query_metrics() is None

    def test_duplicate_client_id_rejected(self):
        from repro.errors import ServerError

        server = EvaServer()
        server.start()
        try:
            server.connect("dup")
            with pytest.raises(ServerError):
                server.connect("dup")
        finally:
            server.shutdown()
