"""Differential suite: the worker pool is semantically invisible.

The :class:`~repro.server.pool.PoolServer` moves execution into N
spawned processes over a sharded view store, but the contract is that
*nothing observable about query semantics changes*: rows, materialized
view contents, hit attribution, and per-client virtual clocks must be
identical to the single-process :class:`~repro.server.server.EvaServer`
at every worker count.  This suite pins that, plus the pool-only
behaviours: circuit-breaker trips, bulkhead isolation, and
worker-crash-and-respawn recovery (shard WALs replay; no lost views).

Workloads are submitted *sequentially* (one query completes before the
next starts), so the hit/miss history — and therefore every virtual
clock — is deterministic regardless of how clients are spread over
workers.  ``OPTIMIZE`` is excluded from clock comparisons: workers run
with the plan cache off, and plan-cache hits change only optimizer
time, never plans or results (pinned elsewhere by the plan-cache
suite).
"""

from __future__ import annotations

import functools
import random
import time

import pytest

from repro.clock import CostCategory
from repro.config import EvaConfig
from repro.errors import CircuitOpenError, ServerOverloadedError
from repro.server import EvaServer, PoolServer
from repro.server.pool import _Breaker
from repro.types import VideoMetadata
from repro.video.synthetic import SyntheticVideo

FRAMES = 72
NUM_CLIENTS = 4
TABLE = "pooldiff"


def make_video(name: str = TABLE, frames: int = FRAMES) -> SyntheticVideo:
    return SyntheticVideo(
        VideoMetadata(name=name, num_frames=frames, width=640, height=360,
                      fps=25.0, vehicles_per_frame=5.0), seed=13)


def latency_zoo(per_call: float = 0.0):
    """Picklable zoo factory: default zoo whose every ``predict_batch``
    takes ``per_call`` extra wall seconds — a slow model.  Spawned
    workers build their own zoo by calling the factory, so the wrappers
    below are never pickled; they go onto a clone because ``PoolServer``
    also calls the factory in the parent, whose ``default_zoo()`` models
    are singletons every later test shares."""
    from repro.models.zoo import default_zoo

    def slowed(predict_batch):
        def slow_predict_batch(video, inputs):
            time.sleep(per_call)
            return predict_batch(video, inputs)
        return slow_predict_batch

    zoo = default_zoo().clone()
    for name in zoo.names():
        model = zoo.get(name)
        model.predict_batch = slowed(model.predict_batch)
    return zoo


def client_queries(index: int, table: str = TABLE) -> list[str]:
    """Overlapping sliding windows + a classifier query per client."""
    lo = 6 * index
    hi = lo + 30
    return [
        f"SELECT id, label FROM {table} CROSS APPLY "
        f"FastRCNNObjectDetector(frame) "
        f"WHERE id >= {lo} AND id < {hi} AND label = 'car';",
        f"SELECT id FROM {table} CROSS APPLY "
        f"FastRCNNObjectDetector(frame) "
        f"WHERE id < {hi - 12} AND label = 'bus';",
        f"SELECT id, label FROM {table} CROSS APPLY "
        f"FastRCNNObjectDetector(frame) "
        f"WHERE id >= {lo} AND id < {lo + 18} AND label = 'car' "
        f"AND CarType(frame, bbox) = 'Nissan';",
    ]


def randomized_queries(seed: int, count: int,
                       table: str = TABLE) -> list[str]:
    """Deterministic pseudo-random detector windows (PYTHONHASHSEED-
    independent: ``random.Random`` seeding does not use ``hash``)."""
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        lo = rng.randrange(0, FRAMES - 10)
        hi = lo + rng.randrange(5, 35)
        label = rng.choice(["car", "bus", "truck"])
        queries.append(
            f"SELECT id, label FROM {table} CROSS APPLY "
            f"FastRCNNObjectDetector(frame) "
            f"WHERE id >= {lo} AND id < {hi} AND label = '{label}';")
    return queries


def workload() -> list[list[str]]:
    """Per-client query lists: VBENCH-style windows plus fuzz."""
    return [client_queries(i) + randomized_queries(101 + i, 2)
            for i in range(NUM_CLIENTS)]


def durable_config(tmp_path, tag: str, workers: int, shards: int,
                   **overrides) -> EvaConfig:
    return EvaConfig(workers=workers, shards=shards,
                     store_mode="durable",
                     store_path=str(tmp_path / f"store-{tag}"),
                     **overrides)


def strip_optimize(breakdown: dict) -> dict:
    return {str(category): round(seconds, 9)
            for category, seconds in breakdown.items()
            if category != CostCategory.OPTIMIZE and seconds > 0}


def dump_single_process_views(server: EvaServer) -> dict:
    """``{name: (key_cols, out_cols, sorted items)}`` — the same shape
    :meth:`PoolServer.dump_views` returns, for content equality."""
    base = server.state.view_store.base
    dump = {}
    for name in base.names():
        view = base.get(name)
        dump[name] = (list(view.key_columns), list(view.output_columns),
                      sorted(view.items()))
    return dump


def hit_attribution(stats_snapshot) -> dict:
    """Per-client attribution counters from a stats snapshot."""
    return {
        c.client_id: (c.completed, c.keys_materialized, c.hits_received,
                      c.hits_from_others, c.hits_donated)
        for c in stats_snapshot.clients
    }


def run_sequential(connect, queries_by_client, clock_of) -> dict:
    """Run every client's queries in a fixed global round-robin order,
    one query at a time; collect everything the differential compares."""
    handles = [connect(f"client-{i}") for i in range(len(queries_by_client))]
    rows: dict = {}
    max_queries = max(len(qs) for qs in queries_by_client)
    for query_index in range(max_queries):
        for client_index, queries in enumerate(queries_by_client):
            if query_index >= len(queries):
                continue
            result = handles[client_index].execute(
                queries[query_index])
            rows[(client_index, query_index)] = \
                (tuple(result.columns), tuple(result.rows))
    clocks = {handle.client_id: strip_optimize(clock_of(handle))
              for handle in handles}
    hit_rates = {handle.client_id: round(handle.hit_percentage(), 6)
                 for handle in handles}
    for handle in handles:
        handle.close()
    return {"rows": rows, "clocks": clocks, "hit_rates": hit_rates}


def run_single_process(tmp_path, queries_by_client) -> dict:
    config = durable_config(tmp_path, "single", workers=1, shards=4)
    server = EvaServer(config, max_workers=4)
    server.register_video(make_video())
    with server:
        def clock_of(handle):
            with handle.checkout() as session:
                return dict(session.clock.breakdown())

        outcome = run_sequential(server.connect, queries_by_client,
                                 clock_of)
        outcome["views"] = dump_single_process_views(server)
        outcome["attribution"] = hit_attribution(server.stats())
        outcome["aggregate_clock"] = strip_optimize(
            server.aggregate_clock().breakdown())
        outcome["hit_percentage"] = round(server.hit_percentage(), 6)
    return outcome


def run_pool(tmp_path, workers: int, shards: int,
             queries_by_client) -> dict:
    config = durable_config(tmp_path, f"pool{workers}", workers=workers,
                            shards=shards)
    pool = PoolServer(config, worker_threads=2)
    with pool:
        pool.register_video(make_video())
        outcome = run_sequential(
            pool.connect, queries_by_client,
            lambda handle: handle.clock_breakdown())
        outcome["views"] = pool.dump_views()
        outcome["attribution"] = hit_attribution(pool.stats())
        outcome["aggregate_clock"] = strip_optimize(
            pool.aggregate_clock().breakdown())
        outcome["hit_percentage"] = round(pool.hit_percentage(), 6)
        outcome["batcher"] = pool.batcher_snapshot()
    return outcome


def assert_equivalent(baseline: dict, pooled: dict, label: str) -> None:
    assert pooled["rows"] == baseline["rows"], \
        f"{label}: result rows diverged"
    assert sorted(pooled["views"]) == sorted(baseline["views"]), \
        f"{label}: view name sets diverged"
    for name, content in baseline["views"].items():
        assert pooled["views"][name] == content, \
            f"{label}: contents of {name} diverged"
    assert pooled["hit_rates"] == baseline["hit_rates"], \
        f"{label}: per-client hit rates diverged"
    assert pooled["hit_percentage"] == baseline["hit_percentage"], \
        f"{label}: aggregate hit percentage diverged"
    assert pooled["attribution"] == baseline["attribution"], \
        f"{label}: hit attribution diverged"
    assert set(pooled["clocks"]) == set(baseline["clocks"])
    for client_id, breakdown in baseline["clocks"].items():
        other = pooled["clocks"][client_id]
        assert set(other) == set(breakdown), \
            f"{label}: clock categories diverged for {client_id}"
        for category, seconds in breakdown.items():
            assert other[category] == pytest.approx(seconds, abs=1e-9), \
                f"{label}: {client_id} {category} virtual clock diverged"
    for category, seconds in baseline["aggregate_clock"].items():
        assert pooled["aggregate_clock"][category] == \
            pytest.approx(seconds, abs=1e-9), \
            f"{label}: aggregate {category} diverged"


# -- the core differential -----------------------------------------------------


def test_pool_matches_single_process_at_every_worker_count(tmp_path):
    queries = workload()
    baseline = run_single_process(tmp_path, queries)
    assert baseline["rows"], "baseline produced no results"
    assert any(rate > 0 for rate in baseline["hit_rates"].values()), \
        "workload should exercise view reuse"
    for workers, shards in [(1, 4), (2, 4), (4, 8)]:
        pooled = run_pool(tmp_path, workers, shards, queries)
        assert_equivalent(baseline, pooled,
                          f"workers={workers}/shards={shards}")
        snapshot = pooled["batcher"]
        assert snapshot.requests > 0


# -- breaker + bulkheads -------------------------------------------------------


def test_breaker_state_machine():
    breaker = _Breaker("default", threshold=2, cooldown=0.05)
    breaker.check()
    breaker.record_overload()
    breaker.check()  # one failure: still closed
    breaker.record_overload()
    assert breaker.is_open
    with pytest.raises(CircuitOpenError) as excinfo:
        breaker.check()
    assert excinfo.value.retry_after > 0
    time.sleep(0.06)
    breaker.check()  # half-open: the probe slot
    with pytest.raises(CircuitOpenError):
        breaker.check()  # concurrent second probe is shed
    breaker.record_overload()  # probe failed -> reopen
    with pytest.raises(CircuitOpenError):
        breaker.check()
    time.sleep(0.06)
    breaker.check()
    breaker.record_success()  # probe succeeded -> closed
    breaker.check()
    assert not breaker.is_open
    assert breaker.trips == 2


def test_breaker_disabled_at_zero_threshold():
    breaker = _Breaker("default", threshold=0, cooldown=0.05)
    for _ in range(10):
        breaker.record_overload()
        breaker.check()
    assert not breaker.is_open
    assert breaker.trips == 0


def test_breaker_trips_on_worker_overload(tmp_path):
    """Consecutive worker admission rejections open the circuit; the
    front door then fails fast without a worker round-trip."""
    config = durable_config(tmp_path, "breaker", workers=1, shards=1,
                            worker_queue_depth=0, breaker_threshold=2,
                            breaker_cooldown_s=30.0)
    pool = PoolServer(config,
                      zoo_factory=functools.partial(latency_zoo, 1.0),
                      worker_threads=1, bulkhead_capacity=16)
    with pool:
        pool.register_video(make_video("breakervid", frames=8))
        query = ("SELECT id FROM breakervid CROSS APPLY "
                 "FastRCNNObjectDetector(frame) WHERE id < 8;")
        slow = pool.connect("slow")
        fast = pool.connect("fast")
        in_flight = slow.submit(query)
        time.sleep(0.2)  # let the slow query occupy the only thread
        overloads = 0
        for _ in range(2):
            with pytest.raises(ServerOverloadedError) as excinfo:
                fast.submit(query).result()
            assert not isinstance(excinfo.value, CircuitOpenError)
            assert excinfo.value.retry_after > 0
            overloads += 1
        # Streak reached breaker_threshold: the circuit is now open and
        # admission fails synchronously, before any worker dispatch.
        with pytest.raises(CircuitOpenError) as excinfo:
            fast.submit(query)
        assert excinfo.value.retry_after > 0
        assert pool.breaker().is_open
        assert pool.breaker().trips == 1
        # The slow query itself still completes; its success closes the
        # circuit again (any accepted query resets the streak).
        assert len(in_flight.result(timeout=60)) >= 0
        assert not pool.breaker().is_open
        assert len(fast.submit(query).result(timeout=60)) >= 0


def test_bulkheads_isolate_client_classes(tmp_path):
    """A saturated class exhausts its own bulkhead; other classes keep
    flowing through theirs."""
    config = durable_config(tmp_path, "bulkhead", workers=1, shards=1,
                            worker_queue_depth=8, breaker_threshold=0)
    pool = PoolServer(config,
                      zoo_factory=functools.partial(latency_zoo, 1.0),
                      worker_threads=2, bulkhead_capacity=1)
    with pool:
        pool.register_video(make_video("bulkvid", frames=8))
        query = ("SELECT id FROM bulkvid CROSS APPLY "
                 "FastRCNNObjectDetector(frame) WHERE id < 8;")
        batch_a = pool.connect("batch-a", client_class="batch")
        batch_b = pool.connect("batch-b", client_class="batch")
        interactive = pool.connect("live", client_class="interactive")
        in_flight = batch_a.submit(query)
        time.sleep(0.1)
        # The batch bulkhead (capacity 1) is occupied: a second batch
        # query is rejected at the front door...
        with pytest.raises(ServerOverloadedError):
            batch_b.submit(query)
        # ...while the interactive class has its own permit pool.
        assert len(interactive.submit(query).result(timeout=60)) >= 0
        assert len(in_flight.result(timeout=60)) >= 0
        rejected = {c.client_id: c.rejected
                    for c in pool.stats().clients}
        assert rejected.get("batch-b", 0) >= 1
        assert rejected.get("live", 0) == 0


# -- crash + respawn -----------------------------------------------------------


def crash_workload() -> list[str]:
    return [
        "SELECT id, label FROM crashvid CROSS APPLY "
        "FastRCNNObjectDetector(frame) "
        "WHERE id < 20 AND label = 'car';",
        "SELECT id, label FROM crashvid CROSS APPLY "
        "FastRCNNObjectDetector(frame) "
        "WHERE id >= 8 AND id < 24 AND label = 'bus';",
    ]


def test_worker_crash_respawns_and_loses_no_views(tmp_path):
    """SIGKILL one worker mid-workload: its shard partitions replay
    from their WALs, clients reconnect to the replacement, repeated
    queries are pure hits, and the final state matches an uninterrupted
    run."""
    queries = crash_workload()

    def run(tag: str, kill: bool) -> tuple[dict, dict]:
        config = durable_config(tmp_path, tag, workers=2, shards=4,
                                store_fsync_every=1)
        pool = PoolServer(config, worker_threads=2)
        rows: dict = {}
        with pool:
            pool.register_video(make_video("crashvid", frames=32))
            handles = [pool.connect(f"c{i}") for i in range(2)]
            for qi, query in enumerate(queries):
                for ci, handle in enumerate(handles):
                    rows[("phase1", ci, qi)] = tuple(
                        handle.execute(query).rows)
            views_before = pool.dump_views()
            if kill:
                pool.kill_worker(0, wait=True)
                assert pool.respawns.get(0) == 1
                # Every durable view survived the crash: the respawned
                # worker replayed its shard WALs before serving.
                views_after = pool.dump_views()
                assert views_after == views_before
            # Repeat the workload: served entirely from recovered views
            # with identical rows.
            for qi, query in enumerate(queries):
                for ci, handle in enumerate(handles):
                    rows[("phase2", ci, qi)] = tuple(
                        handle.execute(query).rows)
            final_views = pool.dump_views()
        return rows, final_views

    interrupted_rows, interrupted_views = run("crash", kill=True)
    uninterrupted_rows, uninterrupted_views = run("nocrash", kill=False)
    assert interrupted_rows == uninterrupted_rows
    assert interrupted_views == uninterrupted_views
    for key in list(interrupted_rows):
        phase, ci, qi = key
        if phase == "phase2":
            assert interrupted_rows[key] == \
                interrupted_rows[("phase1", ci, qi)]
