#!/usr/bin/env python
"""Microbenchmark: execution-mode, parallel, and micro-batching hot paths.

Every scenario compares a *pair* of configurations that must produce
identical rows and identical virtual cost, and reports the real-seconds
speedup of the second over the first:

* ``filter_only``   (``row`` vs ``vectorized``) — scan + compiled-kernel
  predicates, no UDFs: pure expression-kernel speedup.
* ``apply_hit_heavy`` (``row`` vs ``vectorized``) — EVA policy with warm
  materialized views: the filter + APPLY hot path of exploratory
  analytics, dominated by bulk view probes (``get_many``).
* ``apply_miss_heavy`` (``row`` vs ``vectorized``) — no-reuse policy,
  cold models: dominated by model evaluation (``predict_batch``);
  vectorized execution must not fall below row mode here either.
* ``parallel_filter`` (``serial`` vs ``parallel``) — the same
  filter + APPLY path under morsel-driven parallelism
  (``EvaConfig.parallelism``) with simulated per-call model serving
  latency: workers overlap the inference round-trips that dominate the
  paper's Eq. 3 cost (see ``docs/execution.md``).
* ``cold_start_hit_heavy`` (``warm`` vs ``restarted``) — the same
  hit-heavy pass served by the session that materialized the views vs a
  fresh session that recovered them from a durable store
  (``store_mode="durable"``, see ``docs/storage.md``); the restart must
  answer at the pre-restart hit rate.
* ``batched_miss_heavy`` (``unbatched`` vs ``batched``) — eight
  concurrent server clients running the same miss-heavy detector query;
  the ``batched`` run gives the shared ``InferenceBatcher`` a coalescing
  window and must measure a mean batch size above one request while
  leaving every client's rows and virtual totals untouched.
* ``stress_concurrent`` (``serial`` vs ``concurrent``) — the flight
  recorder's stress workload: 64 clients (16 under ``--quick``) firing
  the same hit-heavy query at a warmed server.  The serial pass runs
  the identical per-client workload one query at a time, so rows and
  virtual cost must match exactly; the concurrent pass measures each
  client's end-to-end latency (admission wait included) and reports
  p50/p99 against the server's ``slo_latency_*`` targets (``slo_ok``),
  plus one schema-tracked flight record per completed query
  (``flight_ok``).
* ``pool_stress`` (``single_process`` vs ``worker_pool``) — 64 clients
  (16 under ``--quick``), each with its own small video, firing a
  miss-then-hit detector workload under simulated serving latency.  The
  baseline is one ``EvaServer`` process with 4 worker threads; the
  candidate is a 4-process ``PoolServer`` (4 threads each) over an
  8-shard durable view store.  On a sleep-bound workload the pool
  multiplies serving concurrency, so it must win >=2x real seconds
  while returning bit-identical rows, view contents, per-client hit
  rates, and per-client virtual clocks.  A coalescing sub-run points 8
  clients at one shared video and must show cross-process misses
  merging in the owner's dispatcher (``remote_requests > 0`` and a
  mean coalesced batch above one request).
* ``reuse_efficiency`` (``unledgered`` vs ``ledgered``) — the hit-heavy
  workload with the view-provenance ledger off vs on
  (``EvaConfig.view_ledger``): the ledger is pure observability, so
  rows/virtual must match and the wall overhead must stay inside the
  regression tolerance, while the ledgered half reports the pool's
  aggregate Eq. 3 net benefit, which must be positive
  (``net_benefit_positive``; see ``docs/observability.md``).

Usage::

    PYTHONPATH=src python benchmarks/bench_exec.py            # full size
    PYTHONPATH=src python benchmarks/bench_exec.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_exec.py -o out.json

Writes ``BENCH_vectorized.json`` (repo root by default).  Rows and
virtual totals must match within each pair (the differential suites
prove the general claims; the benchmark re-checks them on its own
workloads) and the batched scenario must genuinely coalesce; any
violation exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

from repro.clock import CostCategory
from repro.config import EvaConfig, ReusePolicy
from repro.models.zoo import default_zoo
from repro.session import EvaSession
from repro.types import VideoMetadata
from repro.video.synthetic import SyntheticVideo

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Concurrent clients in the server micro-batching scenario.
NUM_CLIENTS = 8
#: Simulated per-``predict_batch`` serving round-trip (real seconds;
#: virtual charges are never affected) for the latency-bound scenarios.
SERVICE_LATENCY_PER_CALL = 0.01


def make_video(frames: int) -> SyntheticVideo:
    metadata = VideoMetadata(
        name="bench", num_frames=frames, width=960, height=540,
        fps=25.0, vehicles_per_frame=8.3)
    return SyntheticVideo(metadata, seed=7)


def set_service_latency(per_call: float) -> None:
    """Set the simulated serving latency on every zoo model.

    The zoo registers module-level model singletons, so this applies to
    every session/server created afterwards in this process; callers
    must reset to 0.0 when their scenario ends.
    """
    zoo = default_zoo()
    for name in zoo.names():
        zoo.get(name).service_latency_per_call = per_call


def virtual_total(breakdown: dict) -> float:
    """Non-OPTIMIZE virtual seconds (OPTIMIZE charges measured real
    time for symbolic work and jitters run to run)."""
    return sum(seconds for category, seconds in breakdown.items()
               if category is not CostCategory.OPTIMIZE)


def apply_query(frames: int) -> str:
    return (
        "SELECT id, bbox FROM bench CROSS APPLY "
        f"FastRCNNObjectDetector(frame) "
        f"WHERE id < {round(frames * 0.8)} AND label = 'car' "
        "AND area > 0.1 AND CarType(frame, bbox) = 'Nissan';")


def build_mode_scenarios(frames: int, repetitions: int) -> dict:
    """The row-vs-vectorized scenarios (pair ``("row", "vectorized")``)."""
    filter_query = (
        "SELECT id, timestamp FROM bench "
        f"WHERE id * 3 + 1 < {frames * 2} AND timestamp > 0.5;")
    return {
        "filter_only": {
            "policy": ReusePolicy.NONE,
            "warmup": [],
            "queries": [filter_query] * (repetitions * 4),
        },
        "apply_hit_heavy": {
            "policy": ReusePolicy.EVA,
            "warmup": [apply_query(frames)],
            "queries": [apply_query(frames)] * repetitions,
        },
        "apply_miss_heavy": {
            "policy": ReusePolicy.NONE,
            "warmup": [],
            "queries": [apply_query(frames)],
        },
    }


def run_mode(video: SyntheticVideo, policy: ReusePolicy, mode: str,
             warmup: list[str], queries: list[str]) -> dict:
    session = EvaSession(config=EvaConfig(reuse_policy=policy,
                                          execution_mode=mode))
    session.register_video(video)
    for sql in warmup:
        session.execute(sql)
    before = session.clock.snapshot()
    start = time.perf_counter()
    rows = 0
    for sql in queries:
        rows += len(session.execute(sql).rows)
    wall = time.perf_counter() - start
    breakdown = session.clock.snapshot_delta(before)
    return {"wall_seconds": round(wall, 6), "rows": rows,
            "virtual_seconds": virtual_total(breakdown),
            "queries": len(queries)}


def pair_entry(pair: tuple[str, str], baseline: dict, candidate: dict,
               **extra) -> dict:
    """One report scenario: two runs that must agree on rows/virtual."""
    speedup = (baseline["wall_seconds"] / candidate["wall_seconds"]
               if candidate["wall_seconds"] else float("inf"))
    virtual_match = (
        abs(baseline["virtual_seconds"] - candidate["virtual_seconds"])
        <= 1e-6 * max(1.0, abs(baseline["virtual_seconds"])))
    entry = {
        "pair": list(pair),
        pair[0]: baseline,
        pair[1]: candidate,
        "real_speedup": round(speedup, 2),
        "rows_match": baseline["rows"] == candidate["rows"],
        "virtual_match": virtual_match,
    }
    entry.update(extra)
    return entry


# ---------------------------------------------------------------------------
# parallel_filter: serial vs morsel-driven parallel execution
# ---------------------------------------------------------------------------

def run_parallelism(video: SyntheticVideo, parallelism: int,
                    queries: list[str], batch_rows: int) -> dict:
    """One session run at a given ``parallelism`` (0 = serial)."""
    config = EvaConfig(reuse_policy=ReusePolicy.NONE,
                       parallelism=parallelism,
                       batch_rows=batch_rows, morsel_rows=batch_rows)
    session = EvaSession(config=config)
    session.register_video(video)
    before = session.clock.snapshot()
    start = time.perf_counter()
    rows = 0
    for sql in queries:
        rows += len(session.execute(sql).rows)
    wall = time.perf_counter() - start
    breakdown = session.clock.snapshot_delta(before)
    return {"wall_seconds": round(wall, 6), "rows": rows,
            "virtual_seconds": virtual_total(breakdown),
            "queries": len(queries),
            "parallelism": parallelism,
            "parallel_queries":
                session.metrics.counters.get("parallel_queries", 0),
            "parallel_morsels":
                session.metrics.counters.get("parallel_morsels", 0)}


def run_parallel_filter(frames: int, quick: bool) -> dict:
    """Serial vs ``--parallelism 4`` on the latency-bound APPLY path."""
    video = make_video(frames)
    queries = [apply_query(frames)] * (1 if quick else 2)
    # Small morsels so even the quick video splits into several; both
    # runs use the same batch size, so per-batch charges line up.
    batch_rows = 64
    set_service_latency(SERVICE_LATENCY_PER_CALL)
    try:
        serial = run_parallelism(video, 0, queries, batch_rows)
        parallel = run_parallelism(video, 4, queries, batch_rows)
    finally:
        set_service_latency(0.0)
    return pair_entry(("serial", "parallel"), serial, parallel,
                      parallel_engaged=parallel["parallel_queries"] > 0)


# ---------------------------------------------------------------------------
# cold_start_hit_heavy: durable-store restart vs the uninterrupted session
# ---------------------------------------------------------------------------

def run_durable(video: SyntheticVideo, store_dir: Path,
                warmup: list[str], queries: list[str]) -> dict:
    """One durable session; hit rate is over the measured window only."""
    session = EvaSession(config=EvaConfig(
        reuse_policy=ReusePolicy.EVA, store_mode="durable",
        store_path=str(store_dir)))
    session.register_video(video)
    for sql in warmup:
        session.execute(sql)
    first_measured = len(session.metrics.query_metrics)
    before = session.clock.snapshot()
    start = time.perf_counter()
    rows = 0
    for sql in queries:
        rows += len(session.execute(sql).rows)
    wall = time.perf_counter() - start
    breakdown = session.clock.snapshot_delta(before)
    total = reused = 0
    for metrics in session.metrics.query_metrics[first_measured:]:
        total += sum(metrics.udf_counts.values())  # #TI, reused included
        reused += sum(metrics.reused_counts.values())
    report = session.view_store.recovery_report
    session.close()
    return {"wall_seconds": round(wall, 6), "rows": rows,
            "virtual_seconds": virtual_total(breakdown),
            "queries": len(queries),
            "hit_rate": round(100.0 * reused / max(1, total), 2),
            "recovery_seconds": round(report.wall_seconds, 6),
            "keys_recovered": report.keys_recovered}


def run_cold_start_hit_heavy(frames: int, quick: bool) -> dict:
    """Warm hit-heavy pass vs the same pass in a fresh session that
    recovered the durable store — the restart must answer at the
    pre-restart hit rate (zero fresh UDF invocations)."""
    import shutil
    import tempfile

    video = make_video(frames)
    query = apply_query(frames)
    queries = [query] * (1 if quick else 2)
    store_dir = Path(tempfile.mkdtemp(prefix="eva-bench-store-"))
    try:
        # The warm session materializes on its warmup pass, then serves
        # the measured window from memory; close() snapshots the store.
        warm = run_durable(video, store_dir, [query], queries)
        restarted = run_durable(video, store_dir, [], queries)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return pair_entry(
        ("warm", "restarted"), warm, restarted,
        hit_rate_match=restarted["hit_rate"] >= warm["hit_rate"] - 1e-6)


# ---------------------------------------------------------------------------
# batched_miss_heavy: concurrent server clients, with/without coalescing
# ---------------------------------------------------------------------------

def run_server(frames: int, timeout_ms: float) -> dict:
    """Eight concurrent clients on one server; returns pooled totals."""
    from repro.server import EvaServer

    # Policy NONE: no cross-client view reuse, so each client's rows and
    # virtual totals are exactly its solo-run totals regardless of
    # arrival interleaving — isolating the batcher's (non-)effect.
    config = EvaConfig(reuse_policy=ReusePolicy.NONE,
                       micro_batch_max_size=1_000_000,
                       micro_batch_timeout_ms=timeout_ms)
    server = EvaServer(config, max_workers=NUM_CLIENTS)
    server.register_video(make_video(frames))
    query = ("SELECT id, label FROM bench CROSS APPLY "
             "FastRCNNObjectDetector(frame) WHERE label = 'car';")
    row_counts: list[int] = [0] * NUM_CLIENTS
    with server.start():
        handles = [server.connect() for _ in range(NUM_CLIENTS)]

        def run(index: int) -> None:
            row_counts[index] = len(handles[index].execute(query).rows)

        start = time.perf_counter()
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(NUM_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        snapshot = server.batcher_snapshot()
        virtual = 0.0
        for handle in handles:
            with handle.checkout() as session:
                virtual += virtual_total(session.clock.breakdown())
    return {"wall_seconds": round(wall, 6), "rows": sum(row_counts),
            "virtual_seconds": virtual, "queries": NUM_CLIENTS,
            "batcher": {
                "requests": snapshot.requests,
                "dispatches": snapshot.dispatches,
                "coalesced_dispatches": snapshot.coalesced_dispatches,
                "mean_batch_requests": round(
                    snapshot.mean_batch_requests, 3),
                "max_batch_requests": snapshot.max_batch_requests,
            }}


def run_batched_miss_heavy(quick: bool) -> dict:
    """Coalescing off (0 ms window) vs on (generous window)."""
    frames = 150 if quick else 400
    set_service_latency(SERVICE_LATENCY_PER_CALL)
    try:
        unbatched = run_server(frames, timeout_ms=0.0)
        # The coalescing window is real wall time spent waiting, so this
        # scenario's real_speedup is informational only — the measured
        # win is the dispatch reduction (8 requests -> ~1 coalesced
        # dispatch, i.e. one shared serving round-trip instead of 8).
        batched = run_server(frames, timeout_ms=250.0)
    finally:
        set_service_latency(0.0)
    mean = batched["batcher"]["mean_batch_requests"]
    return pair_entry(("unbatched", "batched"), unbatched, batched,
                      coalesced=mean > 1.0)


# ---------------------------------------------------------------------------
# pool_stress: one server process vs the multi-process worker pool
# ---------------------------------------------------------------------------

POOL_CLIENTS = 64
POOL_CLIENTS_QUICK = 16
POOL_WORKERS = 4
POOL_WORKER_THREADS = 4
POOL_SHARDS = 8
#: Per-dispatch serving latency for the pool scenario (real seconds).
#: Queries sleep through the model round-trip, so throughput scales
#: with serving concurrency, not CPU — the honest single-core setting.
POOL_SERVICE_LATENCY = 0.15
POOL_FRAMES = 48
#: Coalescing sub-run: concurrent clients sharing one video.
POOL_COALESCE_CLIENTS = 8


def pool_zoo():
    """Zoo factory for spawned pool workers (module-level so it pickles
    across the spawn boundary): the default zoo with the scenario's
    serving latency applied inside the worker process."""
    zoo = default_zoo()
    for name in zoo.names():
        zoo.get(name).service_latency_per_call = POOL_SERVICE_LATENCY
    return zoo


def pool_video(index: int) -> SyntheticVideo:
    metadata = VideoMetadata(
        name=f"poolvid{index:02d}", num_frames=POOL_FRAMES, width=640,
        height=360, fps=25.0, vehicles_per_frame=6.0)
    return SyntheticVideo(metadata, seed=100 + index)


def pool_query(index: int) -> str:
    return (f"SELECT id, label FROM poolvid{index:02d} CROSS APPLY "
            f"FastRCNNObjectDetector(frame) "
            f"WHERE id < {POOL_FRAMES - 8} AND label = 'car';")


def pool_config(num_clients: int, store_dir: Path, *,
                workers: int, shards: int) -> "EvaConfig":
    # batch_rows=16 splits each 48-frame video into ~3 inference
    # dispatches, so a miss query sleeps ~3x the per-call latency.
    return EvaConfig(reuse_policy=ReusePolicy.EVA, workers=workers,
                     shards=shards, batch_rows=16,
                     store_mode="durable", store_path=str(store_dir),
                     worker_queue_depth=4 * num_clients)


def run_pool_clients(connect, num_clients: int, clock_of) -> dict:
    """Each client runs its own query twice (miss, then hit) against
    its own video; returns pooled totals plus per-client rows, hit
    rates, and virtual clocks for the differential gates."""
    from repro.errors import ServerOverloadedError

    handles = [connect(f"pool-{index}") for index in range(num_clients)]
    rows: list = [None] * num_clients
    errors: list[str] = []

    def run(index: int) -> None:
        query = pool_query(index)
        results = []
        for _ in range(2):
            while True:
                try:
                    results.append(tuple(handles[index].execute(query).rows))
                    break
                except ServerOverloadedError as error:
                    time.sleep(error.retry_after)
                except Exception as error:  # noqa: BLE001 - pooled below
                    errors.append(f"pool-{index}: {error}")
                    return
        rows[index] = tuple(results)

    start = time.perf_counter()
    threads = [threading.Thread(target=run, args=(i,))
               for i in range(num_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise RuntimeError("pool clients failed: " + "; ".join(errors))

    clocks = {}
    hit_rates = {}
    total_virtual = 0.0
    for index, handle in enumerate(handles):
        virtual = round(virtual_total(clock_of(handle)), 9)
        clocks[f"pool-{index}"] = virtual
        total_virtual += virtual
        hit_rates[f"pool-{index}"] = round(handle.hit_percentage(), 6)
    return {"wall_seconds": round(wall, 6),
            "rows": sum(len(a) + len(b) for a, b in rows),
            "virtual_seconds": total_virtual,
            "queries": 2 * num_clients,
            "per_client_rows": rows, "per_client_clocks": clocks,
            "per_client_hit_rates": hit_rates}


def run_pool_single(num_clients: int, store_dir: Path) -> dict:
    """Baseline: one ``EvaServer`` process, POOL_WORKER_THREADS threads."""
    from repro.server import EvaServer

    config = pool_config(num_clients, store_dir, workers=1, shards=1)
    server = EvaServer(config, max_workers=POOL_WORKER_THREADS,
                       max_queue=4 * num_clients)
    for index in range(num_clients):
        server.register_video(pool_video(index))
    set_service_latency(POOL_SERVICE_LATENCY)
    try:
        with server.start():
            def clock_of(handle):
                with handle.checkout() as session:
                    return session.clock.breakdown()

            entry = run_pool_clients(server.connect, num_clients, clock_of)
            base = server.state.view_store.base
            entry["views"] = {
                name: (list(base.get(name).key_columns),
                       list(base.get(name).output_columns),
                       sorted(base.get(name).items()))
                for name in base.names()}
    finally:
        set_service_latency(0.0)
    return entry


def run_pool_pooled(num_clients: int, store_dir: Path) -> dict:
    """Candidate: POOL_WORKERS spawned processes over a sharded store."""
    from repro.server import PoolServer

    config = pool_config(num_clients, store_dir,
                         workers=POOL_WORKERS, shards=POOL_SHARDS)
    pool = PoolServer(config, zoo_factory=pool_zoo,
                      worker_threads=POOL_WORKER_THREADS,
                      bulkhead_capacity=4 * num_clients)
    with pool:  # spawn + WAL-recovery happen outside the measured window
        for index in range(num_clients):
            pool.register_video(pool_video(index))
        entry = run_pool_clients(
            pool.connect, num_clients,
            lambda handle: handle.clock_breakdown())
        entry["views"] = pool.dump_views()
        entry["batcher"] = pool.batcher_snapshot()
    return entry


def run_pool_coalesce(store_dir: Path) -> dict:
    """Cross-process miss coalescing: concurrent clients on two workers
    all missing the same (model, video) must merge in the one dispatcher
    that owns the shard — visible as ``remote_requests`` from the
    non-owner worker and a mean batch above one request."""
    from repro.server import PoolServer

    config = EvaConfig(reuse_policy=ReusePolicy.NONE, workers=2,
                       shards=4, batch_rows=1_000_000,
                       store_mode="durable", store_path=str(store_dir),
                       micro_batch_max_size=1_000_000,
                       micro_batch_timeout_ms=250.0)
    pool = PoolServer(config, zoo_factory=pool_zoo,
                      worker_threads=POOL_COALESCE_CLIENTS)
    with pool:
        pool.register_video(pool_video(99))
        handles = [pool.connect(f"co-{i}")
                   for i in range(POOL_COALESCE_CLIENTS)]
        query = pool_query(99)
        row_counts = [0] * POOL_COALESCE_CLIENTS

        def run(index: int) -> None:
            row_counts[index] = len(handles[index].execute(query).rows)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(POOL_COALESCE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = pool.batcher_snapshot()
    return {"clients": POOL_COALESCE_CLIENTS,
            "rows_identical": len(set(row_counts)) == 1,
            "requests": snapshot.requests,
            "remote_requests": snapshot.remote_requests,
            "dispatches": snapshot.dispatches,
            "mean_batch_requests": round(snapshot.mean_batch_requests, 3),
            "max_batch_requests": snapshot.max_batch_requests}


def run_pool_stress(quick: bool) -> dict:
    """Single-process serving vs the 4-worker pool on the same
    sleep-bound workload, plus the cross-process coalescing sub-run."""
    import shutil
    import tempfile

    num_clients = POOL_CLIENTS_QUICK if quick else POOL_CLIENTS
    root = Path(tempfile.mkdtemp(prefix="eva-bench-pool-"))
    try:
        single = run_pool_single(num_clients, root / "single")
        pooled = run_pool_pooled(num_clients, root / "pooled")
        coalesce = run_pool_coalesce(root / "coalesce")
    finally:
        shutil.rmtree(root, ignore_errors=True)

    rows_identical = single.pop("per_client_rows") == \
        pooled.pop("per_client_rows")
    views_match = single.pop("views") == pooled.pop("views")
    hits_match = single.pop("per_client_hit_rates") == \
        pooled.pop("per_client_hit_rates")
    clocks_match = single.pop("per_client_clocks") == \
        pooled.pop("per_client_clocks")
    batcher = pooled.pop("batcher")
    entry = pair_entry(
        ("single_process", "worker_pool"), single, pooled,
        clients=num_clients, workers=POOL_WORKERS,
        worker_threads=POOL_WORKER_THREADS, shards=POOL_SHARDS,
        service_latency_per_call=POOL_SERVICE_LATENCY,
        views_match=views_match, hits_match=hits_match,
        clocks_match=clocks_match,
        batcher={"requests": batcher.requests,
                 "remote_requests": batcher.remote_requests,
                 "dispatches": batcher.dispatches},
        coalesce=coalesce,
        pool_coalesced=coalesce["remote_requests"] > 0
        and coalesce["mean_batch_requests"] > 1.0
        and coalesce["rows_identical"])
    entry["rows_match"] = entry["rows_match"] and rows_identical
    return entry


# ---------------------------------------------------------------------------
# reuse_efficiency: the provenance ledger must observe, not perturb
# ---------------------------------------------------------------------------

def run_ledger_pass(video: SyntheticVideo, warmup: list[str],
                    queries: list[str], *, view_ledger: bool) -> dict:
    """One hit-heavy pass with the view ledger on or off."""
    session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA,
                                          view_ledger=view_ledger))
    session.register_video(video)
    for sql in warmup:
        session.execute(sql)
    before = session.clock.snapshot()
    start = time.perf_counter()
    rows = 0
    for sql in queries:
        rows += len(session.execute(sql).rows)
    wall = time.perf_counter() - start
    breakdown = session.clock.snapshot_delta(before)
    entry = {"wall_seconds": round(wall, 6), "rows": rows,
             "virtual_seconds": virtual_total(breakdown),
             "queries": len(queries)}
    if view_ledger:
        records = session.ledger.export_records()
        entry["ledger"] = {
            "views": len(records),
            "hits": sum(r["hits"] for r in records),
            "invocations_paid": sum(r["invocations_paid"]
                                    for r in records),
            "saved_virtual_seconds": round(
                sum(r["saved_vs"] for r in records), 6),
            "materialize_virtual_seconds": round(
                sum(r["materialize_vs"] for r in records), 6),
            "net_benefit_virtual_seconds": round(
                sum(r["net_benefit"] for r in records), 6),
            "wasted_views": len(session.ledger.wasted()),
        }
    return entry


def run_reuse_efficiency(frames: int, repetitions: int) -> dict:
    """Hit-heavy workload with the view ledger off vs on.

    The ledger is pure observability, so both halves must agree on rows
    and virtual cost, and the ledgered wall clock must stay inside the
    regression tolerance (compare_bench gates ``ledger_overhead_ok``).
    The on-half also reports the aggregate Eq. 3 economics the view pool
    realized: after a materializing warmup, the measured hit-heavy
    window must push the pool's net benefit positive.
    """
    video = make_video(frames)
    query = apply_query(frames)
    warmup, queries = [query], [query] * repetitions
    unledgered = run_ledger_pass(video, warmup, queries,
                                 view_ledger=False)
    ledgered = run_ledger_pass(video, warmup, queries, view_ledger=True)
    ledger = ledgered.pop("ledger")
    return pair_entry(
        ("unledgered", "ledgered"), unledgered, ledgered,
        ledger=ledger,
        net_benefit_positive=ledger["net_benefit_virtual_seconds"] > 0.0)


# ---------------------------------------------------------------------------
# stress_concurrent: 64 clients vs the same workload run serially
# ---------------------------------------------------------------------------

#: Concurrent clients in the flight-recorder stress scenario.
STRESS_CLIENTS = 64
STRESS_CLIENTS_QUICK = 16
STRESS_WORKERS = 8
#: SLO targets the concurrent pass is gated against (seconds).  The
#: workload is all-hit after warmup, so per-query latency is dominated
#: by admission waves (clients / workers) over a sub-100ms probe; the
#: targets leave generous headroom for slow CI machines while still
#: catching a hot path that collapses under concurrency.
STRESS_SLO_P50 = 10.0
STRESS_SLO_P99 = 30.0


def latency_quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of raw per-query latencies."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def run_stress_pass(server, query: str, num_clients: int, *,
                    concurrent: bool) -> dict:
    """One query per client against a warmed server; pooled totals plus
    per-query end-to-end latencies (admission wait included)."""
    from repro.errors import ServerOverloadedError

    handles = [server.connect() for _ in range(num_clients)]
    latencies = [0.0] * num_clients
    row_counts = [0] * num_clients
    errors: list[str] = []

    def run(index: int) -> None:
        started = time.perf_counter()
        while True:
            try:
                result = handles[index].execute(query)
                break
            except ServerOverloadedError as error:
                time.sleep(error.retry_after)
            except Exception as error:  # noqa: BLE001 - pooled below
                errors.append(f"{handles[index].client_id}: {error}")
                return
        latencies[index] = time.perf_counter() - started
        row_counts[index] = len(result.rows)

    start = time.perf_counter()
    if concurrent:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(num_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    else:
        for index in range(num_clients):
            run(index)
    wall = time.perf_counter() - start

    virtual = 0.0
    for handle in handles:
        with handle.checkout() as session:
            virtual += virtual_total(session.clock.breakdown())
    if errors:
        raise RuntimeError("stress clients failed: " + "; ".join(errors))
    return {"wall_seconds": round(wall, 6), "rows": sum(row_counts),
            "virtual_seconds": virtual, "queries": num_clients,
            "latency_p50_seconds": round(latency_quantile(latencies, 0.50), 6),
            "latency_p99_seconds": round(latency_quantile(latencies, 0.99), 6),
            "latency_max_seconds": round(max(latencies), 6)}


def run_stress_concurrent(frames: int, quick: bool) -> dict:
    """Serial vs 64-way concurrent hit-heavy workload on one server."""
    from repro.server import EvaServer

    num_clients = STRESS_CLIENTS_QUICK if quick else STRESS_CLIENTS
    config = EvaConfig(reuse_policy=ReusePolicy.EVA,
                       slo_latency_p50=STRESS_SLO_P50,
                       slo_latency_p99=STRESS_SLO_P99)
    server = EvaServer(config, max_workers=STRESS_WORKERS,
                       max_queue=4 * num_clients)
    server.register_video(make_video(frames))
    query = apply_query(frames)
    with server.start():
        # Warm the shared views once so both passes are all-hit and
        # therefore agree on rows and (hit-only) virtual cost.
        server.connect().execute(query)
        serial = run_stress_pass(server, query, num_clients,
                                 concurrent=False)
        concurrent = run_stress_pass(server, query, num_clients,
                                     concurrent=True)
        flight_records = len(server.trace_events(type="flight"))
        slo = server.slo_snapshot()
    p50 = concurrent["latency_p50_seconds"]
    p99 = concurrent["latency_p99_seconds"]
    return pair_entry(
        ("serial", "concurrent"), serial, concurrent,
        clients=num_clients, workers=STRESS_WORKERS,
        slo={"p50_target_s": STRESS_SLO_P50, "p99_target_s": STRESS_SLO_P99,
             "p50_s": p50, "p99_s": p99,
             "violations": slo.over_p99},
        slo_ok=p50 <= STRESS_SLO_P50 and p99 <= STRESS_SLO_P99,
        # Warmup + serial pass + concurrent pass, one record per query.
        flight_ok=flight_records == 2 * num_clients + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced size for CI smoke runs")
    parser.add_argument("--frames", type=int, default=None,
                        help="override the benchmark video length")
    parser.add_argument("-o", "--output", type=Path,
                        default=REPO_ROOT / "BENCH_vectorized.json")
    args = parser.parse_args(argv)

    frames = args.frames or (300 if args.quick else 2000)
    repetitions = 2 if args.quick else 5
    video = make_video(frames)

    report: dict = {
        "benchmark": "execution-mode / parallel / micro-batching paths",
        "quick": args.quick,
        "frames": frames,
        "repetitions": repetitions,
        "scenarios": {},
    }
    for name, spec in build_mode_scenarios(frames, repetitions).items():
        row = run_mode(video, spec["policy"], "row",
                       spec["warmup"], spec["queries"])
        vec = run_mode(video, spec["policy"], "vectorized",
                       spec["warmup"], spec["queries"])
        report["scenarios"][name] = pair_entry(("row", "vectorized"),
                                               row, vec)
    report["scenarios"]["parallel_filter"] = run_parallel_filter(
        frames, args.quick)
    report["scenarios"]["cold_start_hit_heavy"] = run_cold_start_hit_heavy(
        frames, args.quick)
    report["scenarios"]["batched_miss_heavy"] = run_batched_miss_heavy(
        args.quick)
    report["scenarios"]["stress_concurrent"] = run_stress_concurrent(
        frames, args.quick)
    report["scenarios"]["pool_stress"] = run_pool_stress(args.quick)
    report["scenarios"]["reuse_efficiency"] = run_reuse_efficiency(
        frames, repetitions)

    ok = True
    for name, entry in report["scenarios"].items():
        first, second = entry["pair"]
        ok = ok and entry["rows_match"] and entry["virtual_match"]
        print(f"{name:18s} {first}={entry[first]['wall_seconds']:.3f}s "
              f"{second}={entry[second]['wall_seconds']:.3f}s "
              f"speedup={entry['real_speedup']:.2f}x "
              f"rows={entry[second]['rows']} "
              f"virtual_match={entry['virtual_match']}")
    if not report["scenarios"]["parallel_filter"]["parallel_engaged"]:
        print("ERROR: parallel_filter silently fell back to serial "
              "execution", file=sys.stderr)
        ok = False
    if not report["scenarios"]["batched_miss_heavy"]["coalesced"]:
        print("ERROR: batched_miss_heavy never coalesced concurrent "
              "requests (mean batch size <= 1)", file=sys.stderr)
        ok = False
    stress = report["scenarios"]["stress_concurrent"]
    if not stress["slo_ok"]:
        print("ERROR: stress_concurrent blew its latency SLOs "
              f"(p50 {stress['slo']['p50_s']:.3f}s vs target "
              f"{stress['slo']['p50_target_s']:.1f}s, p99 "
              f"{stress['slo']['p99_s']:.3f}s vs target "
              f"{stress['slo']['p99_target_s']:.1f}s)", file=sys.stderr)
        ok = False
    if not stress["flight_ok"]:
        print("ERROR: stress_concurrent did not record exactly one "
              "flight record per completed query", file=sys.stderr)
        ok = False
    pool = report["scenarios"]["pool_stress"]
    for gate in ("views_match", "hits_match", "clocks_match"):
        if not pool[gate]:
            print(f"ERROR: pool_stress {gate} is false (the worker "
                  "pool changed observable query semantics)",
                  file=sys.stderr)
            ok = False
    if not pool["pool_coalesced"]:
        print("ERROR: pool_stress coalesce sub-run never merged misses "
              "across processes (remote_requests == 0 or mean batch "
              "<= 1)", file=sys.stderr)
        ok = False
    reuse = report["scenarios"]["reuse_efficiency"]
    if not reuse["net_benefit_positive"]:
        print("ERROR: reuse_efficiency pool net benefit is not positive "
              f"({reuse['ledger']['net_benefit_virtual_seconds']} "
              "virtual s) on a hit-heavy workload", file=sys.stderr)
        ok = False
    cold = report["scenarios"]["cold_start_hit_heavy"]
    if not cold["hit_rate_match"]:
        print("ERROR: cold_start_hit_heavy lost hit rate across the "
              f"restart ({cold['warm']['hit_rate']}% -> "
              f"{cold['restarted']['hit_rate']}%)", file=sys.stderr)
        ok = False

    report["hot_path_speedup"] = \
        report["scenarios"]["apply_hit_heavy"]["real_speedup"]
    report["miss_path_speedup"] = \
        report["scenarios"]["apply_miss_heavy"]["real_speedup"]
    report["parallel_speedup"] = \
        report["scenarios"]["parallel_filter"]["real_speedup"]
    report["batcher_mean_batch_requests"] = \
        report["scenarios"]["batched_miss_heavy"]["batched"]["batcher"][
            "mean_batch_requests"]
    report["post_restart_hit_rate"] = \
        report["scenarios"]["cold_start_hit_heavy"]["restarted"][
            "hit_rate"]
    report["stress_p50_seconds"] = stress["concurrent"][
        "latency_p50_seconds"]
    report["stress_p99_seconds"] = stress["concurrent"][
        "latency_p99_seconds"]
    report["pool_speedup"] = pool["real_speedup"]
    report["pool_remote_requests"] = \
        pool["coalesce"]["remote_requests"]
    report["reuse_net_benefit_virtual_seconds"] = \
        reuse["ledger"]["net_benefit_virtual_seconds"]
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if not ok:
        print("ERROR: benchmark acceptance gates failed (see above)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
