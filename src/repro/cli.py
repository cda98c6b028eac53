"""Command-line interface: an EVAQL shell, script runner, and bench driver.

Usage::

    python -m repro shell  --dataset ua_detrac:short
    python -m repro run queries.sql --dataset jackson --policy none
    python -m repro bench --workload high --frames 2000
    python -m repro serve-demo --clients 6 --workers 4

The shell reads statements terminated by ``;`` (multi-line input is fine),
prints result tables, and reports the virtual execution time and reuse hit
rate after each query.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO

from repro.config import EvaConfig, ReusePolicy
from repro.errors import EvaError
from repro.session import EvaSession
from repro.types import QueryResult, VideoMetadata
from repro.vbench.reporting import format_table
from repro.video.datasets import jackson, ua_detrac
from repro.video.synthetic import SyntheticVideo

#: Rows printed per result before truncation in the shell.
MAX_ROWS_SHOWN = 20


def make_video(spec: str) -> SyntheticVideo:
    """Parse a ``--dataset`` spec into a synthetic video.

    Accepted forms: ``ua_detrac[:short|medium|long]``, ``jackson``, and
    ``synthetic:<frames>[:<vehicles_per_frame>]``.
    """
    parts = spec.split(":")
    kind = parts[0].lower()
    if kind == "ua_detrac":
        size = parts[1] if len(parts) > 1 else "medium"
        return ua_detrac(size)
    if kind == "jackson":
        return jackson()
    if kind == "synthetic":
        if len(parts) < 2:
            raise ValueError("synthetic dataset needs a frame count, "
                             "e.g. synthetic:2000")
        frames = int(parts[1])
        density = float(parts[2]) if len(parts) > 2 else 8.3
        return SyntheticVideo(
            VideoMetadata(name="synthetic", num_frames=frames, width=960,
                          height=540, fps=25.0,
                          vehicles_per_frame=density),
            seed=7)
    raise ValueError(f"unknown dataset spec {spec!r}")


def make_session(policy_name: str, dataset: str,
                 store_path: str | None = None) -> EvaSession:
    policy = ReusePolicy(policy_name.lower())
    session = EvaSession(config=EvaConfig(
        reuse_policy=policy,
        store_mode="durable" if store_path else "memory",
        store_path=store_path))
    session.register_video(make_video(dataset))
    return session


def render_result(result: QueryResult, out: IO[str],
                  max_rows: int = MAX_ROWS_SHOWN) -> None:
    if not result.columns:
        print("(no output)", file=out)
        return
    shown = result.rows[:max_rows]
    print(format_table(result.columns,
                       [[_short(v) for v in row] for row in shown]),
          file=out)
    if len(result.rows) > max_rows:
        print(f"... {len(result.rows) - max_rows} more rows", file=out)


def _short(value) -> str:
    text = str(value)
    return text if len(text) <= 40 else text[:37] + "..."


def execute_and_render(session: EvaSession, statement: str,
                       out: IO[str]) -> None:
    try:
        result = session.execute(statement)
    except EvaError as error:
        print(f"error: {error}", file=out)
        return
    render_result(result, out)
    metrics = session.last_query_metrics()
    if metrics is not None and metrics.query_text == statement:
        print(f"-- {len(result)} rows, {metrics.total_time:.2f}s virtual, "
              f"session hit rate {session.hit_percentage():.1f}%",
              file=out)


def split_statements(sql: str) -> list[str]:
    """Split ``;``-separated statements in one string (quote-aware)."""
    statements: list[str] = []
    buffer: list[str] = []
    in_string = False
    for char in sql:
        if char == "'":
            in_string = not in_string
        if char == ";" and not in_string:
            statement = "".join(buffer).strip()
            if statement:
                statements.append(statement + ";")
            buffer = []
        else:
            buffer.append(char)
    residual = "".join(buffer).strip()
    if residual:
        statements.append(residual + ";")
    return statements


def read_statements(stream: IO[str]):
    """Yield ';'-terminated statements from a character stream."""
    buffer: list[str] = []
    for line in stream:
        stripped = line.strip()
        if not buffer and (not stripped or stripped.startswith("--")):
            continue
        buffer.append(line)
        if stripped.endswith(";"):
            yield "".join(buffer).strip()
            buffer = []
    residual = "".join(buffer).strip()
    if residual:
        yield residual


def run_shell(session: EvaSession, stdin: IO[str], stdout: IO[str]) -> int:
    print("EVA reproduction shell - statements end with ';' "
          "(ctrl-D to exit)", file=stdout)
    print(f"table(s): {', '.join(session.storage.table_names())}",
          file=stdout)
    for statement in read_statements(stdin):
        execute_and_render(session, statement, stdout)
    return 0


def run_script(session: EvaSession, path: str, stdout: IO[str]) -> int:
    with open(path, "r", encoding="utf-8") as handle:
        for statement in read_statements(handle):
            print(f"> {statement}", file=stdout)
            execute_and_render(session, statement, stdout)
    return 0


def run_bench(policy_name: str, workload: str, frames: int,
              stdout: IO[str], artifacts: str | None = None,
              store_path: str | None = None) -> int:
    from repro.vbench.queries import vbench_high, vbench_low
    from repro.vbench.workload import run_workload, workload_session

    video = SyntheticVideo(
        VideoMetadata(name="bench", num_frames=frames, width=960,
                      height=540, fps=25.0, vehicles_per_frame=8.3),
        seed=7)
    queries = (vbench_high if workload == "high" else vbench_low)(
        "bench", frames)
    config = EvaConfig(reuse_policy=ReusePolicy(policy_name),
                       store_mode="durable" if store_path else "memory",
                       store_path=store_path)
    session = workload_session(video, config)
    result = run_workload(video, queries, session=session,
                          artifacts_dir=artifacts)
    session.close()  # snapshot + flush a durable store; no-op otherwise
    rows = [[f"Q{i + 1}", round(m.total_time, 1), m.rows_returned]
            for i, m in enumerate(result.query_metrics)]
    rows.append(["total", round(result.total_time, 1), ""])
    print(format_table(["query", "time (s, virtual)", "rows"], rows,
                       title=f"VBENCH-{workload.upper()} under "
                             f"{policy_name}"),
          file=stdout)
    print(f"hit rate {result.hit_percentage:.1f}%, view storage "
          f"{result.storage_bytes / 1024:.0f} KiB", file=stdout)
    if artifacts is not None:
        print(f"artifacts: trace.jsonl, metrics.json, metrics.prom in "
              f"{artifacts}", file=stdout)
    return 0


def run_trace(policy_name: str, dataset: str, sql: str,
              jsonl: str | None, stdout: IO[str],
              chrome_trace: str | None = None) -> int:
    """``repro trace``: run statements and print the span tree(s).

    Multiple ``;``-separated statements run on one session, so the second
    statement's trace shows the reuse the first one materialized; the
    per-statement reuse-decision audit records are printed after each
    tree, and the trace's virtual total is reconciled against the
    simulation clock.
    """
    from repro.obs.sinks import CompositeSink, InMemorySink, JsonlFileSink

    session = make_session(policy_name, dataset)
    tracer = session.tracer
    tracer.capture_operators = True
    memory = InMemorySink()
    sink = None
    if jsonl is not None:
        sink = JsonlFileSink(jsonl, truncate=True)
        tracer.sink = CompositeSink([memory, sink])
    else:
        tracer.sink = memory
    statements = split_statements(sql)
    if not statements:
        print("error: no statements to trace", file=stdout)
        return 2
    exit_code = 0
    for statement in statements:
        before = session.clock.snapshot()
        try:
            result = session.execute(statement)
        except EvaError as error:
            print(f"error: {error}", file=stdout)
            exit_code = 1
            continue
        trace_id = tracer.last_trace_id
        print(f"-- trace {trace_id}: {len(result)} rows", file=stdout)
        print(tracer.render(trace_id), file=stdout)
        _print_audit(memory, trace_id, stdout)
        spans = tracer.spans(trace_id)
        roots = [s for s in spans if s.parent_id is None]
        span_virtual = sum(s.virtual_seconds for s in roots)
        clock_virtual = sum(
            session.clock.snapshot_delta(before).values())
        print(f"-- virtual time: spans {span_virtual:.3f}s, "
              f"clock {clock_virtual:.3f}s "
              f"(delta {abs(span_virtual - clock_virtual):.6f}s)",
              file=stdout)
    if sink is not None:
        sink.close()
        print(f"-- {sink.events_written} events written to {jsonl}",
              file=stdout)
    if chrome_trace is not None:
        from repro.obs.chrome import write_chrome_trace

        count = write_chrome_trace(chrome_trace, tracer.spans())
        print(f"-- {count} chrome-trace events written to {chrome_trace} "
              f"(synthetic deterministic timeline; open in "
              f"chrome://tracing or Perfetto)", file=stdout)
    return exit_code


def run_profile(policy_name: str, workload: str, frames: int,
                top: int, jsonl: str | None, stdout: IO[str]) -> int:
    """``repro profile``: run a VBENCH workload under the continuous
    profiler and print the top-N operator self-time table and per-model
    table (:func:`repro.obs.profiler.render_profile`).
    """
    from repro.obs.profiler import render_profile
    from repro.vbench.queries import vbench_high, vbench_low

    session = EvaSession(config=EvaConfig(
        reuse_policy=ReusePolicy(policy_name)))
    video = SyntheticVideo(
        VideoMetadata(name="bench", num_frames=frames, width=960,
                      height=540, fps=25.0, vehicles_per_frame=8.3),
        seed=7)
    session.register_video(video)
    # Operator rollups need per-operator actuals -> instrumented engine.
    session.tracer.capture_operators = True
    queries = (vbench_high if workload == "high" else vbench_low)(
        "bench", frames)
    for sql in queries:
        try:
            session.execute(sql)
        except EvaError as error:
            print(f"error: {error}", file=stdout)
            return 1
    print(render_profile(session.profiler.snapshot(), session.metrics,
                         top=top), file=stdout)
    if jsonl is not None:
        count = session.profiler.save_jsonl(jsonl, session.metrics)
        print(f"-- {count} profile events written to {jsonl}",
              file=stdout)
    return 0


def _print_audit(memory, trace_id: str | None, out: IO[str]) -> None:
    records = [e for e in memory.events("reuse_decision")
               if e.get("trace_id") == trace_id]
    for record in records:
        reused = "reused" if record["reused"] else "no reuse"
        line = (f"   audit[{record['kind']}] {record['signature']}: "
                f"{reused}")
        if record.get("missing_fraction") is not None:
            line += f", missing={record['missing_fraction']:.2f}"
        if record.get("difference"):
            line += f", diff={record['difference']}"
        print(line, file=out)


def run_metrics_dump(dataset: str, clients: int, workers: int,
                     stdout: IO[str]) -> int:
    """``repro metrics-dump``: demo workload -> Prometheus exposition.

    Spins up an :class:`~repro.server.EvaServer`, runs the overlapping
    demo workload from ``clients`` clients, and prints the merged
    Prometheus text exposition (per-UDF #TI/#DI/hit rates, virtual-time
    categories, admission/backpressure counters).
    """
    from repro.server import EvaServer

    video = make_video(dataset)
    queries = demo_queries(video.name, video.num_frames)
    server = EvaServer(max_workers=workers)
    server.register_video(video)
    with server.start():
        handles = [server.connect() for _ in range(clients)]
        for offset, handle in enumerate(handles):
            for i in range(len(queries)):
                handle.execute(queries[(i + offset) % len(queries)])
        text = server.prometheus_text()
    print(text, file=stdout, end="")
    return 0


def demo_queries(table: str, frames: int) -> list[str]:
    """A small overlapping exploratory workload (serve-demo clients)."""
    half = frames // 2
    quarter = frames // 4
    return [
        f"SELECT id, label FROM {table} CROSS APPLY "
        f"FastRCNNObjectDetector(frame) "
        f"WHERE id < {half} AND label = 'car';",
        f"SELECT id, label FROM {table} CROSS APPLY "
        f"FastRCNNObjectDetector(frame) "
        f"WHERE id >= {quarter} AND id < {3 * quarter} "
        f"AND label = 'car';",
        f"SELECT id FROM {table} CROSS APPLY "
        f"FastRCNNObjectDetector(frame) "
        f"WHERE label = 'bus' AND id < {half};",
        f"SELECT id, label FROM {table} CROSS APPLY "
        f"FastRCNNObjectDetector(frame) "
        f"WHERE id < {quarter} AND label = 'car' "
        f"AND CarType(frame, bbox) = 'Nissan';",
    ]


def run_serve_demo(dataset: str, clients: int, workers: int,
                   rounds: int, queue: int, stdout: IO[str], *,
                   pool: int = 0, shards: int | None = None,
                   store_path: str | None = None) -> int:
    """Smoke the multi-client server: N clients, overlapping queries.

    Each client runs the demo workload (rotated so clients start on
    different queries) from its own thread; rejected submissions back
    off by the server's suggested ``retry_after`` and retry.  Prints the
    server stats snapshot, whose off-diagonal hit attribution is the
    cross-client reuse the shared view store buys.  With ``--pool N``
    the same workload runs against a multi-process
    :class:`~repro.server.PoolServer` (N spawned workers, ``--workers``
    threads each, sharded durable view store) and the printed snapshot
    is the fleet-wide merge.
    """
    import shutil
    import tempfile
    import threading
    import time as _time

    from repro.errors import ServerOverloadedError
    from repro.server import EvaServer, PoolServer

    video = make_video(dataset)
    queries = demo_queries(video.name, video.num_frames)
    scratch_store = None
    if pool > 0:
        if store_path is None:
            store_path = tempfile.mkdtemp(prefix="eva-serve-pool-")
            scratch_store = store_path
        config = EvaConfig(workers=pool, shards=shards or 2 * pool,
                           worker_queue_depth=queue,
                           store_mode="durable", store_path=store_path)
        server = PoolServer(config, worker_threads=workers)
    else:
        server = EvaServer(max_workers=workers, max_queue=queue)
    errors: list[str] = []

    def run_client(handle) -> None:
        offset = int(handle.client_id.rsplit("-", 1)[-1])
        for round_no in range(rounds):
            for i in range(len(queries)):
                sql = queries[(i + offset + round_no) % len(queries)]
                while True:
                    try:
                        handle.execute(sql)
                        break
                    except ServerOverloadedError as error:
                        _time.sleep(error.retry_after)
                    except EvaError as error:  # pragma: no cover
                        errors.append(f"{handle.client_id}: {error}")
                        return

    try:
        with server.start():
            server.register_video(video)
            handles = [server.connect(f"demo-{i}")
                       for i in range(clients)]
            threads = [threading.Thread(target=run_client, args=(h,),
                                        name=h.client_id)
                       for h in handles]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            snapshot = server.stats()
            aggregate = server.aggregate_metrics()
    finally:
        if scratch_store is not None:
            shutil.rmtree(scratch_store, ignore_errors=True)
    for line in errors:
        print(f"error: {line}", file=stdout)
    print(snapshot.format(), file=stdout)
    print(f"speedup upper bound (Eq. 7, all clients): "
          f"{aggregate.speedup_upper_bound():.2f}x", file=stdout)
    return 1 if errors else 0


def run_store(command: str, path: str, stdout: IO[str],
              schema: str | None = None) -> int:
    """``repro store check|stats``: read-only store inspection.

    ``check`` exits non-zero on unrepairable corruption; warnings (torn
    tails, stale partition files) are printed but do not fail, because
    recovery handles them.  ``--schema`` additionally validates the
    store manifest line-by-line against a JSON schema using the
    dependency-free :mod:`repro.obs.schema` validator.
    """
    from repro.store import check_store, render_check, render_stats, \
        store_stats
    from repro.store.layout import StoreLayout

    if command == "check":
        report = check_store(path)
        print(render_check(report), file=stdout)
        exit_code = 0 if report.ok else 1
        if schema is not None and report.ok:
            from repro.obs.schema import (SchemaError, load_schema,
                                          validate_jsonl)

            manifest = StoreLayout(path).manifest_path
            try:
                count = validate_jsonl(manifest, load_schema(schema))
                print(f"manifest: {count} records conform to {schema}",
                      file=stdout)
            except SchemaError as error:
                print(f"manifest schema violation: {error}", file=stdout)
                exit_code = 1
        return exit_code
    stats = store_stats(path)
    print(render_stats(stats), file=stdout)
    return 0 if stats["ok"] else 1


def run_flight(policy_name: str, dataset: str, sql: str,
               stdout: IO[str], *, stage: str | None = None,
               jsonl: str | None = None,
               store_path: str | None = None,
               slo_p50: float | None = None,
               slo_p99: float | None = None) -> int:
    """``repro flight``: run statements and dump their flight records.

    Every SELECT yields one wide per-query record (stage breakdown,
    lock waits, inference/store-io telemetry, Eq. 3/4 costs);
    ``--stage`` filters by dominant stage, ``--jsonl`` exports the raw
    records, and ``--slo-p50/--slo-p99`` arm the violation column.
    """
    from repro.obs.flight import STORE_IO_KINDS
    from repro.obs.sinks import InMemorySink
    from repro.obs.slo import STAGES

    if stage is not None and stage not in STAGES:
        print(f"error: unknown stage {stage!r} (choose from "
              f"{', '.join(STAGES)})", file=stdout)
        return 2
    policy = ReusePolicy(policy_name.lower())
    session = EvaSession(config=EvaConfig(
        reuse_policy=policy,
        store_mode="durable" if store_path else "memory",
        store_path=store_path,
        slo_latency_p50=slo_p50, slo_latency_p99=slo_p99))
    session.register_video(make_video(dataset))
    memory = InMemorySink()
    session.tracer.sink = memory
    statements = split_statements(sql)
    if not statements:
        print("error: no statements to record", file=stdout)
        return 2
    exit_code = 0
    try:
        for statement in statements:
            try:
                session.execute(statement)
            except EvaError as error:
                print(f"error: {error}", file=stdout)
                exit_code = 1
    finally:
        session.close()
    records = memory.events("flight")
    if stage is not None:
        records = [r for r in records if r["dominant_stage"] == stage]
    rows = []
    for record in records:
        stages = record["stages"]
        rows.append([
            record["flight_id"],
            record["query"][:32] + ("..." if len(record["query"]) > 32
                                    else ""),
            record["rows_returned"],
            f"{record['total_s'] * 1e3:.1f}",
            record["dominant_stage"],
            "yes" if record["over_slo"] else "",
            f"{stages['queueing'] * 1e3:.2f}",
            f"{stages['contention'] * 1e3:.2f}",
            f"{stages['inference'] * 1e3:.2f}",
            f"{stages['store-io'] * 1e3:.2f}",
            f"{stages['compute'] * 1e3:.2f}",
            "hit" if record["cache_hit"]
            else ("reuse" if record["reused"] else ""),
        ])
    print(format_table(
        ["flight", "query", "rows", "total ms", "dominant", "over-slo",
         "queue ms", "lock ms", "infer ms", "io ms", "compute ms",
         "reuse"],
        rows, title="flight records"), file=stdout)
    totals = {name: sum(r["stages"][name] for r in records)
              for name in STAGES}
    attributed = ", ".join(f"{name} {totals[name] * 1e3:.1f}ms"
                           for name in STAGES)
    print(f"-- {len(records)} records; attributed wall time: "
          f"{attributed}", file=stdout)
    io_totals = {kind: sum(r["store_io"][kind] for r in records)
                 for kind in STORE_IO_KINDS}
    if any(io_totals.values()):
        detail = ", ".join(f"{k} {v * 1e3:.1f}ms"
                           for k, v in io_totals.items() if v)
        print(f"-- store io: {detail}", file=stdout)
    if jsonl is not None:
        import json

        with open(jsonl, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"-- {len(records)} flight records written to {jsonl}",
              file=stdout)
    return exit_code


def run_lineage(policy_name: str, dataset: str, sql: str,
                stdout: IO[str], *, view: str | None = None,
                graph: str | None = None, jsonl: str | None = None,
                store_path: str | None = None) -> int:
    """``repro lineage``: run statements and report view provenance.

    Prints the ledger's per-view accounting (what each materialized
    view cost, who reads it, and what it saves — Eq. 3 virtual
    seconds), plus the wasted-materialization report.  ``--view`` drills
    into one view's creation provenance, reader attribution, and
    derivation edges; ``--graph dot|json`` exports the lineage DAG;
    ``--jsonl`` writes the restart-stable records
    (``tests/schemas/lineage.schema.json``).
    """
    import json

    policy = ReusePolicy(policy_name.lower())
    session = EvaSession(config=EvaConfig(
        reuse_policy=policy,
        store_mode="durable" if store_path else "memory",
        store_path=store_path))
    session.register_video(make_video(dataset))
    exit_code = 0
    try:
        for statement in split_statements(sql):
            try:
                session.execute(statement)
            except EvaError as error:
                print(f"error: {error}", file=stdout)
                exit_code = 1
        ledger = session.ledger
        if ledger is None:
            print("error: the view ledger is disabled "
                  "(config.view_ledger)", file=stdout)
            return 2
        if view is not None:
            record = ledger.export_current(view) \
                or ledger.export_record(view)
            if record is None:
                print(f"error: no lineage for view {view!r}",
                      file=stdout)
                return 2
            _print_lineage_record(record, stdout)
            return exit_code
        if graph is not None:
            if graph == "dot":
                print(ledger.to_dot(), file=stdout, end="")
            else:
                print(json.dumps(ledger.graph(), indent=2, sort_keys=True),
                      file=stdout)
            return exit_code
        ranked = ledger.ranking()
        rows = []
        for record in ranked:
            readers = record["readers"]
            rows.append([
                record["lineage_id"],
                record["status"],
                record["invocations_paid"],
                f"{record['materialize_vs']:.3f}",
                record["hits"],
                record["misses"],
                f"{record['saved_vs']:.3f}",
                f"{record['net_benefit']:+.3f}",
                len(readers),
                record["bytes"],
            ])
        print(format_table(
            ["view#gen", "status", "paid", "cost vs", "hits", "misses",
             "saved vs", "net vs", "readers", "bytes"],
            rows, title="view lineage (net benefit, Eq. 3 virtual "
                        "seconds)"), file=stdout)
        wasted = ledger.wasted()
        if wasted:
            print("-- wasted materializations (never re-read):",
                  file=stdout)
            for record in wasted:
                print(f"   {record['lineage_id']}: paid "
                      f"{record['invocations_paid']} invocations "
                      f"({record['materialize_vs']:.3f} virtual s), "
                      f"0 hits", file=stdout)
        else:
            print("-- no wasted materializations: every view was "
                  "re-read at least once", file=stdout)
        if jsonl is not None:
            records = ledger.export_records()
            with open(jsonl, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True)
                                 + "\n")
            print(f"-- {len(records)} lineage records written to "
                  f"{jsonl}", file=stdout)
    finally:
        session.close()
    return exit_code


def _print_lineage_record(record: dict, out: IO[str]) -> None:
    """The ``repro lineage --view`` drill-down."""
    created = record["created"]
    out.write(f"{record['lineage_id']}  [{record['status']}]\n")
    out.write(f"  model/video   {record['model']} @ {record['video']}\n")
    if record["frame_range"]:
        lo, hi = record["frame_range"]
        out.write(f"  frame range   [{lo}, {hi}]\n")
    out.write(f"  created by    query={created['query']!r}\n")
    out.write(f"                trace={created['trace_id']} "
              f"flight={created['flight_id']} "
              f"client={created['client_id']} seq={created['seq']}\n")
    out.write(f"  predicate     {created['predicate']}\n")
    out.write(f"  invested      {record['invocations_paid']} "
              f"invocations, {record['fresh_rows']} rows, "
              f"{record['materialize_vs']:.3f} virtual s, "
              f"{record['bytes']} bytes\n")
    out.write(f"  served        {record['hits']} hits / "
              f"{record['misses']} misses, "
              f"{record['rows_served']} rows, "
              f"saved {record['saved_vs']:.3f} virtual s\n")
    out.write(f"  net benefit   {record['net_benefit']:+.3f} virtual s\n")
    readers = record["readers"]
    if readers:
        attribution = ", ".join(f"{client} ({hits} hits)"
                                for client, hits in readers.items())
        out.write(f"  readers       {attribution}\n")
    else:
        out.write("  readers       none (wasted materialization)\n")
    if record["edges"]:
        out.write("  derived from\n")
        for edge in record["edges"]:
            out.write(f"    {edge['op']:<6} {edge['source']}\n")


def _top_frame(server, *, clear: bool) -> str:
    """One rendered frame of the ``repro top`` dashboard."""
    snapshot = server.stats()
    slo = server.slo_snapshot()
    flight = server.flight_stats()
    lines = []
    if clear:
        lines.append("\x1b[2J\x1b[H")
    lines.append(f"eva top - uptime {snapshot.uptime:6.1f}s   "
                 f"clients {len(snapshot.clients)}   "
                 f"workers {snapshot.workers}")
    lines.append(f"queries   submitted {snapshot.submitted}  "
                 f"completed {snapshot.completed}  "
                 f"failed {snapshot.failed}  "
                 f"rejected {snapshot.rejected}   "
                 f"qps {snapshot.aggregate_qps:.1f}")
    lines.append(f"queue     depth {snapshot.queue_depth} "
                 f"(peak {snapshot.peak_queue_depth})   "
                 f"hit rate {snapshot.hit_percentage:.1f}%   "
                 f"views {snapshot.num_views} "
                 f"({snapshot.view_storage_bytes / 1024:.0f} KiB)")
    wait = snapshot.admission_wait
    if wait.get("count"):
        lines.append(f"admission p50 {wait['p50_s'] * 1e3:.2f}ms  "
                     f"p99 {wait['p99_s'] * 1e3:.2f}ms  "
                     f"max {wait['max_s'] * 1e3:.2f}ms  "
                     f"({wait['count']} waits)")
    latency = slo.latency
    lines.append(f"latency   p50 {latency.p50 * 1e3:.1f}ms  "
                 f"p95 {latency.p95 * 1e3:.1f}ms  "
                 f"p99 {latency.p99 * 1e3:.1f}ms  "
                 f"({latency.count} queries)")
    if slo.enabled:
        targets = []
        if slo.target_p50 is not None:
            targets.append(f"p50<{slo.target_p50 * 1e3:.0f}ms "
                           f"burn {slo.burn_rate_p50:.2f}")
        if slo.target_p99 is not None:
            targets.append(f"p99<{slo.target_p99 * 1e3:.0f}ms "
                           f"burn {slo.burn_rate_p99:.2f}")
        lines.append(f"slo       {'   '.join(targets)}   "
                     f"violations {slo.over_p99}")
    dominant = flight["dominant"]
    if flight["records"]:
        share = ", ".join(
            f"{name} {dominant[name]}"
            for name in sorted(dominant, key=dominant.get, reverse=True)
            if dominant[name])
        lines.append(f"dominant  {share}   "
                     f"(over-slo {flight['over_slo']})")
    ranked = sorted(
        snapshot.lock_waits.items(),
        key=lambda kv: kv[1]["read_s"] + kv[1]["write_s"], reverse=True)
    if ranked:
        lines.append("lock class                          "
                     "waits   read ms  write ms  max-wq")
        for name, waits in ranked[:5]:
            lines.append(
                f"  {name:<32} {waits['waits']:>6} "
                f"{waits['read_s'] * 1e3:>9.2f} "
                f"{waits['write_s'] * 1e3:>9.2f} "
                f"{waits.get('writers_waiting_high_water', 0):>7}")
    views = sorted(server.ledger_snapshot(),
                   key=lambda row: (-row["net_benefit"], row["id"]))
    if views:
        lines.append("top views                           "
                     "   hits    net vs   idle s  status")
        for row in views[:5]:
            lines.append(
                f"  {row['id'][:34]:<34} {row['hits']:>6} "
                f"{row['net_benefit']:>+9.3f} "
                f"{row['idle_s']:>8.1f}  {row['status']}")
    return "\n".join(lines)


def run_top(dataset: str, clients: int, workers: int, duration: float,
            interval: float, once: bool, stdout: IO[str], *,
            slo_p50: float | None = None,
            slo_p99: float | None = None,
            pool: int = 0, shards: int | None = None,
            store_path: str | None = None) -> int:
    """``repro top``: live terminal dashboard over a running server.

    Spins up an in-process :class:`~repro.server.EvaServer` — or, with
    ``--pool N``, a multi-process :class:`~repro.server.PoolServer`
    with N spawned workers over a sharded durable view store — drives
    the overlapping demo workload from ``clients`` background threads,
    and refreshes a QPS / queue / latency-quantile / lock-contention /
    SLO view every ``interval`` seconds; in pool mode every number on
    the dashboard is the fleet-wide merge of the per-worker telemetry.
    ``--once`` renders a single frame after the workload settles and
    exits (CI smoke mode).
    """
    import shutil
    import tempfile
    import threading
    import time as _time

    from repro.errors import ServerOverloadedError
    from repro.server import EvaServer, PoolServer

    video = make_video(dataset)
    queries = demo_queries(video.name, video.num_frames)
    scratch_store = None
    if pool > 0:
        if store_path is None:
            store_path = tempfile.mkdtemp(prefix="eva-top-pool-")
            scratch_store = store_path
        config = EvaConfig(slo_latency_p50=slo_p50,
                           slo_latency_p99=slo_p99,
                           workers=pool, shards=shards or 2 * pool,
                           store_mode="durable", store_path=store_path)
        server = PoolServer(config, worker_threads=workers)
    else:
        config = EvaConfig(slo_latency_p50=slo_p50,
                           slo_latency_p99=slo_p99)
        server = EvaServer(config, max_workers=workers)
    stop = threading.Event()

    def run_client(handle, offset: int) -> None:
        i = 0
        while not stop.is_set():
            sql = queries[(i + offset) % len(queries)]
            i += 1
            try:
                handle.execute(sql)
            except ServerOverloadedError as error:
                _time.sleep(error.retry_after)
            except EvaError:  # pragma: no cover - workload best-effort
                return

    try:
        with server.start():
            # Pool workers exist only after start(), so registration
            # (broadcast in pool mode) happens inside the with-block.
            server.register_video(video)
            handles = [server.connect() for _ in range(clients)]
            threads = [threading.Thread(target=run_client, args=(h, i),
                                        name=f"top-client-{i}",
                                        daemon=True)
                       for i, h in enumerate(handles)]
            for thread in threads:
                thread.start()
            try:
                deadline = _time.monotonic() + duration
                if once:
                    # Let the workload produce a few records, then render.
                    while (server.stats().completed < clients
                           and _time.monotonic() < deadline):
                        _time.sleep(0.05)
                    print(_top_frame(server, clear=False), file=stdout)
                else:
                    while _time.monotonic() < deadline:
                        print(_top_frame(server,
                                         clear=stdout.isatty()),
                              file=stdout)
                        _time.sleep(interval)
                    print(_top_frame(server, clear=stdout.isatty()),
                          file=stdout)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=5.0)
    finally:
        if scratch_store is not None:
            shutil.rmtree(scratch_store, ignore_errors=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EVA (SIGMOD 2022) reproduction - exploratory video "
                    "analytics with materialized UDF views")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--policy", default="eva",
                       choices=[p.value for p in ReusePolicy],
                       help="reuse policy (default: eva)")
        p.add_argument("--dataset", default="ua_detrac:short",
                       help="ua_detrac[:size] | jackson | "
                            "synthetic:<frames>[:<density>]")
        p.add_argument("--store-path", default=None, metavar="DIR",
                       help="back the session with a durable view store "
                            "at DIR (WAL + snapshots; reuse state "
                            "survives restarts)")

    shell = sub.add_parser("shell", help="interactive EVAQL shell")
    common(shell)
    run = sub.add_parser("run", help="execute an EVAQL script")
    common(run)
    run.add_argument("script", help="path to a .sql file")
    bench = sub.add_parser("bench", help="run a VBENCH workload")
    bench.add_argument("--policy", default="eva",
                       choices=[p.value for p in ReusePolicy])
    bench.add_argument("--workload", default="high",
                       choices=["high", "low"])
    bench.add_argument("--frames", type=int, default=2000)
    bench.add_argument("--artifacts", default=None, metavar="DIR",
                       help="write trace.jsonl / metrics.json / "
                            "metrics.prom into DIR")
    bench.add_argument("--store-path", default=None, metavar="DIR",
                       help="run against a durable view store at DIR "
                            "(snapshot + flush on completion)")
    trace = sub.add_parser(
        "trace",
        help="run statement(s) and print the hierarchical span tree "
             "with reuse-decision audit records")
    common(trace)
    trace.add_argument("query",
                       help="';'-separated EVAQL statement(s); they "
                            "share one session, so later statements "
                            "show the reuse earlier ones materialized")
    trace.add_argument("--jsonl", default=None, metavar="PATH",
                       help="also export every event as JSON lines")
    trace.add_argument("--chrome-trace", default=None, metavar="PATH",
                       help="export the recorded spans as a Chrome "
                            "trace (chrome://tracing / Perfetto) on a "
                            "synthetic deterministic timeline")
    profile = sub.add_parser(
        "profile",
        help="run a VBENCH workload under the continuous profiler and "
             "print operator/model rollups")
    profile.add_argument("--policy", default="eva",
                         choices=[p.value for p in ReusePolicy])
    profile.add_argument("--workload", default="high",
                         choices=["high", "low"])
    profile.add_argument("--frames", type=int, default=2000)
    profile.add_argument("--top", type=int, default=10,
                         help="rows per rollup table")
    profile.add_argument("--jsonl", default=None, metavar="PATH",
                         help="also persist the profile rollups as "
                              "JSON lines")
    metrics = sub.add_parser(
        "metrics-dump",
        help="run the multi-client demo workload and print the "
             "Prometheus text exposition")
    metrics.add_argument("--dataset", default="synthetic:240",
                         help="ua_detrac[:size] | jackson | "
                              "synthetic:<frames>[:<density>]")
    metrics.add_argument("--clients", type=int, default=2)
    metrics.add_argument("--workers", type=int, default=2)
    serve = sub.add_parser(
        "serve-demo",
        help="smoke the multi-client query server (shared reuse state)")
    serve.add_argument("--dataset", default="synthetic:240",
                       help="ua_detrac[:size] | jackson | "
                            "synthetic:<frames>[:<density>]")
    serve.add_argument("--clients", type=int, default=4)
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--pool", type=int, default=0, metavar="N",
                       help="serve from N spawned worker processes "
                            "(PoolServer) instead of one in-process "
                            "server; --workers becomes threads per "
                            "worker")
    serve.add_argument("--shards", type=int, default=None,
                       help="view-store shards in --pool mode "
                            "(default: 2x the worker count)")
    serve.add_argument("--store-path", default=None, metavar="DIR",
                       help="durable store directory for --pool mode "
                            "(default: a scratch directory)")
    serve.add_argument("--rounds", type=int, default=2,
                       help="workload repetitions per client")
    serve.add_argument("--queue", type=int, default=16,
                       help="admission queue bound")
    flight = sub.add_parser(
        "flight",
        help="run statement(s) and dump their per-query flight records "
             "(stage breakdown, lock waits, store io, Eq. 3/4 costs)")
    common(flight)
    flight.add_argument("query",
                        help="';'-separated EVAQL statement(s) sharing "
                             "one session")
    flight.add_argument("--stage", default=None,
                        help="only records whose dominant stage matches "
                             "(queueing | contention | inference | "
                             "store-io | compute)")
    flight.add_argument("--jsonl", default=None, metavar="PATH",
                        help="export the raw flight records as JSON "
                             "lines")
    flight.add_argument("--slo-p50", type=float, default=None,
                        help="p50 latency target in seconds")
    flight.add_argument("--slo-p99", type=float, default=None,
                        help="p99 latency target in seconds (arms the "
                             "over-slo column)")
    lineage = sub.add_parser(
        "lineage",
        help="run statement(s) and report per-view provenance: what "
             "each materialized view cost, who reads it, what it saves "
             "(Eq. 3), and the derivation DAG")
    common(lineage)
    lineage.add_argument("query",
                         help="';'-separated EVAQL statement(s) sharing "
                              "one session")
    lineage.add_argument("--view", default=None, metavar="NAME",
                         help="drill into one view (name or lineage "
                              "id): creation provenance, reader "
                              "attribution, derivation edges")
    lineage.add_argument("--graph", default=None,
                         choices=["dot", "json"],
                         help="export the lineage DAG instead of the "
                              "table")
    lineage.add_argument("--jsonl", default=None, metavar="PATH",
                         help="write the restart-stable ledger records "
                              "as JSON lines "
                              "(tests/schemas/lineage.schema.json)")
    top = sub.add_parser(
        "top",
        help="live refreshing dashboard over a running multi-client "
             "server: QPS, queue depth, hit rate, latency quantiles, "
             "lock contention, SLO burn")
    top.add_argument("--dataset", default="synthetic:240",
                     help="ua_detrac[:size] | jackson | "
                          "synthetic:<frames>[:<density>]")
    top.add_argument("--clients", type=int, default=4)
    top.add_argument("--workers", type=int, default=4)
    top.add_argument("--duration", type=float, default=10.0,
                     help="seconds to keep the dashboard running")
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh period in seconds")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (CI smoke mode)")
    top.add_argument("--slo-p50", type=float, default=None,
                     help="p50 latency target in seconds")
    top.add_argument("--slo-p99", type=float, default=None,
                     help="p99 latency target in seconds")
    top.add_argument("--pool", type=int, default=0, metavar="N",
                     help="drive a PoolServer with N spawned worker "
                          "processes (--workers becomes threads per "
                          "worker); the dashboard shows fleet-wide "
                          "merged telemetry")
    top.add_argument("--shards", type=int, default=None,
                     help="view-store shards in --pool mode "
                          "(default: 2x the worker count)")
    top.add_argument("--store-path", default=None, metavar="DIR",
                     help="durable store directory for --pool mode "
                          "(default: a scratch directory)")
    store = sub.add_parser(
        "store",
        help="inspect a durable view store directory (read-only)")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    check = store_sub.add_parser(
        "check", help="integrity pass: checksums, torn tails, manifest "
                      "vs control-log consistency")
    check.add_argument("path", help="store directory")
    check.add_argument("--schema", default=None, metavar="PATH",
                       help="also validate manifest.jsonl against this "
                            "JSON schema")
    stats = store_sub.add_parser(
        "stats", help="view/partition/WAL sizes and audit counters")
    stats.add_argument("path", help="store directory")
    return parser


def main(argv: list[str] | None = None, stdin: IO[str] | None = None,
         stdout: IO[str] | None = None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "bench":
        return run_bench(args.policy, args.workload, args.frames, stdout,
                         artifacts=args.artifacts,
                         store_path=args.store_path)
    if args.command == "store":
        try:
            return run_store(args.store_command, args.path, stdout,
                             schema=getattr(args, "schema", None))
        except EvaError as error:
            print(f"error: {error}", file=stdout)
            return 1
    if args.command == "serve-demo":
        try:
            return run_serve_demo(args.dataset, args.clients, args.workers,
                                  args.rounds, args.queue, stdout,
                                  pool=args.pool, shards=args.shards,
                                  store_path=args.store_path)
        except ValueError as error:
            print(f"error: {error}", file=stdout)
            return 2
    if args.command == "trace":
        try:
            return run_trace(args.policy, args.dataset, args.query,
                             args.jsonl, stdout,
                             chrome_trace=args.chrome_trace)
        except ValueError as error:
            print(f"error: {error}", file=stdout)
            return 2
    if args.command == "profile":
        try:
            return run_profile(args.policy, args.workload, args.frames,
                               args.top, args.jsonl, stdout)
        except ValueError as error:
            print(f"error: {error}", file=stdout)
            return 2
    if args.command == "flight":
        try:
            return run_flight(args.policy, args.dataset, args.query,
                              stdout, stage=args.stage, jsonl=args.jsonl,
                              store_path=args.store_path,
                              slo_p50=args.slo_p50, slo_p99=args.slo_p99)
        except ValueError as error:
            print(f"error: {error}", file=stdout)
            return 2
    if args.command == "lineage":
        try:
            return run_lineage(args.policy, args.dataset, args.query,
                               stdout, view=args.view, graph=args.graph,
                               jsonl=args.jsonl,
                               store_path=args.store_path)
        except ValueError as error:
            print(f"error: {error}", file=stdout)
            return 2
    if args.command == "top":
        try:
            return run_top(args.dataset, args.clients, args.workers,
                           args.duration, args.interval, args.once,
                           stdout, slo_p50=args.slo_p50,
                           slo_p99=args.slo_p99, pool=args.pool,
                           shards=args.shards,
                           store_path=args.store_path)
        except ValueError as error:
            print(f"error: {error}", file=stdout)
            return 2
    if args.command == "metrics-dump":
        try:
            return run_metrics_dump(args.dataset, args.clients,
                                    args.workers, stdout)
        except ValueError as error:
            print(f"error: {error}", file=stdout)
            return 2
    try:
        session = make_session(args.policy, args.dataset,
                               store_path=args.store_path)
    except ValueError as error:
        print(f"error: {error}", file=stdout)
        return 2
    try:
        if args.command == "shell":
            return run_shell(session, stdin, stdout)
        return run_script(session, args.script, stdout)
    finally:
        session.close()
