"""The differential suite: the row oracle vs the pipeline engine.

Runs every VBENCH query (plus randomized predicate queries and
aggregate/sort shapes) twice — once under ``execution_mode="row"`` (the
row operator tree, the oracle) and once under ``"vectorized"`` (the
streaming pipeline: compiled kernels, bulk view probes, batched model
invocation) — under ``ReusePolicy.NONE`` and exact EVA reuse, the
policies the row tree runs, and asserts that

* every query returns the identical result batch (columns and rows),
* the materialized-view stores end up with identical contents, and
* the virtual clock's per-category totals match (``pytest.approx``:
  batching changes float *summation order*, never the charged amounts).
"""

from __future__ import annotations

import random

import pytest

from repro.clock import CostCategory
from repro.config import EvaConfig, ReusePolicy
from repro.session import EvaSession
from repro.vbench.queries import vbench_high, vbench_low

FRAMES = 400  # tiny_video's length; id bounds scale to it


def _run(queries, video, policy: ReusePolicy, mode: str, **config):
    session = EvaSession(config=EvaConfig(reuse_policy=policy,
                                          execution_mode=mode, **config))
    session.register_video(video)
    outcomes = []
    for sql in queries:
        result = session.execute(sql)
        outcomes.append((tuple(result.columns), tuple(result.rows)))
    return session, outcomes


def _view_contents(session: EvaSession) -> dict:
    snapshot = {}
    for name in session.view_store.names():
        view = session.view_store.get(name)
        snapshot[name] = {key: view.get(key) for key in view.keys()}
    return snapshot


def _clock_totals(session: EvaSession) -> dict:
    # OPTIMIZE is measured in *real* seconds (symbolic reduction work) and
    # legitimately differs between two runs of anything; every other
    # category is charged from profiled constants and must match.
    return {category: seconds
            for category, seconds in session.clock.breakdown().items()
            if category is not CostCategory.OPTIMIZE}


def assert_modes_equivalent(queries, video,
                            policy: ReusePolicy = ReusePolicy.EVA,
                            **config):
    """``config`` applies to both sessions.  Returns both."""
    row_session, row_out = _run(queries, video, policy, "row", **config)
    vec_session, vec_out = _run(queries, video, policy, "vectorized",
                                **config)
    for index, (row_result, vec_result) in enumerate(zip(row_out, vec_out)):
        assert vec_result == row_result, f"query {index} diverged"
    assert _view_contents(vec_session) == _view_contents(row_session)
    row_clock = _clock_totals(row_session)
    vec_clock = _clock_totals(vec_session)
    assert set(vec_clock) == set(row_clock)
    for category, seconds in row_clock.items():
        assert vec_clock[category] == pytest.approx(
            seconds, rel=1e-9, abs=1e-12), category
    return row_session, vec_session


def _operators(session: EvaSession, sql: str) -> list:
    """The operator chain the session's engine builds for ``sql``."""
    from repro.executor.engine import ExecutionEngine
    from repro.parser.parser import parse

    plan = session.optimizer.optimize(parse(sql)).plan
    operators = []
    op = ExecutionEngine(session.context).build(plan)
    while op is not None:
        operators.append(op)
        op = getattr(op, "child", None)
    return operators


class TestVbenchDifferential:
    def test_vbench_high_eva(self, tiny_video):
        assert_modes_equivalent(vbench_high("tiny", FRAMES), tiny_video)

    def test_vbench_low_eva(self, tiny_video):
        assert_modes_equivalent(vbench_low("tiny", FRAMES), tiny_video)

    def test_vbench_high_no_reuse(self, tiny_video):
        # Miss-heavy: every query evaluates models; exercises the batched
        # predict_batch path without any view probes.
        assert_modes_equivalent(vbench_high("tiny", FRAMES)[:3],
                                tiny_video, ReusePolicy.NONE)

    def test_repeated_queries_hit_heavy(self, tiny_video):
        # Re-running the same queries makes the second pass ~100% view
        # hits: exercises the bulk get_many hit partition.
        queries = vbench_high("tiny", FRAMES)[:2]
        assert_modes_equivalent(queries + queries, tiny_video)

    def test_sparse_video(self, sparse_video):
        # Sparse frames produce empty detection sets: empty keys must be
        # recorded and reused identically (APPLY must not re-evaluate).
        assert_modes_equivalent(vbench_high("sparse", 300)[:4],
                                sparse_video)


def _random_queries(seed: int, count: int = 8) -> list[str]:
    """Randomized predicate/shape queries over the VBENCH schema."""
    rng = random.Random(seed)
    colors = ["Gray", "Red", "White", "Black"]
    types = ["Nissan", "Toyota", "Ford", "Honda"]
    labels = ["car", "bus", "van"]

    def clause() -> str:
        kind = rng.randrange(7)
        if kind == 0:
            return f"id {rng.choice(['<', '>=', '>'])} " \
                   f"{rng.randrange(0, FRAMES)}"
        if kind == 1:
            return f"area > {rng.choice([0.05, 0.1, 0.2, 0.3])}"
        if kind == 2:
            return f"score > {rng.choice([0.3, 0.5, 0.7])}"
        if kind == 3:
            return f"label = '{rng.choice(labels)}'"
        if kind == 4:
            return f"CarType(frame, bbox) = '{rng.choice(types)}'"
        if kind == 5:
            return f"ColorDet(frame, bbox) = '{rng.choice(colors)}'"
        # Arithmetic over columns: exercises the numeric kernels.
        return f"id * 2 + {rng.randrange(5)} < {rng.randrange(FRAMES) * 2}"

    queries = []
    for _ in range(count):
        clauses = " AND ".join(clause()
                               for _ in range(rng.randrange(1, 4)))
        shape = rng.randrange(4)
        if shape == 0:
            select, suffix = "id, bbox", ""
        elif shape == 1:
            select, suffix = "COUNT(*), AVG(area), MAX(score)", ""
        elif shape == 2:
            select, suffix = ("label, COUNT(*)",
                              " GROUP BY label ORDER BY COUNT(*) DESC")
        else:
            select, suffix = "id, area", " ORDER BY area DESC LIMIT 17"
        queries.append(
            f"SELECT {select} FROM tiny CROSS APPLY "
            f"FastRCNNObjectDetector(frame) WHERE {clauses}{suffix};")
    return queries


class TestRandomizedDifferential:
    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_random_predicates_eva(self, tiny_video, seed):
        assert_modes_equivalent(_random_queries(seed), tiny_video)

    def test_random_predicates_no_reuse(self, tiny_video):
        assert_modes_equivalent(_random_queries(5, count=4), tiny_video,
                                ReusePolicy.NONE)


#: ``=`` / ``!=`` over dictionary-coded view columns — the detector's
#: ``label``, classifier answers — under OR / NOT and in classifier
#: chains.  Run twice: the second pass is all hits, where the compares
#: read the views' codes.
CODED_QUERIES = [
    "SELECT id, label FROM tiny CROSS APPLY FastRCNNObjectDetector(frame) "
    "WHERE id < 120 AND label != 'car';",
    "SELECT id, bbox FROM tiny CROSS APPLY FastRCNNObjectDetector(frame) "
    "WHERE id < 150 AND label = 'car' AND CarType(frame, bbox) != 'Nissan';",
    "SELECT id, label, score FROM tiny CROSS APPLY "
    "FastRCNNObjectDetector(frame) WHERE id >= 50 AND id < 200 "
    "AND (label = 'bus' OR NOT label = 'car');",
    "SELECT id, bbox FROM tiny CROSS APPLY FastRCNNObjectDetector(frame) "
    "WHERE id < 150 AND label = 'car' AND (CarType(frame, bbox) = 'Toyota' "
    "OR NOT ColorDet(frame, bbox) = 'Gray');",
    "SELECT id, area FROM tiny CROSS APPLY FastRCNNObjectDetector(frame) "
    "WHERE id >= 100 AND id < 220 AND CarType(frame, bbox) = 'Ford' "
    "AND ColorDet(frame, bbox) != 'Red' AND label != '';",
]


def _invocations(session: EvaSession) -> dict:
    """Per UDF: #TI and #DI."""
    return {name: (stats.total_invocations, stats.distinct_invocations)
            for name, stats in session.metrics.udf_stats.items()}


class TestCodedCompares:
    def test_pipeline_matches_the_no_reuse_row_oracle(self, tiny_video):
        queries = CODED_QUERIES + CODED_QUERIES
        oracle, oracle_out = _run(queries, tiny_video, ReusePolicy.NONE,
                                  "row")
        row_session, vec_session = assert_modes_equivalent(queries,
                                                           tiny_video)
        _, vec_out = _run(queries, tiny_video, ReusePolicy.EVA,
                          "vectorized")
        assert vec_out == oracle_out
        assert _invocations(vec_session) == _invocations(row_session) == \
            _invocations(oracle)
        assert {"car_type", "color_det"} <= set(_invocations(oracle))
        # The second pass reused every UDF result.
        reused = sum(m.reused_counts.get(name, 0)
                     for m in vec_session.metrics.query_metrics[5:]
                     for name in ("car_type", "color_det"))
        assert reused > 0


class TestOnePipeline:
    """Under ``vectorized`` the whole streaming suffix is one operator."""

    def test_every_plan_builds_exactly_one_pipeline(self, tiny_video):
        from repro.executor.fusion import FusedPipelineOperator
        from repro.executor.operators import (FilterOperator,
                                              ProjectOperator, ScanOperator)
        from repro.vbench.generator import WorkloadSpec, generate_workload

        generated = generate_workload(
            "tiny", FRAMES, WorkloadSpec(num_queries=40, seed=3))
        queries = (vbench_high("tiny", FRAMES) + vbench_low("tiny", FRAMES)
                   + list(generated) + _random_queries(11))
        session = EvaSession(config=EvaConfig())
        session.register_video(tiny_video)
        for sql in queries:
            operators = _operators(session, sql)
            pipelines = [op for op in operators
                         if isinstance(op, FusedPipelineOperator)]
            assert len(pipelines) == 1, sql
            assert operators[-1] is pipelines[0], sql
            assert not any(isinstance(op, (ScanOperator, FilterOperator,
                                           ProjectOperator))
                           for op in operators), sql

    def test_context_without_a_kernel_cache_runs_the_pipeline(
            self, tiny_video):
        from dataclasses import replace

        from repro.executor.engine import ExecutionEngine
        from repro.executor.fusion import FusedPipelineOperator
        from repro.parser.parser import parse

        session = EvaSession(config=EvaConfig())
        session.register_video(tiny_video)
        plan = session.optimizer.optimize(parse(EXPLAIN_QUERY)).plan
        uncached = replace(session.context, kernel_cache=None)
        root = ExecutionEngine(uncached).build(plan)
        assert isinstance(root, FusedPipelineOperator)
        rows = root.run_to_completion().to_tuples()
        row_session, row_out = _run([EXPLAIN_QUERY], tiny_video,
                                    ReusePolicy.EVA, "row")
        assert tuple(rows) == row_out[0][1]
        assert session.context.kernel_cache.stats()["misses"] == 0


EXPLAIN_QUERY = ("SELECT id, bbox FROM tiny CROSS APPLY "
                 "FastRCNNObjectDetector(frame) "
                 "WHERE id < 50 AND label = 'car';")


class TestKernelReporting:
    def _annotated(self, tiny_video, mode: str) -> str:
        session = EvaSession(config=EvaConfig(
            reuse_policy=ReusePolicy.EVA, execution_mode=mode))
        session.register_video(tiny_video)
        result = session.execute(f"EXPLAIN ANALYZE {EXPLAIN_QUERY}")
        return "\n".join(row[0] for row in result.rows)

    def test_explain_analyze_reports_kernel_modes(self, tiny_video):
        # A first execution: nothing is cached, nothing is deferred —
        # every node of the streaming suffix runs inside the pipeline.
        lines = self._annotated(tiny_video, "vectorized").splitlines()
        assert len(lines) == 4
        assert all("kernel=fused" in line for line in lines)
        assert "fusion-boundary=4ops" in lines[0]
        assert all("fused-into=Project" in line for line in lines[1:])

    def test_row_mode_reports_row_kernels(self, tiny_video):
        annotated = self._annotated(tiny_video, "row")
        assert "kernel=row" in annotated
        assert "kernel=fused" not in annotated

    def test_execution_mode_validation(self):
        with pytest.raises(ValueError):
            EvaConfig(execution_mode="turbo")
