"""The differential suite: the engine against the reference.

Runs every VBENCH query (plus randomized predicate queries and
aggregate/sort shapes) on the streaming pipeline — under
``ReusePolicy.NONE`` and exact EVA reuse, at the default ``batch_rows``
and at one row per batch — and asserts that

* every query returns the result batch (columns and rows) of
  :mod:`repro.reference`, the row-at-a-time oracle
  (``execution_mode="row"``), which shares no code with the engine;
* batch size is invisible: both batch sizes leave identical view
  contents and #TI / #reused / #DI per UDF, and charge the virtual clock
  the same per category (``pytest.approx``: batching changes float
  *summation order*, never the charged amounts) — APPLY aside, which is
  one ``apply_per_batch`` per batch an APPLY stage sees, so it is
  compared as that count;
* under NONE, the engine evaluated exactly the inputs the reference did.
"""

from __future__ import annotations

import random

import pytest

from repro.clock import CostCategory
from repro.config import EvaConfig, ReusePolicy
from repro.parser.parser import parse
from repro.reference import Reference
from repro.session import EvaSession
from repro.vbench.queries import vbench_high, vbench_low

FRAMES = 400  # tiny_video's length; id bounds scale to it


def _run(queries, video, policy: ReusePolicy, **config):
    session = EvaSession(config=EvaConfig(reuse_policy=policy, **config))
    session.register_video(video)
    outcomes = []
    for sql in queries:
        result = session.execute(sql)
        outcomes.append((tuple(result.columns), tuple(result.rows)))
    return session, outcomes


class MemoizedReference(Reference):
    """The reference, each model answer computed once per process.

    The models are deterministic, so a stored answer is the answer; every
    evaluation is still recorded in ``inputs``.  The suites run many
    overlapping queries over the same few videos, and the scalar models
    are most of the reference's time.
    """

    answers: dict = {}

    def answer(self, model_name, video_name, frame_id, bbox=None):
        key = (model_name, video_name, frame_id, bbox)
        if key not in self.answers:
            self.answers[key] = super().answer(model_name, video_name,
                                               frame_id, bbox)
        return self.answers[key]


#: (video name, SQL) -> the reference that ran it, and its outcome.
#: Nothing is reused under NONE, so a query's rows do not depend on what
#: ran before it.
_EXPECTED: dict[tuple[str, str], tuple[Reference, tuple]] = {}


def _expected(queries, video) -> list[tuple[Reference, tuple]]:
    """The reference's run of every query, each distinct one run once
    per module."""
    session = None
    for sql in queries:
        if (video.name, sql) not in _EXPECTED:
            if session is None:
                session = EvaSession(config=EvaConfig(
                    reuse_policy=ReusePolicy.NONE, execution_mode="row"))
                session.register_video(video)
            reference = MemoizedReference(session.context.storage,
                                          session.catalog)
            batch = reference.run(
                session.optimizer.optimize(parse(sql)).plan)
            _EXPECTED[video.name, sql] = (reference, (
                tuple(batch.column_names), tuple(batch.to_tuples())))
    return [_EXPECTED[video.name, sql] for sql in queries]


def _assert_no_reuse_accounting(session: EvaSession, references) -> None:
    """Under NONE the engine evaluated exactly the inputs the reference
    did: #TI and #DI per model, and the UDF and READ_VIDEO charges as
    those counts times the cost table."""
    inputs: dict[str, list] = {}
    for reference in references:
        for name, keys in reference.inputs.items():
            inputs.setdefault(name, []).extend(keys)
    assert _invocations(session) == {
        name: (len(keys), 0, len(set(keys)))
        for name, keys in inputs.items()}
    costs = session.config.costs
    clock = session.clock.breakdown()
    assert clock[CostCategory.READ_VIDEO] == pytest.approx(
        sum(r.frames_read for r in references)
        * costs.read_video_per_frame)
    assert clock.get(CostCategory.UDF, 0.0) == pytest.approx(sum(
        len(keys) * session.catalog.zoo.get(name).per_tuple_cost
        for name, keys in inputs.items()))


def _view_contents(session: EvaSession) -> dict:
    snapshot = {}
    for name in session.view_store.names():
        view = session.view_store.get(name)
        snapshot[name] = {key: view.get(key) for key in view.keys()}
    return snapshot


def _clock_totals(session: EvaSession) -> dict:
    # OPTIMIZE is measured in *real* seconds (symbolic reduction work) and
    # legitimately differs between two runs of anything; APPLY is counted
    # in batches.  Every other category is charged from profiled
    # constants and must match.
    return {category: seconds
            for category, seconds in session.clock.breakdown().items()
            if category not in (CostCategory.OPTIMIZE, CostCategory.APPLY)}


def _apply_batches(session: EvaSession) -> float:
    return (session.clock.breakdown().get(CostCategory.APPLY, 0.0)
            / session.config.costs.apply_per_batch)


def _invocations(session: EvaSession) -> dict:
    """Per UDF: #TI, #reused and #DI."""
    return {name: (stats.total_invocations, stats.reused_invocations,
                   stats.distinct_invocations)
            for name, stats in session.metrics.udf_stats.items()}


def assert_engine_contract(queries, video,
                           policy: ReusePolicy = ReusePolicy.EVA,
                           **config):
    """``config`` applies to both engine sessions, the default batch size
    and one row per batch.  Returns both."""
    references, expected = zip(*_expected(queries, video))
    whole, whole_out = _run(queries, video, policy, **config)
    single, single_out = _run(queries, video, policy, batch_rows=1,
                              **config)
    if policy is ReusePolicy.NONE:
        _assert_no_reuse_accounting(whole, references)
    for index, want in enumerate(expected):
        assert whole_out[index] == want, f"query {index} diverged"
        assert single_out[index] == want, f"query {index} diverged at 1"
    assert _view_contents(whole) == _view_contents(single)
    assert _invocations(whole) == _invocations(single)
    whole_clock, single_clock = _clock_totals(whole), _clock_totals(single)
    assert set(whole_clock) == set(single_clock)
    for category, seconds in single_clock.items():
        assert whole_clock[category] == pytest.approx(
            seconds, rel=1e-9, abs=1e-12), category
    batches = [_apply_batches(whole), _apply_batches(single)]
    assert batches == pytest.approx([round(b) for b in batches])
    assert batches[0] <= batches[1]
    return whole, single


def _operators(session: EvaSession, sql: str) -> list:
    """The operator chain the session's engine builds for ``sql``."""
    from repro.executor.engine import ExecutionEngine

    plan = session.optimizer.optimize(parse(sql)).plan
    operators = []
    op = ExecutionEngine(session.context).build(plan)
    while op is not None:
        operators.append(op)
        op = getattr(op, "child", None)
    return operators


class TestVbenchDifferential:
    def test_vbench_high_eva(self, tiny_video):
        assert_engine_contract(vbench_high("tiny", FRAMES), tiny_video)

    def test_vbench_low_eva(self, tiny_video):
        assert_engine_contract(vbench_low("tiny", FRAMES), tiny_video)

    def test_vbench_high_no_reuse(self, tiny_video):
        # Miss-heavy: every query evaluates models; exercises the batched
        # predict_batch path without any view probes.
        assert_engine_contract(vbench_high("tiny", FRAMES)[:3],
                                tiny_video, ReusePolicy.NONE)

    def test_repeated_queries_hit_heavy(self, tiny_video):
        # Re-running the same queries makes the second pass ~100% view
        # hits: exercises the bulk get_many hit partition.
        queries = vbench_high("tiny", FRAMES)[:2]
        assert_engine_contract(queries + queries, tiny_video)

    def test_sparse_video(self, sparse_video):
        # Sparse frames produce empty detection sets: empty keys must be
        # recorded and reused identically (APPLY must not re-evaluate).
        assert_engine_contract(vbench_high("sparse", 300)[:4],
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
        assert_engine_contract(_random_queries(seed), tiny_video)

    def test_random_predicates_no_reuse(self, tiny_video):
        assert_engine_contract(_random_queries(5, count=4), tiny_video,
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


class TestCodedCompares:
    def test_pipeline_matches_the_reference(self, tiny_video):
        queries = CODED_QUERIES + CODED_QUERIES
        whole, _ = assert_engine_contract(queries, tiny_video)
        assert {"car_type", "color_det"} <= set(_invocations(whole))
        # The second pass reused every UDF result.
        reused = sum(m.reused_counts.get(name, 0)
                     for m in whole.metrics.query_metrics[5:]
                     for name in ("car_type", "color_det"))
        assert reused > 0


class TestOnePipeline:
    """Under ``vectorized`` the whole streaming suffix is one operator."""

    def test_every_plan_builds_exactly_one_pipeline(self, tiny_video):
        from repro.executor.fusion import FusedPipelineOperator
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

    def test_context_without_a_kernel_cache_runs_the_pipeline(
            self, tiny_video):
        from dataclasses import replace

        from repro.executor.engine import ExecutionEngine
        from repro.executor.fusion import FusedPipelineOperator

        session = EvaSession(config=EvaConfig())
        session.register_video(tiny_video)
        plan = session.optimizer.optimize(parse(EXPLAIN_QUERY)).plan
        uncached = replace(session.context, kernel_cache=None)
        root = ExecutionEngine(uncached).build(plan)
        assert isinstance(root, FusedPipelineOperator)
        rows = root.run_to_completion().to_tuples()
        assert tuple(rows) == _expected([EXPLAIN_QUERY], tiny_video)[0][1][1]
        assert session.context.kernel_cache.stats()["misses"] == 0


EXPLAIN_QUERY = ("SELECT id, bbox FROM tiny CROSS APPLY "
                 "FastRCNNObjectDetector(frame) "
                 "WHERE id < 50 AND label = 'car';")


class TestKernelReporting:
    def test_explain_analyze_reports_kernel_modes(self, tiny_video):
        # A first execution: nothing is cached, nothing is deferred —
        # every node of the streaming suffix runs inside the pipeline.
        session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
        session.register_video(tiny_video)
        result = session.execute(f"EXPLAIN ANALYZE {EXPLAIN_QUERY}")
        lines = [row[0] for row in result.rows]
        assert len(lines) == 4
        assert all("kernel=fused" in line for line in lines)
        assert "fusion-boundary=4ops" in lines[0]
        assert all("fused-into=Project" in line for line in lines[1:])

    def test_execution_mode_validation(self):
        with pytest.raises(ValueError):
            EvaConfig(execution_mode="turbo")
        with pytest.raises(ValueError, match="ReusePolicy.NONE"):
            EvaConfig(execution_mode="row")  # EVA, the default policy
        EvaConfig(reuse_policy=ReusePolicy.NONE, execution_mode="row")


class TestReference:
    """A row-mode session answers through the reference, and the
    reference leaves no trace in it."""

    def test_charges_records_and_stores_nothing(self, tiny_video):
        queries = vbench_high("tiny", FRAMES)[:3]
        session, outcomes = _run(queries, tiny_video, ReusePolicy.NONE,
                                 execution_mode="row")
        assert outcomes == [outcome for _, outcome
                            in _expected(queries, tiny_video)]
        assert any(rows for _, rows in outcomes)
        assert session.clock.total() == pytest.approx(
            session.clock.breakdown().get(CostCategory.OPTIMIZE, 0.0))
        assert session.metrics.udf_stats == {}
        assert list(session.view_store.names()) == []
