"""Tests for EXPLAIN ANALYZE and operator instrumentation.

The instrumented engine wraps the operators the engine builds: the
streaming pipeline at its fusion boundary, and each blocking operator of
the prefix above it.  The plan nodes the pipeline covers report the
boundary they were fused into.
"""

import pytest

from repro.config import EvaConfig, ReusePolicy
from repro.session import EvaSession


@pytest.fixture
def session(tiny_video):
    session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
    session.register_video(tiny_video)
    return session


QUERY = ("SELECT id, bbox FROM tiny CROSS APPLY "
         "FastRCNNObjectDetector(frame) WHERE id < 20 AND label = 'car' "
         "AND CarType(frame, bbox) = 'Nissan';")
#: The same pipeline under a blocking prefix: GROUP BY, ORDER BY, LIMIT.
PREFIX_QUERY = ("SELECT label, COUNT(*) FROM tiny CROSS APPLY "
                "FastRCNNObjectDetector(frame) WHERE id < 20 "
                "AND score > 0.3 GROUP BY label "
                "ORDER BY COUNT(*) DESC LIMIT 1;")


def _analyzed(session, sql: str) -> list[str]:
    return [row[0] for row in session.execute(f"EXPLAIN ANALYZE {sql}").rows]


def _rows_of(lines: list[str], label: str) -> int:
    line = next(line for line in lines if line.lstrip().startswith(label))
    return int(line.split("rows=")[1].split()[0])


class TestExplainAnalyze:
    def test_annotates_every_operator(self, session):
        lines = _analyzed(session, PREFIX_QUERY)
        fused = [line for line in lines if "fused-into=" in line]
        measured = [line for line in lines if line not in fused]
        assert all("rows=" in line and "time=" in line
                   for line in measured)
        # Limit, OrderBy, GroupBy and the fusion boundary are measured;
        # the scan is a stage of the pipeline.
        assert len(measured) == 4
        assert any(line.lstrip().startswith("Scan") for line in fused)

    def test_row_counts_shrink_up_the_blocking_prefix(self, session):
        lines = _analyzed(session, PREFIX_QUERY)
        boundary = next(line for line in lines
                        if "fusion-boundary=" in line)
        boundary_rows = int(boundary.split("rows=")[1].split()[0])
        groups = _rows_of(lines, "GroupBy")
        assert boundary_rows > groups > 0  # many rows, a few labels
        assert _rows_of(lines, "OrderBy") == groups
        assert _rows_of(lines, "Limit") == 1

    def test_analyze_actually_executes(self, session):
        session.execute(f"EXPLAIN ANALYZE {QUERY}")
        stats = session.metrics.udf_stats
        assert stats["fasterrcnn_resnet50"].total_invocations == 20

    def test_analyze_materializes_for_later_queries(self, session):
        """EXPLAIN ANALYZE runs for real, so its results are reusable."""
        session.execute(f"EXPLAIN ANALYZE {QUERY}")
        session.execute(QUERY)
        detector = session.metrics.udf_stats["fasterrcnn_resnet50"]
        assert detector.reused_invocations == 20

    def test_plain_explain_does_not_execute(self, session):
        session.execute(f"EXPLAIN {QUERY}")
        assert session.metrics.udf_stats == {}

    def test_matches_normal_execution_results(self, session):
        analyzed = session.execute(f"EXPLAIN ANALYZE {QUERY}")
        root_line = analyzed.rows[0][0]
        root_rows = int(root_line.split("rows=")[1].split()[0])
        direct = session.execute(QUERY)
        assert root_rows == len(direct)


class TestInstrumentedEngineInternals:
    def test_every_plan_node_is_wrapped_or_fused(self, session):
        from repro.executor.instrument import InstrumentedEngine
        from repro.optimizer.plans import walk_plan
        from repro.parser.parser import parse

        optimized = session.optimizer.optimize(parse(PREFIX_QUERY))
        engine = InstrumentedEngine(session.context)
        engine.run(optimized.plan)
        nodes = list(walk_plan(optimized.plan))
        wrapped = [node for node in nodes if id(node) in engine.instrumented]
        fused = [node for node in nodes if id(node) in engine.fused_markers]
        assert len(wrapped) == 4 and len(wrapped) + len(fused) == len(nodes)
        assert nodes[:4] == wrapped  # the prefix, then the boundary

    def test_wrapper_counts_match_child_output(self, session):
        from repro.executor.instrument import InstrumentedEngine
        from repro.optimizer.plans import PhysGroupBy, walk_plan
        from repro.parser.parser import parse

        optimized = session.optimizer.optimize(parse(
            PREFIX_QUERY.replace(" ORDER BY COUNT(*) DESC LIMIT 1", "")))
        engine = InstrumentedEngine(session.context)
        result = engine.run(optimized.plan)
        assert isinstance(optimized.plan, PhysGroupBy)
        boundary = engine.instrumented[id(optimized.plan.child)]
        # Every row out of the pipeline is counted in one group.
        assert boundary.rows_out == sum(
            count for _, count in result.to_tuples())
        root_stats = engine.instrumented[id(optimized.plan)]
        assert root_stats.rows_out == result.num_rows

    def test_elapsed_time_recorded(self, session):
        from repro.executor.instrument import InstrumentedEngine
        from repro.parser.parser import parse

        optimized = session.optimizer.optimize(parse(QUERY))
        engine = InstrumentedEngine(session.context)
        engine.run(optimized.plan)
        root_stats = engine.instrumented[id(optimized.plan)]
        assert root_stats.elapsed > 0.0


class TestSelfTimeAttribution:
    """Self time = subtree minus direct children: no double counting."""

    def run_stats(self, session):
        from repro.executor.instrument import InstrumentedEngine
        from repro.parser.parser import parse

        optimized = session.optimizer.optimize(parse(PREFIX_QUERY))
        engine = InstrumentedEngine(session.context)
        engine.run(optimized.plan)
        return engine.operator_stats(optimized.plan)

    def test_self_time_never_exceeds_subtree_time(self, session):
        for stats in self.run_stats(session):
            assert 0.0 <= stats.self_elapsed <= stats.elapsed + 1e-12
            assert 0.0 <= stats.self_virtual <= stats.virtual + 1e-12

    def test_self_times_sum_to_root_subtree(self, session):
        """The fix for the old double counting: per-operator self times
        partition the root's subtree total (+- clamping slack)."""
        all_stats = self.run_stats(session)
        root = all_stats[0]
        assert root.depth == 0
        total_self_virtual = sum(s.self_virtual for s in all_stats)
        assert total_self_virtual == pytest.approx(root.virtual,
                                                   abs=1e-9)
        total_self_elapsed = sum(s.self_elapsed for s in all_stats)
        # Wall clocks are noisy; clamping can only shrink the sum.
        assert total_self_elapsed <= root.elapsed * 1.05 + 1e-6

    def test_udf_virtual_time_lands_on_the_fusion_boundary(self, session):
        """The pipeline owns the model time — the blocking operators
        above it must not be charged for it."""
        all_stats = self.run_stats(session)
        boundary = next(s for s in all_stats if s.fused_ops)
        assert boundary.self_virtual > 0.0
        for label in ("Limit", "OrderBy", "GroupBy"):
            prefix = next(s for s in all_stats if s.label == label)
            assert prefix.self_virtual < 0.01 * prefix.virtual + 1e-9

    def test_explain_analyze_reports_self_column(self, session):
        lines = _analyzed(session, PREFIX_QUERY)
        assert all(("self=" in line) != ("fused-into=" in line)
                   for line in lines)


class TestFusedReporting:
    """EXPLAIN ANALYZE over a fused plan reports the fusion boundary."""

    @pytest.fixture
    def fused_session(self, tiny_video):
        session = EvaSession(config=EvaConfig(
            reuse_policy=ReusePolicy.EVA))
        session.register_video(tiny_video)
        return session

    def test_boundary_and_covered_nodes_annotated(self, fused_session):
        lines = [row[0] for row in fused_session.execute(
            f"EXPLAIN ANALYZE {QUERY}").rows]
        boundary = [line for line in lines if "fusion-boundary=" in line]
        covered = [line for line in lines if "fused-into=" in line]
        assert len(boundary) == 1
        assert "kernel=fused" in boundary[0]
        # Every covered node names its boundary; the scan is among them.
        assert covered
        assert all("kernel=fused" in line for line in covered)
        assert any(line.lstrip().startswith("Scan") for line in covered)

    def test_fused_result_matches_the_reference(self, fused_session,
                                                tiny_video):
        reference = EvaSession(config=EvaConfig(
            reuse_policy=ReusePolicy.NONE, execution_mode="row"))
        reference.register_video(tiny_video)
        fused = fused_session.execute(f"EXPLAIN ANALYZE {QUERY}")
        assert fused.rows and fused_session.execute(QUERY).rows == \
            reference.execute(QUERY).rows

    def test_the_row_mode_explains_the_engine(self, tiny_video):
        """EXPLAIN ANALYZE instruments the engine, never the reference."""
        session = EvaSession(config=EvaConfig(
            reuse_policy=ReusePolicy.NONE, execution_mode="row"))
        session.register_video(tiny_video)
        lines = _analyzed(session, QUERY)
        assert "fusion-boundary=" in lines[0]
        assert session.metrics.udf_stats[
            "fasterrcnn_resnet50"].total_invocations == 20

    def test_boundary_rows_match_query_output(self, fused_session):
        analyzed = fused_session.execute(f"EXPLAIN ANALYZE {QUERY}")
        root_line = analyzed.rows[0][0]
        root_rows = int(root_line.split("rows=")[1].split()[0])
        direct = fused_session.execute(QUERY)
        assert root_rows == len(direct)

    def test_operator_stats_mark_covered_nodes(self, fused_session):
        from repro.executor.instrument import InstrumentedEngine
        from repro.parser.parser import parse

        optimized = fused_session.optimizer.optimize(parse(QUERY))
        engine = InstrumentedEngine(fused_session.context)
        engine.run(optimized.plan)
        stats = engine.operator_stats(optimized.plan)
        fused = [s for s in stats if s.fused_into is not None]
        boundary = [s for s in stats if s.fused_ops]
        assert fused and boundary
        assert boundary[0].kernel_mode == "fused"
        assert boundary[0].fused_ops == len(fused) + 1
        assert {s.fused_into for s in fused} == {boundary[0].label}
