"""Tests for EXPLAIN ANALYZE and operator instrumentation."""

import pytest

from repro.config import EvaConfig, ReusePolicy
from repro.session import EvaSession


@pytest.fixture
def session(tiny_video):
    # Per-operator attribution needs one operator per plan node: the
    # row operator tree.  The pipeline collapses the streaming suffix
    # into a single operator (its reporting is covered by
    # TestFusedReporting below).
    session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA,
                                          execution_mode="row"))
    session.register_video(tiny_video)
    return session


QUERY = ("SELECT id, bbox FROM tiny CROSS APPLY "
         "FastRCNNObjectDetector(frame) WHERE id < 20 AND label = 'car' "
         "AND CarType(frame, bbox) = 'Nissan';")


class TestExplainAnalyze:
    def test_annotates_every_operator(self, session):
        result = session.execute(f"EXPLAIN ANALYZE {QUERY}")
        lines = [row[0] for row in result.rows]
        assert all("rows=" in line and "time=" in line for line in lines)
        assert any(line.lstrip().startswith("Scan") for line in lines)

    def test_row_counts_decrease_down_the_filter_chain(self, session):
        result = session.execute(f"EXPLAIN ANALYZE {QUERY}")
        lines = [row[0] for row in result.rows]

        def rows_of(prefix):
            line = next(l for l in lines if l.lstrip().startswith(prefix))
            return int(line.split("rows=")[1].split()[0])

        scan_rows = rows_of("Scan")
        detector_rows = rows_of("DetectorApply")
        project_rows = rows_of("Project")
        assert scan_rows == 20
        assert detector_rows > scan_rows  # cross apply fans out
        assert project_rows <= detector_rows

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
    def test_every_plan_node_gets_a_wrapper(self, session):
        from repro.executor.instrument import InstrumentedEngine
        from repro.optimizer.plans import walk_plan
        from repro.parser.parser import parse

        optimized = session.optimizer.optimize(parse(QUERY))
        engine = InstrumentedEngine(session.context)
        engine.run(optimized.plan)
        for node in walk_plan(optimized.plan):
            assert id(node) in engine.instrumented

    def test_wrapper_counts_match_child_output(self, session):
        from repro.executor.instrument import InstrumentedEngine
        from repro.optimizer.plans import PhysScan, walk_plan
        from repro.parser.parser import parse

        optimized = session.optimizer.optimize(parse(QUERY))
        engine = InstrumentedEngine(session.context)
        result = engine.run(optimized.plan)
        scan_node = next(n for n in walk_plan(optimized.plan)
                         if isinstance(n, PhysScan))
        scan_stats = engine.instrumented[id(scan_node)]
        assert scan_stats.rows_out == 20
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

        optimized = session.optimizer.optimize(parse(QUERY))
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

    def test_udf_virtual_time_lands_on_the_apply_operators(self, session):
        """The detector/classifier operators own the model time — the
        Project/Filter parents above them must not be charged for it."""
        all_stats = self.run_stats(session)
        by_label = {s.label: s for s in all_stats}
        heavy = (by_label["DetectorApply"].self_virtual
                 + by_label.get(
                     "ClassifierApply",
                     by_label["DetectorApply"]).self_virtual)
        assert heavy > 0.0
        project = by_label["Project"]
        assert project.self_virtual < 0.01 * project.virtual + 1e-9

    def test_explain_analyze_reports_self_column(self, session):
        result = session.execute(f"EXPLAIN ANALYZE {QUERY}")
        lines = [row[0] for row in result.rows]
        assert all("self=" in line for line in lines)


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

    def test_fused_result_matches_unfused(self, fused_session, session):
        fused = fused_session.execute(QUERY)
        unfused = session.execute(QUERY)
        assert fused.rows == unfused.rows
        assert fused.columns == unfused.columns

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
