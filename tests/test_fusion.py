"""Tests for the streaming pipeline and the zero-copy batch core.

Covers the compiler/pipeline fallback edges: constant-only predicates,
``__udf::`` column resolution inside the pipeline, short-circuit
semantics preserved across the pipeline boundary, kernel-cache eviction
and invalidation-on-calibration, and the one-allocation-per-column
``Batch.concat`` guarantee (via the debug aliasing checker).  Rows are
compared with :mod:`repro.reference`, the row-at-a-time oracle; the
oracle-vs-engine sweep lives in ``tests/test_vectorized_differential.py``.
"""

from __future__ import annotations

import ast
import copy
from pathlib import Path

import pytest

import repro.executor
from repro.clock import CostCategory
from repro.config import EvaConfig, ReusePolicy
from repro.errors import ExecutorError
from repro.executor.fusion import KernelCache, FusedPlan, fusion_key
from repro.models.zoo import default_zoo
from repro.session import EvaSession
from repro.storage.batch import Batch, ColumnView, aliasing_debug
from repro.types import VideoMetadata
from repro.video.synthetic import SyntheticVideo

FRAMES = 400


def make_video(name="tiny", frames=FRAMES):
    return SyntheticVideo(
        VideoMetadata(name=name, num_frames=frames, width=960, height=540,
                      fps=25.0, vehicles_per_frame=8.3), seed=7)


def make_session(*, mode="vectorized", policy=ReusePolicy.EVA,
                 video=None, **kwargs):
    session = EvaSession(config=EvaConfig(
        reuse_policy=policy, execution_mode=mode, **kwargs))
    session.register_video(video or make_video())
    return session


def run_all(session, queries):
    return [(tuple(r.columns), tuple(r.rows))
            for r in map(session.execute, queries)]


def reference_rows(queries):
    """``queries``' results from the reference."""
    return run_all(make_session(mode="row", policy=ReusePolicy.NONE),
                   queries)


# ---------------------------------------------------------------------------
# zero-copy batches + concat allocation accounting
# ---------------------------------------------------------------------------


class TestZeroCopyBatches:
    def test_selection_returns_views_not_copies(self):
        batch = Batch({"a": list(range(100)), "b": list(range(100))})
        with aliasing_debug() as debug:
            taken = batch.take([1, 3, 5])
            sliced = batch.slice(10, 20)
            masked = batch.filter_mask([i % 2 == 0 for i in range(100)])
            assert debug.column_allocations == 0  # nothing materialized
        assert isinstance(taken.column("a"), ColumnView)
        assert isinstance(sliced.column("b"), ColumnView)
        assert masked.num_rows == 50

    def test_materialization_copies_at_most_once(self):
        batch = Batch({"a": list(range(50))})
        with aliasing_debug() as debug:
            view = batch.take(list(range(0, 50, 2))).column("a")
            assert list(view) == list(range(0, 50, 2))
            first = debug.materializations
            assert list(view) == list(range(0, 50, 2))
            assert debug.materializations == first  # cached

    def test_unread_columns_never_materialize(self):
        batch = Batch({"hot": list(range(64)), "cold": list(range(64))})
        with aliasing_debug() as debug:
            out = batch.take([0, 5, 9])
            _ = list(out.column("hot"))
            materialized_for_hot = debug.materializations
        assert materialized_for_hot == 1  # "cold" untouched

    def test_aliasing_checker_detects_base_mutation(self):
        base = list(range(20))
        batch = Batch({"a": base})
        with aliasing_debug():
            view = batch.take([0, 1, 2]).column("a")
            base.append(99)  # mutate under an outstanding view
            with pytest.raises(ExecutorError, match="aliasing"):
                view.materialized()

    def test_concat_allocates_once_per_output_column(self):
        batches = [Batch({"a": [i, i + 1], "b": [str(i), str(i + 1)]})
                   for i in range(0, 12, 2)]
        with aliasing_debug() as debug:
            merged = Batch.concat(batches)
            assert debug.column_allocations == 2  # one per output column
        assert merged.num_rows == 12
        assert merged.column("a") == list(range(12))

    def test_concat_of_views_allocates_once_per_column(self):
        base = Batch({"a": list(range(40)), "b": list(range(40, 80))})
        pieces = [base.slice(0, 10), base.take(list(range(10, 25))),
                  base.slice(25, 40)]
        with aliasing_debug() as debug:
            merged = Batch.concat(pieces)
            # One output allocation per column; the input views also
            # materialize (at most once each) to be copied from.
            assert debug.column_allocations <= 2 + 2 * len(pieces)
            assert merged.column("a") == list(range(40))
        assert merged.column("b") == list(range(40, 80))

    def test_single_batch_concat_is_identity(self):
        batch = Batch({"a": [1, 2, 3]})
        assert Batch.concat([batch]) is batch


# ---------------------------------------------------------------------------
# compiler / fusion fallback edges
# ---------------------------------------------------------------------------

UDF_QUERY = ("SELECT id, bbox FROM tiny CROSS APPLY "
             "FastRCNNObjectDetector(frame) WHERE id < 60 "
             "AND CarType(frame, bbox) = 'Nissan';")


class TestFusionEdges:
    def test_constant_only_predicates_fuse(self):
        queries = [
            "SELECT id FROM tiny WHERE 1 < 2 AND id < 10;",
            "SELECT id FROM tiny WHERE 3 + 4 > 100;",
            "SELECT id, timestamp FROM tiny WHERE 1 = 1 AND id >= 395;",
        ]
        assert run_all(make_session(), queries) == reference_rows(queries)

    def test_udf_column_resolution_inside_fused_plan(self):
        # CarType's output lands in a ``__udf::`` column that the fused
        # filter above the classifier stage must resolve.
        fused_session = make_session()
        assert run_all(fused_session, [UDF_QUERY, UDF_QUERY]) == \
            reference_rows([UDF_QUERY, UDF_QUERY])
        # Both runs (miss-heavy, then hit-heavy) went through pipelines.
        assert fused_session.context.kernel_cache.stats()["size"] == 2

    def test_filter_group_demotes_when_upper_kernel_errors(self):
        from repro.executor.fusion import _FusedRuntime, _filter_group
        from repro.expressions.compiler import compile_expression
        from repro.parser.parser import parse_predicate

        session = make_session()
        evaluator = session.context.evaluator
        lower = compile_expression(parse_predicate("id < 3"), evaluator)
        upper = compile_expression(parse_predicate("x * 2 < 10"), evaluator)
        # Rows the lower filter removes hold values the upper kernel
        # cannot evaluate vectorized; serial execution never sees them.
        batch = Batch({"id": [0, 1, 2, 5, 6],
                       "x": [1, 2, 3, "boom", object()]})
        rt = _FusedRuntime(ReusePolicy.EVA, [])
        out = _filter_group(batch, rt,
                            ((lower, "Scan"), (upper, "Filter")))
        assert out.column("id") == [0, 1, 2]

    def test_limit_short_circuits_across_fusion_boundary(self):
        # LIMIT sits above the fused suffix; the fused operator must stay
        # a lazy generator so the limit stops the scan (and its READ_VIDEO
        # charges) after the first batch.
        session = make_session(batch_rows=16)
        out = session.execute("SELECT id FROM tiny WHERE id >= 0 LIMIT 5;")
        assert [row[0] for row in out.rows] == [0, 1, 2, 3, 4]
        assert session.clock.breakdown()[CostCategory.READ_VIDEO] == \
            pytest.approx(16 * session.config.costs.read_video_per_frame)

    def test_unfusable_boundary_demotes_only_the_tail(self):
        # GROUP BY cannot fuse, but the streaming suffix below it can.
        session = make_session()
        query = ("SELECT label, COUNT(*) FROM tiny CROSS APPLY "
                 "FastRCNNObjectDetector(frame) WHERE id < 40 "
                 "GROUP BY label;")
        session.execute(query)
        out = session.execute(query)
        assert session.context.kernel_cache.stats()["size"] > 0
        assert out.rows == list(reference_rows([query])[0][1])


# ---------------------------------------------------------------------------
# kernel cache: keying, eviction, invalidation
# ---------------------------------------------------------------------------


class TestKernelCache:
    def test_lru_eviction_counts(self):
        cache = KernelCache(capacity=2)

        plan_a, plan_b, plan_c = (FusedPlan(stages=(), scan_columns=None)
                                  for _ in range(3))
        cache.store(("a",), plan_a)
        cache.store(("b",), plan_b)
        assert cache.lookup(("a",)) is plan_a    # refreshes a's slot
        cache.store(("c",), plan_c)              # evicts b
        assert cache.lookup(("b",)) is None
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["size"] == 2
        assert stats["hits"] == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            KernelCache(capacity=0)
        with pytest.raises(ValueError):
            EvaConfig(kernel_cache_size=0)
        # A non-positive scan batch would fail inside range() (0) or
        # silently scan no rows (-3).
        for batch_rows in (0, -3):
            with pytest.raises(ValueError, match="batch_rows"):
                EvaConfig(batch_rows=batch_rows)

    def test_plans_differing_only_in_scan_ranges_share_one_key(self):
        from dataclasses import replace

        from repro.optimizer.plans import PhysScan, PhysFilter
        from repro.parser.parser import parse_predicate

        config = EvaConfig()
        scan = PhysScan(table_name="tiny", ranges=((0, 400),))
        plan = PhysFilter(child=scan,
                          predicate=parse_predicate("id < 10"))
        chain = [plan, scan]
        key = fusion_key(chain, config)
        windowed = replace(scan, ranges=((128, 256),))
        assert fusion_key([replace(plan, child=windowed), windowed],
                          config) == key
        other = replace(plan,
                        predicate=parse_predicate("id < 11"))
        assert fusion_key([other, scan], config) != key

    def test_session_cache_evicts_under_pressure(self):
        session = make_session(kernel_cache_size=1)
        q1 = "SELECT id FROM tiny WHERE id < 5;"
        q2 = "SELECT timestamp FROM tiny WHERE id < 5;"
        run_all(session, [q1, q2, q1, q2])
        stats = session.context.kernel_cache.stats()
        assert stats["size"] == 1
        assert stats["evictions"] >= 2

    def test_calibration_rebuild_invalidates_kernel_cache(self):
        session = EvaSession(config=EvaConfig(cost_calibration="apply"),
                             zoo=copy.deepcopy(default_zoo()))
        session.register_video(make_video(name="v", frames=120))
        # Drift after registration: the post-query calibration pass
        # rebuilds the catalog's believed costs ...
        session.catalog.zoo.get("yolo_tiny").per_tuple_cost = 0.2
        session.execute(
            "SELECT id FROM v CROSS APPLY ObjectDetector(frame) "
            "WHERE label = 'car' AND id < 60;")
        assert session.calibration_events  # calibration fired
        # ... and the kernel cache dropped its compiled plans with it.
        stats = session.context.kernel_cache.stats()
        assert stats["invalidations"] >= 1
        assert stats["size"] == 0

    def test_reset_reuse_state_invalidates(self):
        session = make_session()
        run_all(session, ["SELECT id FROM tiny WHERE id < 5;"])
        assert session.context.kernel_cache.stats()["size"] > 0
        session.reset_reuse_state()
        stats = session.context.kernel_cache.stats()
        assert stats["size"] == 0
        assert stats["invalidations"] == 1


# ---------------------------------------------------------------------------
# one engine without code generation; a reference that shares no code
# ---------------------------------------------------------------------------


class TestNoCodegen:
    """Enforced syntactically with :mod:`ast` (style of
    ``tests/test_obs_imports.py``) so the ban holds for every path."""

    EXECUTOR_DIR = Path(repro.executor.__file__).resolve().parent

    def test_executor_never_calls_exec_or_compile(self):
        files = sorted(self.EXECUTOR_DIR.rglob("*.py"))
        assert files
        violations = [
            f"{path.name}:{node.lineno}: {node.func.id}()"
            for path in files
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("exec", "compile", "eval")]
        assert not violations, "\n".join(violations)

    def test_the_reference_imports_nothing_from_the_executor(self):
        path = Path(repro.executor.__file__).resolve().parent.parent / \
            "reference.py"
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert "repro.optimizer.plans" in imported  # the walk saw imports
        assert not [name for name in imported
                    if name == "repro.executor"
                    or name.startswith("repro.executor.")]
