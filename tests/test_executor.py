"""Tests for individual execution-engine pieces: relational operators,
the function cache, and the HashStash recycler graph."""

import threading

import pytest

from repro.baselines.hashstash import RecyclerEntry, RecyclerGraph
from repro.clock import CostCategory, SimulationClock
from repro.config import EvaConfig, ReusePolicy
from repro.costs import CostConstants
from repro.errors import ExecutorError
from repro.executor.function_cache import FunctionCache
from repro.expressions.expr import (
    AggregateCall,
    ColumnRef,
    CompOp,
    Comparison,
    Literal,
    Star,
)
from repro.expressions.compiler import compile_expression
from repro.optimizer.plans import PhysGroupBy, PhysLimit, PhysOrderBy
from repro.session import EvaSession
from repro.storage.batch import Batch


class _StubOperator:
    """Feeds fixed batches into an operator under test."""

    def __init__(self, batches):
        self._batches = batches

    def execute(self):
        yield from self._batches

    def run_to_completion(self):
        return Batch.concat(list(self._batches))


def _context(tiny_video):
    session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.NONE))
    session.register_video(tiny_video)
    return session.context


class TestRelationalOperators:
    # Filter and project run as stages of the streaming pipeline.

    def test_filter(self, tiny_video):
        from repro.executor.fusion import _filter_step

        kernel = compile_expression(
            Comparison(ColumnRef("a"), CompOp.GT, Literal(4)),
            _context(tiny_video).evaluator)
        out = _filter_step(Batch({"a": [1, 5, 9]}), kernel)
        assert out.column("a") == [5, 9]

    def test_project_expression(self, tiny_video):
        from repro.executor.fusion import _project_batch

        kernel = compile_expression(ColumnRef("b"),
                                    _context(tiny_video).evaluator)
        batch = _project_batch(Batch({"a": [1, 2], "b": [3, 4]}),
                               (("bee", kernel),))
        assert batch.column_names == ["bee"]
        assert list(batch.column("bee")) == [3, 4]

    def test_project_star_hides_internal_columns(self):
        from repro.executor.fusion import _project_batch

        batch = _project_batch(Batch({"a": [1], "__udf::x": [2]}),
                               (("*", None),))
        assert batch.column_names == ["a"]

    def test_group_by_counts(self, tiny_video):
        from repro.executor.operators.relational import GroupByOperator

        child = _StubOperator([
            Batch({"k": ["a", "b", "a"], "v": [1, None, 3]}),
            Batch({"k": ["a"], "v": [4]}),
        ])
        node = PhysGroupBy(
            None, (ColumnRef("k"),),
            ((ColumnRef("k"), "k"),
             (AggregateCall("count", Star()), "n"),
             (AggregateCall("count", ColumnRef("v")), "nv")))
        batch = GroupByOperator(child, node,
                                _context(tiny_video)).run_to_completion()
        rows = {row[0]: row[1:] for row in batch.to_tuples()}
        assert rows["a"] == (3, 3)
        assert rows["b"] == (1, 0)

    def test_unsupported_aggregate(self, tiny_video):
        from repro.executor.operators.relational import GroupByOperator

        child = _StubOperator([Batch({"k": [1]})])
        node = PhysGroupBy(None, (ColumnRef("k"),),
                           ((AggregateCall("median", ColumnRef("k")), "m"),))
        with pytest.raises(ExecutorError):
            GroupByOperator(child, node,
                            _context(tiny_video)).run_to_completion()

    def test_order_by_multi_key(self, tiny_video):
        from repro.executor.operators.relational import OrderByOperator

        child = _StubOperator([Batch({"a": [1, 2, 1, 2],
                                      "b": [9, 8, 7, 6]})])
        node = PhysOrderBy(None, ((ColumnRef("a"), True),
                                  (ColumnRef("b"), False)))
        batch = OrderByOperator(child, node,
                                _context(tiny_video)).run_to_completion()
        assert batch.to_tuples() == [(1, 9), (1, 7), (2, 8), (2, 6)]

    def test_limit_across_batches(self, tiny_video):
        from repro.executor.operators.relational import LimitOperator

        child = _StubOperator([Batch({"a": [1, 2]}), Batch({"a": [3, 4]})])
        node = PhysLimit(None, 3)
        batch = LimitOperator(child, node,
                              _context(tiny_video)).run_to_completion()
        assert batch.column("a") == [1, 2, 3]


def _evaluating(values: dict):
    """An ``evaluate`` callback answering ``values[position]``, that
    records the positions it was asked for."""
    def evaluate(misses):
        evaluate.asked.append(list(misses))
        return [values[i] for i in misses]
    evaluate.asked = []
    return evaluate


class TestFunctionCache:
    def test_miss_then_hit(self):
        clock = SimulationClock()
        cache = FunctionCache(clock, CostConstants())
        assert cache.lookup_many("f", [("k",)], [1000],
                                 _evaluating({0: 42})) == ([42], [])
        evaluate = _evaluating({})
        assert cache.lookup_many("f", [("k",)], [1000],
                                 evaluate) == ([42], [0])
        assert evaluate.asked == [[]]
        assert cache.entries("f") == 1

    def test_hash_cost_charged_on_every_probe(self):
        clock = SimulationClock()
        constants = CostConstants()
        cache = FunctionCache(clock, constants)
        cache.lookup_many("f", [("k",), ("k",)], [10_000, 10_000],
                          _evaluating({0: 1}))
        expected = 2 * (constants.hash_per_call
                        + 10_000 * constants.hash_per_byte)
        assert clock.total(CostCategory.HASH) == pytest.approx(expected)

    def test_caches_are_per_udf(self):
        cache = FunctionCache(SimulationClock(), CostConstants())
        cache.store("f", ("k",), 1)
        assert cache.lookup_many("g", [("k",)], [10],
                                 _evaluating({0: 2})) == ([2], [])

    def test_clear(self):
        cache = FunctionCache(SimulationClock(), CostConstants())
        cache.store("f", ("k",), 1)
        cache.clear()
        assert cache.entries("f") == 0

    def test_a_repeated_miss_hits_the_first(self):
        cache = FunctionCache(SimulationClock(), CostConstants())
        evaluate = _evaluating({0: "a", 2: "b"})
        values, hits = cache.lookup_many("f", ["x", "x", "y", "x"],
                                         [0] * 4, evaluate)
        assert (values, hits) == (["a", "a", "b", "a"], [1, 3])
        assert evaluate.asked == [[0, 2]]
        assert cache.entries("f") == 2

    def test_a_failed_evaluation_caches_nothing(self):
        cache = FunctionCache(SimulationClock(), CostConstants())
        cache.store("f", "x", 1)

        def fail(misses):
            raise RuntimeError("model down")

        with pytest.raises(RuntimeError):
            cache.lookup_many("f", ["x", "y"], [0, 0], fail)
        assert cache.entries("f") == 1
        assert cache.lookup_many("f", ["y"], [0],
                                 _evaluating({0: 2})) == ([2], [])


class TestFunctionCacheLru:
    def _cache(self, max_entries: int):
        from repro.costs import CostConstants
        from repro.executor.function_cache import FunctionCache
        from repro.metrics import MetricsCollector

        metrics = MetricsCollector()
        cache = FunctionCache(SimulationClock(), CostConstants(),
                              max_entries=max_entries, metrics=metrics)
        return cache, metrics

    def test_evicts_least_recently_used(self):
        cache, metrics = self._cache(max_entries=2)
        cache.store("udf", "a", 1)
        cache.store("udf", "b", 2)
        # "a" hits (and is refreshed), "c" is stored and evicts "b".
        assert cache.lookup_many("udf", ["a", "c"], [0, 0],
                                 _evaluating({1: 3})) == ([1, 3], [0])
        assert cache.evictions == 1
        assert metrics.counters.get("funcache_evictions") == 1
        assert cache.lookup_many("udf", ["c", "a"], [0, 0],
                                 _evaluating({})) == ([3, 1], [0, 1])
        assert cache.lookup_many("udf", ["b"], [0],
                                 _evaluating({0: 2})) == ([2], [])

    def test_a_store_evicts_a_later_key_of_the_same_call(self):
        # Key by key, storing "x" evicts "a" before "a" is looked up, and
        # storing "a" evicts "b": every key misses and is computed again.
        cache, _ = self._cache(max_entries=2)
        cache.store("udf", "a", 1)
        cache.store("udf", "b", 2)
        evaluate = _evaluating({0: 9, 1: 1, 2: 2})
        values, hits = cache.lookup_many("udf", ["x", "a", "b"], [0] * 3,
                                         evaluate)
        assert (values, hits) == ([9, 1, 2], [])
        assert evaluate.asked == [[0, 1, 2]]
        assert cache.evictions == 3
        # "x" was evicted by "b": it is not cached, "a" and "b" are.
        assert cache.lookup_many("udf", ["a", "b"], [0, 0],
                                 _evaluating({})) == ([1, 2], [0, 1])
        assert cache.total_entries() == 2

    def test_unbounded_when_zero(self):
        cache, _ = self._cache(max_entries=0)
        for i in range(100):
            cache.store("udf", i, i)
        assert cache.total_entries() == 100
        assert cache.evictions == 0

    def test_config_knob_validated(self):
        with pytest.raises(ValueError):
            EvaConfig(funcache_max_entries=-1)


class TestRecyclerGraph:
    def test_union_deduplicates_and_counts_reads(self):
        graph = RecyclerGraph()
        graph.add(RecyclerEntry("sig", {1: ("a",), 2: ("b", "c")}))
        graph.add(RecyclerEntry("sig", {2: ("STALE",), 3: ()}))
        combined, rows_read = graph.union_of_matched("sig")
        assert combined[1] == ("a",)
        assert combined[2] == ("b", "c")  # first entry wins
        assert combined[3] == ()
        # 1 + 2 rows from entry 1; 1 + 1 (empty counts as one) from entry 2.
        assert rows_read == 5

    def test_signature_isolation(self):
        graph = RecyclerGraph()
        graph.add(RecyclerEntry("a", {1: ()}))
        assert graph.matched("b") == []
        combined, rows_read = graph.union_of_matched("b")
        assert combined == {} and rows_read == 0

    def test_total_rows_and_reset(self):
        graph = RecyclerGraph()
        graph.add(RecyclerEntry("a", {1: ("x", "y")}))
        assert graph.total_rows() == 2
        graph.reset()
        assert graph.total_rows() == 0


class TestHashStashBehavior:
    def test_detector_reused_but_classifiers_recomputed(self, tiny_video):
        """HashStash's structural limitation (Table 2): operator-level
        matching reuses the detector sub-tree, never predicate UDFs."""
        session = EvaSession(
            config=EvaConfig(reuse_policy=ReusePolicy.HASHSTASH))
        session.register_video(tiny_video)
        query = ("SELECT id FROM tiny CROSS APPLY "
                 "FastRCNNObjectDetector(frame) WHERE id < 30 "
                 "AND label='car' AND CarType(frame,bbox)='Nissan';")
        session.execute(query)
        session.execute(query)
        stats = session.metrics.udf_stats
        assert stats["fasterrcnn_resnet50"].reused_invocations == 30
        assert stats["car_type"].reused_invocations == 0


class TestOneThreadPerQuery:
    """A query runs on the thread that issued it: concurrency is across
    clients and across workers, never inside one query."""

    def test_probes_stores_and_model_calls_stay_on_the_caller(
            self, monkeypatch):
        from repro.models.zoo import default_zoo
        from repro.storage.view_store import MaterializedView
        from repro.types import VideoMetadata
        from repro.video.synthetic import SyntheticVideo

        seen: list[tuple[str, int]] = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                seen.append((name, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapper

        for name in ("get_many", "put_many"):
            monkeypatch.setattr(
                MaterializedView, name,
                recording(name, getattr(MaterializedView, name)))
        zoo = default_zoo().clone()
        for name in zoo.names():
            model = zoo.get(name)
            model.predict_batch = recording("predict_batch",
                                            model.predict_batch)
        session = EvaSession(config=EvaConfig(), zoo=zoo)
        # Longer than four default scan batches, so the scan is many
        # batches and the second query probes every one of them.
        session.register_video(SyntheticVideo(
            VideoMetadata(name="long", num_frames=2500, width=960,
                          height=540, fps=25.0, vehicles_per_frame=2.0),
            seed=7))
        sql = ("SELECT id, label FROM long CROSS APPLY "
               "FastRCNNObjectDetector(frame) WHERE label = 'car';")
        miss = session.execute(sql)
        calls_after_miss = len(seen)
        hit = session.execute(sql)
        assert hit.rows == miss.rows
        names = [name for name, _ in seen]
        assert "predict_batch" in names[:calls_after_miss]
        assert "put_many" in names[:calls_after_miss]
        assert set(names[calls_after_miss:]) == {"get_many"}
        assert {ident for _, ident in seen} == {threading.get_ident()}

    def test_intra_query_threads_are_not_a_knob(self):
        with pytest.raises(TypeError):
            EvaConfig(parallelism=2)
