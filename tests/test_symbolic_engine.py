"""Tests for the SymbolicEngine facade and remaining symbolic surfaces."""

import pytest

from repro.catalog.statistics import UniformIntStatistics
from repro.config import EvaConfig, ReusePolicy
from repro.errors import UnsupportedPredicateError
from repro.parser.parser import parse
from repro.session import EvaSession
from repro.symbolic.conjunctive import Conjunctive
from repro.symbolic.dnf import DnfPredicate, dimension_of
from repro.symbolic.domains import NumericConstraint
from repro.symbolic.engine import SymbolicEngine
from repro.expressions.expr import ColumnRef, CompOp, FunctionCall, Literal


def where(sql: str):
    return parse(f"SELECT id FROM v WHERE {sql};").where


class TestEngineFacade:
    def setup_method(self):
        self.engine = SymbolicEngine()

    def test_analyze_none_is_true(self):
        assert self.engine.analyze(None).is_true()

    def test_analyze_reduces(self):
        dnf = self.engine.analyze(where("x > 5 OR x > 3"))
        assert dnf.atom_count() == 1

    def test_intersection_difference_union_roundtrip(self):
        a = self.engine.analyze(where("x < 10"))
        b = self.engine.analyze(where("x >= 5"))
        inter = self.engine.intersection(a, b)
        union = self.engine.union(a, b)
        assert inter.satisfied_by({"x": 7})
        assert not inter.satisfied_by({"x": 2})
        assert union.is_true()

    def test_negation(self):
        negated = self.engine.negation(self.engine.analyze(where("x < 5")))
        assert negated.satisfied_by({"x": 9})
        assert not negated.satisfied_by({"x": 1})

    def test_selectivity_helper(self):
        stats = {"x": UniformIntStatistics(0, 100)}
        selectivity = self.engine.selectivity(
            self.engine.analyze(where("x < 50")), stats.get)
        assert selectivity == pytest.approx(0.5)

    def test_estimator_factory(self):
        stats = {"x": UniformIntStatistics(0, 10)}
        estimator = self.engine.estimator(stats.get)
        assert estimator.selectivity(
            self.engine.analyze(where("x = 3"))) == pytest.approx(0.1)

    def test_reduce_exposed(self):
        raw = DnfPredicate((
            Conjunctive({"x": NumericConstraint.from_comparison(
                CompOp.LT, 5)}),
            Conjunctive({"x": NumericConstraint.from_comparison(
                CompOp.LT, 9)}),
        ))
        reduced = self.engine.reduce(raw)
        assert len(reduced.conjunctives) == 1


class TestDimensionNaming:
    def test_column_dimension(self):
        assert dimension_of(ColumnRef("Area")) == "area"

    def test_udf_dimension_includes_args(self):
        call = FunctionCall("CarType", (ColumnRef("frame"),
                                        ColumnRef("bbox")))
        assert dimension_of(call) == "udf:cartype(frame,bbox)"

    def test_literal_is_not_a_dimension(self):
        with pytest.raises(UnsupportedPredicateError):
            dimension_of(Literal(5))

    def test_distinct_arg_shapes_are_distinct_dimensions(self):
        a = FunctionCall("f", (ColumnRef("x"),))
        b = FunctionCall("f", (ColumnRef("y"),))
        assert dimension_of(a) != dimension_of(b)


class TestMixedDimensionErrors:
    def test_numeric_and_categorical_on_same_dimension(self):
        with pytest.raises(UnsupportedPredicateError):
            SymbolicEngine().analyze(where("x = 5 AND x = 'five'"))

    def test_range_over_strings_rejected(self):
        with pytest.raises(UnsupportedPredicateError):
            SymbolicEngine().analyze(where("label > 'car'"))


class TestTermPreservation:
    def test_udf_terms_survive_roundtrip(self):
        engine = SymbolicEngine()
        dnf = engine.analyze(where("CarType(frame,bbox) = 'Nissan' "
                                   "AND id < 5"))
        rendered = dnf.to_expression().to_sql()
        assert "cartype(frame, bbox)" in rendered
        # Round-trip through the parser preserves semantics.
        again = engine.analyze(where(rendered))
        key = "udf:cartype(frame,bbox)"
        for values in ({key: "Nissan", "id": 3},
                       {key: "Ford", "id": 3},
                       {key: "Nissan", "id": 7}):
            assert dnf.satisfied_by(values) == again.satisfied_by(values)

    def test_terms_merge_across_operations(self):
        engine = SymbolicEngine()
        a = engine.analyze(where("CarType(frame,bbox) = 'Nissan'"))
        b = engine.analyze(where("ColorDet(frame,bbox) = 'Red'"))
        union = engine.union(a, b)
        rendered = union.to_expression().to_sql()
        assert "cartype" in rendered and "colordet" in rendered


class TestSymbolicMemo:
    def _engine(self, memo_size: int = 16):
        from repro.symbolic.engine import SymbolicEngine

        return SymbolicEngine(memo_size=memo_size)

    def _where(self, sql: str):
        from repro.parser.parser import parse

        return parse(f"SELECT id FROM t WHERE {sql};").where

    def test_repeated_reductions_hit(self):
        engine = self._engine()
        first = engine.analyze(self._where("id < 100 AND id >= 20"))
        again = engine.analyze(self._where("id < 100 AND id >= 20"))
        stats = engine.memo_stats()
        assert stats.hits >= 1
        assert first.conjunctives == again.conjunctives

    def test_intersection_and_difference_memoized(self):
        engine = self._engine()
        p1 = engine.analyze(self._where("id < 300"))
        p2 = engine.analyze(self._where("id >= 100"))
        before = engine.memo_stats()
        inter1 = engine.intersection(p1, p2)
        inter2 = engine.intersection(p1, p2)
        diff1 = engine.difference(p1, p2)
        diff2 = engine.difference(p1, p2)
        delta = engine.memo_stats().delta(before)
        assert delta.hits == 2
        assert delta.misses == 2
        assert inter1.conjunctives == inter2.conjunctives
        assert diff1.conjunctives == diff2.conjunctives

    def test_memoized_results_semantically_identical(self):
        memo = self._engine(memo_size=64)
        plain = self._engine(memo_size=0)
        shapes = ["id < 250", "id < 250 AND label = 'car'",
                  "id >= 50 AND id < 250", "label != 'bus' OR id = 3"]
        for sql in shapes * 2:  # second pass hits the memo
            expr = self._where(sql)
            assert (memo.analyze(expr).conjunctives
                    == plain.analyze(expr).conjunctives), sql
        assert memo.memo_stats().hits >= len(shapes)
        assert plain.memo_stats() .misses == 0

    def test_lru_bound_and_evictions(self):
        engine = self._engine(memo_size=2)
        for bound in (10, 20, 30, 40):
            engine.analyze(self._where(f"id < {bound}"))
        stats = engine.memo_stats()
        assert stats.size <= 2
        assert stats.evictions >= 2

    def test_session_surfaces_counters(self, tiny_video):
        session = EvaSession(config=EvaConfig(reuse_policy=ReusePolicy.EVA))
        session.register_video(tiny_video)
        overlapping = [
            "SELECT id FROM tiny CROSS APPLY "
            "FastRCNNObjectDetector(frame) "
            f"WHERE id < {bound} AND label = 'car';"
            for bound in (100, 200, 300)
        ]
        for sql in overlapping:
            session.execute(sql)
        assert session.metrics.counters.get("symbolic_memo_hits", 0) > 0
        from repro.obs.audit import KIND_SYMBOLIC_MEMO

        records = [r for r in session.last_optimized.audit
                   if r.kind == KIND_SYMBOLIC_MEMO]
        assert records and records[-1].costs["memo_hits"] > 0
