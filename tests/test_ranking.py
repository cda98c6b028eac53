"""Tests for predicate ranking (Eq. 2, Eq. 4) and Theorem 4.1."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import EvaConfig, RankingMode, ReusePolicy
from repro.costs import CostModel
from repro.expressions.expr import ColumnRef, CompOp, Comparison, Literal
from repro.obs.audit import KIND_RANKING
from repro.optimizer.ranking import (
    RankedPredicate,
    canonical_rank,
    materialization_aware_rank,
    order_udf_predicates,
)
from repro.parser.parser import parse
from repro.session import EvaSession


def ranked(selectivity, udf_cost, missing, name="p", read_cost=1e-4):
    return RankedPredicate(
        predicate=Comparison(ColumnRef(name), CompOp.EQ, Literal(1)),
        selectivity=selectivity,
        udf_cost=udf_cost,
        missing_fraction=missing,
        read_cost=read_cost,
    )


class TestRankingFunctions:
    def test_canonical_prefers_cheap_selective(self):
        # Lower rank evaluates first.
        selective_cheap = canonical_rank(0.1, 0.001)
        unselective_expensive = canonical_rank(0.9, 0.1)
        assert selective_cheap < unselective_expensive

    def test_materialization_awareness_flips_order(self):
        """A fully materialized expensive predicate should now run first
        (the VEHICLEMODEL-before-VEHICLECOLOR example of section 1)."""
        # Canonically, cheap_color wins over costly_model.
        cheap_color = (0.24, 0.005, 1.0)
        costly_model = (0.22, 0.006, 0.0)  # fully materialized
        assert canonical_rank(cheap_color[0], cheap_color[1]) < \
            canonical_rank(costly_model[0], costly_model[1])
        read = 1e-4
        assert materialization_aware_rank(
            costly_model[0], costly_model[2], costly_model[1], read) < \
            materialization_aware_rank(
                cheap_color[0], cheap_color[2], cheap_color[1], read)

    def test_eq4_reduces_to_eq2_when_nothing_materialized(self):
        """With s_{p-} = 1 and negligible read cost, Eq. 4 orders
        predicates identically to Eq. 2."""
        specs = [(0.2, 0.01), (0.5, 0.002), (0.9, 0.1), (0.1, 0.05)]
        canonical = sorted(specs,
                           key=lambda s: canonical_rank(s[0], s[1]))
        aware = sorted(specs, key=lambda s: materialization_aware_rank(
            s[0], 1.0, s[1], 0.0))
        assert canonical == aware

    def test_order_udf_predicates_ascending(self):
        predicates = [ranked(0.9, 0.1, 1.0, "slow"),
                      ranked(0.1, 0.001, 1.0, "fast")]
        ordered = order_udf_predicates(predicates,
                                       materialization_aware=True)
        assert ordered[0].predicate.left.name == "fast"

    def test_deterministic_tie_break(self):
        a = ranked(0.5, 0.01, 1.0, "aaa")
        b = ranked(0.5, 0.01, 1.0, "bbb")
        assert order_udf_predicates([b, a], True) == \
            order_udf_predicates([a, b], True)


class TestTheorem41:
    """Ascending Eq. 4 rank minimizes the expected cost T(O, |R|)."""

    @settings(max_examples=120, deadline=None)
    @given(st.lists(
        st.tuples(st.floats(0.05, 0.95),   # selectivity
                  st.floats(0.001, 0.2),   # udf cost
                  st.floats(0.0, 1.0)),    # missing fraction
        min_size=2, max_size=4))
    def test_rank_order_is_optimal(self, specs):
        cost_model = CostModel()
        read_cost = cost_model.constants.view_read_per_tuple

        def order_cost(order):
            return cost_model.ordering_cost(10_000, list(order))

        by_rank = sorted(specs, key=lambda s: materialization_aware_rank(
            s[0], s[2], s[1], read_cost))
        best = min(order_cost(p) for p in itertools.permutations(specs))
        assert order_cost(by_rank) == pytest.approx(best, rel=1e-9)

    def test_adjacent_swap_never_improves(self):
        """The proof's core step: swapping adjacent predicates ordered by
        rank cannot decrease the expected cost."""
        cost_model = CostModel()
        read = cost_model.constants.view_read_per_tuple
        specs = [(0.3, 0.099, 0.2), (0.5, 0.005, 1.0), (0.8, 0.006, 0.1)]
        specs.sort(key=lambda s: materialization_aware_rank(
            s[0], s[2], s[1], read))
        base = cost_model.ordering_cost(1000, specs)
        for i in range(len(specs) - 1):
            swapped = list(specs)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            assert cost_model.ordering_cost(1000, swapped) >= base - 1e-12

    GUARD = ("SELECT id FROM tiny CROSS APPLY "
             "FastRCNNObjectDetector(frame) WHERE id < 30 AND label = 'car'")
    UDF_PREDICATES = {
        "CarType": "CarType(frame, bbox) = 'Nissan'",
        "ColorDet": "ColorDet(frame, bbox) = 'Gray'",
        "License": "License(frame, bbox) != 'X'",
    }
    #: (UDFs in the query, the one materialized first or None).
    PLANS = [(udfs, materialized)
             for udfs in (("CarType", "ColorDet"), ("ColorDet", "License"),
                          ("CarType", "ColorDet", "License"))
             for materialized in (None, *udfs)]

    @pytest.mark.parametrize("ranking", list(RankingMode),
                             ids=lambda mode: mode.value)
    @pytest.mark.parametrize(
        "udfs, materialized", PLANS,
        ids=[f"{'+'.join(udfs)}-{materialized or 'cold'}"
             for udfs, materialized in PLANS])
    def test_rule_one_order_is_optimal(self, tiny_video, udfs,
                                       materialized, ranking):
        """The order Rule I records has the least T(O, |R|) of all
        permutations of its candidates, before and after one UDF's
        results are materialized.  Eq. 2 ignores views, so under
        CANONICAL every predicate is costed as fully missing."""
        session = EvaSession(config=EvaConfig(
            reuse_policy=ReusePolicy.EVA, ranking=ranking))
        session.register_video(tiny_video)
        if materialized:
            session.execute(f"{self.GUARD} AND "
                            f"{self.UDF_PREDICATES[materialized]};")
        sql = self.GUARD + "".join(
            f" AND {self.UDF_PREDICATES[udf]}" for udf in udfs) + ";"
        (record,) = [r for r in session.optimizer.optimize(parse(sql)).audit
                     if r.kind == KIND_RANKING]
        aware = ranking is RankingMode.MATERIALIZATION_AWARE
        specs = {c["predicate"]: (c["selectivity"], c["udf_cost"],
                                  c["missing_fraction"] if aware else 1.0)
                 for c in record.candidates}
        assert len(specs) == len(udfs)
        missing = [c["missing_fraction"] < 1.0 for c in record.candidates]
        assert any(missing) is (materialized is not None)
        cost_model = CostModel()

        def order_cost(order):
            return cost_model.ordering_cost(
                10_000, [specs[predicate] for predicate in order])

        chosen = [entry["predicate"] for entry in record.chosen]
        assert sorted(chosen) == sorted(specs)
        best = min(order_cost(p) for p in itertools.permutations(specs))
        assert order_cost(chosen) == pytest.approx(best, rel=1e-9)


class TestCostModel:
    def test_eq3_terms(self):
        model = CostModel()
        constants = model.constants
        cost = model.udf_predicate_cost(
            input_rows=100, udf_cost=0.1, missing_fraction=0.5,
            view_rows=1000)
        expected = (3 * 1000 * constants.view_read_per_row
                    + 100 * constants.view_read_per_tuple
                    + 100 * 0.5 * 0.1)
        assert cost == pytest.approx(expected)

    def test_full_materialization_drops_eval_term(self):
        model = CostModel()
        full = model.udf_predicate_cost(100, 0.1, 0.0)
        none = model.udf_predicate_cost(100, 0.1, 1.0)
        assert none - full == pytest.approx(100 * 0.1)

    def test_ordering_cost_shrinks_cardinality(self):
        model = CostModel()
        # Two predicates: the second sees only s1 * |R| rows.
        cost = model.ordering_cost(100, [(0.1, 1.0, 1.0), (0.5, 1.0, 1.0)])
        per_tuple = model.constants.view_read_per_tuple
        expected = (100 * per_tuple + 100 * 1.0
                    + 10 * per_tuple + 10 * 1.0)
        assert cost == pytest.approx(expected)
