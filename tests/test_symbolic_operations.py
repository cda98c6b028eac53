"""Property tests: INTER/DIFF/UNION/negation match brute-force semantics,
and reduction (Algorithm 1) preserves meaning while shrinking formulas."""

from hypothesis import given, settings, strategies as st

from repro.expressions.expr import (
    And,
    ColumnRef,
    CompOp,
    Comparison,
    FunctionCall,
    Literal,
    Not,
    Or,
)
from repro.parser.parser import parse
from repro.symbolic.dnf import dimension_of, dnf_from_expression
from repro.symbolic.operations import (
    difference,
    intersection,
    negation,
    union,
)
from repro.symbolic.reduce import reduce_predicate


def where(sql: str):
    return parse(f"SELECT id FROM v WHERE {sql};").where


def atoms():
    numeric = st.builds(
        Comparison,
        st.sampled_from([ColumnRef("x"), ColumnRef("y")]),
        st.sampled_from(list(CompOp)),
        st.integers(-6, 6).map(Literal))
    categorical = st.builds(
        Comparison,
        st.just(ColumnRef("label")),
        st.sampled_from([CompOp.EQ, CompOp.NE]),
        st.sampled_from(["car", "bus"]).map(Literal))
    return st.one_of(numeric, categorical)


predicates = st.recursive(
    atoms(),
    lambda children: st.one_of(
        st.builds(lambda a, b: And((a, b)), children, children),
        st.builds(lambda a, b: Or((a, b)), children, children),
        st.builds(Not, children),
    ),
    max_leaves=6)

#: A UDF term: its dimension is ``udf:cartype(frame,bbox)``.
CAR_TYPE = FunctionCall("cartype", (ColumnRef("frame"), ColumnRef("bbox")))

polyadic_predicates = st.recursive(
    st.one_of(atoms(), st.builds(
        Comparison,
        st.just(CAR_TYPE),
        st.sampled_from([CompOp.EQ, CompOp.NE]),
        st.sampled_from(["Nissan", "Toyota"]).map(Literal))),
    lambda children: st.one_of(
        st.builds(lambda a, b: And((a, b)), children, children),
        st.builds(lambda a, b: Or((a, b)), children, children),
        st.builds(Not, children),
    ),
    max_leaves=8)

#: Every row of x, y in [-8, 8] x label x car type.
GRID = [{"x": x, "y": y, "label": label, dimension_of(CAR_TYPE): car_type}
        for x in range(-8, 9) for y in range(-8, 9)
        for label in ("car", "bus", "van")
        for car_type in ("Nissan", "Toyota", "Honda")]

rows = st.fixed_dictionaries({
    "x": st.integers(-8, 8),
    "y": st.integers(-8, 8),
    "label": st.sampled_from(["car", "bus", "van"]),
})


class TestDerivedPredicates:
    @settings(max_examples=150, deadline=None)
    @given(predicates, predicates, rows)
    def test_intersection_semantics(self, p1, p2, row):
        a = dnf_from_expression(p1)
        b = dnf_from_expression(p2)
        inter = intersection(a, b)
        assert inter.satisfied_by(row) == (
            a.satisfied_by(row) and b.satisfied_by(row))

    @settings(max_examples=150, deadline=None)
    @given(predicates, predicates, rows)
    def test_union_semantics(self, p1, p2, row):
        a = dnf_from_expression(p1)
        b = dnf_from_expression(p2)
        assert union(a, b).satisfied_by(row) == (
            a.satisfied_by(row) or b.satisfied_by(row))

    @settings(max_examples=100, deadline=None)
    @given(predicates, rows)
    def test_negation_semantics(self, p, row):
        a = dnf_from_expression(p)
        assert negation(a).satisfied_by(row) == (not a.satisfied_by(row))

    @settings(max_examples=100, deadline=None)
    @given(predicates, predicates, rows)
    def test_difference_semantics(self, p1, p2, row):
        """DIFF(p1, p2) = (NOT p1) AND p2 (section 3.2)."""
        a = dnf_from_expression(p1)
        b = dnf_from_expression(p2)
        assert difference(a, b).satisfied_by(row) == (
            (not a.satisfied_by(row)) and b.satisfied_by(row))

    @settings(max_examples=100, deadline=None)
    @given(polyadic_predicates, polyadic_predicates)
    def test_difference_matches_negation_reference(self, p, q):
        """DIFF by subtraction denotes what the negation form denotes,
        on the whole grid."""
        a = dnf_from_expression(p)
        b = dnf_from_expression(q)
        fast = difference(a, b)
        reference = intersection(negation(a), b)
        assert [fast.satisfied_by(row) for row in GRID] == \
            [reference.satisfied_by(row) for row in GRID]

    @settings(max_examples=150, deadline=None)
    @given(predicates, rows)
    def test_reduction_preserves_semantics(self, p, row):
        dnf = dnf_from_expression(p)
        assert reduce_predicate(dnf).satisfied_by(row) == \
            dnf.satisfied_by(row)

    @settings(max_examples=100, deadline=None)
    @given(predicates)
    def test_reduction_never_grows(self, p):
        dnf = dnf_from_expression(p)
        reduced = reduce_predicate(dnf)
        assert len(reduced.conjunctives) <= len(dnf.conjunctives)

    @settings(max_examples=100, deadline=None)
    @given(predicates)
    def test_reduction_is_idempotent(self, p):
        reduced = reduce_predicate(dnf_from_expression(p))
        again = reduce_predicate(reduced)
        assert again.atom_count() == reduced.atom_count()
        assert len(again.conjunctives) == len(reduced.conjunctives)


class TestPaperExamples:
    """The concrete reductions shown in sections 2 and 4.1."""

    def test_background_example(self):
        """timestamp > 6pm OR timestamp > 9pm  ->  timestamp > 6pm."""
        dnf = reduce_predicate(dnf_from_expression(
            where("timestamp > 18 OR timestamp > 21")))
        assert dnf.to_expression() == where("timestamp > 18")
        assert dnf.atom_count() == 1

    def test_monadic_union(self):
        """UNION(5<x AND x<15, 10<x AND x<20) -> 5<x AND x<20."""
        a = dnf_from_expression(where("x > 5 AND x < 15"))
        b = dnf_from_expression(where("x > 10 AND x < 20"))
        merged = union(a, b)
        assert len(merged.conjunctives) == 1
        assert merged.atom_count() == 2

    def test_polyadic_union(self):
        """UNION(5<x AND 10<y, 10<x AND 15<y) -> 5<x AND 10<y."""
        a = dnf_from_expression(where("x > 5 AND y > 10"))
        b = dnf_from_expression(where("x > 10 AND y > 15"))
        merged = union(a, b)
        assert merged.to_expression() == where("x > 5 AND y > 10")

    def test_case_i_subset_in_all_dimensions(self):
        """Fig. 2 (i): c2 inside c1 in x and y -> union is c1."""
        c1 = dnf_from_expression(
            where("x >= 0 AND x <= 10 AND y >= 0 AND y <= 10"))
        c2 = dnf_from_expression(
            where("x >= 2 AND x <= 8 AND y >= 3 AND y <= 7"))
        merged = union(c1, c2)
        assert len(merged.conjunctives) == 1
        assert merged.atom_count() == 4

    def test_case_ii_concatenation(self):
        """Fig. 2 (ii): same y-range, adjacent x-ranges concatenate."""
        c1 = dnf_from_expression(
            where("x >= 0 AND x <= 5 AND y >= 0 AND y <= 10"))
        c2 = dnf_from_expression(
            where("x >= 5 AND x <= 9 AND y >= 0 AND y <= 10"))
        merged = union(c1, c2)
        assert len(merged.conjunctives) == 1
        assert merged.atom_count() == 4
        assert merged.satisfied_by({"x": 7, "y": 5})

    def test_case_iii_carving_overlap(self):
        """Fig. 2 (iii): partial overlap -> disjoint conjunctives."""
        c1 = dnf_from_expression(
            where("x >= 0 AND x <= 6 AND y >= 0 AND y <= 10"))
        c2 = dnf_from_expression(
            where("x >= 4 AND x <= 9 AND y >= 2 AND y <= 8"))
        merged = union(c1, c2)
        assert len(merged.conjunctives) == 2
        # Semantics preserved at the carved boundary.
        for x, y, expected in [(5, 5, True), (7, 5, True), (7, 9, False),
                               (9, 8, True), (9.5, 5, False)]:
            assert merged.satisfied_by({"x": x, "y": y}) is expected

    def test_aggregated_predicate_growth_stays_small(self):
        """Unioning many shifted ranges (the UdfManager pattern) keeps the
        aggregated predicate compact - the core of Fig. 7."""
        aggregated = dnf_from_expression(Literal(False))
        for start in range(0, 100, 10):
            query = dnf_from_expression(
                where(f"id >= {start} AND id < {start + 15} "
                      "AND label = 'car'"))
            aggregated = union(aggregated, query)
        # 10 overlapping windows collapse to one conjunctive.
        assert len(aggregated.conjunctives) == 1
        assert aggregated.atom_count() <= 3
