"""Differential and law tests for the native interval sets.

``NumericConstraint`` holds a set of reals as canonical
``(lo, lo_open, hi, hi_open)`` pieces and implements the algebra as
linear sweeps.  sympy's ``Interval``/``FiniteSet``/``Union`` arithmetic —
what the constraint was built on before — is the oracle: random sets are
built from comparison atoms over a small rational grid, once natively and
once in sympy, and must agree on membership, subset, emptiness, universe
and atom count.  Every endpoint lies on the grid, so agreeing at all grid
points, all midpoints and one point beyond each end is set equality.
"""

import math
import pickle
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import FiniteSet, Interval, S, Union as SymUnion

from repro.errors import UnsupportedPredicateError
from repro.expressions.expr import ColumnRef, CompOp, FALSE
from repro.parser.parser import parse_predicate
from repro.symbolic.conjunctive import Conjunctive
from repro.symbolic.dnf import DnfPredicate, dnf_from_expression
from repro.symbolic.domains import NumericConstraint
from repro.symbolic.engine import predicate_key

# -- the grid, and one set built twice -----------------------------------------

#: Endpoints are k/4 (exact as floats, so both literal paths are used).
GRID = range(-8, 9)
#: Grid points, midpoints, and a point beyond each end.
PROBES = [Fraction(k, 8) for k in range(-18, 19)]

_SYMPY_ATOM = {
    CompOp.LT: lambda v: Interval.open(-sympy.oo, v),
    CompOp.LE: lambda v: Interval(-sympy.oo, v),
    CompOp.GT: lambda v: Interval.open(v, sympy.oo),
    CompOp.GE: lambda v: Interval(v, sympy.oo),
    CompOp.EQ: lambda v: FiniteSet(v),
    CompOp.NE: lambda v: SymUnion(Interval.open(-sympy.oo, v),
                                  Interval.open(v, sympy.oo)),
}

atoms = st.tuples(st.just("atom"), st.sampled_from(list(CompOp)),
                  st.sampled_from(GRID), st.booleans())
trees = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.tuples(st.just("not"), inner),
        st.tuples(st.sampled_from(["and", "or", "minus"]), inner, inner)),
    max_leaves=6)


def native(tree) -> NumericConstraint:
    kind = tree[0]
    if kind == "atom":
        _, op, k, as_float = tree
        return NumericConstraint.from_comparison(
            op, k / 4 if as_float else Fraction(k, 4))
    if kind == "not":
        return native(tree[1]).complement()
    a, b = native(tree[1]), native(tree[2])
    if kind == "and":
        return a.intersect(b)
    if kind == "or":
        return a.union(b)
    return a.subtract(b)


def oracle(tree) -> sympy.Set:
    """The same set as :func:`native`, in sympy's arithmetic."""
    kind = tree[0]
    if kind == "atom":
        return _SYMPY_ATOM[tree[1]](sympy.Rational(tree[2], 4))
    if kind == "not":
        return S.Reals - oracle(tree[1])
    a, b = oracle(tree[1]), oracle(tree[2])
    if kind == "and":
        return a.intersect(b)
    if kind == "or":
        return SymUnion(a, b)
    return a - b


def membership(constraint: NumericConstraint) -> list[bool]:
    return [constraint.contains(p) for p in PROBES]


def oracle_membership(sset: sympy.Set) -> list[bool]:
    return [sset.contains(sympy.Rational(p.numerator, p.denominator))
            == sympy.true for p in PROBES]


def as_predicate(constraint: NumericConstraint) -> DnfPredicate:
    return DnfPredicate((Conjunctive({"x": constraint}),))


# -- the atom-count rule the sympy-backed constraint used ---------------------


def _set_atom_count(sset: sympy.Set) -> int:
    """A two-sided interval costs 2 atoms, a half-line 1, a point 1;
    the shape (-oo, v) U (v, oo) is a single ``!=`` atom."""
    if sset == S.Reals:
        return 0
    if sset is S.EmptySet:
        return 1  # the formula FALSE
    if isinstance(sset, FiniteSet):
        return len(sset.args)
    if isinstance(sset, Interval):
        return max(1, (sset.start != -sympy.oo) + (sset.end != sympy.oo))
    assert isinstance(sset, SymUnion), sset
    if _is_not_equal(sset):
        return 1
    return sum(_set_atom_count(arg) for arg in sset.args)


def _is_not_equal(sset: SymUnion) -> bool:
    if len(sset.args) != 2 or not all(isinstance(a, Interval)
                                      for a in sset.args):
        return False
    lo, hi = sorted(sset.args, key=lambda s: s.start)
    return (lo.start == -sympy.oo and hi.end == sympy.oo
            and lo.end == hi.start and lo.right_open and hi.left_open)


# -- differential: every operation against sympy -------------------------------


class TestAgainstSympy:
    @settings(max_examples=150, deadline=None)
    @given(trees)
    def test_membership_emptiness_universe_atoms(self, tree):
        constraint, sset = native(tree), oracle(tree)
        assert membership(constraint) == oracle_membership(sset)
        assert constraint.is_empty() == (sset == S.EmptySet)
        assert constraint.is_universe() == (sset == S.Reals)
        assert constraint.atom_count() == _set_atom_count(sset)

    @settings(max_examples=150, deadline=None)
    @given(trees, trees)
    def test_is_subset(self, tree_a, tree_b):
        a, b = native(tree_a), native(tree_b)
        oracle_a, oracle_b = oracle(tree_a), oracle(tree_b)
        assert a.is_subset(b) == bool(oracle_a.is_subset(oracle_b))
        assert b.is_subset(a) == bool(oracle_b.is_subset(oracle_a))


# -- the canonical form ----------------------------------------------------------


class TestCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(trees)
    def test_pieces_are_sorted_disjoint_and_not_coalescible(self, tree):
        pieces = native(tree).pieces
        for lo, lo_open, hi, hi_open in pieces:
            for end in (lo, hi):
                assert isinstance(end, Fraction) or math.isinf(end)
            assert lo_open or lo != -math.inf
            assert hi_open or hi != math.inf
            assert lo < hi or (lo == hi and not lo_open and not hi_open)
        for (_, _, hi, hi_open), (lo, lo_open, _, _) in zip(pieces,
                                                            pieces[1:]):
            # A gap, or a single missing point between two open ends.
            assert hi < lo or (hi == lo and hi_open and lo_open)

    @settings(max_examples=200, deadline=None)
    @given(trees, trees)
    def test_equal_sets_have_equal_pieces_and_keys(self, tree_a, tree_b):
        a, b = native(tree_a), native(tree_b)
        same_set = membership(a) == membership(b)
        assert (a.pieces == b.pieces) == same_set
        assert (a == b) == same_set
        if same_set:
            assert hash(a) == hash(b)
            assert predicate_key(as_predicate(a)) \
                == predicate_key(as_predicate(b))

    def test_interval_constructor_is_canonical(self):
        point = NumericConstraint.from_comparison(CompOp.EQ, 3)
        assert NumericConstraint.interval(3, 3) == point
        assert NumericConstraint.interval(3, 3, True, False).is_empty()
        assert NumericConstraint.interval(4, 3).is_empty()
        assert NumericConstraint.interval(0.5, 2).pieces == (
            (Fraction(1, 2), False, Fraction(2), False),)


# -- algebraic laws ----------------------------------------------------------------


class TestLaws:
    @settings(max_examples=200, deadline=None)
    @given(trees, trees)
    def test_de_morgan(self, tree_a, tree_b):
        a, b = native(tree_a), native(tree_b)
        assert a.union(b).complement() \
            == a.complement().intersect(b.complement())
        assert a.intersect(b).complement() \
            == a.complement().union(b.complement())

    @settings(max_examples=200, deadline=None)
    @given(trees, trees)
    def test_difference_and_intersection_partition(self, tree_a, tree_b):
        a, b = native(tree_a), native(tree_b)
        assert a.subtract(b).union(a.intersect(b)) == a
        assert a.subtract(b).intersect(b).is_empty()
        assert a.subtract(b) == a.intersect(b.complement())

    @settings(max_examples=200, deadline=None)
    @given(trees)
    def test_complement(self, tree):
        a = native(tree)
        assert a.union(a.complement()).is_universe()
        assert a.intersect(a.complement()).is_empty()
        assert a.complement().complement() == a


# -- rendering, re-parsing, pickling ------------------------------------------------


def reparsed(constraint: NumericConstraint) -> NumericConstraint:
    """The constraint read back from its rendered SQL text."""
    rendered = constraint.to_comparisons(ColumnRef("x"))
    if rendered is None:
        return NumericConstraint.universe()
    if rendered == FALSE:
        return NumericConstraint.empty()
    dnf = dnf_from_expression(parse_predicate(rendered.to_sql()))
    result = NumericConstraint.empty()
    for conjunctive in dnf.conjunctives:
        result = result.union(conjunctive.constraint("x"))
    return result


class TestRoundTrips:
    @settings(max_examples=200, deadline=None)
    @given(trees)
    def test_rendered_text_reparses_to_equal_constraint(self, tree):
        constraint = native(tree)
        assert reparsed(constraint) == constraint

    def test_pieces_render_in_lower_endpoint_order(self):
        """Isolated points interleave with intervals by position (sympy
        grouped a union's points into one FiniteSet, ahead of the
        intervals above its least point)."""
        def eq(v):
            return NumericConstraint.from_comparison(CompOp.EQ, v)
        constraint = eq(10).union(NumericConstraint.interval(3, 5)) \
            .union(eq(1))
        assert constraint.to_comparisons(ColumnRef("x")).to_sql() \
            == "x = 1 OR (x >= 3 AND x <= 5) OR x = 10"

    def test_not_equal_renders_as_two_half_lines(self):
        ne = NumericConstraint.from_comparison(CompOp.NE, 2.5)
        assert ne.to_comparisons(ColumnRef("x")).to_sql() \
            == "x < 2.5 OR x > 2.5"
        assert ne.atom_count() == 1

    @settings(max_examples=100, deadline=None)
    @given(trees, trees)
    def test_pickled_conjunctive_round_trips_equal(self, tree_a, tree_b):
        """Predicates cross the worker pool's RPC pickled."""
        conjunctive = Conjunctive({"x": native(tree_a),
                                   "y": native(tree_b)})
        copy = pickle.loads(pickle.dumps(conjunctive))
        assert copy == conjunctive
        assert predicate_key(DnfPredicate((copy,))) \
            == predicate_key(DnfPredicate((conjunctive,)))


# -- literals ----------------------------------------------------------------------


class TestLiterals:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), "3", None])
    def test_non_finite_or_non_numeric_literal_is_a_typed_error(self, value):
        with pytest.raises(UnsupportedPredicateError):
            NumericConstraint.from_comparison(CompOp.LT, value)
        assert not NumericConstraint.universe().contains(value)

    def test_affine_overflow_is_a_typed_error(self):
        """``offset / coeff`` can leave the reals; that is the query's
        fault and must not become a search for a closed form."""
        huge = f"{1.7e308:.1f}"  # the lexer has no exponent notation
        with pytest.raises(UnsupportedPredicateError):
            dnf_from_expression(parse_predicate(f"x + {huge} + {huge} < 5"))

    def test_literals_are_exact_decimals(self):
        tenth = NumericConstraint.from_comparison(CompOp.LE, 0.1)
        assert tenth.pieces[0][2] == Fraction(1, 10)
        assert NumericConstraint.from_comparison(CompOp.EQ, True) \
            == NumericConstraint.from_comparison(CompOp.EQ, 1)
        assert NumericConstraint.from_comparison(CompOp.EQ, 2.0) \
            == NumericConstraint.from_comparison(CompOp.EQ, 2)
