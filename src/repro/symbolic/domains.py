"""Per-dimension constraint domains.

A *constraint* restricts one dimension (a column or a UDF term).  Numeric
dimensions use exact interval sets — sorted disjoint intervals and points
with rational endpoints — which is the "inequality solver" capability of a
computer algebra system the paper leverages (section 5.4), implemented
natively as linear sweeps.  Categorical dimensions (labels, classifier
outputs) use finite value sets with an optional complement flag, since
their universe is open-ended.

Every constraint supports the algebra Algorithm 1 needs — intersection,
union, complement, subset tests — plus an *atom count*: the number of
atomic comparison formulas required to express it, the metric Fig. 7 plots.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from repro.errors import UnsupportedPredicateError
from repro.expressions.analysis import conjunction_of
from repro.expressions.expr import (
    FALSE, CompOp, Comparison, Expression, Literal, Or)


def _rationalize(value) -> Fraction:
    """Exact rational for a finite numeric literal.

    Query literals are decimal text, so ``Fraction(str(v))`` recovers the
    typed rational exactly (Python's shortest-repr floats round-trip the
    decimal).  NaN, infinities and non-numbers have no place on the real
    line and raise :class:`UnsupportedPredicateError`.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, numbers.Integral):  # bool, int, numpy integers
        return Fraction(int(value))
    if isinstance(value, float) and math.isfinite(value):
        return Fraction(str(value))
    raise UnsupportedPredicateError(
        f"not a finite numeric literal: {value!r}")


class Constraint:
    """Base class; see :class:`NumericConstraint` and
    :class:`CategoricalConstraint`."""

    def intersect(self, other: "Constraint") -> "Constraint":
        raise NotImplementedError

    def union(self, other: "Constraint") -> "Constraint":
        raise NotImplementedError

    def complement(self) -> "Constraint":
        raise NotImplementedError

    def subtract(self, other: "Constraint") -> "Constraint":
        return self.intersect(other.complement())

    def is_empty(self) -> bool:
        raise NotImplementedError

    def is_universe(self) -> bool:
        raise NotImplementedError

    def is_subset(self, other: "Constraint") -> bool:
        """Is every value satisfying ``self`` also in ``other``?"""
        raise NotImplementedError

    def atom_count(self) -> int:
        raise NotImplementedError

    def contains(self, value) -> bool:
        """Does a concrete value satisfy the constraint?"""
        raise NotImplementedError

    def to_comparisons(self, term: Expression) -> Expression | None:
        """Render back to an AST predicate over ``term``; None = TRUE."""
        raise NotImplementedError


#: One piece ``(lo, lo_open, hi, hi_open)``; endpoints are exact
#: ``Fraction``s or ``±math.inf`` (infinite endpoints are always open).
Piece = tuple

_UNIVERSE: tuple[Piece, ...] = ((-math.inf, True, math.inf, True),)


@dataclass(frozen=True)
class NumericConstraint(Constraint):
    """A set of reals in one canonical form.

    ``pieces`` is a tuple of ``(lo, lo_open, hi, hi_open)`` intervals
    sorted by lower endpoint, pairwise disjoint and non-coalescible (no
    two pieces share a point or touch at a point either contains); a
    single value is the closed piece ``[v, v]``.  Equal sets therefore
    have equal ``pieces``, so dataclass equality and hashing are set
    equality.  Construct through the classmethods and the algebra, which
    keep the form canonical.
    """

    pieces: tuple[Piece, ...]

    # -- constructors ---------------------------------------------------------

    @classmethod
    def universe(cls) -> "NumericConstraint":
        return cls(_UNIVERSE)

    @classmethod
    def empty(cls) -> "NumericConstraint":
        return cls(())

    @classmethod
    def from_comparison(cls, op: CompOp, value) -> "NumericConstraint":
        v = _rationalize(value)
        if op is CompOp.LT:
            return cls(((-math.inf, True, v, True),))
        if op is CompOp.LE:
            return cls(((-math.inf, True, v, False),))
        if op is CompOp.GT:
            return cls(((v, True, math.inf, True),))
        if op is CompOp.GE:
            return cls(((v, False, math.inf, True),))
        if op is CompOp.EQ:
            return cls(((v, False, v, False),))
        if op is CompOp.NE:
            return cls(((-math.inf, True, v, True),
                        (v, True, math.inf, True)))
        raise UnsupportedPredicateError(f"unsupported operator {op}")

    @classmethod
    def interval(cls, lo, hi, left_open: bool = False,
                 right_open: bool = False) -> "NumericConstraint":
        start = (_rationalize(lo), bool(left_open))
        end = (_rationalize(hi), not right_open)
        return cls(_from_cuts([start, end]) if start < end else ())

    # -- algebra ----------------------------------------------------------------

    def intersect(self, other: Constraint) -> "NumericConstraint":
        return NumericConstraint(_sweep(
            self.pieces, self._coerce(other).pieces, _BOTH))

    def union(self, other: Constraint) -> "NumericConstraint":
        return NumericConstraint(_sweep(
            self.pieces, self._coerce(other).pieces, _EITHER))

    def subtract(self, other: Constraint) -> "NumericConstraint":
        return NumericConstraint(_sweep(
            self.pieces, self._coerce(other).pieces, _ONLY_FIRST))

    def complement(self) -> "NumericConstraint":
        return NumericConstraint(_sweep(_UNIVERSE, self.pieces, _ONLY_FIRST))

    def is_empty(self) -> bool:
        return not self.pieces

    def is_universe(self) -> bool:
        return self.pieces == _UNIVERSE

    def is_subset(self, other: Constraint) -> bool:
        return not _sweep(self.pieces, self._coerce(other).pieces,
                          _ONLY_FIRST)

    def contains(self, value) -> bool:
        try:
            v = _rationalize(value)
        except UnsupportedPredicateError:
            return False
        return any((lo < v or (lo == v and not lo_open))
                   and (v < hi or (v == hi and not hi_open))
                   for lo, lo_open, hi, hi_open in self.pieces)

    # -- rendering ----------------------------------------------------------------

    def atom_count(self) -> int:
        """Atomic comparison formulas needed to express the set.

        A two-sided interval costs 2 atoms, a half-line 1, a point 1;
        the empty set is the one formula FALSE, and the shape
        ``(-inf, v) U (v, inf)`` is a single ``!=`` atom.
        """
        pieces = self.pieces
        if not pieces:
            return 1
        if (len(pieces) == 2 and pieces[0][0] == -math.inf
                and pieces[1][2] == math.inf
                and pieces[0][2] == pieces[1][0]):
            return 1
        return sum(1 if lo == hi else (lo != -math.inf) + (hi != math.inf)
                   for lo, _, hi, _ in pieces)

    def to_comparisons(self, term: Expression) -> Expression | None:
        if self.is_universe():
            return None
        disjuncts: list[Expression] = []
        for lo, lo_open, hi, hi_open in self.pieces:
            if lo == hi:
                disjuncts.append(Comparison(term, CompOp.EQ, _literal(lo)))
                continue
            atoms: list[Expression] = []
            if lo != -math.inf:
                atoms.append(Comparison(
                    term, CompOp.GT if lo_open else CompOp.GE, _literal(lo)))
            if hi != math.inf:
                atoms.append(Comparison(
                    term, CompOp.LT if hi_open else CompOp.LE, _literal(hi)))
            disjuncts.append(conjunction_of(atoms))
        if not disjuncts:
            return FALSE
        if len(disjuncts) == 1:
            return disjuncts[0]
        return Or(tuple(disjuncts))

    @staticmethod
    def _coerce(other: Constraint) -> "NumericConstraint":
        if not isinstance(other, NumericConstraint):
            raise UnsupportedPredicateError(
                "mixed numeric/categorical constraints on one dimension")
        return other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.pieces:
            return "Num({})"
        return "Num(" + " U ".join(
            f"{'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"
            for lo, lo_open, hi, hi_open in self.pieces) + ")"


@dataclass(frozen=True)
class CategoricalConstraint(Constraint):
    """A finite set of values, or the complement of one.

    ``complemented=False`` means "value in ``values``";
    ``complemented=True`` means "value not in ``values``".  The categorical
    universe is open (any string), so complements stay symbolic.
    """

    values: frozenset
    complemented: bool = False

    @classmethod
    def universe(cls) -> "CategoricalConstraint":
        return cls(frozenset(), complemented=True)

    @classmethod
    def empty(cls) -> "CategoricalConstraint":
        return cls(frozenset(), complemented=False)

    @classmethod
    def from_comparison(cls, op: CompOp, value) -> "CategoricalConstraint":
        if op is CompOp.EQ:
            return cls(frozenset([value]))
        if op is CompOp.NE:
            return cls(frozenset([value]), complemented=True)
        raise UnsupportedPredicateError(
            f"ordering comparison {op.value!r} on a categorical value")

    # -- algebra (complement-aware set arithmetic) -----------------------------

    def intersect(self, other: Constraint) -> "CategoricalConstraint":
        other = self._coerce(other)
        if not self.complemented and not other.complemented:
            return CategoricalConstraint(self.values & other.values)
        if not self.complemented and other.complemented:
            return CategoricalConstraint(self.values - other.values)
        if self.complemented and not other.complemented:
            return CategoricalConstraint(other.values - self.values)
        return CategoricalConstraint(self.values | other.values,
                                     complemented=True)

    def union(self, other: Constraint) -> "CategoricalConstraint":
        other = self._coerce(other)
        if not self.complemented and not other.complemented:
            return CategoricalConstraint(self.values | other.values)
        if not self.complemented and other.complemented:
            return CategoricalConstraint(other.values - self.values,
                                         complemented=True)
        if self.complemented and not other.complemented:
            return CategoricalConstraint(self.values - other.values,
                                         complemented=True)
        return CategoricalConstraint(self.values & other.values,
                                     complemented=True)

    def complement(self) -> "CategoricalConstraint":
        return CategoricalConstraint(self.values, not self.complemented)

    def is_empty(self) -> bool:
        return not self.complemented and not self.values

    def is_universe(self) -> bool:
        return self.complemented and not self.values

    def is_subset(self, other: Constraint) -> bool:
        other = self._coerce(other)
        if not self.complemented and not other.complemented:
            return self.values <= other.values
        if not self.complemented and other.complemented:
            return not (self.values & other.values)
        if self.complemented and not other.complemented:
            # An infinite co-finite set fits in a finite set only if empty.
            return False
        return other.values <= self.values

    def contains(self, value) -> bool:
        inside = value in self.values
        return not inside if self.complemented else inside

    # -- rendering -----------------------------------------------------------------

    def atom_count(self) -> int:
        return len(self.values)

    def to_comparisons(self, term: Expression) -> Expression | None:
        if self.is_universe():
            return None
        op = CompOp.NE if self.complemented else CompOp.EQ
        atoms = [Comparison(term, op, Literal(v))
                 for v in sorted(self.values, key=repr)]
        if not atoms:
            return FALSE  # empty inclusion set: unsatisfiable
        if self.complemented:
            return conjunction_of(atoms)
        return atoms[0] if len(atoms) == 1 else Or(tuple(atoms))

    @staticmethod
    def _coerce(other: Constraint) -> "CategoricalConstraint":
        if not isinstance(other, CategoricalConstraint):
            raise UnsupportedPredicateError(
                "mixed numeric/categorical constraints on one dimension")
        return other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        prefix = "NOT " if self.complemented else ""
        return f"Cat({prefix}{set(self.values) or '{}'})"


# -- interval-set sweeps ----------------------------------------------------------
#
# A *cut* is a position between reals: ``(v, False)`` sits just below ``v``
# and ``(v, True)`` just above it, so cuts order as tuples.  A piece runs
# from the cut ``(lo, lo_open)`` to the cut ``(hi, not hi_open)``, and a
# canonical set is exactly a strictly increasing, even-length cut sequence.

#: Truth tables for :func:`_sweep`, indexed by ``in_a + 2 * in_b``.
_BOTH = (False, False, False, True)
_EITHER = (False, True, True, True)
_ONLY_FIRST = (False, True, False, False)


def _cuts(pieces: tuple[Piece, ...]) -> list[tuple]:
    return [cut for lo, lo_open, hi, hi_open in pieces
            for cut in ((lo, lo_open), (hi, not hi_open))]


def _from_cuts(cuts: list[tuple]) -> tuple[Piece, ...]:
    return tuple((cuts[k][0], cuts[k][1], cuts[k + 1][0], not cuts[k + 1][1])
                 for k in range(0, len(cuts), 2))


def _sweep(a: tuple[Piece, ...], b: tuple[Piece, ...],
           keep: tuple[bool, bool, bool, bool]) -> tuple[Piece, ...]:
    """Canonical pieces of ``{x : keep[(x in a) + 2 * (x in b)]}``.

    One merge pass over both cut sequences; membership in each operand
    flips at each of its cuts, and a cut is emitted only where the
    combined membership flips, which keeps the output canonical.
    ``keep[0]`` must be False (the result cannot extend past both operands).
    """
    cuts_a, cuts_b = _cuts(a), _cuts(b)
    len_a, len_b = len(cuts_a), len(cuts_b)
    out: list[tuple] = []
    i = j = 0
    inside = False
    while i < len_a or j < len_b:
        if j == len_b or (i < len_a and cuts_a[i] <= cuts_b[j]):
            cut = cuts_a[i]
            if j < len_b and cuts_b[j] == cut:
                j += 1
            i += 1
        else:
            cut = cuts_b[j]
            j += 1
        now = keep[(i & 1) + ((j & 1) << 1)]
        if now != inside:
            out.append(cut)
            inside = now
    return _from_cuts(out)


def _literal(value: Fraction) -> Literal:
    return Literal(int(value) if value.denominator == 1 else float(value))
