"""DNF predicates and conversion from expression ASTs (Algorithm 1, step 1).

``dnf_from_expression`` normalizes a predicate: negations are pushed onto
comparisons (De Morgan), AND distributes over OR, and each comparison
becomes a per-dimension constraint.  Only *axis-aligned* comparisons —
``<column-or-UDF-term> cp <literal>`` — are supported; anything else (join
predicates, column-to-column comparisons, arithmetic) raises
:class:`~repro.errors.UnsupportedPredicateError`, mirroring the paper's
stated limitation in section 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import UnsupportedPredicateError
from repro.expressions.analysis import conjunction_of, term_key
from repro.expressions.expr import (
    And,
    Arithmetic,
    ColumnRef,
    CompOp,
    Comparison,
    Expression,
    FALSE,
    FunctionCall,
    Literal,
    Not,
    Or,
    TRUE,
)
from repro.symbolic.conjunctive import Conjunctive
from repro.symbolic.domains import (
    CategoricalConstraint,
    Constraint,
    NumericConstraint,
)

#: Prefix marking UDF-term dimensions, e.g. ``udf:car_type(frame,bbox)``.
UDF_DIM_PREFIX = "udf:"


@dataclass(frozen=True)
class DnfPredicate:
    """A disjunction of conjunctives, plus term templates for rendering.

    * no conjunctives        -> FALSE
    * one empty conjunctive  -> TRUE
    """

    conjunctives: tuple[Conjunctive, ...]
    #: dimension name -> the AST expression it denotes (for to_expression).
    terms: Mapping[str, Expression] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms", dict(self.terms))

    # -- constructors -----------------------------------------------------------

    @classmethod
    def false(cls) -> "DnfPredicate":
        return cls(())

    @classmethod
    def true(cls) -> "DnfPredicate":
        return cls((Conjunctive(),))

    # -- queries --------------------------------------------------------------

    def is_false(self) -> bool:
        return not self.conjunctives

    def is_true(self) -> bool:
        return any(c.is_universe() for c in self.conjunctives)

    def atom_count(self) -> int:
        """Total atomic formulas across conjunctives (Fig. 7's metric)."""
        return sum(c.atom_count() for c in self.conjunctives)

    def dimensions(self) -> set[str]:
        dims: set[str] = set()
        for conjunctive in self.conjunctives:
            dims.update(conjunctive.dimensions)
        return dims

    def satisfied_by(self, values: Mapping[str, object]) -> bool:
        return any(c.satisfied_by(values) for c in self.conjunctives)

    # -- rendering -----------------------------------------------------------

    def to_expression(self) -> Expression:
        if self.is_false():
            return FALSE
        if self.is_true():
            return TRUE
        disjuncts: list[Expression] = []
        for conjunctive in self.conjunctives:
            atoms: list[Expression] = []
            for dim, constraint in conjunctive.constraints.items():
                term = self.terms.get(dim, ColumnRef(_strip_udf_prefix(dim)))
                rendered = constraint.to_comparisons(term)
                if rendered is not None:
                    atoms.append(rendered)
            disjuncts.append(conjunction_of(atoms))
        if len(disjuncts) == 1:
            return disjuncts[0]
        return Or(tuple(disjuncts))

    # -- structure helpers ------------------------------------------------------

    def merged_terms(self, other: "DnfPredicate") -> dict[str, Expression]:
        merged = dict(self.terms)
        merged.update(other.terms)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_false():
            return "Dnf(FALSE)"
        return "Dnf(" + " | ".join(repr(c) for c in self.conjunctives) + ")"


def _strip_udf_prefix(dim: str) -> str:
    return dim[len(UDF_DIM_PREFIX):] if dim.startswith(UDF_DIM_PREFIX) else dim


def dimension_of(term: Expression) -> str:
    """Dimension name for an atomic comparison's non-literal side."""
    if isinstance(term, ColumnRef):
        return term.name
    if isinstance(term, FunctionCall):
        return UDF_DIM_PREFIX + term_key(term)
    raise UnsupportedPredicateError(
        f"not an axis-aligned term: {term.to_sql()}")


def dnf_from_expression(expr: Expression | None) -> DnfPredicate:
    """Convert a predicate AST into DNF over dimensions."""
    if expr is None:
        return DnfPredicate.true()
    normalized = _push_not(expr, negate=False)
    return _to_dnf(normalized)


def _push_not(expr: Expression, negate: bool) -> Expression:
    """Push negations down to comparisons; result has no Not nodes."""
    if isinstance(expr, Not):
        return _push_not(expr.operand, not negate)
    if isinstance(expr, And):
        operands = tuple(_push_not(o, negate) for o in expr.operands)
        return Or(operands) if negate else And(operands)
    if isinstance(expr, Or):
        operands = tuple(_push_not(o, negate) for o in expr.operands)
        return And(operands) if negate else Or(operands)
    if isinstance(expr, Comparison):
        if negate:
            return Comparison(expr.left, expr.op.negate(), expr.right)
        return expr
    if isinstance(expr, Literal) and isinstance(expr.value, bool):
        return Literal(expr.value != negate)
    if isinstance(expr, (ColumnRef, FunctionCall)):
        # Bare boolean term, e.g. a frame-filter UDF used as a predicate:
        # canonicalize to `term = True` / `term = False`.
        return Comparison(expr, CompOp.EQ, Literal(not negate))
    raise UnsupportedPredicateError(
        f"cannot normalize predicate node {expr!r}")


def _to_dnf(expr: Expression) -> DnfPredicate:
    if isinstance(expr, Literal):
        if expr.value is True:
            return DnfPredicate.true()
        if expr.value is False:
            return DnfPredicate.false()
        raise UnsupportedPredicateError(
            f"non-boolean literal predicate {expr.value!r}")
    if isinstance(expr, Comparison):
        return _atomic_dnf(expr)
    if isinstance(expr, Or):
        conjunctives: list[Conjunctive] = []
        terms: dict[str, Expression] = {}
        for operand in expr.operands:
            part = _to_dnf(operand)
            conjunctives.extend(part.conjunctives)
            terms.update(part.terms)
        alive = tuple(c for c in conjunctives if not c.is_empty())
        return DnfPredicate(alive, terms)
    if isinstance(expr, And):
        return dnf_conjunction(_to_dnf(o) for o in expr.operands)
    raise UnsupportedPredicateError(f"cannot convert {expr!r} to DNF")


def dnf_conjunction(parts: Iterable[DnfPredicate]) -> DnfPredicate:
    """AND of converted predicates, distributed to DNF (not reduced).

    The same product :func:`dnf_from_expression` forms for an ``And``, so
    converting conjuncts one by one and combining them here yields the
    conversion of their conjunction, conjunctive for conjunctive.
    """
    result = DnfPredicate.true()
    for part in parts:
        result = _cross_product(result, part)
    return result


def _cross_product(left: DnfPredicate, right: DnfPredicate) -> DnfPredicate:
    conjunctives: list[Conjunctive] = []
    for lc in left.conjunctives:
        for rc in right.conjunctives:
            merged = lc.intersect(rc)
            if not merged.is_empty():
                conjunctives.append(merged)
    return DnfPredicate(tuple(conjunctives), left.merged_terms(right))


def _atomic_dnf(comparison: Comparison) -> DnfPredicate:
    left, op, right = comparison.left, comparison.op, comparison.right
    if _is_arithmetic_comparison(left, right):
        return _affine_dnf(comparison)
    if isinstance(left, Literal) and not isinstance(right, Literal):
        left, right = right, left
        op = op.flip()
    if not isinstance(right, Literal):
        raise UnsupportedPredicateError(
            f"non-axis-aligned comparison: {comparison.to_sql()} "
            "(join predicates are future work, paper section 6)")
    dim = dimension_of(left)
    constraint = _constraint_for(op, right.value, comparison)
    conjunctive = Conjunctive({dim: constraint})
    if conjunctive.is_empty():
        return DnfPredicate((), {dim: left})
    return DnfPredicate((conjunctive,), {dim: left})


def _is_arithmetic_comparison(left: Expression, right: Expression) -> bool:
    return isinstance(left, Arithmetic) or isinstance(right, Arithmetic)


def _affine_dnf(comparison: Comparison) -> DnfPredicate:
    """Solve an affine comparison down to an axis-aligned constraint.

    Both sides are linearized into ``a * term + b``; the comparison
    ``a1*t + b1 cp a2*t + b2`` becomes ``t cp' (b2 - b1) / (a1 - a2)``,
    flipping the operator when the combined coefficient is negative.
    """
    left_lin = _linearize(comparison.left)
    right_lin = _linearize(comparison.right)
    a1, b1, term1 = left_lin
    a2, b2, term2 = right_lin
    if term1 is not None and term2 is not None and term1 != term2:
        raise UnsupportedPredicateError(
            f"comparison over two distinct terms: {comparison.to_sql()}")
    term = term1 if term1 is not None else term2
    coeff = a1 - a2
    offset = b2 - b1
    op = comparison.op
    if term is None or coeff == 0:
        # Constant truth value.
        truthy = op.apply(b1, b2)
        return DnfPredicate.true() if truthy else DnfPredicate.false()
    if coeff < 0:
        op = op.flip()
    dim = dimension_of(term)
    constraint = _constraint_for(op, offset / coeff, comparison)
    conjunctive = Conjunctive({dim: constraint})
    if conjunctive.is_empty():
        return DnfPredicate((), {dim: term})
    return DnfPredicate((conjunctive,), {dim: term})


def _linearize(expr: Expression) -> tuple[float, float, Expression | None]:
    """``expr`` as (coefficient, offset, term); term None for constants."""
    if isinstance(expr, Literal):
        value = expr.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise UnsupportedPredicateError(
                f"non-numeric literal in arithmetic: {expr.to_sql()}")
        return 0.0, float(value), None
    if isinstance(expr, (ColumnRef, FunctionCall)):
        return 1.0, 0.0, expr
    if isinstance(expr, Arithmetic):
        a1, b1, t1 = _linearize(expr.left)
        a2, b2, t2 = _linearize(expr.right)
        if t1 is not None and t2 is not None and t1 != t2:
            raise UnsupportedPredicateError(
                f"arithmetic over two terms: {expr.to_sql()}")
        term = t1 if t1 is not None else t2
        if expr.op == "+":
            return a1 + a2, b1 + b2, term
        if expr.op == "-":
            return a1 - a2, b1 - b2, term
        if expr.op == "*":
            if t1 is not None and t2 is not None:
                raise UnsupportedPredicateError(
                    f"non-affine product: {expr.to_sql()}")
            if t2 is None:
                return a1 * b2, b1 * b2, t1
            return a2 * b1, b2 * b1, t2
        # Division: only by a non-zero constant stays affine.
        if t2 is not None:
            raise UnsupportedPredicateError(
                f"division by a term: {expr.to_sql()}")
        if b2 == 0:
            raise UnsupportedPredicateError(
                f"division by zero: {expr.to_sql()}")
        return a1 / b2, b1 / b2, t1
    raise UnsupportedPredicateError(
        f"cannot linearize {expr.to_sql()}")


def _constraint_for(op, value, comparison: Comparison) -> Constraint:
    if isinstance(value, bool):
        return CategoricalConstraint.from_comparison(op, value)
    if isinstance(value, (int, float)):
        return NumericConstraint.from_comparison(op, value)
    if isinstance(value, str):
        return CategoricalConstraint.from_comparison(op, value)
    raise UnsupportedPredicateError(
        f"unsupported literal type in {comparison.to_sql()}")
