"""Compiled membership tests for DNF predicates.

Exact-rational ``contains`` calls are too slow for per-row checks inside the
execution engine, so predicates that operators must evaluate per tuple are
compiled once into plain-python closures over float interval bounds and
frozensets.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

from repro.symbolic.conjunctive import Conjunctive
from repro.symbolic.dnf import DnfPredicate
from repro.symbolic.domains import (
    CategoricalConstraint,
    Constraint,
    NumericConstraint,
)

MembershipFn = Callable[[Mapping[str, object]], bool]


def compile_dnf(dnf: DnfPredicate) -> MembershipFn:
    """Compile a DNF predicate into a fast row-membership closure.

    The closure receives a mapping of dimension name -> concrete value and
    fails closed on missing dimensions (mirroring
    :meth:`Conjunctive.satisfied_by`).
    """
    if dnf.is_false():
        return lambda values: False
    if dnf.is_true():
        return lambda values: True
    compiled = [_compile_conjunctive(c) for c in dnf.conjunctives]

    def check(values: Mapping[str, object]) -> bool:
        return any(conj(values) for conj in compiled)

    return check


def _compile_conjunctive(conjunctive: Conjunctive) -> MembershipFn:
    checks = [(dim, _compile_constraint(constraint))
              for dim, constraint in conjunctive.constraints.items()]

    def check(values: Mapping[str, object]) -> bool:
        for dim, test in checks:
            if dim not in values or not test(values[dim]):
                return False
        return True

    return check


def _compile_constraint(constraint: Constraint) -> Callable[[object], bool]:
    if isinstance(constraint, CategoricalConstraint):
        members = constraint.values
        if constraint.complemented:
            return lambda v: v not in members
        return lambda v: v in members
    if isinstance(constraint, NumericConstraint):
        pieces = _numeric_pieces(constraint.pieces)

        def check(value: object) -> bool:
            if not isinstance(value, (int, float)):
                return False
            v = float(value)
            return any(lo_cmp(v) and hi_cmp(v) for lo_cmp, hi_cmp in pieces)

        return check
    raise TypeError(f"cannot compile constraint {constraint!r}")


def _numeric_pieces(pieces):
    """Interval pieces as (low-check, high-check) pairs over floats."""
    return [(_lower_check(float(lo), lo_open),
             _upper_check(float(hi), hi_open))
            for lo, lo_open, hi, hi_open in pieces]


def _always(_v: float) -> bool:
    return True


def _lower_check(lo: float, is_open: bool) -> Callable[[float], bool]:
    if lo == -math.inf:
        return _always
    if is_open:
        return lambda v: v > lo
    return lambda v: v >= lo


def _upper_check(hi: float, is_open: bool) -> Callable[[float], bool]:
    if hi == math.inf:
        return _always
    if is_open:
        return lambda v: v < hi
    return lambda v: v <= hi
