"""Selectivity estimation over DNF predicates.

Per-dimension masses come from the catalog's histogram/frequency statistics;
conjunctive selectivity multiplies dimension masses (the independence
assumption the paper and the predicate-ordering literature share, Theorem
4.1 footnote); the disjunction is combined with inclusion-exclusion.
"""

from __future__ import annotations

from typing import Callable

from repro.catalog.statistics import ColumnStatistics, TableStatistics
from repro.symbolic.conjunctive import Conjunctive
from repro.symbolic.dnf import DnfPredicate
from repro.symbolic.domains import (
    CategoricalConstraint,
    Constraint,
    NumericConstraint,
)

#: Inclusion-exclusion is exponential in the number of conjunctives; past
#: this many we fall back to the (capped) union bound.
_MAX_EXACT_DISJUNCTS = 10

StatsResolver = Callable[[str], ColumnStatistics | None]


class SelectivityEstimator:
    """Estimates the fraction of rows a DNF predicate selects."""

    def __init__(self, resolver: StatsResolver,
                 default_selectivity: float | None = None):
        self._resolver = resolver
        self._default = (TableStatistics.DEFAULT_SELECTIVITY
                         if default_selectivity is None
                         else default_selectivity)

    # -- public API ----------------------------------------------------------

    def selectivity(self, predicate: DnfPredicate) -> float:
        """Estimated selectivity in [0, 1]."""
        if predicate.is_false():
            return 0.0
        if predicate.is_true():
            return 1.0
        conjunctives = list(predicate.conjunctives)
        if len(conjunctives) <= _MAX_EXACT_DISJUNCTS:
            return self._inclusion_exclusion(conjunctives)
        return min(1.0, sum(self.conjunctive_selectivity(c)
                            for c in conjunctives))

    def conjunctive_selectivity(self, conjunctive: Conjunctive) -> float:
        product = 1.0
        for dim, constraint in conjunctive.constraints.items():
            product *= self.constraint_mass(dim, constraint)
            if product == 0.0:
                return 0.0
        return product

    def constraint_mass(self, dim: str, constraint: Constraint) -> float:
        """Fraction of rows satisfying one dimension's constraint."""
        if constraint.is_universe():
            return 1.0
        if constraint.is_empty():
            return 0.0
        stats = self._resolver(dim)
        if stats is None:
            return self._default
        if isinstance(constraint, NumericConstraint):
            return _clamp(_numeric_mass(stats, constraint.pieces))
        if isinstance(constraint, CategoricalConstraint):
            return _clamp(stats.categorical_mass(
                constraint.values, constraint.complemented))
        return self._default

    # -- internals -----------------------------------------------------------

    def _inclusion_exclusion(self, conjunctives: list[Conjunctive]) -> float:
        total = 0.0
        n = len(conjunctives)
        # Iterate over non-empty subsets via bitmasks.
        for mask in range(1, 1 << n):
            subset = [conjunctives[i] for i in range(n) if mask & (1 << i)]
            combined = subset[0]
            for other in subset[1:]:
                combined = combined.intersect(other)
                if combined.is_empty():
                    break
            if combined.is_empty():
                continue
            sign = -1.0 if (bin(mask).count("1") % 2 == 0) else 1.0
            total += sign * self.conjunctive_selectivity(combined)
        return _clamp(total)


def _numeric_mass(stats: ColumnStatistics, pieces) -> float:
    # Pieces are disjoint; masses add.
    return sum(stats.numeric_mass(float(lo), float(hi), lo_open, hi_open)
               for lo, lo_open, hi, hi_open in pieces)


def _clamp(value: float) -> float:
    return max(0.0, min(1.0, value))
