"""Predicate ranking functions (Eq. 2 and Eq. 4) and reordering.

The canonical ranking function (Hellerstein, Eq. 2) is

    r = (s - 1) / c

and EVA's materialization-aware variant (Eq. 4) replaces the evaluation
cost with the *expected* cost given the view:

    r = (s - 1) / (s_{p-} * c_e + c_r)

Predicates are evaluated in ascending rank order; Theorem 4.1 proves this
order minimizes expected cost under predicate independence.

The ``c_e`` fed into these functions is the UDF's per-tuple cost from
``Catalog.per_tuple_cost``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.expressions.expr import Expression

#: Guard against division by zero for free predicates.
_MIN_COST = 1e-9


def canonical_rank(selectivity: float, udf_cost: float) -> float:
    """Eq. 2: ``(s - 1) / c``; smaller ranks evaluate first."""
    return (selectivity - 1.0) / max(udf_cost, _MIN_COST)


def materialization_aware_rank(selectivity: float, missing_fraction: float,
                               udf_cost: float, read_cost: float) -> float:
    """Eq. 4: ``(s - 1) / (s_{p-} * c_e + c_r)``."""
    denominator = missing_fraction * udf_cost + read_cost
    return (selectivity - 1.0) / max(denominator, _MIN_COST)


@dataclass(frozen=True)
class RankedPredicate:
    """One UDF-based predicate with the quantities ranking needs."""

    predicate: Expression
    #: Selectivity of the predicate itself.
    selectivity: float
    #: Per-tuple evaluation cost of the UDF it invokes (c_e).
    udf_cost: float
    #: Fraction of input tuples missing from the UDF's view (s_{p-}).
    missing_fraction: float
    #: Per-tuple view read cost (c_r).
    read_cost: float

    def rank(self, materialization_aware: bool) -> float:
        if materialization_aware:
            return materialization_aware_rank(
                self.selectivity, self.missing_fraction,
                self.udf_cost, self.read_cost)
        return canonical_rank(self.selectivity, self.udf_cost)


def order_udf_predicates(predicates: list[RankedPredicate],
                         materialization_aware: bool
                         ) -> list[RankedPredicate]:
    """Ascending-rank order (ties broken by SQL text for determinism)."""
    return sorted(
        predicates,
        key=lambda p: (p.rank(materialization_aware),
                       p.predicate.to_sql()),
    )
