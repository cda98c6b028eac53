"""Derived predicates: INTER, DIFF, UNION, and negation (section 3.2).

For UDF invocations X (historical, predicate ``p1``) and Y (incoming,
predicate ``p2``) with the same signature:

* ``intersection(p1, p2)`` = p1 AND p2   — tuples whose results are reusable;
* ``difference(p1, p2)``   = (NOT p1) AND p2 — tuples Y must still compute;
* ``union(p1, p2)``        = p1 OR p2    — tuples materialized afterwards.

All results are reduced with Algorithm 1 before being returned.
"""

from __future__ import annotations

from repro.symbolic.conjunctive import Conjunctive
from repro.symbolic.dnf import DnfPredicate
from repro.symbolic.reduce import reduce_predicate


def intersection(p1: DnfPredicate, p2: DnfPredicate) -> DnfPredicate:
    """``p1 AND p2`` in reduced DNF."""
    conjunctives = []
    for c1 in p1.conjunctives:
        for c2 in p2.conjunctives:
            merged = c1.intersect(c2)
            if not merged.is_empty():
                conjunctives.append(merged)
    raw = DnfPredicate(tuple(conjunctives), p1.merged_terms(p2))
    return reduce_predicate(raw)


def union(p1: DnfPredicate, p2: DnfPredicate) -> DnfPredicate:
    """``p1 OR p2`` in reduced DNF."""
    raw = DnfPredicate(p1.conjunctives + p2.conjunctives,
                       p1.merged_terms(p2))
    return reduce_predicate(raw)


def negation(p: DnfPredicate) -> DnfPredicate:
    """``NOT p`` in reduced DNF.

    The negation of a DNF is a CNF whose clauses are the dimension-wise
    complements of each conjunctive; distributing it back to DNF is
    exponential in the worst case, which is why the result is immediately
    reduced (and why the paper bounds symbolic analysis with a budget).
    """
    result = DnfPredicate.true()
    for conjunctive in p.conjunctives:
        clause = _negate_conjunctive(conjunctive, p)
        result = intersection(result, clause)
        if result.is_false():
            break
    return result


def difference(p1: DnfPredicate, p2: DnfPredicate) -> DnfPredicate:
    """``(NOT p1) AND p2``: the tuples only ``p2`` covers."""
    if p1.is_false():
        return reduce_predicate(p2)
    return intersection(negation(p1), p2)


def _negate_conjunctive(conjunctive: Conjunctive,
                        parent: DnfPredicate) -> DnfPredicate:
    """NOT of one conjunctive: OR over dims of the complemented constraint."""
    if conjunctive.is_universe():
        return DnfPredicate.false()
    disjuncts = []
    for dim, constraint in conjunctive.constraints.items():
        complemented = constraint.complement()
        if complemented.is_empty():
            continue
        disjuncts.append(Conjunctive({dim: complemented}))
    return DnfPredicate(tuple(disjuncts), parent.terms)
