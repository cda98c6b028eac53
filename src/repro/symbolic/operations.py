"""Derived predicates: INTER, DIFF, UNION, and negation (section 3.2).

For UDF invocations X (historical, predicate ``p1``) and Y (incoming,
predicate ``p2``) with the same signature:

* ``intersection(p1, p2)`` = p1 AND p2   — tuples whose results are reusable;
* ``difference(p1, p2)``   = (NOT p1) AND p2 — tuples Y must still compute;
* ``union(p1, p2)``        = p1 OR p2    — tuples materialized afterwards.

All results are reduced with Algorithm 1 before being returned.

DIFF never negates ``p1`` as a whole: it subtracts ``p1``'s conjunctives
one at a time from ``p2``'s, so its cost follows what ``p2`` overlaps
rather than the size of the history ``p1`` (see :func:`difference`).
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

    :func:`difference` does not call it; it stays as the independent
    reference the property tests check DIFF against.

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
    """``(NOT p1) AND p2``: the tuples only ``p2`` covers.

    Computed by subtraction: the pieces start as ``p2``'s conjunctives,
    and each conjunctive ``d`` of ``p1`` is cut out of every piece it
    intersects (:func:`_subtract`); pieces ``d`` misses stay untouched.
    Unlike ``intersection(negation(p1), p2)`` this never distributes the
    CNF ``NOT p1``: a conjunctive of ``p1`` that misses every piece costs
    one bounds check per piece.
    """
    pieces = [c for c in p2.conjunctives if not c.is_empty()]
    for removed in p1.conjunctives:
        if not pieces:
            break
        pieces = [rest for piece in pieces
                  for rest in _subtract(piece, removed)]
    return reduce_predicate(DnfPredicate(tuple(pieces), p1.merged_terms(p2)))


def _subtract(piece: Conjunctive, removed: Conjunctive) -> list[Conjunctive]:
    """``piece AND NOT removed`` as disjoint conjunctives.

    ``[piece]`` when the two do not intersect (checked per dimension);
    otherwise one remainder per dimension ``d_i`` that ``removed``
    constrains, ``piece AND NOT d_i AND d_1 ... d_{i-1}``, empty ones
    dropped.
    """
    overlaps = []
    for dim, constraint in removed.constraints.items():
        own = piece.constraint(dim)
        overlap = constraint if own is None else own.intersect(constraint)
        if overlap.is_empty():
            return [piece]
        overlaps.append((dim, own, constraint, overlap))
    remainders = []
    inside = piece
    for dim, own, constraint, overlap in overlaps:
        outside = (constraint.complement() if own is None
                   else own.subtract(constraint))
        if not outside.is_empty():
            remainders.append(inside.with_constraint(dim, outside))
        inside = inside.with_constraint(dim, overlap)
    return remainders


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
