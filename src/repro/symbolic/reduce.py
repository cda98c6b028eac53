"""Algorithm 1: symbolic predicate reduction.

The input predicate is already in DNF (step 1) with every conjunctive
internally reduced (per-dimension constraint intersection happens at
construction time, step 2).  This module implements step 3: repeatedly pop
pairs of conjunctives and attempt ``ReduceUnionConjunctives`` until no pair
can be reduced or the step budget is spent.

``ReduceUnionConjunctives`` implements the paper's N-1-dimension rule: when
conjunctive ``c2`` is a subset of ``c1`` in at least N-1 of the N dimensions
of ``c1 OR c2``, the union is reducible:

* subset in **all** dimensions  -> drop ``c2``                     (case i)
* subset in all but ``d``, equal elsewhere -> merge along ``d``    (case ii)
* subset in all but ``d``, strict elsewhere -> carve the overlap
  out of ``c2`` along ``d`` so the conjunctives become disjoint    (case iii)

The remaining-dimension unions and differences are delegated to the
constraints' own exact set arithmetic (``domains.py``).
"""

from __future__ import annotations

import threading

from repro.symbolic.conjunctive import Conjunctive
from repro.symbolic.dnf import DnfPredicate

#: Algorithm 1's TimeOut, as a budget of pair comparisons
#: (``reduce_union_conjunctives`` calls) per reduction rather than
#: seconds, so the same input reduces to the same output on any machine
#: (memo keys, plan-cache keys, WAL SQL and ledger text all derive from
#: it).  The largest reduction of the four e2e workloads makes 17
#: comparisons (``explore_cold``); the 0.5 s this replaces was about
#: 16 000.
MAX_REDUCTION_STEPS = 16384

_exhaustions = 0
_exhaustions_lock = threading.Lock()


def budget_exhaustions() -> int:
    """Reductions this process has stopped at their step budget.

    Monotone and process-wide; callers read deltas (the session reports
    its queries' as the ``symbolic_budget_exhausted`` counter).
    """
    return _exhaustions


def _count_exhaustion() -> None:
    global _exhaustions
    with _exhaustions_lock:
        _exhaustions += 1


def reduce_predicate(dnf: DnfPredicate,
                     max_steps: int | None = None) -> DnfPredicate:
    """Simplify ``dnf``: fewer conjunctives and atoms, same semantics.

    Stops after ``max_steps`` (default ``MAX_REDUCTION_STEPS``) pair
    comparisons with whatever (equivalent, less reduced) form it has
    reached.
    """
    if max_steps is None:
        max_steps = MAX_REDUCTION_STEPS
    conjunctives = [c for c in dnf.conjunctives if not c.is_empty()]
    if any(c.is_universe() for c in conjunctives):
        return DnfPredicate((Conjunctive(),), dnf.terms)
    steps = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(conjunctives)):
            for j in range(i + 1, len(conjunctives)):
                if steps >= max_steps:
                    _count_exhaustion()
                    return DnfPredicate(tuple(conjunctives), dnf.terms)
                steps += 1
                replacement = reduce_union_conjunctives(
                    conjunctives[i], conjunctives[j])
                if replacement is None:
                    continue
                # Replace the pair and restart the scan.
                rest = [c for k, c in enumerate(conjunctives)
                        if k not in (i, j)]
                conjunctives = rest + [c for c in replacement
                                       if not c.is_empty()]
                changed = True
                break
            if changed:
                break
    return DnfPredicate(tuple(conjunctives), dnf.terms)


def reduce_union_conjunctives(c1: Conjunctive, c2: Conjunctive
                              ) -> list[Conjunctive] | None:
    """Try to reduce ``c1 OR c2``; None when no reduction applies."""
    for first, second in ((c1, c2), (c2, c1)):
        replacement = _reduce_directed(first, second)
        if replacement is not None:
            return replacement
    return None


def _reduce_directed(c1: Conjunctive, c2: Conjunctive
                     ) -> list[Conjunctive] | None:
    """Reduce assuming ``c2`` may be (mostly) inside ``c1``."""
    dims = sorted(set(c1.dimensions) | set(c2.dimensions))
    outside = [d for d in dims if not c2.subset_on_dim(c1, d)]
    if not outside:
        return [c1]  # case i: c2 subsumed entirely
    if len(outside) > 1:
        return None  # no N-1 dimension relationship this direction
    dim = outside[0]
    others_equal = all(
        d == dim or c1.subset_on_dim(c2, d) for d in dims)
    # ``dim`` being outside implies c1 constrains it (an unconstrained c1
    # dimension is a superset of anything); c2 may be unconstrained there.
    constraint1 = c1.constraint(dim)
    if constraint1 is None:
        return None  # defensive: nothing to merge against
    constraint2 = c2.constraint(dim)
    if others_equal:
        # Case ii: identical on every other dimension; concatenate along
        # ``dim`` using the CAS set union.
        if constraint2 is None:
            return [c2]  # c2 covers the whole dimension: c1 is subsumed
        merged = constraint1.union(constraint2)
        candidate = c1.with_constraint(dim, merged)
        if candidate.atom_count() <= c1.atom_count() + c2.atom_count():
            return [candidate]
        return None
    # Case iii: c2 strictly inside c1 on the other dimensions; carve the
    # overlap out of c2 along ``dim`` so the disjuncts become disjoint.
    carved = (constraint1.complement() if constraint2 is None
              else constraint2.subtract(constraint1))
    if carved.is_empty():
        return [c1]
    if constraint2 is not None and carved == constraint2:
        return None  # already disjoint; nothing to do
    candidate = c2.with_constraint(dim, carved)
    if candidate.atom_count() <= c2.atom_count() + constraint1.atom_count():
        return [c1, candidate]
    return None
