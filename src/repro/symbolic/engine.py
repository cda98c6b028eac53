"""The SymbolicEngine facade the optimizer talks to (Fig. 1).

Wraps DNF conversion, Algorithm 1 reduction, the INTER/DIFF/UNION derived
predicates, and selectivity estimation behind one object.

The engine also carries a **reduction memo**: an LRU cache over the
expensive symbolic operations (``reduce`` / ``intersection`` /
``difference``), keyed by the canonicalized DNF forms of the operands.
Exploratory sessions re-derive the same reductions constantly — every
query recomputes ``INTER(p_u, q)`` / ``DIFF(p_u, q)`` against a ``p_u``
that only grows, so consecutive queries over overlapping predicates hit
identical (operation, operands) pairs.  The memo lives on the engine
(session / server lifetime — one optimization pass's
:class:`~repro.optimizer.opt_context.OptimizationContext` is too
short-lived to see cross-query repeats, and on the server one engine is
shared by every client, so one client's reductions are every client's).
It is thread-safe and bounded (``EvaConfig.symbolic_memo_size``, LRU);
hit/miss/eviction counters surface per optimization pass in the reuse
audit trail and in the session metrics.

Correctness: cached values are keyed by the *complete* canonical
structure of the operands (per-conjunctive, per-dimension constraint
contents, in disjunct order), and dimension names canonically determine
the term expressions they render as (columns render as themselves; UDF
dims embed the :func:`~repro.expressions.analysis.term_key`).  Results
are re-wrapped with the caller's own term mapping on every hit, so a
memoized result is indistinguishable from a fresh computation:
``reduce_predicate`` is a pure function of its input (its budget counts
steps, not seconds).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

from repro.expressions.expr import Expression
from repro.symbolic.dnf import DnfPredicate, dnf_from_expression
from repro.symbolic.operations import (
    difference,
    intersection,
    negation,
    union,
)
from repro.symbolic.reduce import reduce_predicate
from repro.symbolic.selectivity import SelectivityEstimator, StatsResolver

#: Default bound on the reduction memo (entries, LRU; 0 disables).
DEFAULT_MEMO_SIZE = 4096


def predicate_key(predicate: DnfPredicate) -> Hashable:
    """Canonical hashable form of a DNF predicate.

    A tuple of per-conjunctive keys in disjunct order; each conjunctive
    key is its ``(dimension, constraint)`` pairs in the conjunctive's own
    (dimension-sorted) order — constraints are canonical, so they hash
    and compare as the sets they denote.  Two predicates with equal keys
    denote the same symbolic set and render over the same terms, so every
    memoized operation is a pure function of its keys.
    """
    return tuple(tuple(conjunctive.constraints.items())
                 for conjunctive in predicate.conjunctives)


@dataclass(frozen=True)
class MemoStats:
    """Counters of one engine's reduction memo (monotone except size)."""

    hits: int
    misses: int
    evictions: int
    size: int

    def delta(self, earlier: "MemoStats") -> "MemoStats":
        """Counter deltas since ``earlier`` (size stays point-in-time)."""
        return MemoStats(hits=self.hits - earlier.hits,
                         misses=self.misses - earlier.misses,
                         evictions=self.evictions - earlier.evictions,
                         size=self.size)


class SymbolicEngine:
    """Symbolic predicate analysis with a cross-query reduction memo.

    Args:
        memo_size: LRU bound of the cross-query reduction memo
            (``0`` disables memoization entirely).
    """

    def __init__(self, memo_size: int = DEFAULT_MEMO_SIZE):
        self.memo_size = memo_size
        self._memo: OrderedDict[Hashable, DnfPredicate] = OrderedDict()
        self._memo_lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- conversion & reduction -------------------------------------------

    def analyze(self, expr: Expression | None) -> DnfPredicate:
        """Expression -> reduced DNF."""
        return self.reduce(dnf_from_expression(expr))

    def reduce(self, predicate: DnfPredicate) -> DnfPredicate:
        return self._memoized(
            lambda: ("reduce", predicate_key(predicate)),
            lambda: reduce_predicate(predicate),
            predicate.terms)

    # -- derived predicates ------------------------------------------------

    def intersection(self, p1: DnfPredicate, p2: DnfPredicate
                     ) -> DnfPredicate:
        return self._memoized(
            lambda: ("inter", predicate_key(p1), predicate_key(p2)),
            lambda: intersection(p1, p2),
            p1.merged_terms(p2))

    def difference(self, p1: DnfPredicate, p2: DnfPredicate
                   ) -> DnfPredicate:
        return self._memoized(
            lambda: ("diff", predicate_key(p1), predicate_key(p2)),
            lambda: difference(p1, p2),
            p1.merged_terms(p2))

    def union(self, p1: DnfPredicate, p2: DnfPredicate) -> DnfPredicate:
        return union(p1, p2)

    def negation(self, p: DnfPredicate) -> DnfPredicate:
        return negation(p)

    # -- memo ------------------------------------------------------------------

    def _memoized(self, make_key: Callable[[], Hashable],
                  compute: Callable[[], DnfPredicate],
                  terms: Mapping[str, Expression]) -> DnfPredicate:
        """LRU-memoized ``compute()``, re-termed for this caller.

        The value is computed outside the lock (reductions can be
        slow); two racing threads may both compute the same entry — the
        results are identical by construction and the second store is a
        no-op overwrite.
        """
        if not self.memo_size:
            return compute()
        try:
            key = make_key()
        except TypeError:  # pragma: no cover - future constraint kinds
            return compute()
        with self._memo_lock:
            cached = self._memo.get(key)
            if cached is not None:
                self._memo.move_to_end(key)
                self._hits += 1
                return DnfPredicate(cached.conjunctives, terms)
            self._misses += 1
        value = compute()
        with self._memo_lock:
            self._memo[key] = value
            self._memo.move_to_end(key)
            while len(self._memo) > self.memo_size:
                self._memo.popitem(last=False)
                self._evictions += 1
        return value

    def memo_stats(self) -> MemoStats:
        """Point-in-time memo counters (thread-safe snapshot)."""
        with self._memo_lock:
            return MemoStats(hits=self._hits, misses=self._misses,
                             evictions=self._evictions,
                             size=len(self._memo))

    # -- estimation -----------------------------------------------------------

    def estimator(self, resolver: StatsResolver) -> SelectivityEstimator:
        return SelectivityEstimator(resolver)

    def selectivity(self, predicate: DnfPredicate,
                    resolver: StatsResolver) -> float:
        return SelectivityEstimator(resolver).selectivity(predicate)
