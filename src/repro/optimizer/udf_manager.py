"""The UDFMANAGER (Fig. 1): signatures, aggregated predicates, views.

A UDF *signature* S_u = [N_u; I_u] identifies a reusable computation: the
physical UDF's name plus the sources it reads (the video table, and — for
patch classifiers — the upstream detector whose boxes it classifies).

For every signature the manager maintains the aggregated predicate ``p_u``:
the UNION of the guard predicates of all executed invocations, i.e. a
symbolic description of which tuples have materialized results.  ``p_u``
starts as FALSE and is updated with
``p_u := UNION(p_u, q)`` after each query (section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.symbolic.dnf import DnfPredicate
from repro.symbolic.engine import SymbolicEngine, predicate_key


@dataclass(frozen=True)
class UdfSignature:
    """S_u = [N_u; I_u]."""

    udf_name: str
    sources: tuple[str, ...]

    def key(self) -> str:
        return "@".join((self.udf_name.lower(),) + self.sources)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.key()


@dataclass
class UdfHistory:
    """State tracked per signature."""

    signature: UdfSignature
    per_tuple_cost: float
    #: Union of all guard predicates whose results are materialized.
    aggregated_predicate: DnfPredicate = field(
        default_factory=DnfPredicate.false)
    #: Name of the materialized view holding the results.
    view_name: str = ""

    def __post_init__(self):
        if not self.view_name:
            self.view_name = f"mv::{self.signature.key()}"


class UdfManager:
    """Tracks historical UDF invocations to drive reuse decisions."""

    def __init__(self, engine: SymbolicEngine):
        self._engine = engine
        self._histories: dict[str, UdfHistory] = {}
        #: Monotone state version; bumps whenever aggregated predicates
        #: change.  Plan caches key their validity on it.
        self.version = 0

    def history(self, signature: UdfSignature,
                per_tuple_cost: float = 0.0) -> UdfHistory:
        """The (created-on-first-use) history for ``signature``."""
        key = signature.key()
        entry = self._histories.get(key)
        if entry is None:
            entry = UdfHistory(signature, per_tuple_cost)
            self._histories[key] = entry
        elif per_tuple_cost and not entry.per_tuple_cost:
            entry.per_tuple_cost = per_tuple_cost
        return entry

    def known(self, signature: UdfSignature) -> bool:
        return signature.key() in self._histories

    def histories(self) -> list[UdfHistory]:
        return list(self._histories.values())

    # -- the three derived predicates (section 3.2) -------------------------

    def intersection_with_history(self, signature: UdfSignature,
                                  guard: DnfPredicate) -> DnfPredicate:
        """p∩ = INTER(p_u, q): tuples whose results can be reused."""
        return self._engine.intersection(
            self.history(signature).aggregated_predicate, guard)

    def difference_with_history(self, signature: UdfSignature,
                                guard: DnfPredicate) -> DnfPredicate:
        """p- = DIFF(p_u, q): tuples that must still be computed."""
        return self._engine.difference(
            self.history(signature).aggregated_predicate, guard)

    def record_execution(self, signature: UdfSignature,
                         guard: DnfPredicate,
                         per_tuple_cost: float = 0.0) -> bool:
        """After executing a query: p_u := UNION(p_u, q).

        Returns whether ``p_u`` changed.  Reduction may hand an unchanged
        ``p_u`` (``q`` already covered) back with its conjunctives in
        another order, so the comparison ignores order and an unchanged
        ``p_u`` keeps its previous one: ``version`` — and with it every
        cached plan — and the reduction memo's keys stay put.
        """
        entry = self.history(signature, per_tuple_cost)
        previous = entry.aggregated_predicate
        merged = self._engine.union(previous, guard)
        if set(predicate_key(merged)) == set(predicate_key(previous)):
            return False
        entry.aggregated_predicate = merged
        self.version += 1
        return True

    def reset(self) -> None:
        self._histories.clear()
        self.version += 1
