"""Conjunctives: one AND-term of a DNF predicate.

A conjunctive maps dimension names to constraints; dimensions absent from
the map are unconstrained.  Dimension names are column names (``id``,
``label``, ``area``) or UDF term keys prefixed ``udf:`` (e.g.
``udf:car_type(frame,bbox)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.symbolic.domains import Constraint


@dataclass(frozen=True)
class Conjunctive:
    """An immutable conjunction of per-dimension constraints."""

    constraints: Mapping[str, Constraint] = field(default_factory=dict)

    def __post_init__(self):
        # Drop universe constraints; freeze the mapping.
        cleaned = {dim: c for dim, c in self.constraints.items()
                   if not c.is_universe()}
        object.__setattr__(self, "constraints",
                           MappingProxyType(dict(sorted(cleaned.items()))))

    def __reduce__(self):
        # MappingProxyType is not picklable; rebuild through the
        # constructor from a plain dict (re-frozen in __post_init__).
        # Predicates cross process boundaries in the worker pool's
        # shard protocol, so this must round-trip exactly — and does:
        # construction is deterministic and sorted.
        return (Conjunctive, (dict(self.constraints),))

    # -- basic queries -----------------------------------------------------

    @property
    def dimensions(self) -> tuple[str, ...]:
        return tuple(self.constraints)

    def constraint(self, dim: str) -> Constraint | None:
        """Constraint on ``dim`` or None when unconstrained."""
        return self.constraints.get(dim)

    def is_empty(self) -> bool:
        return any(c.is_empty() for c in self.constraints.values())

    def is_universe(self) -> bool:
        return not self.constraints

    def atom_count(self) -> int:
        return sum(c.atom_count() for c in self.constraints.values())

    # -- algebra ------------------------------------------------------------

    def intersect(self, other: "Conjunctive") -> "Conjunctive":
        merged: dict[str, Constraint] = dict(self.constraints)
        for dim, constraint in other.constraints.items():
            existing = merged.get(dim)
            merged[dim] = (constraint if existing is None
                           else existing.intersect(constraint))
        return Conjunctive(merged)

    def with_constraint(self, dim: str, constraint: Constraint
                        ) -> "Conjunctive":
        merged = dict(self.constraints)
        if constraint.is_universe():
            merged.pop(dim, None)
        else:
            merged[dim] = constraint
        return Conjunctive(merged)

    def subset_on_dim(self, other: "Conjunctive", dim: str) -> bool:
        """Is self's constraint on ``dim`` a subset of other's?

        Missing constraints are the universe: universe is a subset only of
        universe, and everything is a subset of universe.
        """
        mine = self.constraints.get(dim)
        theirs = other.constraints.get(dim)
        if theirs is None:
            return True
        if mine is None:
            return theirs.is_universe()
        return mine.is_subset(theirs)

    def is_subset(self, other: "Conjunctive") -> bool:
        """Subset across all dimensions (the paper's case i test)."""
        dims = set(self.constraints) | set(other.constraints)
        return all(self.subset_on_dim(other, d) for d in dims)

    # -- evaluation & equality ----------------------------------------------------

    def satisfied_by(self, values: Mapping[str, object]) -> bool:
        """Evaluate against concrete per-dimension values.

        Missing values fail closed (SQL-ish NULL semantics).
        """
        for dim, constraint in self.constraints.items():
            if dim not in values:
                return False
            if not constraint.contains(values[dim]):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.constraints:
            return "Conj(TRUE)"
        inner = " & ".join(f"{d}:{c!r}" for d, c in self.constraints.items())
        return f"Conj({inner})"
