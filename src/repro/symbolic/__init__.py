"""Symbolic predicate analysis (section 4.1 of the paper).

Predicates are normalized into disjunctive normal form over *dimensions*
(columns and UDF terms).  Numeric dimensions carry exact interval sets;
categorical dimensions carry finite value sets with complements.  On top of
this representation the engine implements the paper's Algorithm 1
(predicate reduction), the INTER/DIFF/UNION derived predicates, and
histogram-based selectivity estimation.
"""

from repro.symbolic.domains import (
    CategoricalConstraint,
    Constraint,
    NumericConstraint,
)
from repro.symbolic.conjunctive import Conjunctive
from repro.symbolic.dnf import DnfPredicate, dnf_from_expression
from repro.symbolic.reduce import reduce_predicate
from repro.symbolic.operations import (
    difference,
    intersection,
    negation,
    union,
)
from repro.symbolic.selectivity import SelectivityEstimator
from repro.symbolic.engine import SymbolicEngine

__all__ = [
    "Constraint",
    "NumericConstraint",
    "CategoricalConstraint",
    "Conjunctive",
    "DnfPredicate",
    "dnf_from_expression",
    "reduce_predicate",
    "intersection",
    "difference",
    "union",
    "negation",
    "SelectivityEstimator",
    "SymbolicEngine",
]
