"""Logical UDF reuse: physical model selection (section 4.3, Algorithm 2).

Selecting which physical models (and whose materialized views) serve a
logical vision task reduces to weighted set cover (Theorem 4.2).  The
greedy algorithm repeatedly picks the view with the lowest cost per covered
tuple, falling back to the cheapest model that meets the accuracy
constraint once views stop being worthwhile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import OptimizerError
from repro.models.base import ObjectDetectorModel
from repro.obs.audit import predicate_sql
from repro.optimizer.plans import DetectorSource
from repro.optimizer.udf_manager import UdfManager, UdfSignature
from repro.symbolic.dnf import DnfPredicate
from repro.symbolic.engine import SymbolicEngine
from repro.symbolic.selectivity import SelectivityEstimator


# ---------------------------------------------------------------------------
# Algorithm 2: OptimalPhysicalUDFs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelCandidate:
    """One physical model considered for a logical vision task."""

    model: ObjectDetectorModel
    signature: UdfSignature


def select_physical_udfs(candidates: Sequence[ModelCandidate],
                         query_predicate: DnfPredicate,
                         udf_manager: UdfManager,
                         engine: SymbolicEngine,
                         estimator: SelectivityEstimator,
                         input_rows: int,
                         view_read_cost_per_tuple: float,
                         use_views: bool = True,
                         audit: list[dict] | None = None,
                         ) -> list[DetectorSource]:
    """Algorithm 2: the optimal ordered set of physical UDFs.

    Args:
        candidates: physical models satisfying the accuracy constraint
            (the set X of Algorithm 2, line 2).
        query_predicate: q, the predicate guarding the logical UDF.
        udf_manager: source of each model's aggregated predicate p_x.
        estimator: selectivity estimator over the input table's statistics.
        input_rows: |R| of the input table (for set cardinalities).
        view_read_cost_per_tuple: cost of reading one tuple from a view.
        use_views: False reproduces the MIN-COST baselines (no view reuse).
        audit: optional list that receives one dict per greedy iteration
            (candidate weights W(x, q), the pick, the remaining predicate)
            plus a final entry for the fallback model — the raw material of
            the ``model-selection`` reuse-decision audit record.

    Returns:
        Ordered :class:`DetectorSource` entries; executors consult them
        first-match.  The final entry always covers the remainder with the
        cheapest model.
    """
    if not candidates:
        raise OptimizerError("no physical model satisfies the constraints")

    # Line 3: the cheapest physical UDF, used when views stop paying off.
    # A candidate's model is the zoo's, so its ``per_tuple_cost`` is the
    # c_e that Catalog.per_tuple_cost returns and the executor charges.
    cheapest = min(candidates, key=lambda c: c.model.per_tuple_cost)
    selected: list[DetectorSource] = []
    remaining = query_predicate
    if use_views:
        usable = list(candidates)
        iteration = 0
        while not remaining.is_false() and usable:
            best: ModelCandidate | None = None
            best_sources: DnfPredicate | None = None
            best_cost_per_tuple = float("inf")
            weights: list[dict] = []
            for candidate in usable:
                covered = udf_manager.intersection_with_history(
                    candidate.signature, remaining)
                covered_fraction = estimator.selectivity(covered)
                covered_tuples = covered_fraction * input_rows
                if covered_tuples <= 0:
                    if audit is not None:
                        weights.append({
                            "model": candidate.model.name,
                            "covered_fraction": covered_fraction,
                            "weight": None,
                        })
                    continue
                history = udf_manager.history(candidate.signature)
                view_fraction = estimator.selectivity(
                    history.aggregated_predicate)
                view_cost = view_fraction * input_rows \
                    * view_read_cost_per_tuple
                # Line 6: W(x, q) = C(m_x) / (s_{p∩} * |m_x|).
                cost_per_tuple = view_cost / covered_tuples
                if audit is not None:
                    weights.append({
                        "model": candidate.model.name,
                        "covered_fraction": covered_fraction,
                        "view_cost": view_cost,
                        "weight": cost_per_tuple,
                    })
                if cost_per_tuple < best_cost_per_tuple:
                    best_cost_per_tuple = cost_per_tuple
                    best = candidate
                    best_sources = covered
            # Line 8: is the best view cheaper than just running the model?
            if best is None or best_cost_per_tuple >= \
                    cheapest.model.per_tuple_cost:
                if audit is not None:
                    audit.append({
                        "iteration": iteration,
                        "weights": weights,
                        "picked": None,
                        "stop": ("no coverage" if best is None
                                 else "view dearer than cheapest model"),
                    })
                break
            assert best_sources is not None
            selected.append(DetectorSource(
                model_name=best.model.name,
                use_view=True,
                predicate=best_sources,
            ))
            # Line 10: q := DIFF(p_x*, q).
            remaining = engine.difference(
                udf_manager.history(best.signature).aggregated_predicate,
                remaining)
            usable.remove(best)
            if audit is not None:
                audit.append({
                    "iteration": iteration,
                    "weights": weights,
                    "picked": best.model.name,
                    "weight": best_cost_per_tuple,
                    "remaining": predicate_sql(remaining),
                })
            iteration += 1
    # Lines 11-13: the cheapest UDF covers whatever is left.
    if not remaining.is_false() or not selected:
        selected.append(DetectorSource(
            model_name=cheapest.model.name,
            use_view=False,
            predicate=remaining,
        ))
        if audit is not None:
            audit.append({
                "fallback": cheapest.model.name,
                "per_tuple_cost": cheapest.model.per_tuple_cost,
                "remaining": predicate_sql(remaining),
            })
    return selected
