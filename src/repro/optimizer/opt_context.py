"""Optimization context: everything rules need while rewriting a query.

One context exists per ``Optimizer.optimize`` call.  It carries the bound
query, the session's :class:`~repro.config.EvaConfig`, the catalog /
UdfManager / symbolic engine handles, the selectivity estimator for the
query's table, and the scratch state the driver reports back (predicate
order, detector sources, post-execution updates).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.catalog.udf_registry import UdfDefinition
from repro.config import EvaConfig
from repro.costs import CostModel
from repro.expressions.analysis import collect_function_calls
from repro.obs.audit import ReuseAuditTrail
from repro.expressions.expr import Expression, FunctionCall
from repro.optimizer.binder import BoundQuery
from repro.optimizer.plans import DetectorSource
from repro.optimizer.udf_manager import UdfManager, UdfSignature
from repro.symbolic.dnf import UDF_DIM_PREFIX
from repro.symbolic.engine import SymbolicEngine
from repro.symbolic.selectivity import SelectivityEstimator


@dataclass
class OptimizationContext:
    """Shared state for one optimization pass."""

    bound: BoundQuery
    catalog: Catalog
    udf_manager: UdfManager
    engine: SymbolicEngine
    cost_model: CostModel
    #: The session's configuration: reuse policy, ranking and model
    #: selection modes.
    config: EvaConfig
    estimator: SelectivityEstimator = field(init=False)
    # -- outputs the driver reports on OptimizedQuery -----------------------
    predicate_order: list[str] = field(default_factory=list)
    detector_sources: tuple[DetectorSource, ...] = ()
    #: Reuse-decision audit records accumulated during this pass
    #: (ranking, Rule II implementations, Algorithm 2 selections).
    audit: ReuseAuditTrail = field(default_factory=ReuseAuditTrail)

    def __post_init__(self):
        stats = self.catalog.table_statistics(self.bound.table_name)

        def resolve(dim: str):
            if dim.startswith(UDF_DIM_PREFIX):
                udf_name = dim[len(UDF_DIM_PREFIX):].split("(")[0]
                definition = (self.catalog.udfs.get(udf_name)
                              if udf_name in self.catalog.udfs else None)
                model = (definition.model_name
                         if definition is not None else udf_name)
                return stats.get(f"udf:{model}") or stats.get(
                    f"udf:{udf_name}")
            return stats.get(dim)

        self.estimator = SelectivityEstimator(resolve)

    # -- convenience lookups --------------------------------------------------

    def expensive_calls(self, expr: Expression) -> list[FunctionCall]:
        """Expensive (materialization-candidate) UDF calls in ``expr``."""
        calls = []
        for call in collect_function_calls(expr):
            if call.name in self.catalog.udfs:
                definition = self.catalog.udfs.get(call.name)
                if definition.is_expensive:
                    calls.append(call)
        return calls

    def udf_definition(self, call: FunctionCall) -> UdfDefinition:
        return self.catalog.udfs.get(call.name)

    # -- signatures (S_u = [N_u; I_u], section 3.1) ----------------------------

    def model_signature(self, model_name: str) -> UdfSignature:
        return UdfSignature(model_name, (self.bound.table_name,))

    def classifier_signature(self, call: FunctionCall) -> UdfSignature:
        detector = (self.bound.detector_call.name
                    if self.bound.detector_call is not None else "")
        definition = self.catalog.udfs.get(call.name)
        model_name = definition.model_name or call.name
        return UdfSignature(model_name, (self.bound.table_name, detector))
