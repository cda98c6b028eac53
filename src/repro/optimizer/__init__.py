"""Query optimizer: canonical rewrites plus the semantic reuse algorithm.

The optimizer follows the paper's Fig. 1 lifecycle: bind the parsed query,
apply canonical rules (predicate splitting and pushdown), then run the
semantic reuse algorithm — identify candidate UDFs, compute signatures,
perform materialization-aware optimizations (predicate reordering, logical
model selection), and apply the two rule-based transformations of
section 4.4 to produce a physical plan.
"""

from repro.optimizer.plans import (
    DetectorSource,
    PhysicalPlan,
    PhysClassifierApply,
    PhysDetectorApply,
    PhysFilter,
    PhysGroupBy,
    PhysLimit,
    PhysOrderBy,
    PhysProject,
    PhysScan,
)
from repro.optimizer.cost import CostModel, CostConstants
from repro.optimizer.ranking import (
    canonical_rank,
    materialization_aware_rank,
    order_udf_predicates,
)
from repro.optimizer.udf_manager import UdfManager, UdfSignature
from repro.optimizer.model_selection import select_physical_udfs
from repro.optimizer.optimizer import Optimizer

__all__ = [
    "PhysicalPlan",
    "PhysScan",
    "PhysDetectorApply",
    "PhysClassifierApply",
    "PhysFilter",
    "PhysProject",
    "PhysGroupBy",
    "PhysOrderBy",
    "PhysLimit",
    "DetectorSource",
    "CostModel",
    "CostConstants",
    "canonical_rank",
    "materialization_aware_rank",
    "order_udf_predicates",
    "UdfManager",
    "UdfSignature",
    "select_physical_udfs",
    "Optimizer",
]
