"""Re-export of the cost model (lives in :mod:`repro.costs` to keep the
config module free of optimizer-package imports).

The per-tuple ``c_e`` values that flow *through* this model at plan time
come from ``Catalog.per_tuple_cost``.
"""

from repro.costs import CostConstants, CostModel

__all__ = ["CostConstants", "CostModel"]
