"""The blocking operators (pull-based batch iterators) and the APPLY
stages the streaming pipeline runs."""

from repro.executor.operators.base import Operator
from repro.executor.operators.detector import DetectorApplyOperator
from repro.executor.operators.classifier import ClassifierApplyOperator
from repro.executor.operators.relational import (
    DistinctOperator,
    GroupByOperator,
    LimitOperator,
    OrderByOperator,
)

__all__ = [
    "Operator",
    "DetectorApplyOperator",
    "ClassifierApplyOperator",
    "DistinctOperator",
    "GroupByOperator",
    "OrderByOperator",
    "LimitOperator",
]
