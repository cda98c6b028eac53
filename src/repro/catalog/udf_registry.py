"""UDF definitions and the UDF registry.

A UDF definition records what the paper's ``CREATE UDF`` statement declares
(Listing 2): the implementation (here: a simulated model or a builtin python
function), the logical vision type, and accuracy properties.  The registry
resolves names case-insensitively and knows which UDFs are *expensive* —
candidates for materialization (step 1 of the semantic reuse algorithm).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import CatalogError
from repro.types import Accuracy


class UdfKind(enum.Enum):
    """How a UDF consumes and produces data."""

    #: Table-valued: frame -> rows of (label, bbox, score); used via
    #: CROSS APPLY.
    DETECTOR = "detector"
    #: Scalar-valued: (frame, bbox) -> one string.
    PATCH_CLASSIFIER = "patch_classifier"
    #: Scalar-valued: frame -> bool (specialized filter, section 5.6).
    FRAME_FILTER = "frame_filter"
    #: Cheap python builtin, e.g. AREA(bbox) -> float.
    BUILTIN = "builtin"


#: Output columns a detector contributes via CROSS APPLY.
DETECTOR_OUTPUT_COLUMNS = ("label", "bbox", "score")


@dataclass(frozen=True)
class UdfDefinition:
    """One registered UDF."""

    name: str
    kind: UdfKind
    #: Physical model name in the zoo; None for builtins and logical UDFs.
    model_name: str | None = None
    #: Logical vision task (Listing 2's LOGICAL_TYPE), e.g. "ObjectDetector".
    logical_type: str | None = None
    #: Accuracy this UDF provides (physical) or requires (logical usage).
    accuracy: Accuracy | None = None
    per_tuple_cost: float = 0.0
    #: For BUILTIN: the python implementation, called with evaluated args.
    impl: Callable | None = field(default=None, compare=False)
    #: For BUILTIN: which builtin semantics this UDF carries (e.g. "area"),
    #: regardless of the name the user registered it under.
    builtin_name: str | None = None
    #: True when the name denotes a logical vision task to be resolved to a
    #: physical model by the optimizer (section 4.3).
    is_logical: bool = False

    @property
    def is_expensive(self) -> bool:
        """Is this UDF a candidate for result materialization?

        Every model-backed UDF is, and so is a logical one (a detector
        resolved to models at plan time), whatever its cost: only an
        apply operator evaluates a model.  Builtins like AREA are the
        inexpensive UDFs the paper's optimizer filters out (section 3.1);
        the filter kernel evaluates them in place.
        """
        return self.kind is not UdfKind.BUILTIN

    @property
    def is_table_valued(self) -> bool:
        return self.kind is UdfKind.DETECTOR

    def key(self) -> str:
        return self.name.lower()


class UdfRegistry:
    """Case-insensitive registry of UDF definitions."""

    def __init__(self) -> None:
        self._udfs: dict[str, UdfDefinition] = {}

    def register(self, udf: UdfDefinition, replace: bool = False) -> None:
        key = udf.key()
        if key in self._udfs and not replace:
            raise CatalogError(f"UDF {udf.name!r} already registered "
                               "(use CREATE OR REPLACE)")
        self._udfs[key] = udf

    def get(self, name: str) -> UdfDefinition:
        try:
            return self._udfs[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown UDF {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._udfs

    def names(self) -> list[str]:
        return sorted(u.name for u in self._udfs.values())

    def drop(self, name: str) -> None:
        """Remove a UDF; raises CatalogError when it does not exist."""
        if name.lower() not in self._udfs:
            raise CatalogError(f"cannot drop unknown UDF {name!r}")
        del self._udfs[name.lower()]

    def definitions(self) -> list[UdfDefinition]:
        return sorted(self._udfs.values(), key=lambda u: u.key())

    def expensive_udfs(self) -> list[UdfDefinition]:
        return [u for u in self._udfs.values() if u.is_expensive]
