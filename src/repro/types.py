"""Core value types shared across subsystems.

These are plain, immutable data holders: bounding boxes, detected objects,
and dataset descriptors.  They deliberately avoid any dependency on the
storage or execution layers.  Beside :class:`BoundingBox` sit its column
forms: :func:`box_coords`, :func:`round_boxes` and :func:`box_areas` are
:meth:`BoundingBox.rounded` and :meth:`BoundingBox.area` over many boxes
at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

import numpy as np


class Accuracy(enum.Enum):
    """Accuracy tiers for logical vision tasks (Listing 2 ``PROPERTIES``)."""

    LOW = "LOW"
    MEDIUM = "MEDIUM"
    HIGH = "HIGH"

    @classmethod
    def parse(cls, text: str) -> "Accuracy":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown accuracy tier: {text!r}") from None

    def __ge__(self, other: "Accuracy") -> bool:
        return _ACCURACY_ORDER[self] >= _ACCURACY_ORDER[other]

    def __gt__(self, other: "Accuracy") -> bool:
        return _ACCURACY_ORDER[self] > _ACCURACY_ORDER[other]

    def __le__(self, other: "Accuracy") -> bool:
        return _ACCURACY_ORDER[self] <= _ACCURACY_ORDER[other]

    def __lt__(self, other: "Accuracy") -> bool:
        return _ACCURACY_ORDER[self] < _ACCURACY_ORDER[other]


_ACCURACY_ORDER = {Accuracy.LOW: 0, Accuracy.MEDIUM: 1, Accuracy.HIGH: 2}


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """An axis-aligned box in pixel coordinates, ``(x1, y1)`` top-left."""

    x1: float
    y1: float
    x2: float
    y2: float

    def area(self) -> float:
        """Absolute area in square pixels."""
        return max(0.0, self.x2 - self.x1) * max(0.0, self.y2 - self.y1)

    def relative_area(self, frame_width: int, frame_height: int) -> float:
        """Area relative to the frame size, in ``[0, 1]``.

        This is the quantity the paper's ``AREA(bbox)`` UDF computes
        (e.g. ``AREA(bbox) > 0.3`` in Listing 1).
        """
        frame_area = frame_width * frame_height
        if frame_area <= 0:
            return 0.0
        return self.area() / frame_area

    def iou(self, other: "BoundingBox") -> float:
        """Intersection-over-union with another box."""
        ix1 = max(self.x1, other.x1)
        iy1 = max(self.y1, other.y1)
        ix2 = min(self.x2, other.x2)
        iy2 = min(self.y2, other.y2)
        inter = max(0.0, ix2 - ix1) * max(0.0, iy2 - iy1)
        union = self.area() + other.area() - inter
        if union <= 0:
            return 0.0
        return inter / union

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    def rounded(self) -> tuple[int, int, int, int]:
        """The coordinates rounded half to even: what identifies a patch,
        as the view key of patch UDFs and the seed of their answers, so
        float noise does not break determinism.  Raises what ``round``
        raises for a coordinate that is not finite."""
        return (round(self.x1), round(self.y1), round(self.x2),
                round(self.y2))


#: A row of :func:`round_boxes` whose box has no int64 rounding.
UNROUNDED = np.iinfo(np.int64).min

_COORDS = attrgetter("x1", "y1", "x2", "y2")


def box_coords(boxes) -> np.ndarray:
    """The coordinates of ``boxes`` as an ``(n, 4)`` float64 array; raises
    ``TypeError`` / ``ValueError`` / ``OverflowError`` for a coordinate
    that is not a float."""
    count = len(boxes)
    return np.fromiter(chain.from_iterable(map(_COORDS, boxes)),
                       dtype=np.float64, count=4 * count).reshape(count, 4)


def round_boxes(coords: np.ndarray) -> np.ndarray:
    """:meth:`BoundingBox.rounded` of every row of an ``(n, 4)`` coordinate
    array, as int64 — ``np.rint`` rounds half to even, as ``round`` does.

    A row with a coordinate that is not finite, or whose rounding is not
    below ``2**53`` in magnitude (where a float64 may not be the box's
    own coordinate), holds :data:`UNROUNDED` in every column.
    """
    with np.errstate(invalid="ignore"):
        rounded = np.rint(coords)
        exact = (np.abs(rounded) < 2.0 ** 53).all(axis=1)
    keys = np.full(coords.shape, UNROUNDED, dtype=np.int64)
    keys[exact] = rounded[exact]
    return keys


def box_areas(coords: np.ndarray) -> np.ndarray:
    """:meth:`BoundingBox.area` of every row of an ``(n, 4)`` coordinate
    array, operation for operation (``max(0.0, d)`` is ``d`` only when
    ``d > 0.0``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        width = coords[:, 2] - coords[:, 0]
        height = coords[:, 3] - coords[:, 1]
        return (np.where(width > 0.0, width, 0.0)
                * np.where(height > 0.0, height, 0.0))


@dataclass(frozen=True)
class GroundTruthObject:
    """One true object in a synthetic frame.

    The synthetic video generator produces these; simulated models read them
    and emit (possibly corrupted) detections.
    """

    object_id: int
    label: str
    bbox: BoundingBox
    color: str
    vehicle_type: str
    license_plate: str


@dataclass(frozen=True)
class Detection:
    """One detection emitted by a (simulated) object detector."""

    label: str
    bbox: BoundingBox
    score: float


@dataclass(frozen=True)
class VideoMetadata:
    """Descriptor of a video dataset registered in the catalog."""

    name: str
    num_frames: int
    width: int
    height: int
    fps: float = 30.0
    # Mean number of vehicle objects per frame; drives the synthetic
    # generator and matches the statistics reported in section 5.1.
    vehicles_per_frame: float = 0.0


@dataclass
class QueryResult:
    """Result of executing one query: rows plus execution metrics."""

    columns: list[str]
    rows: list[tuple]
    metrics: "object | None" = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list:
        """Return one output column as a list, by name."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]
