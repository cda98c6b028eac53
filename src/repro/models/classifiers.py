"""Simulated patch classifiers: vehicle type, color, and license plates.

A patch classifier receives a (frame, bbox) pair.  The simulation matches
the box against the frame's ground-truth objects by IoU; if a true object
matches, the classifier returns its attribute with probability ``accuracy``
(and a deterministic wrong answer otherwise).  Boxes that match nothing —
e.g. false-positive detections — yield a deterministic pseudo-random class,
the way a real classifier confidently labels garbage.

Determinism is per (model, video, frame, rounded bbox —
:meth:`~repro.types.BoundingBox.rounded`): the same patch always
gets the same answer, which is what makes materialized classifier results
reusable across queries.

:meth:`SimulatedPatchClassifier.classify` is the definition, one patch at a
time; :meth:`~SimulatedPatchClassifier.predict_batch` is the same function
over a whole miss sub-batch, with the matching done in numpy.
"""

from __future__ import annotations

import random

import numpy as np

from repro._rng import stable_rng, stable_seeder
from repro.types import BoundingBox
from repro.models.base import PatchClassifierModel
from repro.video.synthetic import (
    SyntheticVideo,
    VEHICLE_COLORS,
    VEHICLE_TYPES,
)

#: Minimum IoU for a detection box to be associated with a true object.
_MATCH_IOU = 0.30

#: Inputs matched per numpy pass.  A sub-batch can be thousands of boxes;
#: in slices of this size the pass's ``(rows, K)`` temporaries stay a few
#: tens of kilobytes, whatever the sub-batch.
_KERNEL_ROWS = 256


class SimulatedPatchClassifier(PatchClassifierModel):
    """Ground-truth-matching classifier over one vehicle attribute."""

    def __init__(self, name: str, per_tuple_cost: float, attribute: str,
                 classes: tuple[str, ...] | None, accuracy: float,
                 device: str = "GPU"):
        super().__init__(name, per_tuple_cost, device)
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
        if attribute not in ("vehicle_type", "color", "license_plate"):
            raise ValueError(f"unknown attribute {attribute!r}")
        self.attribute = attribute
        self.classes = classes
        self.accuracy = accuracy

    def classify(self, video: SyntheticVideo, frame_id: int,
                 bbox: BoundingBox) -> str:
        rng = stable_rng("classify", self.name, video.name, frame_id,
                         bbox.rounded())
        truth = video.ground_truth(frame_id)
        best_obj = None
        best_iou = _MATCH_IOU
        for obj in truth.objects:
            iou = bbox.iou(obj.bbox)
            if iou > best_iou:
                best_iou = iou
                best_obj = obj
        return self._draw(rng, best_obj)

    def predict_batch(self, video: SyntheticVideo, inputs) -> list[str]:
        """:meth:`classify` over ``(frame_id, bbox)`` pairs, in order.

        The boxes are matched against their frames' truth boxes in padded
        ``(rows, K)`` numpy passes (:func:`_match_truth`); what stays per
        input is the seeded draw, whose seed depends on the input alone —
        so an answer does not depend on what else is in the batch.  This
        does not call :meth:`classify`: a subclass that redefines one
        redefines both.
        """
        inputs = list(inputs)
        seed_of = stable_seeder("classify", self.name, video.name)
        rng = random.Random()
        outputs = []
        for start in range(0, len(inputs), _KERNEL_ROWS):
            rows = inputs[start:start + _KERNEL_ROWS]
            for (frame_id, bbox), obj in zip(rows, _match_truth(video, rows)):
                # Re-seeding one generator leaves it in the state of a
                # fresh ``random.Random(seed)``, without allocating one
                # per input.
                rng.seed(seed_of(frame_id, bbox.rounded()))
                outputs.append(self._draw(rng, obj))
        return outputs

    def _draw(self, rng, matched) -> str:
        """The answer for a patch that matched a true object (``matched``:
        its :class:`~repro.video.synthetic.VehicleTrack` or
        :class:`~repro.types.GroundTruthObject`, which name the attributes
        alike; ``None``: nothing), drawn from the patch's own generator."""
        if matched is None:
            return self._hallucination(rng)
        true_value = getattr(matched, self.attribute)
        if rng.random() < self.accuracy:
            return true_value
        return self._wrong_answer(rng, true_value)

    def _wrong_answer(self, rng, true_value: str) -> str:
        if self.classes:
            others = [c for c in self.classes if c != true_value]
            if others:
                return rng.choice(others)
        # Open-vocabulary attributes (license plates): corrupt one character.
        if true_value:
            pos = rng.randrange(len(true_value))
            replacement = rng.choice("ABCDEFGHJKLMNPRSTUVWXYZ0123456789")
            return true_value[:pos] + replacement + true_value[pos + 1:]
        return ""

    def _hallucination(self, rng) -> str:
        if self.classes:
            return rng.choice(self.classes)
        letters = "".join(rng.choices("ABCDEFGHJKLMNPRSTUVWXYZ", k=3))
        digits = "".join(rng.choices("0123456789", k=4))
        return f"{letters}{digits}"


def _match_truth(video: SyntheticVideo, inputs) -> list:
    """For each ``(frame_id, bbox)``: the vehicle track of the truth object
    of that frame with the highest IoU (the first, among equals) if that
    IoU exceeds ``_MATCH_IOU``, else ``None``.

    The arithmetic is :meth:`BoundingBox.iou`'s, operation for operation,
    on float64 — the same IEEE results as the scalar loop in
    :meth:`SimulatedPatchClassifier.classify`, and ``argmax`` keeps the
    first of equal maxima as that loop's strict ``>`` does.  Frames with
    fewer than ``K`` objects are padded with empty boxes, whose IoU is 0
    and so never a match.
    """
    slots: dict[int, int] = {}
    slot_of = np.array([slots.setdefault(frame_id, len(slots))
                        for frame_id, _ in inputs])
    truth = video.truth_table
    starts, counts = truth.spans(
        np.fromiter(slots, dtype=np.int64, count=len(slots)))
    width = counts.max()
    if width == 0:
        return [None] * len(inputs)
    # A plane per coordinate; in each, one row of K per distinct frame,
    # gathered from the frame's rows of the truth table in object order.
    columns = np.arange(width)
    present = columns < counts[:, None]
    table = np.zeros((4, len(slots), width))
    table[:, present] = truth.boxes[(starts[:, None] + columns)[present]].T
    tx1, ty1, tx2, ty2 = table
    x1, y1, x2, y2 = np.array(
        [bbox.as_tuple() for _, bbox in inputs], dtype=np.float64).T
    # An input box beyond ~1e154 overflows to an inf or nan area here
    # exactly as in the scalar arithmetic; numpy would also warn about it.
    # Intersections stay finite: truth boxes lie inside the frame.
    with np.errstate(over="ignore", invalid="ignore"):
        truth_area = (np.maximum(tx2 - tx1, 0.0)
                      * np.maximum(ty2 - ty1, 0.0))
        area = np.maximum(x2 - x1, 0.0) * np.maximum(y2 - y1, 0.0)
        inter = np.minimum(tx2[slot_of], x2[:, None])
        inter -= np.maximum(tx1[slot_of], x1[:, None])
        np.maximum(inter, 0.0, out=inter)
        height = np.minimum(ty2[slot_of], y2[:, None])
        height -= np.maximum(ty1[slot_of], y1[:, None])
        np.maximum(height, 0.0, out=height)
        inter *= height
        union = truth_area[slot_of]
        union += area[:, None]
        union -= inter
        # ``union <= 0 -> 0.0``; a nan union never matches in either form.
        defined = union > 0
        iou = np.divide(inter, union, out=inter, where=defined)
        iou[~defined] = 0.0
    best = iou.argmax(axis=1)
    matched = iou[np.arange(len(inputs)), best] > _MATCH_IOU
    tracks = video.tracks
    hits = iter(truth.track_index[
        (starts[slot_of] + best)[matched]].tolist())
    return [tracks[next(hits)] if hit else None for hit in matched.tolist()]


#: Costs from Table 3 (CarType 6 ms GPU, ColorDet 5 ms CPU); the license
#: reader is not profiled in the paper, so it gets a plausible OCR cost.
CAR_TYPE = SimulatedPatchClassifier(
    name="car_type",
    per_tuple_cost=0.006,
    attribute="vehicle_type",
    classes=VEHICLE_TYPES,
    accuracy=0.93,
    device="GPU",
)

COLOR_DET = SimulatedPatchClassifier(
    name="color_det",
    per_tuple_cost=0.005,
    attribute="color",
    classes=VEHICLE_COLORS,
    accuracy=0.95,
    device="CPU",
)

LICENSE_READER = SimulatedPatchClassifier(
    name="license_reader",
    per_tuple_cost=0.012,
    attribute="license_plate",
    classes=None,
    accuracy=0.90,
    device="GPU",
)
