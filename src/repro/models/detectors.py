"""Simulated object detectors.

Each detector reads a frame's ground truth and corrupts it according to its
accuracy profile:

* each true object is detected with probability ``recall``;
* detected boxes are jittered by up to ``bbox_jitter`` of the box size;
* labels are kept with probability ``label_accuracy``;
* spurious detections appear at rate ``false_positive_rate`` per frame.

All randomness is seeded by ``(model, video, frame)`` so a model is a pure
function of its input — required for materialized results to be reusable.

The profiles encode the paper's model zoo (Table 5): YOLO-TINY is fast and
misses many objects; FasterRCNN-ResNet101 is slow and finds nearly all.
The recall ordering reproduces the section 6 limitation: reusing a
high-accuracy detector's results yields *more* objects, so downstream UDFs
do more work.
"""

from __future__ import annotations

import math

from repro._rng import stable_rng
from repro.types import Accuracy, BoundingBox, Detection
from repro.models.base import ObjectDetectorModel
from repro.video.synthetic import SyntheticVideo, VEHICLE_LABELS


#: Mean confidence of a true detection, by accuracy class.
_SCORE_MEAN = {Accuracy.LOW: 0.55, Accuracy.MEDIUM: 0.75,
               Accuracy.HIGH: 0.85}

#: What a mislabelled object can be called instead, by its true label.
_OTHER_LABELS = {label: [l for l in VEHICLE_LABELS if l != label]
                 for label in VEHICLE_LABELS}


class SimulatedDetector(ObjectDetectorModel):
    """Ground-truth-corrupting detector with a fixed accuracy profile."""

    def __init__(self, name: str, per_tuple_cost: float, accuracy: Accuracy,
                 recall: float, label_accuracy: float,
                 false_positive_rate: float, bbox_jitter: float,
                 device: str = "GPU"):
        super().__init__(name, per_tuple_cost, accuracy, device)
        for prob, what in ((recall, "recall"),
                           (label_accuracy, "label_accuracy")):
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{what} must be in [0, 1], got {prob}")
        self.recall = recall
        self.label_accuracy = label_accuracy
        self.false_positive_rate = false_positive_rate
        self.bbox_jitter = bbox_jitter
        self._score_mean = _SCORE_MEAN[accuracy]
        self._no_false_positive = math.exp(-false_positive_rate)

    def detect(self, video: SyntheticVideo, frame_id: int
               ) -> list[Detection]:
        table = video.truth_table
        start, stop = table.rows(frame_id)
        # One flat list of the frame's truth coordinates, read four at a
        # time: no object per true box.
        coords = iter(table.boxes[start:stop].ravel().tolist())
        tracks = video.tracks
        rng = stable_rng("detect", self.name, video.name, frame_id)
        width = video.metadata.width
        height = video.metadata.height
        recall = self.recall
        label_accuracy = self.label_accuracy
        score_mean = self._score_mean
        detections: list[Detection] = []
        for index, x1, y1, x2, y2 in zip(
                table.track_index[start:stop].tolist(),
                coords, coords, coords, coords):
            if rng.random() >= recall:
                continue
            bbox = self._jitter(x1, y1, x2, y2, rng, width, height)
            true_label = tracks[index].label
            if rng.random() < label_accuracy:
                label = true_label
            else:
                label = rng.choice(_OTHER_LABELS[true_label])
            score = min(1.0, max(0.05, rng.gauss(score_mean, 0.08)))
            detections.append(Detection(label, bbox, score))
        # Spurious detections (false positives).
        for _ in range(self._poisson(rng)):
            detections.append(self._false_positive(rng, width, height))
        # Detectors emit boxes in a stable order (left to right, top down).
        detections.sort(key=lambda d: (d.bbox.x1, d.bbox.y1, d.label))
        return detections

    def _jitter(self, x1: float, y1: float, x2: float, y2: float, rng,
                width: int, height: int) -> BoundingBox:
        """The truth box ``(x1, y1, x2, y2)`` as this detector sees it."""
        jitter = self.bbox_jitter
        if jitter <= 0:
            return BoundingBox(x1, y1, x2, y2)
        box_w = x2 - x1
        box_h = y2 - y1
        dx = rng.uniform(-jitter, jitter) * box_w
        dy = rng.uniform(-jitter, jitter) * box_h
        grow = 1.0 + rng.uniform(-jitter, jitter)
        new_w = box_w * grow
        new_h = box_h * grow
        cx = (x1 + x2) / 2 + dx
        cy = (y1 + y2) / 2 + dy
        return BoundingBox(
            max(0.0, cx - new_w / 2), max(0.0, cy - new_h / 2),
            min(float(width), cx + new_w / 2),
            min(float(height), cy + new_h / 2))

    def _false_positive(self, rng, width: int, height: int) -> Detection:
        box_w = rng.uniform(0.02, 0.12) * width
        box_h = box_w / 1.6
        x1 = rng.uniform(0, width - box_w)
        y1 = rng.uniform(0, height - box_h)
        return Detection(
            label=rng.choice(VEHICLE_LABELS),
            bbox=BoundingBox(x1, y1, x1 + box_w, y1 + box_h),
            score=rng.uniform(0.05, 0.45),
        )

    def _poisson(self, rng) -> int:
        """Small-lambda Poisson count of false positives, by inversion."""
        if self.false_positive_rate <= 0:
            return 0
        threshold = self._no_false_positive
        count = 0
        product = rng.random()
        while product > threshold:
            count += 1
            product *= rng.random()
        return count


#: Profiled costs are the paper's Table 3 / Table 5 values (ms -> s).
YOLO_TINY = SimulatedDetector(
    name="yolo_tiny",
    per_tuple_cost=0.009,
    accuracy=Accuracy.LOW,
    recall=0.68,
    label_accuracy=0.85,
    false_positive_rate=0.03,
    bbox_jitter=0.12,
)

FASTERRCNN_RESNET50 = SimulatedDetector(
    name="fasterrcnn_resnet50",
    per_tuple_cost=0.099,
    accuracy=Accuracy.MEDIUM,
    recall=0.92,
    label_accuracy=0.95,
    false_positive_rate=0.05,
    bbox_jitter=0.05,
)

FASTERRCNN_RESNET101 = SimulatedDetector(
    name="fasterrcnn_resnet101",
    per_tuple_cost=0.120,
    accuracy=Accuracy.HIGH,
    recall=0.96,
    label_accuracy=0.97,
    false_positive_rate=0.06,
    bbox_jitter=0.03,
)
