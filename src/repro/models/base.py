"""Abstract interfaces for simulated vision models.

Every model exposes two invocation surfaces:

* the classic per-input API (``detect`` / ``classify`` / ``predict``),
  used by the row-at-a-time executor path; and
* :meth:`VisionModel.predict_batch`, the **batched** entry point the
  vectorized executor uses — one call per miss sub-batch instead of one
  per row.  The default implementation loops the per-input API (results
  are identical by construction); models with a vectorizable substrate
  override it to run the batch as arrays: the numpy conv-net of
  :class:`~repro.models.filters.SpecializedFilter`, and the IoU matching
  of :class:`~repro.models.classifiers.SimulatedPatchClassifier`, written
  in the scalar method's operation order so outputs stay bit-identical.
  The detectors keep the default: a frame's draws are sequential.

Virtual cost is *not* charged here: the executor charges
``len(inputs) * per_tuple_cost`` per batched call, which is exactly the
sum one call per input charges — batching changes real seconds, never
virtual totals.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.types import Accuracy, BoundingBox, Detection
from repro.video.synthetic import SyntheticVideo


class VisionModel(abc.ABC):
    """A (simulated) deep-learning model with a profiled per-tuple cost.

    Attributes:
        name: unique physical-model name used in catalog and views.
        per_tuple_cost: profiled inference seconds per input tuple
            (Table 3 / Table 5 of the paper), charged to the virtual clock.
        device: ``"GPU"`` or ``"CPU"``, reported in Table 3.
    """

    def __init__(self, name: str, per_tuple_cost: float, device: str = "GPU"):
        if per_tuple_cost < 0:
            raise ValueError("per_tuple_cost must be non-negative")
        self.name = name
        self.per_tuple_cost = per_tuple_cost
        self.device = device

    def predict_batch(self, video: SyntheticVideo,
                      inputs: Sequence) -> list:
        """Evaluate the model once per input, in input order.

        The shape of each input (and each output) is kind-specific —
        frame ids for detectors and frame filters, ``(frame_id, bbox)``
        pairs for patch classifiers.  Subclasses define the per-kind
        default loop; models with real batched substrates override it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement predict_batch")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class ObjectDetectorModel(VisionModel):
    """Detects objects in a frame; one logical-type ``ObjectDetector``."""

    def __init__(self, name: str, per_tuple_cost: float,
                 accuracy: Accuracy, device: str = "GPU"):
        super().__init__(name, per_tuple_cost, device)
        self.accuracy = accuracy

    @abc.abstractmethod
    def detect(self, video: SyntheticVideo, frame_id: int
               ) -> list[Detection]:
        """Return the detections for one frame, deterministically."""

    def predict_batch(self, video: SyntheticVideo,
                      inputs: Sequence[int]) -> list[list[Detection]]:
        """Batched :meth:`detect`: ``inputs`` are frame ids."""
        detect = self.detect
        return [detect(video, frame_id) for frame_id in inputs]


class PatchClassifierModel(VisionModel):
    """Classifies a bounding-box patch of a frame (CarType, ColorDet...)."""

    @abc.abstractmethod
    def classify(self, video: SyntheticVideo, frame_id: int,
                 bbox: BoundingBox) -> str:
        """Return the class label for one patch, deterministically."""

    def predict_batch(self, video: SyntheticVideo,
                      inputs: Sequence[tuple[int, BoundingBox]]
                      ) -> list[str]:
        """Batched :meth:`classify`: ``inputs`` are (frame_id, bbox)."""
        classify = self.classify
        return [classify(video, frame_id, bbox)
                for frame_id, bbox in inputs]
