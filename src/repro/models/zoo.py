"""Model registry: physical models grouped by logical vision task.

The catalog's UDF registry resolves logical UDFs (e.g. ``ObjectDetector``
with ``ACCURACY 'LOW'``) to concrete physical models through a
:class:`ModelZoo`.  ``default_zoo`` reproduces the paper's model set
(Table 5 plus the classifiers of Table 3).
"""

from __future__ import annotations

import copy

from repro.errors import CatalogError
from repro.types import Accuracy
from repro.models.base import ObjectDetectorModel, VisionModel
from repro.models.classifiers import CAR_TYPE, COLOR_DET, LICENSE_READER
from repro.models.detectors import (
    FASTERRCNN_RESNET50,
    FASTERRCNN_RESNET101,
    YOLO_TINY,
)
from repro.models.filters import VEHICLE_FILTER


class ModelZoo:
    """Lookup of physical models by name and by logical type."""

    def __init__(self) -> None:
        self._models: dict[str, VisionModel] = {}
        self._logical: dict[str, list[str]] = {}

    def register(self, model: VisionModel,
                 logical_type: str | None = None) -> None:
        """Register ``model``, optionally under a logical vision task."""
        if model.name in self._models:
            raise CatalogError(f"model {model.name!r} already registered")
        self._models[model.name] = model
        if logical_type is not None:
            self._logical.setdefault(logical_type, []).append(model.name)

    def clone(self) -> "ModelZoo":
        """A fresh zoo over shallow copies of this zoo's models.

        Same names, same logical types, same behaviour — but a setting
        poked on a clone's model (``per_tuple_cost``, a wrapped
        ``predict_batch``) stays off the originals, which
        :func:`default_zoo` shares process-wide.
        """
        other = ModelZoo()
        other._models = {name: copy.copy(model)
                         for name, model in self._models.items()}
        other._logical = {logical: list(names)
                          for logical, names in self._logical.items()}
        return other

    def get(self, name: str) -> VisionModel:
        try:
            return self._models[name]
        except KeyError:
            raise CatalogError(f"unknown model {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._models

    def names(self) -> list[str]:
        return sorted(self._models)

    def physical_models(self, logical_type: str,
                        min_accuracy: Accuracy | None = None
                        ) -> list[VisionModel]:
        """Physical models implementing ``logical_type``.

        When ``min_accuracy`` is given, only models meeting or exceeding that
        tier are returned (the constraint set ``C`` of Algorithm 2).
        """
        names = self._logical.get(logical_type, [])
        models = [self._models[n] for n in names]
        if min_accuracy is not None:
            models = [
                m for m in models
                if isinstance(m, ObjectDetectorModel)
                and m.accuracy >= min_accuracy
            ]
        return models


def default_zoo() -> ModelZoo:
    """The paper's model set, ready to register with a catalog."""
    zoo = ModelZoo()
    zoo.register(YOLO_TINY, logical_type="ObjectDetector")
    zoo.register(FASTERRCNN_RESNET50, logical_type="ObjectDetector")
    zoo.register(FASTERRCNN_RESNET101, logical_type="ObjectDetector")
    zoo.register(CAR_TYPE, logical_type="VehicleTypeClassifier")
    zoo.register(COLOR_DET, logical_type="ColorClassifier")
    zoo.register(LICENSE_READER, logical_type="LicenseReader")
    zoo.register(VEHICLE_FILTER, logical_type="FrameFilter")
    return zoo
