"""The catalog: tables, statistics, UDFs, and the model zoo.

The paper manages its catalog in a traditional DBMS via SQLAlchemy; here it
is an in-process object the parser binds names against and the optimizer
queries for statistics, UDF costs, and physical-model alternatives.
"""

from __future__ import annotations

from repro.costs import DEFAULT_PER_TUPLE_COST
from repro.errors import CatalogError
from repro.types import Accuracy, VideoMetadata
from repro.catalog.statistics import (
    CategoricalStatistics,
    HistogramStatistics,
    TableStatistics,
    UniformIntStatistics,
)
from repro.catalog.udf_registry import UdfDefinition, UdfKind, UdfRegistry
from repro.models.base import (
    ObjectDetectorModel,
    PatchClassifierModel,
    VisionModel,
)
from repro.models.filters import SpecializedFilter
from repro.models.zoo import ModelZoo
from repro.video.synthetic import SyntheticVideo


class Catalog:
    """Name resolution and metadata for one session."""

    def __init__(self, zoo: ModelZoo):
        self.zoo = zoo
        self.udfs = UdfRegistry()
        self._videos: dict[str, VideoMetadata] = {}
        self._stats: dict[str, TableStatistics] = {}

    # -- tables ------------------------------------------------------------

    def register_video(self, video: SyntheticVideo) -> None:
        name = video.name.lower()
        if name in self._videos:
            raise CatalogError(f"table {video.name!r} already in catalog")
        self._videos[name] = video.metadata
        self._stats[name] = _build_video_statistics(video)

    def video_metadata(self, name: str) -> VideoMetadata:
        try:
            return self._videos[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._videos

    def table_statistics(self, name: str) -> TableStatistics:
        try:
            return self._stats[name.lower()]
        except KeyError:
            raise CatalogError(f"no statistics for table {name!r}") from None

    # -- UDFs ---------------------------------------------------------------

    def register_model_udf(self, udf_name: str, model_name: str,
                           replace: bool = False) -> UdfDefinition:
        """Register a UDF wrapping a physical model from the zoo."""
        model = self.zoo.get(model_name)
        tier = getattr(model, "accuracy", None)
        if not isinstance(tier, Accuracy):
            # Patch classifiers expose a float accuracy (a probability),
            # not a logical tier; only detectors carry Accuracy tiers.
            tier = None
        definition = UdfDefinition(
            name=udf_name,
            kind=_kind_for_model(model),
            model_name=model_name,
            logical_type=_logical_type_for(model),
            accuracy=tier,
            per_tuple_cost=model.per_tuple_cost,
        )
        self.udfs.register(definition, replace=replace)
        return definition

    def register_logical_udf(self, udf_name: str, logical_type: str,
                             replace: bool = False) -> UdfDefinition:
        """Register a logical UDF resolved to physical models at plan time."""
        definition = UdfDefinition(
            name=udf_name,
            kind=UdfKind.DETECTOR,
            logical_type=logical_type,
            is_logical=True,
        )
        self.udfs.register(definition, replace=replace)
        return definition

    #: Builtin semantics the catalog knows how to register.
    KNOWN_BUILTINS = ("area",)

    def register_builtin_udf(self, udf_name: str, impl,
                             per_tuple_cost: float = 0.0,
                             replace: bool = False,
                             builtin_name: str = "area") -> UdfDefinition:
        if builtin_name not in self.KNOWN_BUILTINS:
            raise CatalogError(
                f"unknown builtin {builtin_name!r}; "
                f"known: {list(self.KNOWN_BUILTINS)}")
        definition = UdfDefinition(
            name=udf_name,
            kind=UdfKind.BUILTIN,
            per_tuple_cost=per_tuple_cost,
            impl=impl,
            builtin_name=builtin_name,
        )
        self.udfs.register(definition, replace=replace)
        return definition

    def per_tuple_cost(self, name: str) -> float:
        """Eq. 3's ``c_e`` of the model or UDF ``name`` — a view name's
        model segment: the zoo model's per-tuple cost, else the UDF
        definition's, else :data:`DEFAULT_PER_TUPLE_COST`.  Every planner
        read of ``c_e`` (Rule I ranking, Rule II costing, Algorithm 2)
        goes through here; for a model it is the amount the executor
        charges per evaluated tuple."""
        if name in self.zoo:
            return self.zoo.get(name).per_tuple_cost
        if name in self.udfs:
            return self.udfs.get(name).per_tuple_cost
        return DEFAULT_PER_TUPLE_COST

    def physical_detectors(self, logical_type: str,
                           min_accuracy: Accuracy | None = None
                           ) -> list[ObjectDetectorModel]:
        models = self.zoo.physical_models(logical_type, min_accuracy)
        return [m for m in models if isinstance(m, ObjectDetectorModel)]


def _kind_for_model(model: VisionModel) -> UdfKind:
    if isinstance(model, ObjectDetectorModel):
        return UdfKind.DETECTOR
    if isinstance(model, PatchClassifierModel):
        return UdfKind.PATCH_CLASSIFIER
    if isinstance(model, SpecializedFilter):
        return UdfKind.FRAME_FILTER
    raise CatalogError(f"cannot infer UDF kind for model {model.name!r}")


def _logical_type_for(model: VisionModel) -> str | None:
    if isinstance(model, ObjectDetectorModel):
        return "ObjectDetector"
    if isinstance(model, PatchClassifierModel):
        return {
            "vehicle_type": "VehicleTypeClassifier",
            "color": "ColorClassifier",
            "license_plate": "LicenseReader",
        }.get(getattr(model, "attribute", ""), None)
    if isinstance(model, SpecializedFilter):
        return "FrameFilter"
    return None


def _build_video_statistics(video: SyntheticVideo) -> TableStatistics:
    """Derive statistics from the video's tracks (a cheap full profile)."""
    stats = TableStatistics()
    meta = video.metadata
    stats.set("id", UniformIntStatistics(0, meta.num_frames))
    fps = meta.fps or 1.0
    stats.set("timestamp",
              HistogramStatistics([0.0, meta.num_frames / fps]))
    tracks = video.tracks
    if tracks:
        labels = [t.label for t in tracks]
        stats.set("label", CategoricalStatistics.from_sample(labels))
        stats.set("udf:car_type", CategoricalStatistics.from_sample(
            [t.vehicle_type for t in tracks]))
        stats.set("udf:color_det", CategoricalStatistics.from_sample(
            [t.color for t in tracks]))
        # Bounding-box relative areas: sample each track at entry/mid/exit.
        areas = []
        for track in tracks:
            for frame_id in (track.start_frame,
                             (track.start_frame + track.end_frame) // 2,
                             track.end_frame - 1):
                frame_id = min(max(frame_id, track.start_frame),
                               track.end_frame - 1)
                bbox = track.bbox_at(frame_id, meta.width, meta.height)
                areas.append(bbox.relative_area(meta.width, meta.height))
        stats.set("area", HistogramStatistics(areas))
        stats.set("udf:area", HistogramStatistics(areas))
        # Detector confidence scores cluster high for true objects.
        stats.set("score", HistogramStatistics(
            [0.3 + 0.6 * (i / max(1, len(tracks) - 1))
             for i in range(len(tracks))]))
    return stats
