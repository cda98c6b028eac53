"""Tests for the catalog, statistics, and UDF registry."""

import math

import pytest

from repro.catalog.catalog import Catalog
from repro.catalog.schema import ColumnDef, ColumnType, TableSchema
from repro.catalog.statistics import (
    CategoricalStatistics,
    HistogramStatistics,
    TableStatistics,
    UniformIntStatistics,
)
from repro.catalog.udf_registry import (
    UdfDefinition,
    UdfKind,
    UdfRegistry,
)
from repro.costs import DEFAULT_PER_TUPLE_COST
from repro.errors import CatalogError
from repro.models.zoo import default_zoo
from repro.types import Accuracy


class TestSchema:
    def test_invalid_column_name(self):
        with pytest.raises(CatalogError):
            ColumnDef("not a name", ColumnType.INTEGER)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema.of(("a", ColumnType.INTEGER),
                           ("a", ColumnType.FLOAT))

    def test_column_lookup(self):
        schema = TableSchema.of(("a", ColumnType.INTEGER))
        assert schema.column("a").ctype is ColumnType.INTEGER
        assert schema.has_column("a")
        assert not schema.has_column("b")
        with pytest.raises(CatalogError):
            schema.column("b")

    def test_extend(self):
        a = TableSchema.of(("a", ColumnType.INTEGER))
        b = TableSchema.of(("b", ColumnType.STRING))
        assert a.extend(b).column_names == ["a", "b"]


class TestUniformIntStatistics:
    def test_full_range(self):
        stats = UniformIntStatistics(0, 100)
        assert stats.numeric_mass(-math.inf, math.inf) == pytest.approx(1.0)

    def test_half_range(self):
        stats = UniformIntStatistics(0, 100)
        assert stats.numeric_mass(-math.inf, 49) == pytest.approx(0.5)

    def test_point(self):
        stats = UniformIntStatistics(0, 100)
        assert stats.numeric_mass(5, 5) == pytest.approx(0.01)

    def test_out_of_range(self):
        stats = UniformIntStatistics(0, 100)
        assert stats.numeric_mass(200, 300) == 0.0

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            UniformIntStatistics(5, 5)

    def test_categorical_mass_over_ints(self):
        stats = UniformIntStatistics(0, 10)
        assert stats.categorical_mass(frozenset([3, 4])) == pytest.approx(0.2)
        assert stats.categorical_mass(
            frozenset([3]), complemented=True) == pytest.approx(0.9)


class TestHistogramStatistics:
    def test_exact_empirical_cdf(self):
        stats = HistogramStatistics([1, 2, 3, 4])
        assert stats.numeric_mass(2, 3) == pytest.approx(0.5)
        assert stats.numeric_mass(0, 10) == pytest.approx(1.0)
        assert stats.numeric_mass(5, 2) == 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            HistogramStatistics([])

    def test_point_mass(self):
        stats = HistogramStatistics([1, 1, 2, 3])
        assert stats.categorical_mass(frozenset([1])) == pytest.approx(0.5)


class TestCategoricalStatistics:
    def test_mass(self):
        stats = CategoricalStatistics({"car": 3, "bus": 1})
        assert stats.categorical_mass(frozenset(["car"])) == pytest.approx(
            0.75)
        assert stats.categorical_mass(
            frozenset(["car"]), complemented=True) == pytest.approx(0.25)

    def test_unknown_value_has_zero_mass(self):
        stats = CategoricalStatistics({"car": 1})
        assert stats.categorical_mass(frozenset(["plane"])) == 0.0

    def test_from_sample(self):
        stats = CategoricalStatistics.from_sample(["a", "a", "b", "a"])
        assert stats.categorical_mass(frozenset(["a"])) == pytest.approx(
            0.75)

    def test_empty_frequencies_rejected(self):
        with pytest.raises(ValueError):
            CategoricalStatistics({})


class TestTableStatistics:
    def test_set_get_case_insensitive(self):
        table = TableStatistics()
        table.set("Label", CategoricalStatistics({"car": 1}))
        assert table.get("label") is not None
        assert table.has("LABEL")
        assert table.get("missing") is None


class TestCatalog:
    def _catalog(self, tiny_video):
        catalog = Catalog(default_zoo())
        catalog.register_video(tiny_video)
        return catalog

    def test_register_video_twice_rejected(self, tiny_video):
        catalog = self._catalog(tiny_video)
        with pytest.raises(CatalogError):
            catalog.register_video(tiny_video)

    def test_video_metadata(self, tiny_video):
        catalog = self._catalog(tiny_video)
        assert catalog.video_metadata("TINY").num_frames == 400
        with pytest.raises(CatalogError):
            catalog.video_metadata("nope")

    def test_statistics_built_from_tracks(self, tiny_video):
        catalog = self._catalog(tiny_video)
        stats = catalog.table_statistics("tiny")
        assert stats.get("id") is not None
        assert stats.get("label") is not None
        assert stats.get("udf:car_type") is not None
        label_mass = stats.get("label").categorical_mass(frozenset(["car"]))
        assert 0.7 < label_mass <= 1.0

    def test_register_model_udf(self, tiny_video):
        catalog = self._catalog(tiny_video)
        definition = catalog.register_model_udf("MyDet",
                                                "fasterrcnn_resnet50")
        assert definition.kind is UdfKind.DETECTOR
        assert definition.accuracy is Accuracy.MEDIUM
        assert definition.is_expensive

    def test_register_logical_udf(self, tiny_video):
        catalog = self._catalog(tiny_video)
        definition = catalog.register_logical_udf("AnyDet", "ObjectDetector")
        assert definition.is_logical
        assert definition.is_expensive

    def test_physical_detectors_with_constraint(self, tiny_video):
        catalog = self._catalog(tiny_video)
        detectors = catalog.physical_detectors("ObjectDetector",
                                               Accuracy.MEDIUM)
        names = {m.name for m in detectors}
        assert names == {"fasterrcnn_resnet50", "fasterrcnn_resnet101"}

    def test_per_tuple_cost_is_the_believed_cost(self, tiny_video):
        """Eq. 3's ``c_e`` of a view's model segment: the zoo model's,
        else the UDF definition's, else the default."""
        catalog = self._catalog(tiny_video)
        zoo_cost = catalog.zoo.get("fasterrcnn_resnet50").per_tuple_cost
        assert catalog.per_tuple_cost("fasterrcnn_resnet50") == zoo_cost
        catalog.register_builtin_udf("BoxArea", impl=None,
                                     per_tuple_cost=0.25)
        assert catalog.per_tuple_cost("boxarea") == 0.25
        assert catalog.per_tuple_cost("mystery") == DEFAULT_PER_TUPLE_COST


class TestUdfRegistry:
    def test_case_insensitive_lookup(self):
        registry = UdfRegistry()
        registry.register(UdfDefinition("CarType", UdfKind.PATCH_CLASSIFIER,
                                        per_tuple_cost=0.006))
        assert "cartype" in registry
        assert registry.get("CARTYPE").name == "CarType"

    def test_duplicate_rejected_without_replace(self):
        registry = UdfRegistry()
        udf = UdfDefinition("A", UdfKind.BUILTIN)
        registry.register(udf)
        with pytest.raises(CatalogError):
            registry.register(udf)
        registry.register(udf, replace=True)  # CREATE OR REPLACE

    def test_expensive_is_by_kind_not_cost(self):
        """Builtins are evaluated in place; every model-backed UDF, and
        a logical one, is a materialization candidate at any cost."""
        for cost in (0.0, 1e-6, 0.25):
            assert not UdfDefinition(
                "Area", UdfKind.BUILTIN, per_tuple_cost=cost).is_expensive
        for kind in (UdfKind.DETECTOR, UdfKind.PATCH_CLASSIFIER,
                     UdfKind.FRAME_FILTER):
            for cost in (0.0, 1e-5, 0.006):
                assert UdfDefinition(
                    "Model", kind, per_tuple_cost=cost).is_expensive
        assert UdfDefinition("AnyDet", UdfKind.DETECTOR,
                             is_logical=True).is_expensive

    def test_unknown_udf(self):
        with pytest.raises(CatalogError):
            UdfRegistry().get("nope")
