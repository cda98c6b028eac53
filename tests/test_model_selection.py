"""Tests for Algorithm 2 (logical UDF reuse) and the UdfManager."""

import pytest

from repro.catalog.statistics import UniformIntStatistics
from repro.errors import OptimizerError
from repro.models.detectors import (
    FASTERRCNN_RESNET50,
    FASTERRCNN_RESNET101,
    YOLO_TINY,
)
from repro.optimizer.model_selection import (
    ModelCandidate,
    select_physical_udfs,
)
from repro.optimizer.udf_manager import UdfManager, UdfSignature
from repro.parser.parser import parse
from repro.symbolic.dnf import dnf_from_expression
from repro.symbolic.engine import SymbolicEngine
from repro.symbolic.selectivity import SelectivityEstimator


def where(sql: str):
    return parse(f"SELECT id FROM v WHERE {sql};").where


class TestAlgorithm2:
    def _setup(self):
        engine = SymbolicEngine()
        manager = UdfManager(engine)
        estimator = SelectivityEstimator(
            {"id": UniformIntStatistics(0, 1000)}.get)
        candidates = [
            ModelCandidate(YOLO_TINY, UdfSignature("yolo_tiny", ("v",))),
            ModelCandidate(FASTERRCNN_RESNET50,
                           UdfSignature("fasterrcnn_resnet50", ("v",))),
            ModelCandidate(FASTERRCNN_RESNET101,
                           UdfSignature("fasterrcnn_resnet101", ("v",))),
        ]
        return engine, manager, estimator, candidates

    def _select(self, engine, manager, estimator, candidates, predicate,
                use_views=True):
        return select_physical_udfs(
            candidates, dnf_from_expression(predicate), manager, engine,
            estimator, input_rows=1000, view_read_cost_per_tuple=1e-4,
            use_views=use_views)

    def test_no_history_uses_cheapest_model(self):
        engine, manager, estimator, candidates = self._setup()
        sources = self._select(engine, manager, estimator, candidates,
                               where("id < 500"))
        assert len(sources) == 1
        assert sources[0].model_name == "yolo_tiny"
        assert not sources[0].use_view

    def test_covering_view_is_preferred(self):
        engine, manager, estimator, candidates = self._setup()
        manager.record_execution(candidates[1].signature,
                                 dnf_from_expression(where("id < 800")))
        sources = self._select(engine, manager, estimator, candidates,
                               where("id < 500"))
        assert sources[0].use_view
        assert sources[0].model_name == "fasterrcnn_resnet50"
        # Fully covered: nothing left for the fallback model entry.
        assert len(sources) == 1 or sources[-1].predicate.is_false()

    def test_partial_view_plus_cheapest_fallback(self):
        engine, manager, estimator, candidates = self._setup()
        manager.record_execution(candidates[1].signature,
                                 dnf_from_expression(where("id < 300")))
        sources = self._select(engine, manager, estimator, candidates,
                               where("id < 600"))
        assert sources[0].use_view
        fallback = sources[-1]
        assert not fallback.use_view
        assert fallback.model_name == "yolo_tiny"
        # The fallback region is the uncovered remainder [300, 600).
        assert fallback.predicate.satisfied_by({"id": 450})
        assert not fallback.predicate.satisfied_by({"id": 100})

    def test_multiple_views_combined(self):
        """EVA reuses results from multiple views, unlike MIN-COST
        (section 5.4's Q6-Q8 discussion)."""
        engine, manager, estimator, candidates = self._setup()
        manager.record_execution(candidates[1].signature,
                                 dnf_from_expression(where("id < 300")))
        manager.record_execution(
            candidates[2].signature,
            dnf_from_expression(where("id >= 300 AND id < 600")))
        sources = self._select(engine, manager, estimator, candidates,
                               where("id < 600"))
        used = {s.model_name for s in sources if s.use_view}
        assert used == {"fasterrcnn_resnet50", "fasterrcnn_resnet101"}

    def test_use_views_false_reproduces_min_cost(self):
        engine, manager, estimator, candidates = self._setup()
        manager.record_execution(candidates[1].signature,
                                 dnf_from_expression(where("id < 800")))
        sources = self._select(engine, manager, estimator, candidates,
                               where("id < 500"), use_views=False)
        assert len(sources) == 1
        assert sources[0].model_name == "yolo_tiny"
        assert not sources[0].use_view

    def test_no_candidates_raises(self):
        engine, manager, estimator, _ = self._setup()
        with pytest.raises(OptimizerError):
            self._select(engine, manager, estimator, [], where("id < 5"))


class TestUdfManager:
    def test_signature_key(self):
        sig = UdfSignature("CarType", ("video", "detector"))
        assert sig.key() == "cartype@video@detector"

    def test_aggregated_predicate_starts_false(self):
        manager = UdfManager(SymbolicEngine())
        sig = UdfSignature("m", ("v",))
        assert manager.history(sig).aggregated_predicate.is_false()
        assert not manager.known(UdfSignature("other", ("v",)))

    def test_union_accumulates(self):
        engine = SymbolicEngine()
        manager = UdfManager(engine)
        sig = UdfSignature("m", ("v",))
        manager.record_execution(sig, dnf_from_expression(where("id < 10")))
        manager.record_execution(
            sig, dnf_from_expression(where("id >= 10 AND id < 20")))
        aggregated = manager.history(sig).aggregated_predicate
        assert aggregated.satisfied_by({"id": 15})
        assert not aggregated.satisfied_by({"id": 25})
        # Two adjacent ranges reduce to one conjunctive (Algorithm 1).
        assert len(aggregated.conjunctives) == 1

    def test_intersection_and_difference_with_history(self):
        engine = SymbolicEngine()
        manager = UdfManager(engine)
        sig = UdfSignature("m", ("v",))
        manager.record_execution(sig, dnf_from_expression(where("id < 10")))
        guard = dnf_from_expression(where("id >= 5 AND id < 15"))
        inter = manager.intersection_with_history(sig, guard)
        diff = manager.difference_with_history(sig, guard)
        assert inter.satisfied_by({"id": 7})
        assert not inter.satisfied_by({"id": 12})
        assert diff.satisfied_by({"id": 12})
        assert not diff.satisfied_by({"id": 7})

    def test_view_name_derivation(self):
        manager = UdfManager(SymbolicEngine())
        history = manager.history(UdfSignature("m", ("v",)))
        assert history.view_name == "mv::m@v"

    def test_reset(self):
        manager = UdfManager(SymbolicEngine())
        manager.history(UdfSignature("m", ("v",)))
        manager.reset()
        assert manager.histories() == []
