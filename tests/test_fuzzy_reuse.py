"""Tests for fuzzy bounding-box reuse (the paper's section 6 extension).

Boxes detected by different models for the same object are spatially close
but not identical, so exact (frame, bbox) keys miss.  With
``fuzzy_reuse=True`` a patch classifier may reuse the stored result of a
box with IoU above a threshold — trading exactness for fewer evaluations.
"""

import pytest

from repro.config import EvaConfig, ReusePolicy
from repro.executor.fusion import _classifier_step, _FusedRuntime
from repro.executor.operators.classifier import ClassifierApplyOperator
from repro.optimizer.plans import PhysClassifierApply, walk_plan
from repro.parser.parser import parse
from repro.session import EvaSession
from repro.storage.batch import Batch
from repro.storage.view_store import MaterializedView
from repro.types import BoundingBox


def _session(video, fuzzy: bool):
    session = EvaSession(config=EvaConfig(
        reuse_policy=ReusePolicy.EVA, fuzzy_reuse=fuzzy,
        fuzzy_iou_threshold=0.6))
    session.register_video(video)
    return session


# The MEDIUM-accuracy query materializes classifier results on FRCNN-50
# boxes; the HIGH-accuracy query produces slightly different boxes for the
# same vehicles via FRCNN-101.
FIRST = ("SELECT id, bbox FROM tiny CROSS APPLY "
         "FastRCNNObjectDetector(frame) WHERE id < 60 AND label='car' "
         "AND CarType(frame, bbox) = 'Nissan';")
SECOND = ("SELECT id, bbox FROM tiny CROSS APPLY "
          "FasterRCNNResnet101(frame) WHERE id < 60 AND label='car' "
          "AND CarType(frame, bbox) = 'Nissan';")


class TestPrefixIndex:
    def test_keys_with_prefix(self):
        view = MaterializedView("v", ["id", "bbox_key"], ["value"])
        view.put((1, (0, 0, 10, 10)), [{"value": "a"}])
        view.put((1, (5, 5, 15, 15)), [{"value": "b"}])
        view.put((2, (0, 0, 10, 10)), [{"value": "c"}])
        assert len(view.keys_with_prefix(1)) == 2
        assert view.keys_with_prefix(3) == []

    def test_index_tracks_later_puts(self):
        view = MaterializedView("v", ["id", "bbox_key"], ["value"])
        view.put((1, (0, 0, 10, 10)), [{"value": "a"}])
        assert len(view.keys_with_prefix(1)) == 1  # builds the index
        view.put((1, (5, 5, 15, 15)), [{"value": "b"}])
        assert len(view.keys_with_prefix(1)) == 2


class TestFuzzyReuse:
    def test_cross_detector_reuse_only_with_fuzzy(self, tiny_video):
        exact = _session(tiny_video, fuzzy=False)
        exact.execute(FIRST)
        exact.execute(SECOND)
        exact_reused = exact.metrics.udf_stats["car_type"].\
            reused_invocations

        fuzzy = _session(tiny_video, fuzzy=True)
        fuzzy.execute(FIRST)
        fuzzy.execute(SECOND)
        fuzzy_reused = fuzzy.metrics.udf_stats["car_type"].\
            reused_invocations

        # Different detectors produce (mostly) different exact keys, so
        # only the fuzzy configuration reuses classifier results.
        assert fuzzy_reused > exact_reused
        assert fuzzy_reused > 10

    def test_fuzzy_results_mostly_agree_with_exact(self, tiny_video):
        exact = _session(tiny_video, fuzzy=False)
        exact.execute(FIRST)
        expected = exact.execute(SECOND)

        fuzzy = _session(tiny_video, fuzzy=True)
        fuzzy.execute(FIRST)
        actual = fuzzy.execute(SECOND)

        # Fuzzy answers are approximate: most (not necessarily all) of the
        # exact result rows are preserved.
        expected_ids = set(expected.column("id"))
        actual_ids = set(actual.column("id"))
        overlap = len(expected_ids & actual_ids)
        assert overlap >= 0.7 * len(expected_ids)

    def test_fuzzy_is_deterministic(self, tiny_video):
        a = _session(tiny_video, fuzzy=True)
        a.execute(FIRST)
        first = a.execute(SECOND)
        b = _session(tiny_video, fuzzy=True)
        b.execute(FIRST)
        second = b.execute(SECOND)
        assert first.rows == second.rows

    def test_same_detector_repeat_is_fully_exact(self, tiny_video):
        """A repeated query has identical boxes, so every classifier
        lookup hits the exact key and fuzzy matching never engages on the
        second run."""
        fuzzy = _session(tiny_video, fuzzy=True)
        first = fuzzy.execute(FIRST)
        second = fuzzy.execute(FIRST)
        assert first.rows == second.rows
        run2 = fuzzy.metrics.query_metrics[-1]
        assert run2.reused_counts.get("car_type") == \
            run2.udf_counts.get("car_type")

    def test_fuzzy_drift_is_bounded(self, tiny_video):
        """Fuzzy matching may also fire *within* a query when two vehicles
        overlap heavily; the resulting drift stays small."""
        exact = _session(tiny_video, fuzzy=False)
        expected = exact.execute(FIRST)
        fuzzy = _session(tiny_video, fuzzy=True)
        actual = fuzzy.execute(FIRST)
        drift = abs(len(actual) - len(expected))
        assert drift <= max(3, 0.1 * len(expected))

    @pytest.mark.parametrize("threshold", [1.0, 1.5, -0.1, -1.0])
    def test_threshold_outside_unit_interval_is_refused(self, threshold):
        # At >= 1 no IoU exceeds the threshold, so fuzzy reuse would
        # silently reuse nothing; below 0 a disjoint box (IoU 0) in the
        # same frame would answer with another vehicle's label.
        with pytest.raises(ValueError, match="fuzzy_iou_threshold"):
            EvaConfig(reuse_policy=ReusePolicy.EVA, fuzzy_reuse=True,
                      fuzzy_iou_threshold=threshold)

    def test_threshold_zero_is_accepted(self):
        assert EvaConfig(fuzzy_reuse=True,
                         fuzzy_iou_threshold=0.0).fuzzy_iou_threshold == 0.0


class TestFuzzyTies:
    """The best IoU strictly above the threshold wins; a tie keeps the
    first candidate."""

    QUERY = BoundingBox(100.0, 100.0, 200.0, 200.0)
    # Shifted left and right by the same amount: equal IoU with QUERY.
    LEFT, RIGHT = (90, 100, 190, 200), (110, 100, 210, 200)

    def _resolve(self, tiny_video, threshold: float):
        session = _session(tiny_video, fuzzy=True)
        session.config.fuzzy_iou_threshold = threshold
        plan = session.optimizer.optimize(parse(FIRST)).plan
        node = next(node for node in walk_plan(plan)
                    if isinstance(node, PhysClassifierApply))
        op = ClassifierApplyOperator(node, session.context)
        view = session.view_store.create_or_get(
            op._view_name, ["id", "bbox_key"], ["value"])
        view.put((5, self.LEFT), [{"value": "left"}])
        view.put((5, self.RIGHT), [{"value": "right"}])
        batch = Batch({"frame": [tiny_video.frame(5)], "bbox": [self.QUERY]})
        out = _classifier_step(batch, _FusedRuntime(ReusePolicy.EVA, [op]),
                               op)
        return list(out.column(op.column))

    def test_a_tie_keeps_the_first_stored_box(self, tiny_video):
        assert self._resolve(tiny_video, 0.6) == ["left"]

    def test_an_iou_at_the_threshold_does_not_match(self, tiny_video):
        iou = self.QUERY.iou(BoundingBox(*self.LEFT))
        assert self._resolve(tiny_video, iou)[0] not in ("left", "right")
