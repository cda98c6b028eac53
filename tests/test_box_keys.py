"""One box-rounding rule: :meth:`BoundingBox.rounded` and its array form
:func:`~repro.types.round_boxes`, the int64 patch keys packed from them,
and the pipeline's patch-key path, whole or one row per batch, answering
as the reference does and raising the pinned errors where it cannot build
a key."""

from __future__ import annotations

import dataclasses
import math
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import EvaConfig, ReusePolicy
from repro.errors import ExecutorError
from repro.executor.fusion import _classifier_step, _FusedRuntime
from repro.executor.operators.classifier import ClassifierApplyOperator
from repro.optimizer.plans import PhysClassifierApply, PhysScan, walk_plan
from repro.parser.parser import parse
from repro.reference import Reference
from repro.session import EvaSession
from repro.storage.batch import Batch, box_keys
from repro.storage.view_store import (
    pack_key_tuples,
    pack_patch_keys,
    packable_patch_keys,
    unpack_patch_keys,
)
from repro.types import (
    UNROUNDED,
    BoundingBox,
    box_areas,
    box_coords,
    round_boxes,
)

_coordinates = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-4000, 4000).map(lambda n: n + 0.5),  # ties, both signs
    st.integers(-4000, 4000).map(float),
    st.floats(-3000, 3000))
_boxes = st.builds(BoundingBox, _coordinates, _coordinates, _coordinates,
                   _coordinates)


class TestRoundingRule:
    @settings(max_examples=150, deadline=None)
    @given(boxes=st.lists(_boxes, max_size=12))
    def test_array_form_equals_round_on_every_finite_box(self, boxes):
        keys = round_boxes(box_coords(boxes)).tolist()
        for box, key in zip(boxes, keys):
            expected = box.rounded()
            if all(abs(part) < 2 ** 53 for part in expected):
                assert tuple(key) == expected
            else:  # no exact int64 form: marked, never a packed key
                assert key == [UNROUNDED] * 4

    def test_ties_round_half_to_even(self):
        box = BoundingBox(0.5, 1.5, -0.5, -2.5)
        assert box.rounded() == (0, 2, 0, -2)
        assert round_boxes(box_coords([box])).tolist() == [[0, 2, 0, -2]]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coordinates_are_marked(self, bad):
        keys = round_boxes(box_coords([BoundingBox(1.0, bad, 3.0, 4.0),
                                       BoundingBox(1.4, 2.6, 3.0, 4.0)]))
        assert keys.tolist() == [[UNROUNDED] * 4, [1, 3, 3, 4]]

    @settings(max_examples=80, deadline=None)
    @given(boxes=st.lists(st.builds(BoundingBox, st.floats(), st.floats(),
                                    st.floats(), st.floats()), max_size=12))
    @example(boxes=[BoundingBox(0.0, 0.0, -0.0, 5.0),  # width -0.0
                    BoundingBox(math.nan, 0.0, 1.0, 1.0),
                    BoundingBox(-math.inf, 0.0, math.inf, 0.0)])
    def test_array_areas_equal_area(self, boxes):
        areas = box_areas(box_coords(boxes)).tolist()
        assert list(map(repr, areas)) == [repr(box.area()) for box in boxes]


class TestSlottedBox:
    def test_value_semantics_are_unchanged(self):
        box = BoundingBox(1.5, 2.0, 3.25, 4.0)
        assert not hasattr(box, "__dict__")
        assert repr(box) == "BoundingBox(x1=1.5, y1=2.0, x2=3.25, y2=4.0)"
        assert box == BoundingBox(1.5, 2.0, 3.25, 4.0)
        assert box != BoundingBox(1.5, 2.0, 3.25, 4.5)
        assert hash(box) == hash((1.5, 2.0, 3.25, 4.0))
        with pytest.raises(FrozenInstanceError):
            box.x1 = 0.0

    def test_pickle_round_trips(self):
        box = BoundingBox(-0.0, 2.5, 1e300, 4.0)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(box, protocol))
            assert copy == box and repr(copy) == repr(box)


_packable = st.tuples(st.integers(0, (1 << 19) - 1),
                      st.tuples(*[st.integers(0, 2047)] * 4))


class TestPatchKeyPacking:
    @settings(max_examples=80, deadline=None)
    @given(keys=st.lists(_packable, max_size=10))
    def test_packing_follows_the_layout_and_unpacks(self, keys):
        ids = np.array([frame_id for frame_id, _ in keys], dtype=np.int64)
        boxes = np.array([box for _, box in keys],
                         dtype=np.int64).reshape(-1, 4)
        packed = pack_patch_keys(ids, boxes)
        assert packed.dtype == np.int64 and (packed >= 0).all()
        assert packed.tolist() == [
            frame_id << 44 | x1 << 33 | y1 << 22 | x2 << 11 | y2
            for frame_id, (x1, y1, x2, y2) in keys]
        if keys:
            assert pack_key_tuples(keys).tolist() == packed.tolist()
        assert unpack_patch_keys(packed) == keys
        assert len(set(packed.tolist())) == len(set(keys))

    @pytest.mark.parametrize("key", [
        (1 << 19, (0, 0, 0, 0)), (-1, (0, 0, 0, 0)), (3, (0, 0, 2048, 1)),
        (3, (0, -1, 0, 0)), (3,), (True, (0, 0, 0, 0)), (3, (0, 0, 0)),
        (3, (0, 0, 0, 1.0)), ("a", (0, 0, 0, 0)), (3, (0, 0, 0, 1 << 70))])
    def test_keys_out_of_range_or_shape_do_not_pack(self, key):
        assert pack_key_tuples([key]) is None
        assert pack_key_tuples([(1, (0, 0, 1, 1)), key]) is None

    def test_array_with_one_key_out_of_range_does_not_pack(self):
        boxes = np.array([[0, 0, 1, 1], [0, 0, 2048, 1]], dtype=np.int64)
        assert pack_patch_keys(np.array([1, 2]), boxes) is None
        assert pack_patch_keys(np.array([1, 1 << 19]), boxes[:1].repeat(
            2, axis=0)) is None
        assert pack_patch_keys(np.array([1, 2]), np.array(
            [[0, 0, 1, 1], [UNROUNDED] * 4], dtype=np.int64)) is None
        assert packable_patch_keys(np.array([1, 2]), boxes).tolist() == [
            True, False]


CLASSIFY = ("SELECT id FROM tiny CROSS APPLY FastRCNNObjectDetector(frame) "
            "WHERE CarType(frame, bbox) = 'Nissan';")


def _classifier_node(session: EvaSession) -> PhysClassifierApply:
    plan = session.optimizer.optimize(parse(CLASSIFY)).plan
    return next(node for node in walk_plan(plan)
                if isinstance(node, PhysClassifierApply))


def _classifier(tiny_video) -> ClassifierApplyOperator:
    session = EvaSession(config=EvaConfig())
    session.register_video(tiny_video)
    return ClassifierApplyOperator(_classifier_node(session),
                                   session.context)


def _batch(tiny_video, odd: BoundingBox) -> Batch:
    return Batch({"frame": [tiny_video.frame(3), tiny_video.frame(4),
                            tiny_video.frame(4)],
                  "bbox": [BoundingBox(10.0, 20.0, 90.0, 80.0), odd,
                           BoundingBox(10.5, 20.5, 91.5, 82.5)]})


def _pipeline(op, batch):
    runtime = _FusedRuntime(ReusePolicy.EVA, [op])
    return list(_classifier_step(batch, runtime, op).column(op.column))


def _one_row_per_batch(op, batch):
    return [value for i in range(batch.num_rows)
            for value in _pipeline(op, batch.slice(i, i + 1))]


def _raised(path, tiny_video, batch) -> Exception:
    """The exception ``path`` raises resolving ``batch``."""
    with pytest.raises(Exception) as raised:
        path(_classifier(tiny_video), batch)
    return raised.value


NEEDS_BBOX = (ExecutorError, "cartype(frame, bbox) needs a bbox column "
              "(is the detector APPLY missing?)")


class TestPipelineRaisesThePinnedErrorsOnOddBoxes:
    @pytest.mark.parametrize("bad, error", [
        (math.inf, (OverflowError,
                    "cannot convert float infinity to integer")),
        (-math.inf, (OverflowError,
                     "cannot convert float infinity to integer")),
        (math.nan, (ValueError, "cannot convert float NaN to integer"))])
    def test_non_finite_box_raises_the_rounding_error(self, tiny_video,
                                                      bad, error):
        batch = _batch(tiny_video, BoundingBox(bad, 20.0, 90.0, 80.0))
        for path in (_pipeline, _one_row_per_batch):
            raised = _raised(path, tiny_video, batch)
            assert (type(raised), str(raised)) == error

    @pytest.mark.parametrize("odd", [None, "box", (10.0, 20.0, 90.0, 80.0)])
    def test_a_value_that_is_not_a_box_raises_needs_a_bbox(
            self, tiny_video, odd):
        batch = _batch(tiny_video, odd)
        for path in (_pipeline, _one_row_per_batch):
            raised = _raised(path, tiny_video, batch)
            assert (type(raised), str(raised)) == NEEDS_BBOX

    @pytest.mark.parametrize("column, error", [
        ("bbox", NEEDS_BBOX), ("frame", (KeyError, "'frame'"))])
    def test_a_missing_column_raises_the_pinned_error(self, tiny_video,
                                                      column, error):
        batch = _batch(tiny_video, BoundingBox(1.0, 2.0, 3.0, 4.0))
        batch = Batch({name: batch.column(name)
                       for name in batch.column_names if name != column})
        for path in (_pipeline, _one_row_per_batch):
            raised = _raised(path, tiny_video, batch)
            assert (type(raised), str(raised)) == error

    def test_the_reference_raises_the_same_for_a_missing_bbox(
            self, tiny_video):
        session = EvaSession(config=EvaConfig(
            reuse_policy=ReusePolicy.NONE, execution_mode="row"))
        session.register_video(tiny_video)
        # A classifier straight over the scan: no detector adds a bbox.
        plan = dataclasses.replace(_classifier_node(session),
                                   child=PhysScan("tiny", ((3, 6),)))
        with pytest.raises(Exception) as raised:
            Reference(session.context.storage, session.catalog).run(plan)
        assert (type(raised.value), str(raised.value)) == NEEDS_BBOX

    @pytest.mark.parametrize("odd", [
        BoundingBox(1e300, 0.0, 2e300, 5.0),  # rounds, beyond int64
        BoundingBox(0.0, 0.0, 3000.0, 5.0),  # rounds, does not pack
        BoundingBox(-4.5, -2.0, 30.0, 40.0)])
    def test_boxes_that_do_not_pack_answer_as_the_reference(self, tiny_video,
                                                            odd):
        assert box_keys([odd]) is not None
        row_op, pipe_op = _classifier(tiny_video), _classifier(tiny_video)
        batch = _batch(tiny_video, odd)
        reference = Reference(row_op.context.storage, row_op.context.catalog)
        answers = [reference.answer("car_type", "tiny", row["frame"].frame_id,
                                    row["bbox"])
                   for row in batch.iter_rows()]
        assert _pipeline(pipe_op, batch) == answers
        assert _one_row_per_batch(row_op, batch) == answers
        views = [op.context.view_store.get(op._view_name)
                 for op in (row_op, pipe_op)]
        assert [sorted(map(repr, view.items())) for view in views][0] == \
            sorted(map(repr, views[1].items()))
        assert [op.context.metrics.udf_stats["car_type"]
                .distinct_invocations for op in (row_op, pipe_op)] == [3, 3]
        # A rerun hits every key, whole or one row per batch.
        assert _pipeline(pipe_op, batch) == answers
        assert _one_row_per_batch(row_op, batch) == answers
        assert [op.context.metrics.udf_stats["car_type"].reused_invocations
                for op in (row_op, pipe_op)] == [3, 3]

    @pytest.mark.parametrize("odd", [
        BoundingBox(1e300, 0.0, 2e300, 5.0),
        BoundingBox(0.0, 0.0, 3000.0, 5.0),
        BoundingBox(-4.5, -2.0, 30.0, 40.0)])
    @pytest.mark.parametrize("first", [_pipeline, _one_row_per_batch])
    @pytest.mark.parametrize("second", [_pipeline, _one_row_per_batch])
    def test_distinct_invocations_do_not_depend_on_the_batch(
            self, tiny_video, odd, first, second):
        # A batch with a box that does not pack probes with key tuples;
        # its packable patches still count once with the same patches
        # of a batch that packs, whole or one row per batch.
        op = _classifier(tiny_video)
        with_odd = _batch(tiny_video, odd)
        packable = Batch({"frame": [with_odd.row(0)["frame"],
                                    with_odd.row(2)["frame"]],
                          "bbox": [with_odd.row(0)["bbox"],
                                   with_odd.row(2)["bbox"]]})
        first(op, with_odd)
        second(op, packable)
        stats = op.context.metrics.udf_stats["car_type"]
        assert stats.distinct_invocations == 3
        assert stats.total_invocations == 5
