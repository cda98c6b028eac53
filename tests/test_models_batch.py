"""The classifiers' batch kernel against its scalar definition.

``SimulatedPatchClassifier.classify`` answers one ``(frame, bbox)`` with a
Python loop over ``BoundingBox.iou``; ``predict_batch`` answers a whole miss
sub-batch with one numpy pass written in the same operation order.  Here
``classify`` is the oracle: every batch answer must equal it exactly, for
generated boxes of every awkward shape, and must not depend on how inputs
are grouped into batches — a miss sub-batch's grouping follows
``batch_rows`` and what the views already hold, so that is an execution
property too.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.classifiers import (
    CAR_TYPE,
    COLOR_DET,
    LICENSE_READER,
    SimulatedPatchClassifier,
)
from repro.models.detectors import FASTERRCNN_RESNET50
from repro.types import BoundingBox, VideoMetadata
from repro.video.frames import TruthTable
from repro.video.synthetic import VEHICLE_COLORS, SyntheticVideo, VehicleTrack

CLASSIFIERS = (CAR_TYPE, COLOR_DET, LICENSE_READER)

#: Dense traffic: up to a dozen truth boxes a frame, none on some.
VIDEO = SyntheticVideo(
    VideoMetadata(name="batch", num_frames=240, width=960, height=540,
                  fps=25.0, vehicles_per_frame=6.0), seed=3)


class FixedTruthVideo(SyntheticVideo):
    """A video whose frame ``i`` shows exactly ``frames[i]``'s boxes.

    Object ``j`` of a frame is vehicle ``j``, whose colour is
    ``f"colour{j}"`` — outside every classifier's vocabulary, so an
    answer names the object it came from.  The truth table is built from
    the boxes, not from the vehicles' motion.
    """

    def __init__(self, frames: list[list[BoundingBox]]):
        self._frames = frames
        super().__init__(VideoMetadata(
            name="fixed", num_frames=len(frames), width=960, height=540))

    def _generate_tracks(self) -> tuple[VehicleTrack, ...]:
        return tuple(
            VehicleTrack(
                track_id=j, label="car", color=f"colour{j}",
                vehicle_type="Ford", license_plate=f"AAA{j:04d}",
                start_frame=0, end_frame=len(self._frames),
                cx0=0.5, cy0=0.5, cx1=0.5, cy1=0.5, size0=0.1, size1=0.1)
            for j in range(max(map(len, self._frames), default=0)))

    def _build_truth_table(self) -> TruthTable:
        counts = [len(boxes) for boxes in self._frames]
        return TruthTable(
            offsets=np.cumsum([0] + counts, dtype=np.int64),
            boxes=np.array(
                [box.as_tuple() for boxes in self._frames for box in boxes],
                dtype=np.float64).reshape(-1, 4),
            track_index=np.array(
                [j for count in counts for j in range(count)],
                dtype=np.int64))


#: Always right about a matched object, so its answer is ``colour<j>``
#: exactly when object ``j`` matched and a real colour when nothing did.
EXACT = SimulatedPatchClassifier(
    "exact_color", 0.0, "color", VEHICLE_COLORS, accuracy=1.0)


def scalar(model, video, inputs):
    return [model.classify(video, frame_id, bbox)
            for frame_id, bbox in inputs]


# -- generated boxes -----------------------------------------------------------

pixels = st.floats(min_value=-300.0, max_value=1300.0)
any_float = st.floats(allow_nan=False, allow_infinity=False)


def _near(box: BoundingBox):
    """``box`` moved and resized a little: IoUs on both sides of 0.30."""
    shift = st.floats(min_value=-0.6, max_value=0.6)
    return st.tuples(shift, shift, shift, shift).map(
        lambda d: BoundingBox(
            box.x1 + d[0] * (box.x2 - box.x1),
            box.y1 + d[1] * (box.y2 - box.y1),
            box.x2 + d[2] * (box.x2 - box.x1),
            box.y2 + d[3] * (box.y2 - box.y1)))


def _boxes_for(frame_id: int):
    choices = [
        # Anywhere, including inverted boxes and boxes outside the frame.
        st.builds(BoundingBox, pixels, pixels, pixels, pixels),
        # Zero area: a vertical line, a horizontal line.
        st.builds(lambda x, y1, y2: BoundingBox(x, y1, x, y2),
                  pixels, pixels, pixels),
        st.builds(lambda x1, x2, y: BoundingBox(x1, y, x2, y),
                  pixels, pixels, pixels),
        # Any finite float at all: differences and areas overflow.
        st.builds(BoundingBox, any_float, any_float, any_float, any_float),
    ]
    truth = [obj.bbox for obj in VIDEO.ground_truth(frame_id).objects]
    if truth:
        choices.append(st.sampled_from(truth))
        choices.append(st.sampled_from(truth).flatmap(_near))
    return st.one_of(choices)


inputs_lists = st.lists(
    st.integers(0, VIDEO.num_frames - 1).flatmap(
        lambda frame_id: st.tuples(st.just(frame_id),
                                   _boxes_for(frame_id))),
    max_size=40)


@settings(max_examples=150, deadline=None)
@given(inputs_lists)
def test_batch_equals_scalar_on_generated_boxes(inputs):
    for model in CLASSIFIERS:
        assert model.predict_batch(VIDEO, inputs) == \
            scalar(model, VIDEO, inputs)


# -- the cases a generator finds only by luck ----------------------------------

def test_empty_input():
    for model in CLASSIFIERS:
        assert model.predict_batch(VIDEO, []) == []


def test_frames_with_no_objects():
    video = FixedTruthVideo([[], [], []])
    inputs = [(frame_id, BoundingBox(10.0, 10.0, 200.0, 120.0))
              for frame_id in (0, 1, 2, 1)]
    for model in CLASSIFIERS + (EXACT,):
        answers = model.predict_batch(video, inputs)
        assert answers == scalar(model, video, inputs)
    assert all(a in VEHICLE_COLORS for a in EXACT.predict_batch(video, inputs))


def test_empty_and_crowded_frames_in_one_batch():
    """Padding: a frame with no boxes beside one with several."""
    box = BoundingBox(100.0, 100.0, 200.0, 160.0)
    far = BoundingBox(600.0, 300.0, 700.0, 360.0)
    video = FixedTruthVideo([[], [far, far, box], [box]])
    inputs = [(0, box), (1, box), (2, box), (0, far), (1, far)]
    assert EXACT.predict_batch(video, inputs) == scalar(EXACT, video, inputs)
    assert EXACT.predict_batch(video, inputs)[1:3] == ["colour2", "colour0"]


def test_box_equal_to_a_truth_box_matches_it():
    first = BoundingBox(100.0, 100.0, 200.0, 160.0)
    second = BoundingBox(150.0, 100.0, 250.0, 160.0)
    video = FixedTruthVideo([[first, second]])
    inputs = [(0, second), (0, first)]
    assert EXACT.predict_batch(video, inputs) == ["colour1", "colour0"]
    assert scalar(EXACT, video, inputs) == ["colour1", "colour0"]


def test_identical_truth_boxes_first_wins():
    box = BoundingBox(100.0, 100.0, 200.0, 160.0)
    other = BoundingBox(400.0, 300.0, 500.0, 360.0)
    video = FixedTruthVideo([[other, box, box, box]])
    inputs = [(0, box), (0, BoundingBox(110.0, 100.0, 200.0, 160.0))]
    assert EXACT.predict_batch(video, inputs) == ["colour1", "colour1"]
    assert scalar(EXACT, video, inputs) == ["colour1", "colour1"]


def test_iou_exactly_at_threshold_is_not_a_match():
    truth = BoundingBox(0.0, 0.0, 10.0, 10.0)
    video = FixedTruthVideo([[truth]])
    at = BoundingBox(0.0, 0.0, 10.0, 3.0)
    above = BoundingBox(0.0, 0.0, 10.0, 3.001)
    assert at.iou(truth) == 0.30
    answers = EXACT.predict_batch(video, [(0, at), (0, above)])
    assert answers == scalar(EXACT, video, [(0, at), (0, above)])
    assert answers[0] in VEHICLE_COLORS
    assert answers[1] == "colour0"


def test_out_of_range_frame_raises_from_both():
    box = BoundingBox(1.0, 1.0, 50.0, 50.0)
    for frame_id in (-1, VIDEO.num_frames):
        with pytest.raises(IndexError):
            CAR_TYPE.classify(VIDEO, frame_id, box)
        with pytest.raises(IndexError):
            CAR_TYPE.predict_batch(VIDEO, [(0, box), (frame_id, box)])


# -- batch composition ---------------------------------------------------------

def _detected_inputs():
    frames = range(VIDEO.num_frames)
    detections = FASTERRCNN_RESNET50.predict_batch(VIDEO, frames)
    return [(frame_id, detection.bbox)
            for frame_id, found in zip(frames, detections)
            for detection in found]


def _orders(inputs):
    shuffled = list(range(len(inputs)))
    random.Random(20).shuffle(shuffled)
    # Round-robin over frames: neighbours never share a frame.
    rank_in_frame, seen = [], {}
    for frame_id, _ in inputs:
        rank_in_frame.append(seen.setdefault(frame_id, 0))
        seen[frame_id] += 1
    interleaved = sorted(range(len(inputs)),
                         key=lambda i: (rank_in_frame[i], inputs[i][0]))
    return {"in order": list(range(len(inputs))), "shuffled": shuffled,
            "interleaved": interleaved}


@pytest.mark.parametrize("batch_size", [1, 7, 512])
def test_answers_do_not_depend_on_batch_composition(batch_size):
    inputs = _detected_inputs()
    assert len(inputs) > 512
    for model in CLASSIFIERS:
        expected = model.predict_batch(VIDEO, inputs)
        assert expected == scalar(model, VIDEO, inputs)
        for name, order in _orders(inputs).items():
            answers = [None] * len(inputs)
            for start in range(0, len(order), batch_size):
                chunk = order[start:start + batch_size]
                outputs = model.predict_batch(
                    VIDEO, [inputs[i] for i in chunk])
                for i, output in zip(chunk, outputs):
                    answers[i] = output
            assert answers == expected, (model.name, name)


# -- structure -----------------------------------------------------------------

def test_predict_batch_never_calls_scalar_iou(monkeypatch):
    calls = []
    scalar_iou = BoundingBox.iou

    def counting_iou(self, other):
        calls.append(1)
        return scalar_iou(self, other)

    monkeypatch.setattr(BoundingBox, "iou", counting_iou)
    inputs = _detected_inputs()
    for model in CLASSIFIERS:
        model.predict_batch(VIDEO, inputs)
    assert calls == []
    scalar(CAR_TYPE, VIDEO, inputs[:20])
    assert calls  # the spy does see the scalar path
