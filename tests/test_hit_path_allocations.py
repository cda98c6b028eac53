"""The pipeline's hit path is array-native: a query every UDF result of
which is materialized builds no frame handle, probes the detector's view
with a frame-id array and the patch classifier's with packed patch keys,
rounds no box one at a time, and its allocation peak is pinned.  What a
video keeps once its models have read it is pinned too: its vehicle
tracks and a truth table of arrays, no object per frame."""

from __future__ import annotations

import gc
import tracemalloc
import types

import numpy as np
import pytest

from repro.config import EvaConfig
from repro.models.classifiers import CAR_TYPE
from repro.models.detectors import FASTERRCNN_RESNET50
from repro.models.zoo import default_zoo
from repro.session import EvaSession
from repro.storage.view_store import MaterializedView
from repro.types import BoundingBox, VideoMetadata
from repro.video.synthetic import SyntheticVideo

DETECTOR = ("SELECT id, label FROM long CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE label = 'car';")
WITH_CLASSIFIER = ("SELECT id, bbox FROM long CROSS APPLY "
                   "FastRCNNObjectDetector(frame) WHERE label = 'car' "
                   "AND CarType(frame, bbox) = 'Nissan';")

#: ``tracemalloc`` peaks of one rerun below, in bytes, measured on
#: CPython 3.11 (x86-64).  Before frame ids replaced frame handles on this
#: path the detector rerun peaked at 495 500 bytes, and before typed view
#: columns at 389 000; before packed patch keys the classifier rerun
#: peaked at 357 000.
DETECTOR_RERUN_PEAK = 330_000
WITH_CLASSIFIER_RERUN_PEAK = 305_000


@pytest.fixture(scope="module")
def filled():
    """A session whose views hold every result both queries need, with
    plan and kernel caches warm."""
    session = EvaSession(config=EvaConfig(), zoo=default_zoo().clone())
    # Five scan batches at the default batch size.
    session.register_video(SyntheticVideo(
        VideoMetadata(name="long", num_frames=2500, width=960, height=540,
                      fps=25.0, vehicles_per_frame=2.0), seed=7))
    expected = {sql: session.execute(sql).rows
                for sql in (DETECTOR, WITH_CLASSIFIER)}
    for sql in (DETECTOR, WITH_CLASSIFIER):
        assert session.execute(sql).rows == expected[sql]
    return session, expected


def test_reruns_build_no_frame_and_probe_the_detector_by_ids(
        filled, monkeypatch):
    session, expected = filled
    frames_built: list[int] = []
    probes: list[tuple[str, type]] = []
    frame = SyntheticVideo.frame
    get_many = MaterializedView.get_many

    def spy_frame(video, frame_id):
        frames_built.append(frame_id)
        return frame(video, frame_id)

    def spy_get_many(view, keys):
        probes.append((view.name, type(keys)))
        return get_many(view, keys)

    monkeypatch.setattr(SyntheticVideo, "frame", spy_frame)
    monkeypatch.setattr(MaterializedView, "get_many", spy_get_many)
    for sql in (DETECTOR, WITH_CLASSIFIER):
        assert session.execute(sql).rows == expected[sql]
    assert frames_built == []
    assert {kind for name, kind in probes
            if name == "mv::fasterrcnn_resnet50@long"} == {np.ndarray}
    assert any(name.startswith("mv::car_type@long") for name, _ in probes)


def test_classifier_rerun_rounds_no_box_and_probes_packed_keys(
        filled, monkeypatch):
    session, expected = filled
    boxes_rounded: list[BoundingBox] = []
    probes: list[tuple[str, object]] = []
    rounded = BoundingBox.rounded
    get_many = MaterializedView.get_many

    def spy_rounded(box):
        boxes_rounded.append(box)
        return rounded(box)

    def spy_get_many(view, keys):
        probes.append((view.name, keys))
        return get_many(view, keys)

    monkeypatch.setattr(BoundingBox, "rounded", spy_rounded)
    monkeypatch.setattr(MaterializedView, "get_many", spy_get_many)
    assert session.execute(WITH_CLASSIFIER).rows == \
        expected[WITH_CLASSIFIER]
    assert boxes_rounded == []
    patch_probes = [keys for name, keys in probes
                    if name.startswith("mv::car_type@long")]
    assert patch_probes and all(
        isinstance(keys, np.ndarray) and keys.dtype == np.int64
        for keys in patch_probes)


def _rerun_peak(session, sql, expected) -> int:
    tracemalloc.start()
    try:
        rows = session.execute(sql).rows
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == expected[sql]
    return peak


def test_detector_rerun_allocation_peak_is_pinned(filled):
    peak = _rerun_peak(filled[0], DETECTOR, filled[1])
    assert peak <= 1.25 * DETECTOR_RERUN_PEAK, peak


def test_classifier_rerun_allocation_peak_is_pinned(filled):
    peak = _rerun_peak(filled[0], WITH_CLASSIFIER, filled[1])
    assert peak <= 1.25 * WITH_CLASSIFIER_RERUN_PEAK, peak


def _tracked_objects_held_by(root) -> int:
    """The gc-tracked objects reachable from ``root`` (itself included),
    not through a type or a module."""
    seen = {id(root)}
    pending = [root]
    count = 0
    while pending:
        obj = pending.pop()
        count += gc.is_tracked(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(
                    ref, (type, types.ModuleType)):
                seen.add(id(ref))
                pending.append(ref)
    return count


def test_a_read_video_holds_no_object_per_frame():
    """After every frame's truth is read and a detector and a classifier
    ran over the whole video, the collector sees its tracks and a few
    dozen objects besides — not one per frame or per true box."""
    video = SyntheticVideo(
        VideoMetadata(name="held", num_frames=1000, width=960, height=540,
                      fps=25.0, vehicles_per_frame=8.3), seed=7)
    for frame_id in range(video.num_frames):
        video.ground_truth(frame_id)
    detections = FASTERRCNN_RESNET50.predict_batch(
        video, range(video.num_frames))
    CAR_TYPE.predict_batch(
        video, [(frame_id, detection.bbox)
                for frame_id, found in enumerate(detections)
                for detection in found])
    assert _tracked_objects_held_by(video) <= len(video.tracks) + 64
