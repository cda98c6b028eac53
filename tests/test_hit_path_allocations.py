"""The pipeline's hit path is array-native: a query every UDF result of
which is materialized builds no frame handle and probes the detector's
view with a frame-id array, and its allocation peak is pinned."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.config import EvaConfig
from repro.models.zoo import default_zoo
from repro.session import EvaSession
from repro.storage.view_store import MaterializedView
from repro.types import VideoMetadata
from repro.video.synthetic import SyntheticVideo

DETECTOR = ("SELECT id, label FROM long CROSS APPLY "
            "FastRCNNObjectDetector(frame) WHERE label = 'car';")
WITH_CLASSIFIER = ("SELECT id, bbox FROM long CROSS APPLY "
                   "FastRCNNObjectDetector(frame) WHERE label = 'car' "
                   "AND CarType(frame, bbox) = 'Nissan';")

#: ``tracemalloc`` peak of one detector rerun below, in bytes, measured
#: on CPython 3.11 (x86-64).  Before frame ids replaced frame handles on
#: this path the same rerun peaked at 495 500 bytes.
DETECTOR_RERUN_PEAK = 389_000


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


def test_detector_rerun_allocation_peak_is_pinned(filled):
    session, expected = filled
    tracemalloc.start()
    try:
        rows = session.execute(DETECTOR).rows
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == expected[DETECTOR]
    assert peak <= 1.25 * DETECTOR_RERUN_PEAK, peak
