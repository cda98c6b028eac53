"""The columnar truth table against its definition.

``SyntheticVideo.truth_table`` computes every track's box at every frame
it is visible in with one numpy pass; ``VehicleTrack.bbox_at`` is the
definition, one box at a time.  Every frame must agree bit for bit: the
object count, the track order, the four coordinates (compared as IEEE bit
patterns, so ``-0.0`` differs from ``0.0``) and each object's label,
colour, type and plate as ``ground_truth`` reports them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.types import VideoMetadata
from repro.video.synthetic import SyntheticVideo

#: The end-to-end benchmark's videos (``make_video`` in
#: ``benchmarks/e2e/workloads.py``): UA-DETRAC statistics, content seed
#: 7, each with its 0.4 % shift margin.  ``detrac`` at 500 / 1000 / 4000
#: frames serves refine_long, explore_cold and scan_hot; serve_shared
#: has two 400-frame cameras.
E2E_VIDEOS = [("detrac", 502), ("detrac", 1004), ("detrac", 4016),
              ("cam_x", 402), ("cam_y", 402)]

BUCKET = 256


def _bits(coords) -> list[int]:
    """IEEE bit patterns of float coordinates: equal only when identical."""
    return np.asarray(coords, dtype=np.float64).view(np.int64).tolist()


def _reference(video: SyntheticVideo) -> list[list]:
    """Frame -> ``(track, bbox)`` of every track visible in it, in track
    order, from ``bbox_at`` alone."""
    meta = video.metadata
    frames: list[list] = [[] for _ in range(video.num_frames)]
    for track in video.tracks:
        for frame_id in range(track.start_frame, track.end_frame):
            frames[frame_id].append(
                (track, track.bbox_at(frame_id, meta.width, meta.height)))
    return frames


def assert_table_matches_tracks(video: SyntheticVideo) -> None:
    table = video.truth_table
    assert table.offsets.dtype == np.int64
    assert table.track_index.dtype == np.int64
    assert table.boxes.dtype == np.float64
    assert table.offsets.shape == (video.num_frames + 1,)
    assert table.boxes.shape == (len(table.track_index), 4)
    assert table.offsets[0] == 0
    for frame_id, expected in enumerate(_reference(video)):
        start, stop = table.rows(frame_id)
        assert table.track_index[start:stop].tolist() == \
            [track.track_id for track, _ in expected], frame_id
        assert _bits(table.boxes[start:stop].ravel()) == \
            _bits([c for _, box in expected for c in box.as_tuple()]), \
            frame_id
        assert [(obj.object_id, obj.label, obj.color, obj.vehicle_type,
                 obj.license_plate, _bits(obj.bbox.as_tuple()))
                for obj in video.ground_truth(frame_id).objects] == \
            [(track.track_id, track.label, track.color, track.vehicle_type,
              track.license_plate, _bits(box.as_tuple()))
             for track, box in expected], frame_id
    assert table.offsets[-1] == len(table.track_index)


def _cases(video: SyntheticVideo) -> set[str]:
    """The awkward cases a video contains."""
    cases = set()
    counts = np.diff(video.truth_table.offsets)
    if (counts == 0).any():
        cases.add("empty frame")
    for track in video.tracks:
        if track.end_frame == video.num_frames:
            cases.add("clipped at the last frame")
        if track.start_frame // BUCKET != (track.end_frame - 1) // BUCKET:
            cases.add("crosses a 256-frame bucket")
    return cases


@pytest.mark.parametrize("name,frames", E2E_VIDEOS)
def test_every_frame_of_the_e2e_videos(name, frames):
    video = SyntheticVideo(
        VideoMetadata(name=name, num_frames=frames, width=960, height=540,
                      fps=25.0, vehicles_per_frame=8.3), seed=7)
    assert_table_matches_tracks(video)


#: Sweep examples that contain every awkward case between them.
SWEEP_EXAMPLES = [(600, 12.0, 0, 960, 540), (300, 0.3, 5, 600, 400),
                  (1, 0.0, 0, 960, 540), (2, 12.0, 3, 1, 1)]

metadata_cases = st.tuples(
    st.integers(1, 600), st.floats(0.0, 12.0), st.integers(),
    st.integers(1, 2000), st.integers(1, 2000))


def _video(frames, density, seed, width, height) -> SyntheticVideo:
    return SyntheticVideo(VideoMetadata(
        name="sweep", num_frames=frames, width=width, height=height,
        fps=25.0, vehicles_per_frame=density), seed=seed)


@settings(max_examples=60, deadline=None)
@given(metadata_cases)
@example(SWEEP_EXAMPLES[0])
@example(SWEEP_EXAMPLES[1])
@example(SWEEP_EXAMPLES[2])
@example(SWEEP_EXAMPLES[3])
def test_table_equals_bbox_at_over_generated_videos(case):
    assert_table_matches_tracks(_video(*case))


def test_sweep_examples_cover_the_awkward_cases():
    covered = set().union(*(_cases(_video(*case))
                            for case in SWEEP_EXAMPLES))
    assert covered == {"empty frame", "clipped at the last frame",
                       "crosses a 256-frame bucket"}


def test_out_of_range_frames_raise():
    video = _video(*SWEEP_EXAMPLES[1])
    for frame_id in (-1, video.num_frames):
        with pytest.raises(IndexError):
            video.truth_table.rows(frame_id)
        with pytest.raises(IndexError):
            video.truth_table.spans(np.array([0, frame_id]))
        with pytest.raises(IndexError):
            video.ground_truth(frame_id)
