"""Tests for the synthetic video substrate."""

import gc
import weakref

import numpy as np
import pytest

from repro._rng import stable_rng, stable_seed, stable_seeder
from repro.models.classifiers import CAR_TYPE
from repro.models.detectors import YOLO_TINY
from repro.types import VideoMetadata
from repro.video.datasets import jackson, ua_detrac
from repro.video.synthetic import SyntheticVideo


class TestStableRng:
    def test_same_parts_same_seed(self):
        assert stable_seed("a", 1) == stable_seed("a", 1)

    def test_different_parts_different_seed(self):
        assert stable_seed("a", 1) != stable_seed("a", 2)

    def test_rng_reproducible(self):
        assert stable_rng("x").random() == stable_rng("x").random()

    def test_seeder_equals_seed_at_every_split(self):
        parts = ("classify", 7, -3, (10, 20, 30, 40), "v\x1fideo", 2.5,
                 ("nested", (1, "two")), "")
        for split in range(len(parts) + 1):
            seeder = stable_seeder(*parts[:split])
            assert seeder(*parts[split:]) == stable_seed(*parts)
            # The hashed prefix is not consumed by a call.
            assert seeder(*parts[split:]) == stable_seed(*parts)

    @pytest.mark.parametrize("bad", [object(), ("nested", object())])
    def test_address_reprs_rejected_in_prefix_and_rest(self, bad):
        with pytest.raises(ValueError, match="process-dependent repr"):
            stable_seed("a", bad, 1)
        with pytest.raises(ValueError, match="process-dependent repr"):
            stable_seeder("a", bad)
        seeder = stable_seeder("a")
        with pytest.raises(ValueError, match="process-dependent repr"):
            seeder(1, bad)
        assert seeder(1) == stable_seed("a", 1)  # still usable


class TestSyntheticVideo:
    def test_deterministic_ground_truth(self, tiny_video):
        metadata = tiny_video.metadata
        other = SyntheticVideo(metadata, seed=tiny_video.seed)
        for frame_id in (0, 57, 399):
            assert (tiny_video.ground_truth(frame_id)
                    == other.ground_truth(frame_id))

    def test_different_seeds_differ(self, tiny_video):
        other = SyntheticVideo(tiny_video.metadata, seed=99)
        same = sum(
            tiny_video.ground_truth(f) == other.ground_truth(f)
            for f in range(0, 400, 40))
        assert same < 10

    def test_vehicle_density_close_to_target(self, tiny_video):
        density = tiny_video.mean_vehicles_per_frame(sample_every=10)
        assert 5.0 < density < 12.0

    def test_sparse_video_is_sparse(self, sparse_video):
        density = sparse_video.mean_vehicles_per_frame(sample_every=5)
        assert density < 1.5

    def test_frame_handle(self, tiny_video):
        frame = tiny_video.frame(10)
        assert frame.frame_id == 10
        assert frame.video_name == "tiny"
        assert frame.nbytes() == 960 * 540 * 3
        assert frame.cache_key() == ("tiny", 10)

    def test_frame_out_of_range(self, tiny_video):
        with pytest.raises(IndexError):
            tiny_video.frame(400)
        with pytest.raises(IndexError):
            tiny_video.ground_truth(-1)

    def test_dropped_video_is_collectable(self):
        """The truth table is kept on the video, not beside it: nothing
        else keeps a video that its owner let go of."""
        video = SyntheticVideo(
            VideoMetadata("dropped", 40, 960, 540, 25.0, 6.0), seed=2)
        detections = YOLO_TINY.predict_batch(video, range(40))
        CAR_TYPE.predict_batch(
            video, [(frame_id, detection.bbox)
                    for frame_id, found in enumerate(detections)
                    for detection in found])
        assert video.truth_table is video.truth_table
        ref = weakref.ref(video)
        del video
        gc.collect()
        assert ref() is None

    def test_equal_videos_neither_share_nor_evict(self):
        metadata = VideoMetadata("twin", 60, 960, 540, 25.0, 6.0)
        a = SyntheticVideo(metadata, seed=1)
        b = SyntheticVideo(metadata, seed=1)
        table = a.truth_table
        for frame_id in range(60):
            assert b.ground_truth(frame_id) == a.ground_truth(frame_id)
        assert b.truth_table is not table
        assert a.truth_table is table
        for column in ("offsets", "boxes", "track_index"):
            assert np.array_equal(getattr(b.truth_table, column),
                                  getattr(table, column))

    def test_bboxes_within_frame(self, tiny_video):
        for frame_id in range(0, 400, 25):
            for obj in tiny_video.ground_truth(frame_id).objects:
                bbox = obj.bbox
                assert 0 <= bbox.x1 <= bbox.x2 <= 960
                assert 0 <= bbox.y1 <= bbox.y2 <= 540

    def test_tracks_have_valid_spans(self, tiny_video):
        for track in tiny_video.tracks:
            assert 0 <= track.start_frame < track.end_frame <= 400

    def test_index_matches_bruteforce(self, tiny_video):
        """The truth table holds exactly the visible tracks."""
        for frame_id in (0, 123, 399):
            via_index = {o.object_id
                         for o in tiny_video.ground_truth(frame_id).objects}
            brute = {t.track_id for t in tiny_video.tracks
                     if t.visible_at(frame_id)}
            assert via_index == brute

    def test_attributes_consistent_across_frames(self, tiny_video):
        """A track keeps its attributes for its whole lifetime."""
        track = max(tiny_video.tracks,
                    key=lambda t: t.end_frame - t.start_frame)
        seen = set()
        for frame_id in range(track.start_frame, track.end_frame, 7):
            for obj in tiny_video.ground_truth(frame_id).objects:
                if obj.object_id == track.track_id:
                    seen.add((obj.label, obj.color, obj.vehicle_type,
                              obj.license_plate))
        assert len(seen) == 1

    def test_rejects_empty_video(self):
        with pytest.raises(ValueError):
            SyntheticVideo(VideoMetadata("bad", 0, 100, 100))

    def test_frames_iterator(self, sparse_video):
        frames = list(sparse_video.frames())
        assert len(frames) == 300
        assert frames[5].frame_id == 5


class TestDatasetFactories:
    def test_ua_detrac_sizes(self):
        short = ua_detrac("short")
        assert short.num_frames == 7_500
        assert short.metadata.width == 960

    def test_ua_detrac_rejects_unknown_size(self):
        with pytest.raises(ValueError):
            ua_detrac("huge")

    def test_jackson_properties(self):
        video = jackson()
        assert video.num_frames == 14_000
        assert video.metadata.vehicles_per_frame == pytest.approx(0.1)

    def test_factories_are_deterministic(self):
        a = ua_detrac("short")
        b = ua_detrac("short")
        assert a.ground_truth(100) == b.ground_truth(100)
