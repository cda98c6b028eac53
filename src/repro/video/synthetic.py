"""Deterministic synthetic video generation.

A :class:`SyntheticVideo` is defined by a seed and target statistics (frame
count, resolution, mean vehicles per frame).  Content is generated as a set
of *vehicle tracks*: each track is one vehicle with fixed attributes (label,
color, type, license plate) that enters the scene at some frame, moves along
a linear path, and leaves.  Tracks give the video temporal coherence, which
matters for the specialized-filter experiment (section 5.6): consecutive
frames tend to agree on whether any vehicle is visible.

Generation is fully deterministic: the same (seed, parameters) always yields
the same ground truth, so simulated models produce identical outputs across
queries — a prerequisite for result reuse to be semantically sound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro._rng import stable_rng
from repro.types import BoundingBox, GroundTruthObject, VideoMetadata
from repro.video.frames import Frame, FrameGroundTruth

#: Attribute vocabularies for generated vehicles.  The distributions are
#: deliberately skewed so that predicates like ``CarType = 'Nissan'`` have
#: realistic (non-uniform) selectivities.
VEHICLE_LABELS = ("car", "bus", "truck", "van")
VEHICLE_LABEL_WEIGHTS = (0.90, 0.03, 0.04, 0.03)
VEHICLE_TYPES = ("Nissan", "Toyota", "Ford", "BMW", "Honda", "Chevrolet")
VEHICLE_TYPE_WEIGHTS = (0.22, 0.24, 0.18, 0.10, 0.16, 0.10)
VEHICLE_COLORS = ("Gray", "White", "Black", "Red", "Blue", "Silver")
VEHICLE_COLOR_WEIGHTS = (0.24, 0.24, 0.18, 0.12, 0.10, 0.12)

_LICENSE_LETTERS = "ABCDEFGHJKLMNPRSTUVWXYZ"


@dataclass(frozen=True)
class VehicleTrack:
    """One vehicle's trajectory through the video."""

    track_id: int
    label: str
    color: str
    vehicle_type: str
    license_plate: str
    start_frame: int
    end_frame: int  # exclusive
    # Linear motion: box center moves from (cx0, cy0) to (cx1, cy1).
    cx0: float
    cy0: float
    cx1: float
    cy1: float
    # Box size as a fraction of frame dimensions; grows linearly from
    # size0 to size1 (vehicles approaching the camera appear larger).
    size0: float
    size1: float

    def visible_at(self, frame_id: int) -> bool:
        return self.start_frame <= frame_id < self.end_frame

    def bbox_at(self, frame_id: int, width: int, height: int) -> BoundingBox:
        """Interpolated bounding box at ``frame_id`` (must be visible)."""
        span = max(1, self.end_frame - 1 - self.start_frame)
        t = (frame_id - self.start_frame) / span
        cx = (self.cx0 + t * (self.cx1 - self.cx0)) * width
        cy = (self.cy0 + t * (self.cy1 - self.cy0)) * height
        size = self.size0 + t * (self.size1 - self.size0)
        # Vehicles are wider than tall; aspect ratio ~1.6.
        box_w = math.sqrt(size * width * height * 1.6)
        box_h = box_w / 1.6
        x1 = max(0.0, cx - box_w / 2)
        y1 = max(0.0, cy - box_h / 2)
        x2 = min(float(width), cx + box_w / 2)
        y2 = min(float(height), cy + box_h / 2)
        return BoundingBox(x1, y1, x2, y2)


class SyntheticVideo:
    """A deterministic synthetic video with per-frame ground truth."""

    #: Mean track length in frames.  At 30 fps this is ~4 seconds of
    #: visibility, in line with traffic-camera footage.
    MEAN_TRACK_LENGTH = 120

    def __init__(self, metadata: VideoMetadata, seed: int = 0):
        if metadata.num_frames <= 0:
            raise ValueError("video must have at least one frame")
        self.metadata = metadata
        self.seed = seed
        self._tracks = self._generate_tracks()
        self._index = self._build_frame_index()
        # Per-frame ground truth, filled on first use and owned by this
        # video: it holds at most ``num_frames`` entries and goes when the
        # video goes.
        self._truth: dict[int, FrameGroundTruth] = {}

    @property
    def name(self) -> str:
        return self.metadata.name

    @property
    def num_frames(self) -> int:
        return self.metadata.num_frames

    @property
    def tracks(self) -> tuple[VehicleTrack, ...]:
        return self._tracks

    def frame(self, frame_id: int) -> Frame:
        """Handle to frame ``frame_id`` (no pixels materialized)."""
        if not 0 <= frame_id < self.num_frames:
            raise IndexError(
                f"frame {frame_id} out of range [0, {self.num_frames})")
        return Frame(self.metadata.name, frame_id,
                     self.metadata.width, self.metadata.height)

    def frames(self):
        """Iterate over all frame handles in order."""
        for frame_id in range(self.num_frames):
            yield self.frame(frame_id)

    def ground_truth(self, frame_id: int) -> FrameGroundTruth:
        """The true objects visible in frame ``frame_id``."""
        truth = self._truth.get(frame_id)
        if truth is None:
            truth = self._truth[frame_id] = self._truth_of(frame_id)
        return truth

    def _truth_of(self, frame_id: int) -> FrameGroundTruth:
        if not 0 <= frame_id < self.num_frames:
            raise IndexError(
                f"frame {frame_id} out of range [0, {self.num_frames})")
        objects = []
        for track in self._index.get(frame_id // self._BUCKET, ()):
            if track.visible_at(frame_id):
                bbox = track.bbox_at(
                    frame_id, self.metadata.width, self.metadata.height)
                objects.append(GroundTruthObject(
                    object_id=track.track_id,
                    label=track.label,
                    bbox=bbox,
                    color=track.color,
                    vehicle_type=track.vehicle_type,
                    license_plate=track.license_plate,
                ))
        return FrameGroundTruth(frame_id, tuple(objects))

    def mean_vehicles_per_frame(self, sample_every: int = 50) -> float:
        """Empirical vehicles/frame, sampled for speed."""
        frame_ids = range(0, self.num_frames, max(1, sample_every))
        counts = [self.ground_truth(f).vehicle_count() for f in frame_ids]
        if not counts:
            return 0.0
        return sum(counts) / len(counts)

    # -- generation ----------------------------------------------------------

    _BUCKET = 256  # frames per index bucket

    def _generate_tracks(self) -> tuple[VehicleTrack, ...]:
        rng = stable_rng("tracks", self.seed, self.metadata.name)
        meta = self.metadata
        # Expected object-appearances = frames * vehicles/frame; each track
        # contributes ~MEAN_TRACK_LENGTH appearances.
        expected_appearances = meta.num_frames * meta.vehicles_per_frame
        n_tracks = max(0, round(expected_appearances / self.MEAN_TRACK_LENGTH))
        tracks = []
        for track_id in range(n_tracks):
            length = max(8, round(rng.expovariate(
                1.0 / self.MEAN_TRACK_LENGTH)))
            start = rng.randrange(max(1, meta.num_frames - length // 2))
            label = rng.choices(VEHICLE_LABELS, VEHICLE_LABEL_WEIGHTS)[0]
            tracks.append(VehicleTrack(
                track_id=track_id,
                label=label,
                color=rng.choices(VEHICLE_COLORS, VEHICLE_COLOR_WEIGHTS)[0],
                vehicle_type=rng.choices(
                    VEHICLE_TYPES, VEHICLE_TYPE_WEIGHTS)[0],
                license_plate=self._random_plate(rng),
                start_frame=start,
                end_frame=min(meta.num_frames, start + length),
                cx0=rng.uniform(0.05, 0.95),
                cy0=rng.uniform(0.2, 0.9),
                cx1=rng.uniform(0.05, 0.95),
                cy1=rng.uniform(0.2, 0.9),
                size0=rng.uniform(0.06, 0.38),
                size1=rng.uniform(0.10, 0.60),
            ))
        return tuple(tracks)

    def _build_frame_index(self) -> dict[int, tuple[VehicleTrack, ...]]:
        """Bucketed frame -> tracks index for O(1) ground-truth lookups."""
        index: dict[int, list[VehicleTrack]] = {}
        for track in self._tracks:
            first = track.start_frame // self._BUCKET
            last = (track.end_frame - 1) // self._BUCKET
            for bucket in range(first, last + 1):
                index.setdefault(bucket, []).append(track)
        return {bucket: tuple(ts) for bucket, ts in index.items()}

    @staticmethod
    def _random_plate(rng: random.Random) -> str:
        letters = "".join(rng.choices(_LICENSE_LETTERS, k=3))
        digits = "".join(rng.choices("0123456789", k=4))
        return f"{letters}{digits}"
