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

import numpy as np

from repro._rng import stable_rng
from repro.types import BoundingBox, GroundTruthObject, VideoMetadata
from repro.video.frames import Frame, FrameGroundTruth, TruthTable

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
        # Built on first use and owned by this video: it goes when the
        # video goes.  Two threads may both build it; the tables are equal.
        self._truth_table: TruthTable | None = None

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

    @property
    def truth_table(self) -> TruthTable:
        """Every frame's true objects as columns (:class:`TruthTable`)."""
        table = self._truth_table
        if table is None:
            table = self._truth_table = self._build_truth_table()
        return table

    def ground_truth(self, frame_id: int) -> FrameGroundTruth:
        """The true objects visible in frame ``frame_id``, built from
        :attr:`truth_table` on every call: nothing keeps them."""
        table = self.truth_table
        start, stop = table.rows(frame_id)
        tracks = self._tracks
        return FrameGroundTruth(frame_id, tuple(
            GroundTruthObject(
                object_id=track.track_id,
                label=track.label,
                bbox=BoundingBox(*coords),
                color=track.color,
                vehicle_type=track.vehicle_type,
                license_plate=track.license_plate,
            )
            for track, coords in zip(
                [tracks[i] for i in table.track_index[start:stop].tolist()],
                table.boxes[start:stop].tolist())))

    def mean_vehicles_per_frame(self, sample_every: int = 50) -> float:
        """Empirical vehicles/frame over every ``sample_every``-th frame."""
        counts = np.diff(self.truth_table.offsets)[::max(1, sample_every)]
        return int(counts.sum()) / len(counts)

    # -- generation ----------------------------------------------------------

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

    def _build_truth_table(self) -> TruthTable:
        """Every track's box at every frame it is visible in, in one numpy
        pass over all appearances.

        The arithmetic is :meth:`VehicleTrack.bbox_at`'s, operation for
        operation, on float64, so each box is bit-identical to it;
        ``max(0.0, v)`` and ``min(w, v)`` keep their first argument on a
        tie.  A stable sort by frame keeps each frame's objects in
        ascending track order.
        """
        meta = self.metadata
        width, height = meta.width, meta.height
        tracks = self._tracks

        def column(attribute, dtype=np.float64):
            return np.fromiter((getattr(track, attribute)
                                for track in tracks),
                               dtype=dtype, count=len(tracks))

        start = column("start_frame", np.int64)
        lengths = column("end_frame", np.int64) - start
        span = np.maximum(1, lengths - 1)
        track_index = np.repeat(np.arange(len(tracks)), lengths)
        # Each appearance's frame, less its track's start frame.
        steps = np.arange(len(track_index)) - np.repeat(
            np.cumsum(lengths) - lengths, lengths)
        frame = steps + start[track_index]
        t = steps / span[track_index]

        def lerp(first, last):
            first, last = column(first), column(last)
            return first[track_index] + t * (last - first)[track_index]

        cx = lerp("cx0", "cx1") * width
        cy = lerp("cy0", "cy1") * height
        size = lerp("size0", "size1")
        box_w = np.sqrt(size * width * height * 1.6)
        box_h = box_w / 1.6
        x1 = cx - box_w / 2
        y1 = cy - box_h / 2
        x2 = cx + box_w / 2
        y2 = cy + box_h / 2
        boxes = np.stack([np.where(x1 > 0.0, x1, 0.0),
                          np.where(y1 > 0.0, y1, 0.0),
                          np.where(x2 < width, x2, float(width)),
                          np.where(y2 < height, y2, float(height))], axis=1)
        order = np.argsort(frame, kind="stable")
        offsets = np.zeros(meta.num_frames + 1, dtype=np.int64)
        np.cumsum(np.bincount(frame, minlength=meta.num_frames),
                  out=offsets[1:])
        return TruthTable(offsets, boxes[order], track_index[order])

    @staticmethod
    def _random_plate(rng: random.Random) -> str:
        letters = "".join(rng.choices(_LICENSE_LETTERS, k=3))
        digits = "".join(rng.choices("0123456789", k=4))
        return f"{letters}{digits}"
