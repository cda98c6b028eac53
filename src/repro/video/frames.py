"""Frame handles and per-frame ground truth.

A :class:`Frame` is a lightweight *handle* — it identifies a frame of a
registered video without materializing pixels.  Simulated models resolve the
handle against the synthetic video to obtain ground truth.  The handle also
knows its nominal pixel-buffer size, which the FunCache baseline uses to
charge realistic hashing costs.

A video's ground truth is one :class:`TruthTable`: three arrays for every
frame's objects, which the simulated models read directly.
:class:`FrameGroundTruth` is one frame of it as objects, built on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.types import GroundTruthObject


@dataclass(frozen=True)
class Frame:
    """Handle to one frame of a video (no pixel data)."""

    video_name: str
    frame_id: int
    width: int
    height: int

    def nbytes(self) -> int:
        """Size of the RGB pixel buffer this frame would occupy."""
        return self.width * self.height * 3

    def cache_key(self) -> tuple[str, int]:
        """Stable identity used for function-result caching."""
        return (self.video_name, self.frame_id)


@dataclass(frozen=True)
class FrameGroundTruth:
    """The true objects visible in one frame."""

    frame_id: int
    objects: tuple[GroundTruthObject, ...]

    def vehicle_count(self) -> int:
        return len(self.objects)


@dataclass(frozen=True, eq=False)
class TruthTable:
    """Every frame's true objects as columns.

    Frame ``f``'s objects are rows ``offsets[f]:offsets[f + 1]`` of
    ``boxes`` (float64 ``(n, 4)``: ``x1, y1, x2, y2``) and of
    ``track_index`` (int64: the object's vehicle in the video's
    ``tracks``), in ascending track order.  ``offsets`` is int64 with one
    entry per frame plus one.  Arrays are not gc-tracked: the collector
    sees one object, the table, whatever the video's length.
    """

    offsets: np.ndarray
    boxes: np.ndarray
    track_index: np.ndarray

    @property
    def num_frames(self) -> int:
        return len(self.offsets) - 1

    def rows(self, frame_id: int) -> tuple[int, int]:
        """The ``[start, stop)`` rows of frame ``frame_id``'s objects."""
        if not 0 <= frame_id < self.num_frames:
            raise IndexError(
                f"frame {frame_id} out of range [0, {self.num_frames})")
        start, stop = self.offsets[frame_id:frame_id + 2].tolist()
        return start, stop

    def spans(self, frame_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`rows` of many frames at once, as first rows and counts."""
        outside = (frame_ids < 0) | (frame_ids >= self.num_frames)
        if outside.any():
            raise IndexError(f"frame {frame_ids[outside][0]} out of range "
                             f"[0, {self.num_frames})")
        starts = self.offsets[frame_ids]
        return starts, self.offsets[frame_ids + 1] - starts
