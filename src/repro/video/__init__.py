"""Synthetic video substrate.

The paper evaluates on UA-DETRAC and JACKSON video files; neither is
available offline, so this package generates deterministic synthetic videos
whose *statistics* (resolution, frame counts, vehicles per frame) match the
paper's section 5.1 description.  Simulated vision models read the
video's ground truth: one columnar :class:`TruthTable` per video.
"""

from repro.video.frames import Frame, FrameGroundTruth, TruthTable
from repro.video.synthetic import SyntheticVideo, VehicleTrack
from repro.video.datasets import (
    jackson,
    ua_detrac,
    UA_DETRAC_VEHICLES_PER_FRAME,
    JACKSON_VEHICLES_PER_FRAME,
)

__all__ = [
    "Frame",
    "FrameGroundTruth",
    "SyntheticVideo",
    "TruthTable",
    "VehicleTrack",
    "jackson",
    "ua_detrac",
    "UA_DETRAC_VEHICLES_PER_FRAME",
    "JACKSON_VEHICLES_PER_FRAME",
]
