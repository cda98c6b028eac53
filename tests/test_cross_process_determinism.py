"""Cross-process determinism: content must not depend on PYTHONHASHSEED.

Python salts string hashing per process; if any seeding path leaked
through ``hash()``, synthetic videos (and with them every materialized
result) would differ between runs, silently breaking persisted reuse
state.  ``repro._rng.stable_seed`` exists precisely to prevent that; this
test verifies the end-to-end guarantee by comparing output across
subprocesses with different hash seeds.

The subprocess environment is deliberately scrubbed (only PATH/HOME plus
an explicit PYTHONPATH pointing at this checkout), so nothing ambient —
including the parent's own PYTHONHASHSEED — can mask a leak.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro._rng import stable_seed

SNIPPET = """
from repro.types import VideoMetadata
from repro.video.synthetic import SyntheticVideo
from repro.models.detectors import FASTERRCNN_RESNET50

video = SyntheticVideo(
    VideoMetadata(name="d", num_frames=60, width=960, height=540,
                  fps=25.0, vehicles_per_frame=6.0), seed=5)
rows = []
for frame_id in (0, 17, 59):
    for det in FASTERRCNN_RESNET50.detect(video, frame_id):
        rows.append((frame_id, det.label, round(det.bbox.x1, 6),
                     round(det.score, 6)))
print(rows)
"""

#: The classifiers' batch path: matching runs in numpy, the seeded draw
#: goes through ``stable_seeder``.
CLASSIFIER_SNIPPET = """
from repro.types import VideoMetadata
from repro.video.synthetic import SyntheticVideo
from repro.models.classifiers import CAR_TYPE, COLOR_DET, LICENSE_READER
from repro.models.detectors import FASTERRCNN_RESNET50

video = SyntheticVideo(
    VideoMetadata(name="d", num_frames=60, width=960, height=540,
                  fps=25.0, vehicles_per_frame=6.0), seed=5)
frames = range(0, 60, 3)
inputs = [(frame_id, det.bbox)
          for frame_id, found in zip(
              frames, FASTERRCNN_RESNET50.predict_batch(video, frames))
          for det in found]
for model in (CAR_TYPE, COLOR_DET, LICENSE_READER):
    print(model.name, model.predict_batch(video, inputs))
"""

#: Wherever the ``repro`` package was imported from (works for both
#: ``pip install -e .`` site-packages and a PYTHONPATH=src checkout) —
#: the scrubbed subprocess env must still be able to import it.
_IMPORT_ROOT = str(Path(repro.__file__).resolve().parents[1])


def _run(hashseed: str, snippet: str = SNIPPET) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin",
             "HOME": os.path.expanduser("~"),
             "PYTHONPATH": _IMPORT_ROOT},
    )
    assert completed.returncode == 0, completed.stderr[-1000:]
    return completed.stdout


def test_detections_identical_across_hash_seeds():
    outputs = {_run(seed) for seed in ("0", "1", "12345")}
    assert len(outputs) == 1
    assert "(" in next(iter(outputs))  # produced actual detections


def test_classifier_batches_identical_across_hash_seeds():
    outputs = {_run(seed, CLASSIFIER_SNIPPET) for seed in ("0", "12345")}
    assert len(outputs) == 1
    output = next(iter(outputs))
    assert "Toyota" in output and "license_reader" in output


def test_stable_seed_is_value_not_identity_based():
    assert stable_seed("tracks", 7, "video") == \
        stable_seed("tracks", 7, "video")
    assert stable_seed("tracks", 7, "a") != stable_seed("tracks", 7, "b")


def test_stable_seed_rejects_address_bearing_reprs():
    """The default object repr embeds a memory address — a per-process
    value that would silently desynchronize content across runs."""

    class Opaque:
        pass

    with pytest.raises(ValueError, match="process-dependent repr"):
        stable_seed("detect", Opaque())
