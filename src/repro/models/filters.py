"""Specialized frame filters (section 5.6).

The paper uses "a lightweight DNN model with two convolutional layers" that
decides whether a frame needs to be processed by the expensive detector.
This module implements that filter for real: each frame is rasterized into a
32x32 grayscale image (vehicle boxes drawn bright over sensor noise, derived
deterministically from ground truth), then passed through a genuine
two-convolutional-layer numpy network with fixed hand-set weights.  The
network responds to bright blobs, so it is accurate but imperfect — small or
dim vehicles slip past it, giving the filter a realistic error profile.
"""

from __future__ import annotations

import numpy as np

from repro._rng import stable_seed
from repro.models.base import VisionModel
from repro.types import BoundingBox
from repro.video.synthetic import SyntheticVideo

_RASTER = 32


class SpecializedFilter(VisionModel):
    """Two-conv-layer binary filter: does this frame contain a vehicle?"""

    def __init__(self, name: str = "vehicle_filter",
                 per_tuple_cost: float = 0.001, threshold: float = 0.15):
        super().__init__(name, per_tuple_cost, device="GPU")
        self.threshold = threshold
        # Layer 1: a 3x3 blob detector (centre-surround); layer 2: a 3x3
        # averaging kernel that pools local evidence.
        self._kernel1 = np.array(
            [[-1.0, -1.0, -1.0],
             [-1.0, 8.0, -1.0],
             [-1.0, -1.0, -1.0]]) / 8.0
        self._kernel2 = np.full((3, 3), 1.0 / 9.0)

    def predict(self, video: SyntheticVideo, frame_id: int) -> bool:
        """True when the filter believes a vehicle is present."""
        image = self._rasterize(video, frame_id)
        hidden = _relu(_conv2d(image, self._kernel1))
        pooled = _relu(_conv2d(hidden, self._kernel2))
        return float(pooled.max(initial=0.0)) > self.threshold

    def predict_batch(self, video: SyntheticVideo,
                      inputs) -> list[bool]:
        """Batched :meth:`predict` over many frame ids at once.

        Rasterizes every frame into one ``(B, 32, 32)`` stack and runs
        both convolution layers as a single batched einsum — the real
        "one NN invocation per miss sub-batch" the vectorized executor
        exploits.  Per-element reductions are performed in the same order
        as the single-image path, so results match :meth:`predict`
        exactly.
        """
        frame_ids = list(inputs)
        if not frame_ids:
            return []
        images = np.stack([self._rasterize(video, frame_id)
                           for frame_id in frame_ids])
        hidden = _relu(_conv2d_batch(images, self._kernel1))
        pooled = _relu(_conv2d_batch(hidden, self._kernel2))
        maxima = pooled.max(axis=(1, 2), initial=0.0)
        return [bool(m > self.threshold) for m in maxima.tolist()]

    def _rasterize(self, video: SyntheticVideo, frame_id: int) -> np.ndarray:
        """A 32x32 'photo' of the frame: noise + bright vehicle boxes."""
        noise_rng = np.random.default_rng(
            stable_seed("raster", video.name, frame_id))
        image = noise_rng.uniform(0.0, 0.05, size=(_RASTER, _RASTER))
        width = video.metadata.width
        height = video.metadata.height
        table = video.truth_table
        start, stop = table.rows(frame_id)
        for bx1, by1, bx2, by2 in table.boxes[start:stop].tolist():
            x1 = int(bx1 / width * _RASTER)
            x2 = max(x1 + 1, int(np.ceil(bx2 / width * _RASTER)))
            y1 = int(by1 / height * _RASTER)
            y2 = max(y1 + 1, int(np.ceil(by2 / height * _RASTER)))
            # Brightness scales with apparent size, so distant vehicles are
            # dim and may be missed -- the filter's false negatives.
            brightness = min(1.0, 0.15 + 4.0 * BoundingBox(
                bx1, by1, bx2, by2).relative_area(width, height))
            image[y1:y2, x1:x2] = np.maximum(image[y1:y2, x1:x2], brightness)
        return image


def _conv2d(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid-mode 2D convolution via stride tricks (no scipy dependency)."""
    kh, kw = kernel.shape
    windows = np.lib.stride_tricks.sliding_window_view(image, (kh, kw))
    return np.einsum("ijkl,kl->ij", windows, kernel)


def _conv2d_batch(images: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid-mode 2D convolution over a ``(B, H, W)`` image stack.

    The batch axis rides along in the sliding-window view; the per-output
    reduction over ``(kh, kw)`` is element-ordered exactly like
    :func:`_conv2d`, keeping the batched path bit-identical.
    """
    kh, kw = kernel.shape
    windows = np.lib.stride_tricks.sliding_window_view(
        images, (kh, kw), axis=(1, 2))
    return np.einsum("bijkl,kl->bij", windows, kernel)


def _relu(values: np.ndarray) -> np.ndarray:
    return np.maximum(values, 0.0)


VEHICLE_FILTER = SpecializedFilter()
