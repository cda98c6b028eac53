"""The miss path writes views without JSON or key tuples: a cold detector
+ patch classifier run hands ``put_many`` the frame-id and packed-key
arrays it probed with, the view indexes them as they are (it unpacks
none), and the byte count is read from the key arrays and the typed
columns — the JSON fallback of the count (``json_chars``) never runs."""

from __future__ import annotations

import numpy as np

import repro.executor.operators.classifier as classifier_module
import repro.storage.view_store as view_store_module
from repro.config import EvaConfig
from repro.models.zoo import default_zoo
from repro.session import EvaSession
from repro.storage.view_store import MaterializedView
from repro.types import VideoMetadata
from repro.video.synthetic import SyntheticVideo

WITH_CLASSIFIER = ("SELECT id, bbox FROM long CROSS APPLY "
                   "FastRCNNObjectDetector(frame) WHERE label = 'car' "
                   "AND CarType(frame, bbox) = 'Nissan';")
DETECTOR_VIEW = "mv::fasterrcnn_resnet50@long"


def test_cold_run_writes_arrays_and_dumps_nothing(monkeypatch):
    session = EvaSession(config=EvaConfig(), zoo=default_zoo().clone())
    # Five scan batches at the default batch size.
    session.register_video(SyntheticVideo(
        VideoMetadata(name="long", num_frames=2500, width=960, height=540,
                      fps=25.0, vehicles_per_frame=2.0), seed=7))
    dumped: list = []
    packed: list[int] = []
    unpacked: list[int] = []
    puts: list[tuple[str, type, int]] = []
    json_chars = view_store_module.json_chars
    pack_key_tuples = view_store_module.pack_key_tuples
    unpack_patch_keys = view_store_module.unpack_patch_keys
    put_many = MaterializedView.put_many

    def spy_json_chars(items):
        dumped.append(items)
        return json_chars(items)

    def spy_pack(keys):
        packed.append(len(keys))
        return pack_key_tuples(keys)

    def spy_unpack(array):
        unpacked.append(len(array))
        return unpack_patch_keys(array)

    def spy_put_many(view, keys, *args, **kwargs):
        puts.append((view.name, type(keys), len(keys)))
        return put_many(view, keys, *args, **kwargs)

    monkeypatch.setattr(view_store_module, "json_chars", spy_json_chars)
    monkeypatch.setattr(view_store_module, "pack_key_tuples", spy_pack)
    monkeypatch.setattr(classifier_module, "pack_key_tuples", spy_pack)
    monkeypatch.setattr(view_store_module, "unpack_patch_keys", spy_unpack)
    monkeypatch.setattr(MaterializedView, "put_many", spy_put_many)
    assert session.execute(WITH_CLASSIFIER).rows
    assert dumped == []
    # Every write is an int array, the one that creates a view (a
    # one-row segment) included.
    assert {kind for _, kind, _ in puts} == {np.ndarray}
    assert any(name == DETECTOR_VIEW for name, _, _ in puts)
    assert any(n == 1 and name.startswith("mv::car_type@long")
               for name, _, n in puts)
    # No key is packed from a tuple.
    assert packed == []
    patch_array_puts = [n for name, kind, n in puts
                        if name.startswith("mv::car_type@long")
                        and kind is np.ndarray]
    assert patch_array_puts and unpacked == []
