"""The ``eva-store-v3`` column-batch codec: one flat layout for a WAL
``puts`` record, a snapshot and a serialized view.

``decode(encode(batch))`` must give back exactly the Python values that
went in — for every key kind (frame ids, packed patch keys, tuples that
do not pack), keys with zero rows, and every column form (dictionary
codes, float64, float boxes, JSON), ``inf``, ``nan``, ``-0.0`` and None
included.  "Exactly" is checked by ``repr``, which tells ``1`` from
``1.0`` from ``True``, ``0.0`` from ``-0.0``, and prints ``nan``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.batch import materialize_column
from repro.storage.columnar import ColumnBatch
from repro.storage.view_store import (MaterializedView, array_key_tuples,
                                      pack_key_tuples)
from repro.store.layout import buckets_of
from repro.types import BoundingBox

_COLUMNS = ("label", "score", "bbox", "mixed")

_any_float = st.floats(width=64)  # inf, nan and -0.0 included
_frame_ids = st.integers(-2**40, 2**40)
_packable = st.tuples(st.integers(0, 2**19 - 1),
                      st.tuples(*[st.integers(0, 2**11 - 1)] * 4))
_unpackable = st.one_of(
    st.tuples(st.integers(2**19, 2**30),
              st.tuples(*[st.integers(0, 2**11 - 1)] * 4)),
    st.tuples(st.integers(0, 99), st.tuples(*[st.integers(2**11, 2**12)] * 4)),
    st.tuples(st.text(max_size=3)),
    st.tuples(_any_float),
    st.tuples(st.booleans()),
    st.tuples(st.integers(2**63, 2**70)),
    st.tuples(st.integers(0, 99), st.text(max_size=2)))
_boxes = st.builds(BoundingBox, _any_float, _any_float, _any_float,
                   _any_float)
_mixed = st.one_of(st.none(), st.text(max_size=4), _any_float,
                   st.integers(-2**62, 2**62), st.booleans(),
                   st.builds(BoundingBox, *[st.integers(0, 9)] * 4),
                   st.tuples(st.integers(0, 9), st.text(max_size=2)))


@st.composite
def _batches(draw):
    """(keys, counts, columns, key kind) with distinct keys; each column
    drawn in one form, or mixed so that it falls back to JSON."""
    kind = draw(st.sampled_from(["frames", "packed", "tuples"]))
    part = {"frames": st.tuples(_frame_ids), "packed": _packable,
            "tuples": st.one_of(_unpackable, _packable)}[kind]
    keys = draw(st.lists(part, min_size=1, max_size=12, unique=True))
    counts = draw(st.lists(st.integers(0, 3), min_size=len(keys),
                           max_size=len(keys)))
    rows = sum(counts)
    forms = {"label": st.one_of(st.none(), st.text(max_size=5)),
             "score": _any_float, "bbox": _boxes, "mixed": _mixed}
    columns = {name: draw(st.lists(forms[name], min_size=rows,
                                   max_size=rows))
               for name in _COLUMNS}
    return keys, counts, columns, kind


def _array_of(keys, kind):
    if kind == "frames":
        return np.array([key[0] for key in keys], dtype=np.int64)
    if kind == "packed":
        return pack_key_tuples(keys)
    return None


def _keys(batch: ColumnBatch) -> list:
    if batch.keys is None:
        return array_key_tuples(batch.array, batch.patch_keys)
    return batch.keys


def _exact(batch: ColumnBatch):
    """A batch's keys, counts and column values, compared by ``repr``."""
    return repr((_keys(batch), batch.counts.tolist(),
                 {name: materialize_column(values)
                  for name, values in batch.columns.items()}))


def _roundtrip(batch: ColumnBatch, compress: bool) -> ColumnBatch:
    return ColumnBatch.decode(batch.encode(compress=compress),
                              compressed=compress)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(drawn=_batches(), compress=st.booleans())
    def test_decode_returns_exactly_what_went_in(self, drawn, compress):
        keys, counts, columns, kind = drawn
        array = _array_of(keys, kind)
        by_array = ColumnBatch(None, counts, columns, array=array,
                               patch_keys=kind == "packed") \
            if array is not None else None
        by_tuples = ColumnBatch(keys, counts, columns)
        for batch in filter(None, (by_array, by_tuples)):
            decoded = _roundtrip(batch, compress)
            assert _exact(decoded) == _exact(by_tuples)
            assert (decoded.array is None) == (batch.array is None)
            assert decoded.patch_keys == batch.patch_keys

    @settings(max_examples=30, deadline=None)
    @given(drawn=_batches(), frames=st.sampled_from([1, 3, 2048]))
    def test_partitions_cover_the_batch_and_agree_across_key_forms(
            self, drawn, frames):
        keys, counts, columns, kind = drawn
        by_tuples = ColumnBatch(keys, counts, columns)
        tuple_buckets = buckets_of(by_tuples, frames)
        assert tuple_buckets.tolist() == [
            max(key[0], 0) // frames if type(key[0]) is int else 0
            for key in keys]
        array = _array_of(keys, kind)
        batch = by_tuples if array is None else ColumnBatch(
            None, counts, columns, array=array, patch_keys=kind == "packed")
        # A key lands in one bucket whichever form carries it: a WAL
        # record and a snapshot of the same key share a partition.
        assert buckets_of(batch, frames).tolist() == tuple_buckets.tolist()
        parts = batch.partition(buckets_of(batch, frames))
        assert sorted(parts) == sorted(set(tuple_buckets.tolist()))
        seen = []
        for bucket, part in parts.items():
            assert set(buckets_of(part, frames).tolist()) == {bucket}
            decoded = _roundtrip(part, compress=False)
            assert _exact(decoded) == _exact(part)
            seen += list(zip(_keys(part), part.counts))
        assert sorted(map(repr, seen)) == sorted(
            map(repr, zip(keys, np.asarray(counts))))
        if len(parts) == 1:
            assert next(iter(parts.values())) is batch  # not copied

    @settings(max_examples=30, deadline=None)
    @given(drawn=_batches())
    def test_a_view_logs_and_snapshots_what_it_stores(self, drawn):
        """The listener's batch (a WAL record) and ``batch()`` (a
        snapshot) rebuild the view exactly, through the key array when
        the keys have one."""
        keys, counts, columns, kind = drawn
        logged = []

        class Listener:
            def view_put_many(self, view, batch):
                logged.append(batch.encode())

        view = MaterializedView("v", ["id"], list(_COLUMNS))
        view.listener = Listener()
        array = _array_of(keys, kind)
        if array is not None:
            view.put_many(array, counts, columns,
                          patch_keys=kind == "packed")
        else:
            view.put_many(keys, counts, columns)
        # A snapshot carries the key array the view's index holds: dense
        # frame ids, or packed patch keys.
        if kind == "frames":
            has_array = all(0 <= key[0] < 2**24 for key in keys)
        else:
            has_array = pack_key_tuples(keys) is not None
        assert (view.batch().array is not None) == has_array
        replayed = MaterializedView("v", ["id"], list(_COLUMNS))
        for payload in logged:
            replayed.restore(ColumnBatch.decode(payload))
        restored = MaterializedView("v", ["id"], list(_COLUMNS))
        restored.restore(ColumnBatch.decode(view.serialize(),
                                            compressed=True))
        expected = repr(view.items())
        assert repr(replayed.items()) == expected
        assert repr(restored.items()) == expected
        assert restored.serialized_bytes() == view.serialized_bytes()


class TestLayout:
    def test_codes_hold_a_vocabulary_wider_than_a_byte_or_short(self):
        labels = [f"label-{i}" for i in range(70_000)]
        batch = ColumnBatch(None, [1] * len(labels), {"label": labels},
                            array=np.arange(len(labels)))
        assert materialize_column(
            _roundtrip(batch, compress=True).columns["label"]) == labels

    def test_header_sizes_every_buffer(self):
        batch = ColumnBatch(None, [2, 0, 1], {
            "label": ["car", None, "car"], "score": [0.5, -0.0, np.inf],
            "bbox": [BoundingBox(0.0, 1.0, 2.0, 3.0)] * 3,
            "mixed": [1, "a", None]}, array=np.array([4, 5, 9]))
        line, _, body = batch.encode().partition(b"\n")
        header = json.loads(line)
        assert header["n"] == 3 and header["keys"] == "frames"
        assert header["columns"] == [["label", "codes"], ["score", "float"],
                                     ["bbox", "box"], ["mixed", "json"]]
        assert header["sizes"][:7] == [24, 24, 12, len(b'["car",null]'),
                                       24, 96, len(b'[1,"a",null]')]
        assert sum(header["sizes"]) == len(body)

    @pytest.mark.parametrize("damage", [
        lambda p: p[:-1],
        lambda p: p + b"\0",
        lambda p: p.replace(b'"frames"', b'"packed"').replace(
            b'"n":3', b'"n":2'),
        lambda p: p.replace(b'"codes"', b'"float"'),
        lambda p: b"not a header\n" + p,
    ])
    def test_a_damaged_payload_raises_a_storage_error(self, damage):
        batch = ColumnBatch(None, [1, 1, 1], {"label": ["a", "b", "a"]},
                            array=np.array([1, 2, 3]))
        with pytest.raises(StorageError):
            ColumnBatch.decode(damage(batch.encode()))
        with pytest.raises(StorageError):
            ColumnBatch.decode(batch.encode()[:-3], compressed=True)
