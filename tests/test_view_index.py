"""A view keeps one ordinal index, in the form its keys take: the dense
``ordinal_of_frame`` array for frame ids, a sorted int64 key array for
packed patch keys, and a dict of key tuples from the first key of
neither form on.

The differential test drives random ``put_many`` / ``restore`` /
``get_many`` / ``get`` sequences — key tuples and int arrays, repeats
within and across batches, keys that merely equal a packable one, and
keys of no array form midway — and checks every step against a plain
dict.  The memory pin holds what a stored packed patch key costs."""

from __future__ import annotations

import gc
import json
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.columnar import ColumnBatch
from repro.storage.view_store import (
    SERIALIZED_BASE_OVERHEAD,
    SERIALIZED_COMPRESSION_FACTOR,
    MaterializedView,
    pack_key_tuples,
    pack_patch_keys,
)

_DENSE_FRAME_LIMIT = 1 << 24


def _mostly(common, rare):
    """``common`` keys, and one time in eight a ``rare`` one."""
    return st.integers(0, 7).flatmap(lambda n: rare if n == 0 else common)


#: Frame-id keys: a few ids so batches repeat them, keys that merely
#: equal one (``(2.0,)``, ``(True,)``) and keys of no array form.
_FRAME_KEYS = _mostly(
    st.tuples(st.integers(0, 9)),
    st.sampled_from([(2.0,), (True,), (-1,), (_DENSE_FRAME_LIMIT,),
                     ("x",)]))
#: Patch keys: a few frames and coordinates, a float coordinate equal to
#: an int, and boxes or frames that do not pack.
_BOX = st.tuples(*[st.sampled_from([0, 1, 2047])] * 4)
_PATCH_KEYS = _mostly(
    st.tuples(st.integers(0, 4), _BOX),
    st.sampled_from([(1, (0, 0, 1.0, 1)), (1, (0, 0, 2048, 1)),
                     (1 << 19, (0, 0, 1, 1)), (2, "crop")]))


def _array_form(keys: list, patch: bool) -> np.ndarray | None:
    """``keys`` as the int array an APPLY operator writes, or None when
    one of them has none."""
    if not keys:
        return None
    if patch:
        return pack_key_tuples(keys)
    if not all(len(key) == 1 and type(key[0]) is int for key in keys):
        return None
    return np.array([key[0] for key in keys], dtype=np.int64)


def _stays_array(key, patch: bool) -> bool:
    """Whether ``key`` keeps a view of this kind in its array form."""
    if patch:
        return pack_key_tuples([key]) is not None
    return len(key) == 1 and type(key[0]) is int \
        and 0 <= key[0] < _DENSE_FRAME_LIMIT


@st.composite
def _ops(draw, keys):
    """Writes (tuples, arrays, encoded restores) and probes (tuples,
    arrays, single keys) over ``keys``, with repeats."""
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["put", "restore", "probe", "get"]))
        if kind == "get":
            ops.append((kind, draw(keys), None))
            continue
        batch = draw(st.lists(keys, max_size=8))
        if kind != "probe":
            batch = [(key, draw(st.integers(0, 2))) for key in batch]
        ops.append((kind, batch, draw(st.booleans())))
    return ops


class _Model:
    """The view as a plain dict: key -> its rows, in insertion order."""

    def __init__(self, patch: bool):
        self.patch = patch
        self.rows: dict = {}
        self.patch_keyed = None  # decided by the first insert

    def put(self, entries, as_array: bool) -> list[bool]:
        inserted = []
        for key, rows in entries:
            fresh = key not in self.rows
            if fresh:
                self.rows[key] = rows
                if self.patch_keyed is None:
                    self.patch_keyed = self.patch if as_array \
                        else len(key) == 2
            inserted.append(fresh)
        return inserted

    def codec_bytes(self) -> int:
        """The buffers a batch of the model's entries encodes to, with
        the keys in the form the view keeps them."""
        keys = list(self.rows)
        patch_keyed = bool(self.patch_keyed)
        array = None
        if all(_stays_array(key, patch_keyed) for key in keys):
            array = (pack_key_tuples(keys) if patch_keyed and keys
                     else np.array([key[0] for key in keys],
                                   dtype=np.int64))
        values = [value for rows in self.rows.values() for value in rows]
        batch = ColumnBatch(None if array is not None else keys,
                            [len(rows) for rows in self.rows.values()],
                            {"value": values}, array=array,
                            patch_keys=patch_keyed)
        header = batch.encode().partition(b"\n")[0]
        return sum(json.loads(header)["sizes"])


def _rows(key, count: int) -> list[str]:
    return [f"{key!r}/{i}" for i in range(count)]


def _write(view, model, kind: str, entries, as_array: bool) -> None:
    keys = [key for key, _ in entries]
    array = _array_form(keys, model.patch) if as_array else None
    as_array = array is not None
    entries = [(key, _rows(key, n)) for key, n in entries]
    counts = [len(rows) for _, rows in entries]
    columns = {"value": [v for _, rows in entries for v in rows]}
    expected = model.put(entries, as_array)
    if kind == "put":
        got = view.put_many(array if as_array else keys, counts, columns,
                            patch_keys=model.patch)
        assert got == expected
    else:
        batch = ColumnBatch(None if as_array else keys, counts, columns,
                            array=array, patch_keys=model.patch)
        got = view.restore(ColumnBatch.decode(batch.encode()))
        assert got == sum(expected)


def _probe(view, model, keys: list, as_array: bool) -> None:
    array = _array_form(keys, model.patch) if as_array else None
    hits = view.get_many(keys if array is None else array)
    if array is not None:
        keys = view.key_tuples(array)
    stored = list(model.rows)
    assert hits.counts == [len(model.rows[key]) if key in model.rows
                           else None for key in keys]
    assert list(hits.column("value")) == [
        value for key in keys if key in model.rows
        for value in model.rows[key]]
    assert hits.ordinals.tolist() == [stored.index(key) for key in keys
                                      if key in model.rows]


def _check(view, model) -> None:
    stored = list(model.rows)
    assert view.num_keys == len(stored)
    assert view.keys() == stored
    for key, rows in model.rows.items():
        assert key in view
        assert view.get(key) == tuple({"value": value} for value in rows)
    for first in {0, 1, 2, 2.0, 9, *(key[0] for key in stored)}:
        assert view.keys_with_prefix(first) == [
            key for key in stored if key[0] == first]
    batch = view.batch()
    if batch.array is None:
        assert batch.keys == stored
    else:
        assert batch.keys is None
        assert view.key_tuples(batch.array) == stored
    assert batch.counts.tolist() == [len(rows)
                                     for rows in model.rows.values()]
    assert view.serialized_bytes() == SERIALIZED_BASE_OVERHEAD + int(
        SERIALIZED_COMPRESSION_FACTOR * model.codec_bytes())


def _run(patch: bool, ops) -> None:
    key_columns = ["id", "bbox_key"] if patch else ["id"]
    view = MaterializedView("v", key_columns, ["value"])
    model = _Model(patch)
    for kind, arg, as_array in ops:
        if kind in ("put", "restore"):
            _write(view, model, kind, arg, as_array)
        elif kind == "probe":
            _probe(view, model, arg, as_array)
        else:
            rows = model.rows.get(arg)
            assert view.get(arg) == (None if rows is None else tuple(
                {"value": value} for value in rows))
            assert (arg in view) == (rows is not None)
        _check(view, model)


@settings(max_examples=150, deadline=None)
@given(ops=_ops(_FRAME_KEYS))
def test_frame_keyed_view_equals_a_dict(ops):
    _run(False, ops)


@settings(max_examples=150, deadline=None)
@given(ops=_ops(_PATCH_KEYS))
def test_patch_keyed_view_equals_a_dict(ops):
    _run(True, ops)


def test_a_key_of_no_array_form_midway_keeps_every_answer():
    """Packed keys, then one that does not pack: the view moves its keys
    to a dict of tuples once, and answers as before."""
    ops = [("put", [((1, (0, 0, 1, 1)), 1), ((2, (0, 1, 1, 1)), 2)], True),
           ("put", [((1, (0, 0, 2048, 1)), 1), ((1, (0, 0, 1, 1)), 0)],
            False),
           ("put", [((3, (1, 1, 1, 1)), 1)], True),
           ("probe", [(1, (0, 0, 1, 1)), (3, (1, 1, 1, 1)), (4, (0, 0, 0, 0))],
            True)]
    _run(True, ops)


#: Retained bytes per stored packed patch key, the whole view with one
#: dictionary-coded column: 48 measured (three int64s of the index, the
#: offset, the code, spare capacity).
MAX_BYTES_PER_PACKED_KEY = 56


def test_a_packed_patch_key_costs_a_few_int64s():
    n, puts = 20_000, 40
    rng = np.random.default_rng(0)
    frames = np.repeat(np.arange(n // 8), 8)
    keys = pack_patch_keys(frames, rng.integers(0, 2048, size=(n, 4)))
    assert len(np.unique(keys)) == n
    view = MaterializedView("v", ["id", "bbox_key"], ["value"])
    step = n // puts
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for start in range(0, n, step):
            part = keys[start:start + step]
            view.put_many(part, [1] * len(part), {"value": ["car"] * len(part)},
                          patch_keys=True)
            view.get_many(part[::-1])
        hits = view.get_many(keys)
        del hits
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert view.num_keys == n
    growth = after.compare_to(before, "filename")
    retained = sum(stat.size_diff for stat in growth)
    assert retained / n < MAX_BYTES_PER_PACKED_KEY
    # No key tuple built by an array write or probe survives it.
    in_view_store = sum(stat.size_diff for stat in growth
                        if stat.traceback[0].filename.endswith(
                            "view_store.py"))
    assert in_view_store < 2048
