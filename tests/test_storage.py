"""Tests for batches, the columnar format, views, and table scans."""

import json
import pickle
import tempfile
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ExecutorError, StorageError
from repro.server.locks import RWLock
from repro.server.state import ClientViewHandle, ViewOwners
from repro.storage.batch import (
    Batch,
    CodedColumn,
    ColumnView,
    FloatColumn,
    FrameColumn,
    box_keys,
    coded,
    column_areas,
    float_array,
    frame_ids,
    stored_column,
)
from repro.storage.columnar import ColumnBatch
from repro.storage.engine import StorageEngine, VideoTable
from repro.storage.view_store import (
    SERIALIZED_BASE_OVERHEAD,
    SERIALIZED_COMPRESSION_FACTOR,
    MaterializedView,
    ViewStore,
    pack_key_tuples,
    pack_patch_keys,
)
from repro.store import DurableViewStore
from repro.session import EvaSession
from repro.types import BoundingBox, VideoMetadata
from repro.video.frames import Frame
from repro.video.synthetic import SyntheticVideo


def pack_patch_key(key):
    """One key tuple packed, or None when it does not pack."""
    packed = pack_key_tuples([key])
    return None if packed is None else int(packed[0])


def column_batch(entries, output_columns=("label", "bbox")):
    """``(key, row dicts)`` entries as ``put_many``'s keys/counts/columns."""
    return ([key for key, _ in entries],
            [len(rows) for _, rows in entries],
            {col: [row[col] for _, rows in entries for row in rows]
             for col in output_columns})


class TestBatch:
    def test_from_rows_roundtrip(self):
        batch = Batch.from_rows(["a", "b"], [(1, "x"), (2, "y")])
        assert batch.num_rows == 2
        assert batch.to_tuples() == [(1, "x"), (2, "y")]

    def test_ragged_columns_rejected(self):
        with pytest.raises(ExecutorError):
            Batch({"a": [1, 2], "b": [1]})

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ExecutorError):
            Batch.from_rows(["a", "b"], [(1,)])

    def test_concat(self):
        a = Batch({"x": [1, 2]})
        b = Batch({"x": [3]})
        assert Batch.concat([a, b]).column("x") == [1, 2, 3]

    def test_concat_mismatched_columns_rejected(self):
        with pytest.raises(ExecutorError):
            Batch.concat([Batch({"x": [1]}), Batch({"y": [1]})])

    def test_concat_empty(self):
        assert Batch.concat([]).num_rows == 0

    def test_project(self):
        batch = Batch({"a": [1], "b": [2], "c": [3]})
        assert batch.project(["c", "a"]).column_names == ["c", "a"]

    def test_project_unknown_column(self):
        with pytest.raises(ExecutorError):
            Batch({"a": [1]}).project(["z"])

    def test_filter(self):
        batch = Batch({"a": [1, 2, 3]})
        assert batch.filter([True, False, True]).column("a") == [1, 3]

    def test_filter_wrong_mask_length(self):
        with pytest.raises(ExecutorError):
            Batch({"a": [1]}).filter([True, False])

    def test_with_column_replaces(self):
        batch = Batch({"a": [1, 2]}).with_column("a", [5, 6])
        assert batch.column("a") == [5, 6]

    def test_with_column_wrong_length(self):
        with pytest.raises(ExecutorError):
            Batch({"a": [1, 2]}).with_column("b", [1])

    def test_take_and_slice(self):
        batch = Batch({"a": [10, 20, 30]})
        assert batch.take([2, 0]).column("a") == [30, 10]
        assert batch.slice(1, 3).column("a") == [20, 30]

    def test_sorted_by(self):
        batch = Batch({"a": [3, 1, 2], "b": ["c", "a", "b"]})
        assert batch.sorted_by("a").column("b") == ["a", "b", "c"]

    def test_iter_rows(self):
        rows = list(Batch({"a": [1], "b": [2]}).iter_rows())
        assert rows == [{"a": 1, "b": 2}]

    def test_rename(self):
        batch = Batch({"a": [1]}).rename({"a": "z"})
        assert batch.column_names == ["z"]


class TestMaterializedView:
    def test_put_and_get(self):
        view = MaterializedView("v", ["id"], ["label"])
        view.put((1,), [{"label": "car"}, {"label": "bus"}])
        assert (1,) in view
        assert [r["label"] for r in view.get((1,))] == ["car", "bus"]

    def test_empty_result_is_recorded(self):
        """A key with zero rows still counts as computed (conditional
        APPLY must not re-evaluate it)."""
        view = MaterializedView("v", ["id"], ["label"])
        view.put((7,), [])
        assert (7,) in view
        assert view.get((7,)) == ()

    def test_put_is_idempotent(self):
        view = MaterializedView("v", ["id"], ["label"])
        view.put((1,), [{"label": "car"}])
        view.put((1,), [{"label": "DIFFERENT"}])
        assert view.get((1,))[0]["label"] == "car"

    def test_put_many_counts_new_keys(self):
        view = MaterializedView("v", ["id"], ["label"])
        view.put((1,), [])
        added = view.put_many([(1,), (2,)], [0, 1], {"label": ["x"]})
        assert added == [False, True]
        assert len(added) == 2  # keys offered, the unit the e2e trace counts
        assert view.num_keys == 2

    def test_put_many_first_duplicate_wins(self):
        view = MaterializedView("v", ["id"], ["label"])
        added = view.put_many([(1,), (1,)], [1, 1],
                              {"label": ["car", "DIFFERENT"]})
        assert added == [True, False]
        assert view.get((1,))[0]["label"] == "car"
        assert view.num_output_rows == 1

    def test_rejected_batch_leaves_the_view_unchanged(self):
        view = MaterializedView("v", ["id"], ["label"])
        with pytest.raises(StorageError):  # ragged: two keys, one row
            view.put_many([(1,), (2,)], [1, 1], {"label": ["car"]})
        with pytest.raises(TypeError):  # a value no codec can store
            view.put_many([(1,), (2,)], [1, 1], {"label": ["car", {1}]})
        assert view.num_keys == 0 and view.get((1,)) is None
        assert view.put_many([(1,)], [1], {"label": ["car"]}) == [True]
        assert view.items() == [((1,), ({"label": "car"},))]

    def test_get_many_preserves_order_and_misses(self):
        view = MaterializedView("v", ["id"], ["label"])
        view.put((1,), [{"label": "car"}])
        view.put((3,), [])
        hits = view.get_many([(3,), (2,), (1,)])
        assert len(hits) == 3  # keys probed
        assert hits.counts == [0, None, 1]
        assert (hits.num_hits, hits.num_rows) == (2, 1)
        assert list(hits.column("label")) == ["car"]

    def test_requires_key_columns(self):
        with pytest.raises(StorageError):
            MaterializedView("v", [], ["x"])

    def test_serialized_bytes_grows(self):
        view = MaterializedView("v", ["id"], ["label", "bbox"])
        empty_size = view.serialized_bytes()
        for i in range(50):
            view.put((i,), [{"label": "car",
                             "bbox": BoundingBox(0, 0, i, i)}])
        assert view.serialized_bytes() > empty_size

    def test_put_returns_whether_key_was_new(self):
        view = MaterializedView("v", ["id"], ["label"])
        assert view.put((1,), [{"label": "car"}]) is True
        assert view.put((1,), [{"label": "other"}]) is False
        assert view.put((2,), []) is True


class TestSerializedBytesEstimate:
    """`serialized_bytes` is a running estimate maintained by put/put_many
    (O(1) to read), not a re-serialization of the whole view."""

    def _rows(self, i):
        return [{"label": "car", "bbox": BoundingBox(0, 0, i, i + 1)}]

    def test_rejected_duplicate_puts_do_not_grow_estimate(self):
        view = MaterializedView("v", ["id"], ["label", "bbox"])
        view.put((1,), self._rows(1))
        size = view.serialized_bytes()
        view.put((1,), self._rows(999))  # first write wins: no growth
        view.put_many(*column_batch([((1,), self._rows(5))]))
        assert view.serialized_bytes() == size

    def test_put_and_put_many_agree(self):
        entries = [((i,), self._rows(i)) for i in range(25)]
        one_by_one = MaterializedView("v", ["id"], ["label", "bbox"])
        for key, rows in entries:
            one_by_one.put(key, rows)
        bulk = MaterializedView("v", ["id"], ["label", "bbox"])
        bulk.put_many(*column_batch(entries))
        assert one_by_one.serialized_bytes() == bulk.serialized_bytes()

    def test_estimate_tracks_actual_payload(self):
        view = MaterializedView("v", ["id"], ["label", "bbox"])
        for i in range(200):
            view.put((i,), self._rows(i))
        actual = len(view.serialize())
        estimate = view.serialized_bytes()
        # Calibrated to over-approximate (eviction must err toward
        # staying under budget) without being wildly off.
        assert actual <= estimate <= 20 * actual

    def test_detector_views_compress_within_their_estimate(self):
        """A detector's random float boxes and scores compress worst of
        all views (to 0.79 of their buffers at the benchmark videos'
        8.3 vehicles a frame): the over-estimate holds there too."""
        session = EvaSession()
        session.register_video(SyntheticVideo(VideoMetadata(
            name="dense", num_frames=2000, width=960, height=540,
            fps=25.0, vehicles_per_frame=8.3), seed=7))
        for detector in ("FastRCNNObjectDetector", "YoloTiny"):
            session.execute(f"SELECT id FROM dense CROSS APPLY "
                            f"{detector}(frame) WHERE label = 'car';")
        views = [session.view_store.get(name)
                 for name in session.view_store.names()]
        assert len(views) == 2
        for view in views:
            assert len(view.serialize()) <= view.serialized_bytes()

    def test_deserialized_view_rebuilds_the_estimate(self):
        view = MaterializedView("v", ["id"], ["label", "bbox"])
        for i in range(30):
            view.put((i,), self._rows(i))
        restored = MaterializedView("v", ["id"], ["label", "bbox"])
        restored.restore(ColumnBatch.decode(view.serialize(),
                                            compressed=True))
        assert restored.serialized_bytes() == view.serialized_bytes()


_coords = st.floats(allow_nan=False, allow_infinity=False, width=64)
stored_values = st.one_of(
    st.text(max_size=8),  # any unicode: non-ASCII, quotes, backslashes
    st.sampled_from(['say "car"', "caf\u00e9 \u8eca", "back\\slash", ""]),
    _coords, st.integers(-2**40, 2**40), st.booleans(), st.none(),
    st.builds(BoundingBox, _coords, _coords, _coords, _coords),
    st.tuples(st.integers(0, 9), st.integers(0, 9)))


_NAN, _INF = float("nan"), float("inf")
#: Every digit count, both signs, and ids beyond int64 (no array: the
#: count falls back to dumping them).
_any_frame_key = st.tuples(st.one_of(
    st.integers(0, 3000), st.integers(-2**63, 2**63 - 1),
    st.sampled_from([-1, 9, 10, 99, 100, 10**18 - 1, 10**18, 2**63 - 1,
                     -2**63, 2**63, -2**63 - 1, 10**25])))
_any_coord = st.one_of(
    st.integers(0, 2047),
    st.sampled_from([9, 10, 999, 1000, 2048, -1, 10**20]))  # last 3: no pack
_any_patch_key = st.tuples(
    st.one_of(st.integers(0, (1 << 19) - 1),
              st.sampled_from([9, 10, 1 << 19, -1])),  # last 2: no pack
    st.tuples(_any_coord, _any_coord, _any_coord, _any_coord))
_any_float = st.one_of(
    st.floats(),
    st.sampled_from([_NAN, _INF, -_INF, -0.0, 0.0, 1e16, 5e-324, 1e-5,
                     0.1, 1e22, 123456789.125]))
_any_string = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['say "car"', "back\\slash", "café 車", "",
                     "\ud800", "tab\there"]))
#: One strategy per column form: every value of a column is drawn from
#: one of them, so most columns are single-type.
_column_values = {
    "float": _any_float,
    "float box": st.builds(BoundingBox, _any_float, _any_float, _any_float,
                           _any_float),
    "other box": st.builds(BoundingBox, *[st.one_of(
        _any_float, st.integers(-10**6, 10**6), st.booleans())] * 4),
    "str": _any_string,
    "str or None": st.one_of(_any_string, st.none()),
    "None": st.none(),
    "mixed": stored_values,
}
_ORACLE_COLUMNS = ("value", "score")


@st.composite
def _oracle_batches(draw, keys):
    """``put_many`` arguments: up to eight keys (repeats too), up to three
    rows each, a column form per column."""
    batch_keys = draw(st.lists(keys, max_size=8))
    counts = draw(st.lists(st.integers(0, 3), min_size=len(batch_keys),
                           max_size=len(batch_keys)))
    rows = sum(counts)
    return batch_keys, counts, {
        name: draw(st.lists(_column_values[draw(st.sampled_from(
            sorted(_column_values)))], min_size=rows, max_size=rows))
        for name in _ORACLE_COLUMNS}


def _key_array(keys, patch: bool):
    """``keys`` as the int array an APPLY operator writes, or None when
    one of them has no array form."""
    if patch:
        return pack_key_tuples(keys) if keys else None
    ids = [key[0] for key in keys]
    if not all(type(i) is int and -2**63 <= i < 2**63 for i in ids):
        return None
    return np.array(ids, dtype=np.int64)


def codec_bytes(view) -> int:
    """The sizes of the buffers ``view.batch().encode()`` writes, summed
    from the header line of the payload."""
    header = view.batch().encode().partition(b"\n")[0]
    return sum(json.loads(header)["sizes"])


def assert_codec_size(view) -> None:
    assert view.serialized_bytes() == (
        SERIALIZED_BASE_OVERHEAD
        + int(SERIALIZED_COMPRESSION_FACTOR * codec_bytes(view)))


class TestCodecByteCount:
    """A view's size is counted from its typed columns and key form, and
    must equal the codec's own buffers whatever the keys, the column
    types and the write route: tuple keys, array keys, ``restore``, and
    a durable store's WAL replay and snapshot restore."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), patch=st.booleans())
    def test_size_is_the_codec_buffers_on_every_route(self, data, patch):
        name, key_columns = "mv::m@v", ["id", "bbox_key"] if patch else ["id"]
        batches = data.draw(st.lists(_oracle_batches(
            _any_patch_key if patch else _any_frame_key), max_size=4))
        with tempfile.TemporaryDirectory() as root:
            store = DurableViewStore(root, partition_frames=1 << 18,
                                     fsync_every=1 << 20)
            view = store.create_or_get(name, key_columns,
                                       list(_ORACLE_COLUMNS))
            assert_codec_size(view)
            # A restore is recovery's own route: neither logged nor
            # snapshotted.
            unlogged = False
            for keys, counts, columns in batches:
                route = data.draw(st.sampled_from(
                    ["tuples", "array", "restore"]))
                array = _key_array(keys, patch)
                if route == "restore":
                    view.restore(ColumnBatch.decode(
                        ColumnBatch(keys, counts, columns).encode()))
                    unlogged = True
                elif route == "array" and array is not None:
                    view.put_many(array, counts, columns, patch_keys=patch)
                else:
                    view.put_many(keys, counts, columns)
                assert_codec_size(view)
                if data.draw(st.booleans()):
                    store.snapshot()
            store.flush()  # crash: what the last snapshot missed is WAL
            reopened = DurableViewStore(root)
            replayed = reopened.get(name)
            assert_codec_size(replayed)
            if not unlogged:
                assert set(replayed.keys()) == set(view.keys())
                assert replayed.serialized_bytes() == view.serialized_bytes()
            reopened.close()


def _view_state(view) -> tuple:
    """Everything an append changes: keys, offsets, every column with its
    types, the byte count with the JSON lengths behind it, and the index:
    the key form a snapshot takes and the ordinal each key probes to."""
    keys = list(view.keys())
    batch = view.batch()
    return (keys, view._offsets[:view.num_keys + 1].tolist(),
            {name: (type(column), _typed(column))
             for name, column in view._columns.items()},
            (view.serialized_bytes(), view._key_chars,
             dict(view._json_chars)),
            (None if batch.array is None else batch.array.tolist(),
             batch.patch_keys),
            [view.ordinal_of(key) for key in keys],
            view.get_many(keys).ordinals.tolist())


_FRACTION_BOX = BoundingBox(Fraction(1, 3), 0.0, 1.0, 1.0)
_BOX = BoundingBox(0.0, 0.0, 4.0, 4.0)


class TestAtomicRefusal:
    """A batch holding a value JSON cannot hold raises ``TypeError`` and
    changes nothing — not the keys, a column, the estimate or an array
    index — whichever typed form the value would take and whether it
    comes through ``put_many`` or ``restore``; the next valid write then
    goes in as if the refused one had never been offered."""

    @staticmethod
    def _view(patch: bool):
        if patch:
            view = MaterializedView("v", ["id", "bbox_key"],
                                    ["label", "bbox"])
            keys = [(1, (0, 0, 4, 4)), (2, (1, 1, 5, 5))]
        else:
            view = MaterializedView("v", ["id"], ["label", "bbox"])
            keys = [(1,), (2,)]
        view.put_many(keys, [1, 0], {"label": ["car"], "bbox": [_BOX]})
        return view, keys

    @pytest.mark.parametrize("route", ["put_many", "restore"])
    @pytest.mark.parametrize("patch", [False, True], ids=["frame", "patch"])
    @pytest.mark.parametrize("bad", [
        "fraction box", "set value", "frozenset key part", "set key part"])
    def test_refused_batch_changes_nothing(self, bad, patch, route):
        view, (stored, _) = self._view(patch)
        fresh = (3, (2, 2, 6, 6)) if patch else (3,)
        keys, labels, boxes = [fresh, stored], ["bus", "van"], [_BOX, _BOX]
        if bad == "fraction box":
            boxes = [_FRACTION_BOX, _BOX]
        elif bad == "set value":
            boxes = [{"a"}, _BOX]
        elif bad == "frozenset key part":
            keys[0] = ((3, frozenset({1})) if patch
                       else (frozenset({1}),))
        else:
            keys[0] = (3, {1}) if patch else ({1},)
        before = _view_state(view)
        with pytest.raises(TypeError):
            batch = keys, [1, 1], {"label": labels, "bbox": boxes}
            if route == "put_many":
                view.put_many(*batch)
            else:
                view.restore(ColumnBatch(*batch))
        assert _view_state(view) == before
        assert view.put_many([fresh], [1], {"label": ["bus"],
                                            "bbox": [_BOX]}) == [True]
        assert_codec_size(view)
        assert view.get(fresh) == ({"label": "bus", "bbox": _BOX},)

    @pytest.mark.parametrize("patch", [False, True], ids=["frame", "patch"])
    def test_refused_array_write_changes_nothing(self, patch):
        view, _ = self._view(patch)
        fresh = [(3, (2, 2, 6, 6))] if patch else [(3,)]
        array = _key_array(fresh, patch)
        before = _view_state(view)
        with pytest.raises(TypeError):
            view.put_many(array, [1], {"label": ["bus"],
                                       "bbox": [_FRACTION_BOX]},
                          patch_keys=patch)
        with pytest.raises(StorageError):  # the other key form
            view.put_many(array, [1], {"label": ["bus"], "bbox": [_BOX]},
                          patch_keys=not patch)
        assert _view_state(view) == before
        assert view.put_many(array, [1], {"label": ["bus"], "bbox": [_BOX]},
                             patch_keys=patch) == [True]
        assert view.get_many(array).counts == [1]


class TestArrayWrites:
    """``put_many`` takes the int arrays ``get_many`` takes; the writer's
    ``patch_keys`` says which form, so an empty view of either kind
    (both key ``["id", "bbox_key"]``) reads them right."""

    @pytest.mark.parametrize("patch", [False, True], ids=["frame", "patch"])
    def test_array_write_to_an_empty_view_takes_the_writers_form(
            self, patch):
        keys = ([(3, (1, 2, 3, 4)), (70, (0, 0, 2047, 9)), (3, (1, 2, 3, 4))]
                if patch else [(3,), (70,), (3,)])
        array = _key_array(keys, patch)
        columns = {"value": ["a", None, "dup"]}
        seen = []

        class Listener:
            def view_put_many(self, view, batch):
                seen.append(batch)

        view = MaterializedView("v", ["id", "bbox_key"], ["value"])
        view.listener = Listener()
        assert view.put_many(array, [1, 1, 1], columns,
                             patch_keys=patch) == [True, True, False]
        # The listener logs the fresh keys as the array, built no tuples.
        logged, = seen
        assert logged.keys is None and logged.patch_keys == patch
        assert logged.array.tolist() == array[:2].tolist()
        assert list(view.keys()) == view.key_tuples(logged.array) \
            == keys[:2]
        parts = [key[0] for key in view.keys()]
        if patch:
            parts += [coord for key in view.keys() for coord in key[1]]
        assert {type(part) for part in parts} == {int}
        # The view keeps its keys in the writer's array form.
        snapshot = view.batch()
        assert snapshot.patch_keys == patch
        assert snapshot.array.tolist() == array[:2].tolist()
        assert view.get_many(array).counts == [1, 1, 1]
        twin = MaterializedView("v", ["id", "bbox_key"], ["value"])
        twin.put_many(keys, [1, 1, 1], columns)
        assert twin.items() == view.items()
        assert twin.serialized_bytes() == view.serialized_bytes()

    def test_rejects_malformed_arrays(self):
        view = MaterializedView("v", ["id", "bbox_key"], ["value"])
        for keys, patch in ((np.array([1 << 63], dtype=np.uint64), False),
                            (np.array([[1]]), False),
                            (np.array([1.0]), False),
                            (np.array([-1]), True)):
            with pytest.raises(StorageError):
                view.put_many(keys, [0], {"value": []}, patch_keys=patch)
        assert view.num_keys == 0


def _owners(view) -> ViewOwners:
    """Owner codes that give the key of ordinal ``n`` client ``c{n % 3}``."""
    owners = ViewOwners([None, "c0", "c1", "c2"])
    for ordinal in range(view.num_keys):
        owners.stamp(ordinal, ordinal + 1, ordinal % 3 + 1)
    return owners


def _probe_result(hits) -> tuple:
    """Everything a reader can see of one ``get_many`` result."""
    positions, counts = hits.hit_positions()
    return (hits.counts, hits.num_hits, hits.num_rows,
            positions.tolist(), counts.tolist(),
            list(hits.column("label")), list(hits.column("bbox")),
            column_areas(hits.column("bbox")).tolist())


_frame_entry = st.tuples(
    st.integers(0, 15),  # frame id: writes overlap, batches repeat ids
    st.lists(st.tuples(st.sampled_from(["car", "bus"]),
                       st.integers(0, 99)), max_size=3))  # zero rows too
_dense_ops = st.lists(st.one_of(
    st.tuples(st.just("put"), st.lists(_frame_entry, max_size=6)),
    st.tuples(st.just("restore"), st.lists(_frame_entry, max_size=6)),
    st.tuples(st.just("probe"),
              st.lists(st.integers(-3, 40), max_size=8)),  # dup / out
    st.tuples(st.just("other_key"),  # no longer dense from here on
              st.sampled_from([("not-a-frame",), (-2,), (True,)])),
), max_size=10)


class TestDenseFrameProbe:
    """``get_many`` by a frame-id array must be the same LEFT OUTER JOIN
    as by ``(frame_id,)`` tuples, whatever writes built the view."""

    @staticmethod
    def _batch(entries):
        keys = [(frame_id,) for frame_id, _ in entries]
        counts = [len(rows) for _, rows in entries]
        rows = [row for _, rows in entries for row in rows]
        return keys, counts, {
            "label": [label for label, _ in rows],
            "bbox": [BoundingBox(0.0, 0.0, float(w) + 1.0, 2.0)
                     for _, w in rows]}

    def _check(self, view, ids):
        by_array = view.get_many(np.array(ids, dtype=np.int64))
        by_tuples = view.get_many([(i,) for i in ids])
        assert _probe_result(by_array) == _probe_result(by_tuples)
        assert np.array_equal(by_array._rows, by_tuples._rows)
        shipped = pickle.loads(pickle.dumps(by_array))
        assert _probe_result(shipped) == _probe_result(by_tuples)

        def attribution(probe):
            recorded = []

            class Stats:
                def record_view_hits(self, name, prober, owners):
                    recorded.append((prober, dict(owners)))

            handle = ClientViewHandle(view, RWLock(), _owners(view), 0,
                                      "me", Stats())
            return _probe_result(handle.get_many(probe)), recorded

        assert attribution(np.array(ids, dtype=np.int64)) == \
            attribution([(i,) for i in ids])

    @settings(max_examples=80, deadline=None)
    @given(ops=_dense_ops)
    def test_array_probe_equals_tuple_probe(self, ops):
        view = MaterializedView("v", ["id"], ["label", "bbox"])
        for op, arg in ops:
            probe = [-1, 15, 16, 10**6]
            if op == "put":
                view.put_many(*self._batch(arg))
            elif op == "restore":
                view.restore(ColumnBatch.decode(
                    ColumnBatch(*self._batch(arg)).encode()))
            elif op == "other_key":
                view.put(arg, [])
            else:
                probe += arg
            # Every stored frame, after every write.
            self._check(view, probe + [key[0] for key in view.keys()
                                       if type(key[0]) is int])

    def test_dense_index_grows_with_appends_and_stays_consistent(self):
        view = MaterializedView("v", ["id"], ["label", "bbox"])
        view.put_many(*self._batch([(3, [("car", 1)]), (0, [])]))
        view.restore(ColumnBatch.decode(ColumnBatch(*self._batch(
            [(900, [("bus", 2), ("car", 3)]), (3, [("x", 9)])])).encode()))
        hits = view.get_many(np.array([900, 3, 0, 1, 899, 901]))
        assert hits.counts == [2, 1, 0, None, None, None]
        assert list(hits.column("label")) == ["bus", "car", "car"]
        assert view._ordinal_of_frame[[0, 3, 900]].tolist() == [1, 0, 2]
        view.put(("x",), [])  # not a frame key: the dense index goes
        assert view._ordinal_of_frame is None
        assert view.get_many(np.array([3])).counts == [1]

    def test_a_far_frame_id_drops_the_dense_index(self):
        # A dense index up to 2**40 would be 8 TB of int64.
        view = MaterializedView("v", ["id"], ["label"])
        view.put_many(np.array([3]), [1], {"label": ["car"]})
        view.put((2**40,), [])
        assert view._ordinal_of_frame is None
        assert view.get_many(np.array([2**40, 3, 4])).counts == [0, 1, None]

    def test_rejects_a_non_vector_id_array(self):
        view = MaterializedView("v", ["id"], ["label"])
        with pytest.raises(StorageError):
            view.get_many(np.zeros((2, 2), dtype=np.int64))


_coord = st.integers(0, 2)
_patch_key = st.one_of(
    st.tuples(st.integers(0, 5), st.tuples(_coord, _coord, _coord, _coord)),
    st.tuples(st.integers(0, 5), st.tuples(_coord, _coord, _coord, _coord)),
    st.sampled_from([(1 << 19, (0, 0, 0, 0)),  # do not pack
                     (2, (0, 0, 2048, 1)), (3, (-1, 0, 0, 0)),
                     (4, (0, 0, 1, 1.5))]))
_patch_row = st.fixed_dictionaries({
    "value": st.one_of(st.sampled_from(["car", "bus", "", None]),
                       st.text(max_size=2),
                       st.sampled_from([7, True, 1.5])),  # not a str
    "score": st.one_of(st.floats(allow_nan=False), st.floats(0, 1),
                       st.sampled_from([None, 3])),  # not a float
    "bbox": st.one_of(
        st.builds(BoundingBox, st.floats(-5, 50), st.floats(-5, 50),
                  st.floats(-5, 50), st.floats(-5, 50)),
        st.just("not-a-box"))})
_patch_entries = st.lists(
    st.tuples(_patch_key, st.lists(_patch_row, max_size=2)), max_size=6)
_patch_ops = st.lists(st.one_of(
    st.tuples(st.just("put"), _patch_entries),
    st.tuples(st.just("restore"), _patch_entries),
    st.tuples(st.just("probe"), st.lists(_patch_key, max_size=8))),
    max_size=8)
_PATCH_COLUMNS = ("value", "score", "bbox")


def _typed(values) -> list:
    """Values with their types: a typed column must give back the very
    values it was handed (``1.0`` is not ``1``, ``True`` not ``1``)."""
    return [(type(value), repr(value)) for value in values]


class TestTypedColumnsAndPackedProbes:
    """Typed columns read back what was put, and ``get_many`` by packed
    patch keys is the same LEFT OUTER JOIN as by key tuples — whatever
    writes built the view, through a client handle and a pickled
    ``ViewHits``, with or without the packed index."""

    @staticmethod
    def _read(hits) -> tuple:
        positions, counts = hits.hit_positions()
        columns = {name: _typed(hits.column(name))
                   for name in _PATCH_COLUMNS}
        boxes = hits.column("bbox")
        keys = box_keys(boxes)
        areas = None
        if all(isinstance(box, BoundingBox) for box in boxes):
            areas = list(map(repr, column_areas(boxes).tolist()))
        return (hits.counts, hits.num_hits, hits.num_rows,
                positions.tolist(), counts.tolist(), columns,
                None if keys is None else keys.tolist(), areas)

    def _check(self, view, stored, probe):
        expected_rows = [row for key in probe for row in stored.get(key, ())]
        by_tuples = view.get_many(probe)
        assert by_tuples.counts == [
            len(stored[key]) if key in stored else None for key in probe]
        for name in _PATCH_COLUMNS:
            assert _typed(by_tuples.column(name)) == \
                _typed(row[name] for row in expected_rows)
        packable = [key for key in probe if pack_patch_key(key) is not None]
        packed = np.array(list(map(pack_patch_key, packable)),
                          dtype=np.int64)
        by_array = view.get_many(packed)
        assert self._read(by_array) == self._read(view.get_many(packable))
        shipped = pickle.loads(pickle.dumps(by_array))
        assert self._read(shipped) == self._read(by_array)

        def attribution(keys):
            recorded = []

            class Stats:
                def record_view_hits(self, name, prober, owners):
                    recorded.append((prober, dict(owners)))

            handle = ClientViewHandle(view, RWLock(), _owners(view), 0,
                                      "me", Stats())
            return self._read(handle.get_many(keys)), recorded

        assert attribution(packed) == attribution(packable)

    @settings(max_examples=80, deadline=None)
    @given(ops=_patch_ops)
    @example(ops=[("put", [((4, (0, 0, 1, 1.5)), [])])])
    def test_packed_probe_equals_tuple_probe(self, ops):
        view = MaterializedView("v", ["id", "bbox_key"],
                                list(_PATCH_COLUMNS))
        stored: dict = {}
        for op, arg in ops:
            # (4, (0, 0, 1, 1)) must not find (4, (0, 0, 1, 1.5)).
            probe = [(0, (0, 0, 0, 0)), (9, (1, 1, 1, 1)), (4, (0, 0, 1, 1))]
            if op == "probe":
                probe += arg
            else:
                batch = column_batch(arg, _PATCH_COLUMNS)
                if op == "put":
                    view.put_many(*batch)
                else:
                    view.restore(ColumnBatch.decode(
                        ColumnBatch(*batch).encode()))
                for key, rows in arg:
                    stored.setdefault(key, rows)
            # Every stored key, after every write.
            self._check(view, stored, probe + list(view.keys()))
        packs = all(pack_patch_key(key) is not None for key in stored)
        assert (view.batch().array is not None) == packs

    def test_index_goes_at_the_first_key_that_does_not_pack(self):
        view = MaterializedView("v", ["id", "bbox_key"], ["value"])
        keys = [(1, (0, 0, 4, 4)), (2, (1, 1, 5, 5))]
        view.put_many(keys, [1, 1], {"value": ["a", None]})
        snapshot = view.batch()
        assert snapshot.patch_keys and snapshot.array.tolist() == \
            [pack_patch_key(key) for key in keys]
        assert [view.ordinal_of(key) for key in keys] == [0, 1]
        view.put((3, (0, 0, 2048, 1)), [{"value": "b"}])
        assert view.batch().array is None
        assert view.batch().keys == [*keys, (3, (0, 0, 2048, 1))]
        hits = view.get_many(pack_patch_keys(
            np.array([2, 1, 7]), np.array([[1, 1, 5, 5], [0, 0, 4, 4],
                                           [0, 0, 0, 0]])))
        assert hits.counts == [1, 1, None]
        assert list(hits.column("value")) == [None, "a"]

    def test_str_column_switches_to_a_list_for_good(self):
        view = MaterializedView("v", ["id"], ["value"])
        view.put_many([(1,), (2,)], [2, 1],
                      {"value": ["car", None, "bus"]})
        before = view.get_many(np.array([1, 2]))
        assert isinstance(view._columns["value"], CodedColumn)
        assert coded(before.column("value"))[1] == ["car", None, "bus"]
        view.put_many([(3,)], [2], {"value": [7, "car"]})
        assert type(view._columns["value"]) is list
        view.put_many([(4,)], [1], {"value": ["van"]})
        assert type(view._columns["value"]) is list
        after = view.get_many(np.array([2, 1, 3, 4]))
        assert coded(after.column("value")) is None
        assert _typed(after.column("value")) == _typed(
            ["bus", "car", None, 7, "car", "van"])
        # A probe taken before the switch still reads its rows.
        assert list(before.column("value")) == ["car", None, "bus"]


class TestStoredColumns:
    def test_single_key_get_reads_only_that_keys_rows(self):
        # A row-path probe slices each typed column: O(rows of the key),
        # not O(rows in the view) — no array the size of the view.
        view = MaterializedView("v", ["id"], ["label", "score"])
        n = 50_000
        view.put_many([(i,) for i in range(n)], [2] * n,
                      {"label": [f"l{i}" for i in range(2 * n)],
                       "score": [float(i) for i in range(2 * n)]})
        view.get((0,))  # builds the vocabulary lookup once
        tracemalloc.start()
        try:
            rows = view.get((1234,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == ({"label": "l2468", "score": 2468.0},
                        {"label": "l2469", "score": 2469.0})
        assert peak < 64 * 1024  # one arange over the view: 800 KB

    def test_vocabulary_lookup_extends_by_new_entries(self):
        column = stored_column([], ["a", "b"])
        assert column.gather(np.array([1, 0])) == ["b", "a"]
        lookup, filled = column._lookup
        assert filled == 2
        column = stored_column(column, ["c"])
        assert column.gather(np.array([2])) == ["c"]
        grown, filled = column._lookup
        assert filled == 3 and grown[:3].tolist() == ["a", "b", "c"]
        column = stored_column(column, ["a"])  # no new entry
        column.gather(np.array([3]))
        assert column._lookup[0] is grown

    def test_forms_follow_the_first_values(self):
        assert isinstance(stored_column([], ["a", None]), CodedColumn)
        assert isinstance(stored_column([], [0.5, -0.0]), FloatColumn)
        assert type(stored_column([], [0.5, 1])) is list
        assert type(stored_column([], [True])) is list
        assert stored_column([], []) == []

    def test_views_gather_the_stored_python_values(self):
        floats = stored_column([], [0.5, -0.0, 1e300, 2.0])
        view = ColumnView(floats, np.array([2, 1, 1]))
        assert float_array(view).tolist() == [1e300, -0.0, -0.0]
        assert _typed(view) == _typed([1e300, -0.0, -0.0])
        assert _typed(floats[1:3]) == _typed([-0.0, 1e300])
        assert floats[-1] == 2.0 and type(floats[-1]) is float
        codes = stored_column([], ["b", None, "b", ""])
        assert _typed(ColumnView(codes, start=1, stop=4)) == _typed(
            [None, "b", ""])
        assert codes[0] == "b" and list(codes) == ["b", None, "b", ""]
        assert stored_column(codes, ["", "c", None]) is codes
        indices, vocabulary = coded(codes)
        assert indices.tolist() == [0, 1, 0, 2, 2, 3, 1]
        assert vocabulary == ["b", None, "", "c"]

    def test_appends_never_move_rows_a_reader_holds(self):
        column = stored_column([], ["a"])
        view = ColumnView(column, np.array([0, 0]))
        for n in range(40):
            column = stored_column(column, [f"v{n}", None])
        assert list(view) == ["a", "a"]
        assert len(column) == 81 and column[80] is None


class TestPrefixProbe:
    """``keys_with_prefix`` must agree with ``put``, in insertion order:
    keys added before and after a prefix probe, and re-put keys (no
    duplicates) — over key tuples and over packed patch keys, where a
    frame's boxes are one range of the sorted keys."""

    @staticmethod
    def _key(frame_id: int, i: int, packed: bool):
        return (frame_id, (i, 0, i + 1, 1)) if packed else (frame_id, i)

    @pytest.mark.parametrize("packed", [False, True],
                             ids=["tuples", "packed"])
    def test_prefix_probe_covers_prior_puts(self, packed):
        view = MaterializedView("v", ["id", "crop"], ["label"])
        for i in range(5):
            view.put(self._key(i % 2, i, packed), [{"label": "car"}])
        assert view.keys_with_prefix(0) == [
            self._key(0, i, packed) for i in (0, 2, 4)]
        assert (view.batch().array is not None) == packed

    @pytest.mark.parametrize("packed", [False, True],
                             ids=["tuples", "packed"])
    def test_puts_after_a_probe_are_found(self, packed):
        view = MaterializedView("v", ["id", "crop"], ["label"])
        view.put(self._key(1, 9, packed), [{"label": "car"}])
        assert view.keys_with_prefix(1) == [self._key(1, 9, packed)]
        view.put(self._key(1, 1, packed), [{"label": "bus"}])
        view.put(self._key(2, 0, packed), [{"label": "van"}])
        assert view.keys_with_prefix(1) == [self._key(1, 9, packed),
                                            self._key(1, 1, packed)]
        assert view.keys_with_prefix(2) == [self._key(2, 0, packed)]

    @pytest.mark.parametrize("packed", [False, True],
                             ids=["tuples", "packed"])
    def test_re_put_never_duplicates_prefix_keys(self, packed):
        view = MaterializedView("v", ["id", "crop"], ["label"])
        view.put(self._key(1, 0, packed), [{"label": "car"}])
        view.keys_with_prefix(1)
        for _ in range(3):
            view.put(self._key(1, 0, packed), [{"label": "ignored"}])
        assert view.keys_with_prefix(1) == [self._key(1, 0, packed)]

    @pytest.mark.parametrize("packed", [False, True],
                             ids=["tuples", "packed"])
    def test_prefix_probe_matches_keys_for_every_prefix(self, packed):
        view = MaterializedView("v", ["id", "crop"], ["label"])
        keys = [self._key(i % 4, 19 - i, packed) for i in range(20)]
        half = len(keys) // 2
        for key in keys[:half]:
            view.put(key, [])
        view.keys_with_prefix(0)  # a probe mid-stream
        for key in keys[half:]:
            view.put(key, [])
        for prefix in range(5):
            expected = [k for k in keys if k[0] == prefix]
            assert view.keys_with_prefix(prefix) == expected


class TestViewStore:
    def test_create_or_get_returns_same_view(self):
        store = ViewStore()
        a = store.create_or_get("v", ["id"], ["x"])
        b = store.create_or_get("v", ["id"], ["x"])
        assert a is b

    def test_layout_conflict_rejected(self):
        store = ViewStore()
        store.create_or_get("v", ["id"], ["x"])
        with pytest.raises(StorageError):
            store.create_or_get("v", ["id", "bbox"], ["x"])

    def test_total_bytes_and_drop(self):
        store = ViewStore()
        view = store.create_or_get("v", ["id"], ["x"])
        view.put((1,), [{"x": 1}])
        assert store.total_serialized_bytes() > 0
        store.drop_all()
        assert store.names() == []

    def test_drop_single_view(self):
        store = ViewStore()
        store.create_or_get("keep", ["id"], ["x"]).put((1,), [{"x": 1}])
        store.create_or_get("gone", ["id"], ["x"]).put((2,), [{"x": 2}])
        assert store.drop("gone") > 0  # freed-byte estimate
        assert store.names() == ["keep"]
        assert "gone" not in store
        assert store.get("gone") is None
        assert store.drop("gone") == 0  # already gone
        assert store.drop("never-existed") == 0
        # Dropping frees the name for a fresh (empty) view.
        fresh = store.create_or_get("gone", ["id"], ["y"])
        assert fresh.num_keys == 0

    def test_a_memory_store_answers_the_durability_surface(self):
        """Owners of reuse state call the durability hooks on any store;
        in memory each one is inert."""
        store = ViewStore()
        store.create_or_get("v", ["id"], ["x"]).put((1,), [{"x": 1}])
        assert not store.is_durable
        assert store.recovery_report is None
        assert list(store.recovered_lineage) == []
        assert store.store_snapshot() is None
        store.log_lineage([{"lineage_id": "v#g1", "view": "v"}])
        store.commit()
        store.flush()
        store.close()
        assert store.get("v").get((1,)) == ({"x": 1},)


class TestVideoTableScan:
    def test_scan_covers_range(self, tiny_video):
        table = VideoTable(tiny_video)
        batches = list(table.scan(10, 30, batch_rows=8))
        ids = [i for b in batches for i in b.column("id")]
        assert ids == list(range(10, 30))
        assert all(b.num_rows <= 8 for b in batches)

    def test_scan_clamps_stop(self, tiny_video):
        table = VideoTable(tiny_video)
        ids = [i for b in table.scan(395, 500) for i in b.column("id")]
        assert ids == [395, 396, 397, 398, 399]

    def test_timestamps_follow_fps(self, tiny_video):
        table = VideoTable(tiny_video)
        batch = next(table.scan(100, 101))
        assert batch.column("timestamp")[0] == pytest.approx(100 / 25.0)

    def test_frame_column_is_lazy_and_reads_as_frames(self, tiny_video,
                                                       monkeypatch):
        table = VideoTable(tiny_video)
        built = []
        frame = type(tiny_video).frame
        monkeypatch.setattr(type(tiny_video), "frame",
                            lambda video, i: built.append(i) or
                            frame(video, i))
        batch = next(table.scan(100, 110))
        column = batch.column("frame")
        assert isinstance(column, FrameColumn) and len(column) == 10
        picked = batch.filter_mask(np.arange(10) % 3 == 0).take([3, 0])
        assert frame_ids(picked.column("frame"))[1].tolist() == [109, 100]
        assert frame_ids(batch.slice(2, 4).column("frame"))[1].tolist() == \
            [102, 103]
        assert built == []  # ids came from the range, not from frames
        assert list(picked.column("frame")) == [
            frame(tiny_video, 109), frame(tiny_video, 100)]
        assert column[-1] == frame(tiny_video, 109)
        assert column[1:3] == [frame(tiny_video, 101),
                               frame(tiny_video, 102)]
        assert Batch.concat([batch, batch]).column("frame")[10] == \
            frame(tiny_video, 100)

    def test_frame_ids_of_a_frame_list(self, tiny_video):
        frames = [tiny_video.frame(7), tiny_video.frame(3)]
        name, ids = frame_ids(frames)
        assert name == "tiny" and ids.tolist() == [7, 3]
        other = Frame("other", 1, 10, 10)
        with pytest.raises(ExecutorError, match="spans videos"):
            frame_ids(frames + [other])

    def test_engine_registration(self, tiny_video):
        engine = StorageEngine()
        engine.register_video(tiny_video)
        assert "tiny" in engine
        assert engine.table("tiny").num_rows == 400
        with pytest.raises(StorageError):
            engine.register_video(tiny_video)
        with pytest.raises(StorageError):
            engine.table("nope")
