"""Materialized views over UDF results.

A :class:`MaterializedView` records, for one UDF signature, which input keys
have been computed and what output rows each produced.  Keys identify UDF
inputs: ``(frame_id,)`` for detectors, ``(frame_id, bbox_key)`` for patch
classifiers.  A key may map to *zero* output rows (e.g. a frame with no
detections) — recording emptiness is what lets the conditional APPLY
operator skip re-evaluating the UDF on such inputs.

A view is columnar: one append-only typed column per output column
(:func:`~repro.storage.batch.stored_column`: dictionary codes, float64,
boxes with derived key and area arrays, or a list), an int64 row-offset
array, and one ``key -> ordinal`` index — the table-with-an-index the
paper's LEFT OUTER JOIN rewrite (section 4.4) probes — in the form the
keys take.  While every key is ``(frame_id,)`` (detectors, frame
filters) it is a dense ``ordinal_of_frame`` array; while every key is a
``(frame_id, box)`` pair that packs into one int64 (:func:`pack_patch_keys`,
patch classifiers) it is the packed keys in ordinal order plus a sorted
copy, so a probe by an int array is one ``np.searchsorted`` and a
frame's boxes one range; from the first key of neither form on it is a
dict of key tuples.  Key tuples are built only where the API hands them
out or takes them, never for an array write or probe: a stored packed
patch key costs about 48 bytes.  Writers hand over column slices
(:meth:`MaterializedView.put_many`), keyed by the same int arrays a
probe takes or by key tuples; readers get a :class:`ViewHits` whose
columns are zero-copy views over the stored columns, and the durable
store logs and snapshots the same
:class:`~repro.storage.columnar.ColumnBatch` a write appended.

A view's size (:meth:`MaterializedView.serialized_bytes`) is the size of
the buffers the codec writes for it, read from its key form and typed
columns (:meth:`~repro.storage.batch.StoredColumn.nbytes`) after every
append; only keys and columns of no typed form are dumped, as JSON.
"""

from __future__ import annotations

import threading
from itertools import chain, count, repeat
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import StorageError
from repro.obs.lineage import (
    record_view_create,
    record_view_probe,
    record_view_probe_many,
    record_view_write,
)
from repro.storage.batch import (
    ColumnView,
    StoredColumn,
    append_column,
    grow,
    json_list_bytes,
    materialize_column,
    typed_form,
)
from repro.storage.columnar import ColumnBatch, json_chars, row_ranges

Key = tuple[Hashable, ...]

#: Serialized size of an *empty* view: the codec's JSON header line (key
#: kind, column forms, buffer sizes) and the compressed stream's framing,
#: rounded down so the estimate over-approximates only through the
#: buffer term.
SERIALIZED_BASE_OVERHEAD = 512

#: Bits of a packed patch key: the frame id, then x1, y1, x2, y2.
_FRAME_BITS, _COORD_BITS = 19, 11
_COORD_LIMIT = 1 << _COORD_BITS
#: Right shifts that take a packed key to its frame id, x1, y1, x2, y2.
_PART_SHIFTS = np.array([4, 3, 2, 1, 0], dtype=np.int64) * _COORD_BITS
#: Right shift that takes a packed key to its frame id.
PACKED_FRAME_SHIFT = 4 * _COORD_BITS

#: Frame ids from here on drop the dense ``ordinal_of_frame`` index: it
#: holds one int64 per id below the largest stored one.
_DENSE_FRAME_LIMIT = 1 << 24

#: Compressed bytes per byte of the codec's buffers.  Calibrated against
#: the views of the benchmark videos (about 8 vehicles a frame): a
#: detector view's random float boxes and scores compress worst, to 0.79
#: of their buffers, so 0.80 over-estimates each of them — the safe
#: direction for byte-budget enforcement.  Denser detector output
#: compresses a little less (0.81 at 20 vehicles a frame).
SERIALIZED_COMPRESSION_FACTOR = 0.80


class ViewHits:
    """Result of one bulk probe: a slot per probed key, columns per hit row.

    ``counts[i]`` is None when key ``i`` was never computed, else the
    number of rows it produced; :meth:`column` yields the stored values of
    all hit rows, in probe order.  ``len()`` is the number of keys probed.
    ``ordinals`` are the view ordinals of the keys that hit, in probe
    order: an int64 array the server attributes hits by.  Over a resident
    view the columns are zero-copy :class:`ColumnView` objects on the
    view's own columns (append-only, so a row once indexed never moves);
    pickling — the peer RPC — ships the gathered values and no ordinals.
    """

    __slots__ = ("counts", "num_rows", "ordinals", "_columns", "_rows",
                 "_hits")

    def __init__(self, counts: list, columns: Mapping[str, Sequence],
                 rows: np.ndarray | None = None,
                 hits: tuple[np.ndarray, np.ndarray] | None = None,
                 ordinals: np.ndarray | None = None):
        self.counts = counts
        self.num_rows = (sum(filter(None, counts)) if rows is None
                         else len(rows))
        self.ordinals = ordinals
        self._columns = columns
        self._rows = rows
        self._hits = hits

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def num_hits(self) -> int:
        return len(self.counts) - self.counts.count(None)

    def hit_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, counts)``: the probed keys that hit, as positions
        in probe order, and their row counts — two int64 arrays."""
        if self._hits is None:
            positions = [i for i, n in enumerate(self.counts)
                         if n is not None]
            self._hits = (np.array(positions, dtype=np.int64),
                          np.array([self.counts[i] for i in positions],
                                   dtype=np.int64))
        return self._hits

    def column(self, name: str):
        if not self.num_rows:
            return []  # nothing hit (or the view is gone on its owner)
        values = self._columns[name]
        return values if self._rows is None else ColumnView(values,
                                                            self._rows)

    def __reduce__(self):
        return ViewHits, (self.counts, {
            name: materialize_column(self.column(name))
            for name in self._columns})


class _PackedKeys:
    """The index of a view keyed by packed patch keys: the keys in ordinal
    order, and a sorted copy with the ordinal of each sorted key.

    A probe is one ``np.searchsorted``; a frame's boxes are one range of
    the sorted keys, since a packed key's frame id is its top bits.  A
    write merges its keys in with one ``np.searchsorted`` and
    ``np.insert``.  ``keys`` has spare capacity past the view's
    ``num_keys``; the index is never empty.
    """

    __slots__ = ("keys", "sorted", "order")

    def __init__(self) -> None:
        self.keys = np.zeros(0, dtype=np.int64)
        self.sorted = np.zeros(0, dtype=np.int64)
        #: ``order[i]`` is the ordinal of ``sorted[i]``.
        self.order = np.zeros(0, dtype=np.int64)

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The ordinal of each of ``keys``, -1 where not stored."""
        at = np.minimum(np.searchsorted(self.sorted, keys),
                        len(self.sorted) - 1)
        hit = self.sorted[at] == keys
        found = np.full(len(keys), -1, dtype=np.int64)
        found[hit] = self.order[at[hit]]
        return found

    def add(self, keys: np.ndarray, start: int) -> None:
        """Index ``keys`` — none stored yet, no repeats — as ordinals
        ``start, start + 1, ...``."""
        stop = start + len(keys)
        self.keys = grow(self.keys, stop, 0)
        self.keys[start:stop] = keys
        order = np.argsort(keys)
        fresh = keys[order]
        at = np.searchsorted(self.sorted, fresh)
        self.sorted = np.insert(self.sorted, at, fresh)
        self.order = np.insert(self.order, at, order + start)

    def between(self, low: int, high: int) -> np.ndarray:
        """The ordinals of the keys in ``[low, high)``, ascending."""
        first, last = np.searchsorted(self.sorted, (low, high))
        return np.sort(self.order[first:last])


class MaterializedView:
    """Append-only columnar map from UDF input keys to output rows."""

    def __init__(self, name: str, key_columns: list[str],
                 output_columns: list[str]):
        if not key_columns:
            raise StorageError(f"view {name!r} needs at least one key column")
        self.name = name
        self.key_columns = list(key_columns)
        self.output_columns = list(output_columns)
        #: Optional write observer (duck-typed; see ``repro.store``): gets
        #: ``view_put_many(view, batch)`` with the freshly inserted
        #: :class:`ColumnBatch` after it commits, *outside* the view lock.
        #: Durable backends append it to the WAL; re-puts are not reported.
        self.listener = None
        #: Keys are numbered in insertion order; the rows of ordinal ``i``
        #: are ``[_offsets[i], _offsets[i + 1])`` of every column.
        #: ``_offsets`` is an int64 array with spare capacity (entries
        #: past ``_num_keys`` are not yet written).
        self._num_keys = 0
        self._offsets = np.zeros(1, dtype=np.int64)
        #: Whether the first key stored is a ``(frame_id, box)`` pair: an
        #: int array probe or write then holds packed patch keys, not
        #: frame ids.  An array write to an empty view sets it from the
        #: writer's ``patch_keys``.
        self._patch_keyed = False
        #: The key -> ordinal index, in the form the keys take; exactly
        #: one of the three is set.  Frame ids (where an empty view
        #: starts): the dense ordinal of each id (-1: not stored), while
        #: every key is ``(frame_id,)`` with an int in ``[0,
        #: _DENSE_FRAME_LIMIT)``.  Packed patch keys
        #: (:func:`pack_patch_keys`): a :class:`_PackedKeys`, while every
        #: key packs.  Else, from the first key of neither form on, a
        #: dict of the key tuples.
        self._ordinal_of_frame: np.ndarray | None = np.zeros(
            0, dtype=np.int64)
        self._packed: _PackedKeys | None = None
        self._ordinals: dict[Key, int] | None = None
        #: Beside the dict only: its keys by first component, in
        #: insertion order — :meth:`keys_with_prefix`.
        self._keys_by_first: dict[Hashable, list[Key]] | None = None
        #: Typed columns (:func:`~repro.storage.batch.stored_column`); an
        #: empty list until the first rows arrive.
        self._columns: dict[str, Sequence] = {
            col: [] for col in output_columns}
        #: Summed JSON length of the keys while they have no array form
        #: (:meth:`batch` gives them as tuples), else None.
        self._key_chars: int | None = None
        #: Summed JSON length of the values of every list column.
        self._json_chars: dict[str, int] = {}
        #: The codec's buffer bytes, set by every append so
        #: :meth:`serialized_bytes` is O(1): the eviction hot path.
        self._buffer_bytes = self._codec_bytes()
        #: Guards index, offsets and columns as one unit.  Without it a
        #: probe could find an ordinal whose offsets are not written yet,
        #: or read an index an append is replacing — so *every* mutation
        #: and every lookup runs under this lock.  Uncontended
        #: acquisition is tens of nanoseconds, irrelevant next to the
        #: work it protects.
        self._lock = threading.Lock()

    # -- writes ----------------------------------------------------------------

    def put_many(self, keys: list[Key] | np.ndarray, counts: list[int],
                 columns: Mapping[str, list],
                 patch_keys: bool = False) -> list[bool]:
        """Record that ``keys`` were computed, under **one** lock acquisition.

        ``counts[i]`` is the number of output rows of ``keys[i]`` and every
        list of ``columns`` (one per output column) holds the rows of all
        keys back to back — the shape the producing operator already has.

        ``keys`` are key tuples or a 1-D int array read as :meth:`get_many`
        reads one: packed patch keys (:func:`pack_patch_keys`) when
        ``patch_keys``, else frame ids.  The writer says which, from its
        UDF kind: frame filters and patch classifiers both key their views
        by ``["id", "bbox_key"]``, so an empty view cannot tell.  An array
        of the other form than the view's stored keys is refused.  The
        array feeds the view's index, byte count, the listener's batch and
        the lineage hooks as it is: no key tuple is built from it.

        Returns one inserted-flag per key (in input order): True when the
        key was newly added, False when it already existed (including keys
        duplicated earlier in ``keys`` — the first occurrence wins).
        Re-putting is a no-op because results are deterministic, which
        makes concurrent appends from overlapping queries idempotent;
        callers use the flags for write attribution and for charging
        materialization costs per key.
        """
        array = None
        if isinstance(keys, np.ndarray):
            array = self._int64_keys(keys)
            if patch_keys and len(array) and array.min() < 0:
                raise StorageError(
                    f"view {self.name!r}: packed patch keys are "
                    "non-negative")
            keys = None
        inserted, fresh = self._append(ColumnBatch(
            keys, counts, {col: columns[col] for col in self.output_columns},
            array=array, patch_keys=patch_keys), writer=True)
        if len(fresh):
            listener = self.listener
            if listener is not None:
                listener.view_put_many(self, fresh)
            record_view_write(
                self.name, fresh.keys if fresh.array is None
                else key_frame_ids(fresh.array, fresh.patch_keys),
                int(fresh.counts.sum()))
        return inserted

    def put(self, key: Key, rows: Iterable[Mapping]) -> bool:
        """Single-key :meth:`put_many` taking row dicts."""
        return self.put_many(*one_entry(key, rows, self.output_columns))[0]

    def restore(self, batch: ColumnBatch) -> int:
        """Append entries decoded from a snapshot or WAL record; returns
        how many keys were new.  Replaying stored entries is not query
        work, so neither the listener nor the lineage hooks hear of it."""
        return sum(self._append(batch)[0])

    def _append(self, batch: ColumnBatch, writer: bool = False
                ) -> tuple[list[bool], ColumnBatch]:
        """Insert the not-yet-stored entries of ``batch``; returns the
        per-key inserted flags and the batch of what was inserted, its
        keys as an array whenever they have one.  A ``writer``'s key
        array must be of the view's form (see :meth:`put_many`)."""
        size = len(batch.keys if batch.array is None else batch.array)
        rows = int(batch.counts.sum())
        if len(batch.counts) != size or any(
                len(batch.columns[col]) != rows
                for col in self.output_columns):
            raise StorageError(
                f"view {self.name!r}: ragged column batch "
                f"({size} keys, {rows} rows)")
        if not size:
            return [], _nothing(batch)
        with self._lock:
            old = self._num_keys
            if writer and batch.array is not None and old \
                    and batch.patch_keys != self._patch_keyed:
                form = "packed patch keys" if batch.patch_keys \
                    else "frame ids"
                raise StorageError(f"view {self.name!r}: an array of "
                                   f"{form} does not key this view")
            if old:
                patch_keyed = self._patch_keyed
            elif batch.array is not None:
                patch_keyed = batch.patch_keys
            else:
                patch_keyed = len(batch.keys[0]) == 2
            array = self._array_form(batch, patch_keyed)
            ordinals = self._ordinals
            if array is not None:
                # Fresh keys, first occurrences only, in batch order.
                take = np.flatnonzero(self._find(array) < 0)
                _, first = np.unique(array[take], return_index=True)
                if len(first) < len(take):
                    take = take[np.sort(first)]
                flags = np.zeros(size, dtype=bool)
                flags[take] = True
                inserted = flags.tolist()
            else:
                if batch.keys is None:
                    batch.keys = array_key_tuples(batch.array,
                                                  batch.patch_keys)
                if ordinals is None:  # the view's keys take a new form
                    ordinals = dict(zip(self._key_tuples(), count()))
                if not any(map(ordinals.__contains__, batch.keys)) \
                        and len(set(batch.keys)) == size:
                    # The APPLY operators write misses only, no repeats.
                    inserted, take = [True] * size, range(size)
                else:
                    firsts: dict[Key, int] = {}  # fresh key -> first index
                    for index, key in enumerate(batch.keys):
                        if key not in ordinals:
                            firsts.setdefault(key, index)
                    inserted = [firsts.get(key) == index
                                for index, key in enumerate(batch.keys)]
                    take = list(firsts.values())
            new = len(take)
            if not new:
                return inserted, _nothing(batch)
            if new != size:
                batch = batch.select(take)
                if array is not None:
                    array = array[take]
            if array is None:
                array = self._array_form(batch, patch_keyed)
            # What can refuse the batch runs before anything changes.
            key_chars = self._key_chars
            if array is None:
                # The keys have no array form: the codec dumps them all.
                key_chars = (json_chars([*ordinals, *batch.keys])
                             if key_chars is None
                             else key_chars + json_chars(batch.keys))
            columns = self._columns
            forms, chars = {}, {}
            for col in self.output_columns:
                values = batch.columns[col]
                if not len(values):
                    continue
                stored = columns[col]
                forms[col] = form = typed_form(stored, values)
                if form is None:  # a list: the codec dumps it
                    values = materialize_column(values)
                    chars[col] = (
                        self._json_chars.get(col, 0) + json_chars(values)
                        if isinstance(stored, list)
                        else json_chars(stored[:] + values))
            self._patch_keyed = patch_keyed
            if array is None:
                ordinals.update(zip(batch.keys, count(old)))
                by_first = self._keys_by_first
                if by_first is None:  # the first keys of the tuple form
                    by_first = self._keys_by_first = {}
                    fresh_keys = ordinals
                else:
                    fresh_keys = batch.keys
                for key in fresh_keys:
                    by_first.setdefault(key[0], []).append(key)
                self._ordinals = ordinals
                self._ordinal_of_frame = self._packed = None
            elif patch_keyed:
                if self._packed is None:
                    self._packed, self._ordinal_of_frame = _PackedKeys(), None
                self._packed.add(array, old)
            else:
                dense = grow(self._ordinal_of_frame, int(array.max()) + 1,
                             -1)
                dense[array] = np.arange(old, old + new)
                self._ordinal_of_frame = dense
            self._num_keys = old + new
            offsets = grow(self._offsets, old + new + 1, 0)
            offsets[old + 1:old + new + 1] = (np.cumsum(batch.counts)
                                              + offsets[old])
            self._offsets = offsets
            for col, form in forms.items():
                columns[col] = append_column(columns[col],
                                             batch.columns[col], form)
            self._key_chars = key_chars
            self._json_chars.update(chars)
            self._buffer_bytes = self._codec_bytes()
        if array is not None:
            return inserted, ColumnBatch(None, batch.counts, batch.columns,
                                         array=array, patch_keys=patch_keyed)
        # Key tuples: the batch still logs as an array when it has one.
        if batch.array is None:
            frames, packed = _key_arrays(batch.keys)
            batch.array = packed if frames is None else frames
            batch.patch_keys = frames is None and packed is not None
        return inserted, batch

    def _array_form(self, batch: ColumnBatch, patch_keyed: bool
                    ) -> np.ndarray | None:
        """``batch``'s keys as the int64 array the view's index takes:
        packed patch keys when ``patch_keyed``, else frame ids that fit the
        dense index; None when the view keeps key tuples or one of the
        keys has no such form.  Caller holds the view lock."""
        if self._ordinals is not None:
            return None
        if batch.array is not None:
            array = batch.array if batch.patch_keys == patch_keyed else None
        else:
            frames, packed = _key_arrays(batch.keys)
            array = packed if patch_keyed else frames
        if array is not None and not patch_keyed and (
                array.min() < 0 or array.max() >= _DENSE_FRAME_LIMIT):
            return None
        return array

    def _codec_bytes(self) -> int:
        """Size of the buffers :meth:`batch` encodes to: the keys (int64,
        else JSON), the int64 counts, and each column's (a typed column's
        :meth:`~repro.storage.batch.StoredColumn.nbytes`, else JSON).
        Caller holds the view lock."""
        n = self._num_keys
        key_chars = self._key_chars
        total = 8 * n + (8 * n if key_chars is None
                         else json_list_bytes(key_chars, n))
        for col, values in self._columns.items():
            total += (values.nbytes() if isinstance(values, StoredColumn)
                      else json_list_bytes(self._json_chars.get(col, 0),
                                           len(values)))
        return total

    def _int64_keys(self, keys: np.ndarray) -> np.ndarray:
        """``keys``, an array of keys, as int64; refuses any other
        shape or type."""
        if keys.ndim != 1 or keys.dtype.kind not in "iu" \
                or not np.can_cast(keys.dtype, np.int64):
            raise StorageError(
                f"view {self.name!r}: array keys must be a 1-D int64 array")
        return keys.astype(np.int64, copy=False)

    # -- index ------------------------------------------------------------------

    def _find(self, keys: np.ndarray) -> np.ndarray:
        """The ordinal of each key of an int64 array in the view's array
        form, -1 where not stored.  Caller holds the view lock; the view
        does not keep key tuples."""
        if self._packed is not None:
            return self._packed.find(keys)
        dense = self._ordinal_of_frame
        found = np.full(len(keys), -1, dtype=np.int64)
        inside = (keys >= 0) & (keys < len(dense))
        found[inside] = dense[keys[inside]]
        return found

    def _ordinals_of(self, keys: list[Key] | np.ndarray) -> np.ndarray:
        """The ordinal of each probed key, -1 where not stored: key
        tuples, or an int array in the view's array form.  Caller holds
        the view lock."""
        if self._ordinals is not None:
            if isinstance(keys, np.ndarray):
                keys = self.key_tuples(keys)
            return np.fromiter(map(self._ordinals.get, keys, repeat(-1)),
                               dtype=np.int64, count=len(keys))
        if not isinstance(keys, np.ndarray):
            keys = np.fromiter(
                (_array_key(key, self._patch_keyed) for key in keys),
                dtype=np.int64, count=len(keys))
        return self._find(keys)

    def _key_array(self) -> np.ndarray | None:
        """The keys in ordinal order as an int64 array, or None when the
        view keeps key tuples.  Caller holds the view lock."""
        if self._ordinals is not None:
            return None
        if self._packed is not None:
            return self._packed.keys[:self._num_keys]
        dense = self._ordinal_of_frame
        stored = dense >= 0
        array = np.empty(self._num_keys, dtype=np.int64)
        array[dense[stored]] = np.flatnonzero(stored)
        return array

    def _key_tuples(self) -> list[Key]:
        """Every key tuple in ordinal order.  Caller holds the view lock."""
        if self._ordinals is not None:
            return list(self._ordinals)
        return array_key_tuples(self._key_array(), self._patch_keyed)

    # -- reads ------------------------------------------------------------------

    def __contains__(self, key: Key) -> bool:
        return self.ordinal_of(key) >= 0

    def ordinal_of(self, key: Key) -> int:
        """The ordinal of ``key`` (its place in insertion order), -1 when
        it was never computed."""
        with self._lock:
            return int(self._ordinals_of([key])[0])

    def get_many(self, keys: Iterable[Key] | np.ndarray) -> ViewHits:
        """Bulk probe: the LEFT OUTER JOIN of ``keys`` against the view.

        ``keys`` are key tuples or a 1-D int array: frame ids for a view
        keyed by ``(frame_id,)``, answered from the dense
        ``ordinal_of_frame`` array (negative or never-stored ids miss);
        packed patch keys (:func:`pack_patch_keys`) for a view keyed by
        ``(frame_id, box)``, answered by one ``np.searchsorted`` of the
        sorted keys.  Key tuples take the array form first; a view that
        keeps key tuples answers an array as its key tuples
        (:meth:`key_tuples`).  Either way the probe is one ordinal array
        and the row ranges one ``np.repeat``, under one lock acquisition —
        this is what lets the APPLY operators resolve a batch's hits and
        misses without taking the view lock once per row.
        """
        keys = (self._int64_keys(keys) if isinstance(keys, np.ndarray)
                else list(keys))
        with self._lock:
            found = self._ordinals_of(keys)
            hit = found >= 0
            ordinals = found[hit]
            starts = self._offsets[ordinals]
            lengths = self._offsets[ordinals + 1] - starts
        rows = row_ranges(starts, lengths)
        per_key = np.zeros(len(found), dtype=np.int64)
        per_key[hit] = lengths
        counts = per_key.astype(object)
        counts[~hit] = None
        hits = ViewHits(counts.tolist(), self._columns, rows,
                        (np.flatnonzero(hit), lengths), ordinals)
        record_view_probe_many(self.name, hits)
        return hits

    def get(self, key: Key) -> tuple[dict, ...] | None:
        """Stored output rows for ``key`` as dicts, or None if never
        computed (a single-key adapter: fuzzy reuse, tests)."""
        with self._lock:
            ordinal = int(self._ordinals_of([key])[0])
            rows = None if ordinal < 0 else self._rows_of(ordinal)
        record_view_probe(self.name, rows)
        return rows

    def _rows_of(self, ordinal: int) -> tuple[dict, ...]:
        start, stop = self._offsets[ordinal:ordinal + 2].tolist()
        columns = {col: values[start:stop]
                   for col, values in self._columns.items()}
        return tuple({col: values[row] for col, values in columns.items()}
                     for row in range(stop - start))

    def key_tuples(self, keys: np.ndarray) -> list[Key]:
        """The key tuples an int array probe stands for (see
        :meth:`get_many`)."""
        return array_key_tuples(keys, self._patch_keyed)

    def keys(self) -> list[Key]:
        """Every key, in insertion order."""
        with self._lock:
            return self._key_tuples()

    def keys_with_prefix(self, first_component: Hashable) -> list[Key]:
        """All keys whose first component equals ``first_component``, in
        insertion order.

        Backs fuzzy bounding-box reuse: enumerate the stored boxes of one
        frame to find a spatial near-match.  Over packed patch keys they
        are one range of the sorted keys; over key tuples, one list of
        the keys by first component.
        """
        with self._lock:
            if self._keys_by_first is not None:
                return list(self._keys_by_first.get(first_component, ()))
            frame_id = _array_key((first_component,), False)
            if frame_id < 0:
                return []
            if self._packed is None:
                dense = self._ordinal_of_frame
                return ([(frame_id,)] if frame_id < len(dense)
                        and dense[frame_id] >= 0 else [])
            if frame_id >= 1 << _FRAME_BITS:
                return []
            low = frame_id << PACKED_FRAME_SHIFT
            ordinals = self._packed.between(
                low, low + (1 << PACKED_FRAME_SHIFT))
            return unpack_patch_keys(self._packed.keys[ordinals])

    @property
    def num_keys(self) -> int:
        return self._num_keys

    @property
    def num_output_rows(self) -> int:
        with self._lock:
            return int(self._offsets[self._num_keys])

    def batch(self) -> ColumnBatch:
        """Consistent view of all entries, in insertion order: zero-copy
        views of the typed columns, which only ever grow, and the keys as
        the array the view's index holds (else as tuples)."""
        with self._lock:
            offsets = self._offsets[:self._num_keys + 1]
            array = self._key_array()
            return ColumnBatch(
                list(self._ordinals) if array is None else None,
                np.diff(offsets),
                {col: ColumnView(values, stop=int(offsets[-1]))
                 for col, values in self._columns.items()},
                array=array, patch_keys=self._patch_keyed)

    def items(self) -> list[tuple[Key, tuple[dict, ...]]]:
        """Consistent snapshot of all (key, row dicts) entries."""
        with self._lock:
            return [(key, self._rows_of(ordinal))
                    for ordinal, key in enumerate(self._key_tuples())]

    # -- serialization ----------------------------------------------------------

    def serialized_bytes(self) -> int:
        """Estimated compressed size of :meth:`serialize` output, in O(1).

        ``SERIALIZED_BASE_OVERHEAD`` plus ``SERIALIZED_COMPRESSION_FACTOR``
        times the size of the buffers :meth:`batch` encodes to
        (:meth:`~repro.storage.columnar.ColumnBatch.encode`): int64 keys
        and counts, int32 codes and the vocabulary, float64 values and
        boxes, and JSON only for keys and columns of no typed form.  The
        size follows from the entries alone, so a view rebuilt from a
        snapshot or a WAL has its writer's.  It over-estimates
        :meth:`serialize` on the benchmark videos' views (see
        ``SERIALIZED_COMPRESSION_FACTOR``), so the footprint built on it
        (§5.2's) errs conservative.
        """
        return SERIALIZED_BASE_OVERHEAD + int(
            self._buffer_bytes * SERIALIZED_COMPRESSION_FACTOR)

    def serialize(self) -> bytes:
        """Serialize all entries (the compressed :class:`ColumnBatch`)."""
        return self.batch().encode(compress=True)


class ViewStore:
    """All materialized views of a session, by view name.

    It is also the durability surface the owners of reuse state call
    (sessions, servers, pool shards): an in-memory store is not durable,
    so its hooks do nothing, and :class:`~repro.store.DurableViewStore`
    overrides them to log, snapshot and recover.
    """

    #: Whether the views outlive the process.
    is_durable = False
    #: What opening the store recovered (a
    #: :class:`~repro.store.layout.RecoveryReport`), else None.
    recovery_report = None
    #: Persisted lineage ledger records, for ``ViewLedger.restore``.
    recovered_lineage: tuple = ()

    def __init__(self) -> None:
        self._views: dict[str, MaterializedView] = {}
        #: Optional :class:`repro.obs.lineage.ViewLedger`: told about
        #: creations (generation bump) and drops; None costs nothing.
        self.ledger = None
        #: Guards the name -> view map.  Two threads racing to create the
        #: same view must receive the *same* instance, or one thread's
        #: entries would be silently lost when the other's map write wins.
        self._lock = threading.Lock()

    def create_or_get(self, name: str, key_columns: list[str],
                      output_columns: list[str]) -> MaterializedView:
        with self._lock:
            view = self._views.get(name)
            if view is None:
                view = MaterializedView(name, key_columns, output_columns)
                # Log the creation and attach the WAL listener *before*
                # the view becomes reachable through the map — a racing
                # writer must never see a view whose puts would miss the
                # WAL.  Creation is rare (once per view name), so the
                # control-log fsync under the lock is immaterial.
                self.view_created(view)
                ledger = self.ledger
                if ledger is not None:
                    ledger.on_create(name, key_columns, output_columns)
                    record_view_create(name)
                self._views[name] = view
                return view
        if (view.key_columns != list(key_columns)
                or view.output_columns != list(output_columns)):
            raise StorageError(
                f"view {name!r} exists with a different layout")
        return view

    def get(self, name: str) -> MaterializedView | None:
        return self._views.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._views)

    def total_serialized_bytes(self) -> int:
        with self._lock:
            views = list(self._views.values())
        return sum(v.serialized_bytes() for v in views)

    def view_bytes(self, names) -> dict[str, int]:
        """Serialized sizes of the named views.

        Observability-path accessor: no per-view lock acquisition
        (``serialized_bytes`` is O(1)), so the lineage ledger's
        post-query fold cannot perturb flight-record stage attribution.
        """
        sizes: dict[str, int] = {}
        with self._lock:
            for name in names:
                view = self._views.get(name)
                if view is not None:
                    sizes[name] = view.serialized_bytes()
        return sizes

    def drop(self, name: str) -> int:
        """Drop one view; returns the (estimated) bytes it freed, 0 if
        the view did not exist.

        An existing view always frees a non-zero amount (the serialized
        container overhead), so truthiness still answers "did it exist".
        The :meth:`view_dropped` hook runs *after* the map removal so the
        tombstone a durable store logs cannot race a resurrection through
        :meth:`create_or_get` (which would re-log a create afterwards).
        """
        with self._lock:
            view = self._views.pop(name, None)
        if view is None:
            return 0
        freed = view.serialized_bytes()
        view.listener = None
        ledger = self.ledger
        if ledger is not None:
            ledger.on_drop(name)
        self.view_dropped(name)
        return freed

    def drop_all(self) -> int:
        """Drop every view; returns the total (estimated) bytes freed."""
        with self._lock:
            names = list(self._views)
        return sum(self.drop(name) for name in names)

    # -- durability hooks (no-ops in memory) -----------------------------------

    def view_created(self, view: MaterializedView) -> None:
        """A view is about to become reachable (store lock held)."""

    def view_dropped(self, name: str) -> None:
        """A view left the map."""

    def log_lineage(self, records) -> None:
        """Persist lineage ledger export records."""

    def commit(self) -> None:
        """Make the statement's control records durable."""

    def flush(self) -> None:
        """Make every acknowledged write durable."""

    def close(self) -> None:
        """Snapshot and release the store's files."""

    def store_snapshot(self):
        """Store health for ``repro store stats``; None without files."""
        return None


def one_entry(key: Key, rows: Iterable[Mapping], output_columns: list[str]
              ) -> tuple[list[Key], list[int], dict[str, list]]:
    """``put_many`` arguments for one key and its row dicts."""
    rows = list(rows)
    return [key], [len(rows)], {col: [row[col] for row in rows]
                                for col in output_columns}


def pack_key_tuples(keys: list[Key]) -> np.ndarray | None:
    """:func:`pack_patch_keys` of a non-empty list of key tuples, or None
    when one of them is not a ``(frame_id, (x1, y1, x2, y2))`` pair of
    ints or does not pack.  A key that merely equals a packable one (a
    float coordinate, a bool) does not pack.  The type checks are C-level
    passes over the whole list."""
    if set(map(len, keys)) != {2}:
        return None
    frame_ids, boxes = zip(*keys)
    parts = chain(frame_ids, chain.from_iterable(boxes))
    if set(map(type, boxes)) != {tuple} or set(map(len, boxes)) != {4} \
            or set(map(type, parts)) != {int}:
        return None
    try:
        return pack_patch_keys(np.array(frame_ids, dtype=np.int64),
                               np.array(boxes, dtype=np.int64))
    except OverflowError:  # beyond int64: out of range anyway
        return None


def packable_patch_keys(frame_ids: np.ndarray, boxes: np.ndarray
                        ) -> np.ndarray:
    """Whether ``(frame_ids[i], boxes[i])`` packs, for every row: a frame
    id in ``[0, 2**19)`` and rounded coordinates (an ``(n, 4)`` int64
    array) in ``[0, 2**11)``."""
    return ((frame_ids >= 0) & (frame_ids < 1 << _FRAME_BITS)
            & ((boxes >= 0) & (boxes < _COORD_LIMIT)).all(axis=1))


def pack_patch_keys(frame_ids: np.ndarray, boxes: np.ndarray
                    ) -> np.ndarray | None:
    """Each ``(frame_ids[i], boxes[i])`` patch key as one non-negative
    int64 — 19 bits of frame id, 11 per coordinate — or None when one of
    them does not pack (:func:`packable_patch_keys`)."""
    if not packable_patch_keys(frame_ids, boxes).all():
        return None
    packed = frame_ids.astype(np.int64)
    for column in range(4):
        packed <<= _COORD_BITS
        packed |= boxes[:, column]
    return packed


def _patch_key_parts(packed: np.ndarray) -> np.ndarray:
    """An ``(n, 5)`` int64 array: the frame id, x1, y1, x2, y2 of each
    :func:`pack_patch_keys` key."""
    parts = packed[:, None] >> _PART_SHIFTS
    parts[:, 1:] &= _COORD_LIMIT - 1
    return parts


def unpack_patch_keys(packed: np.ndarray) -> list[Key]:
    """The key tuples of :func:`pack_patch_keys` output."""
    parts = _patch_key_parts(packed)
    return list(zip(parts[:, 0].tolist(), zip(*parts[:, 1:].T.tolist())))


def key_frame_ids(keys: np.ndarray, patch_keys: bool) -> np.ndarray:
    """The frame id of each key of a 1-D int64 key array: packed patch
    keys when ``patch_keys`` (a frame id is their top bits), else frame
    ids, returned as they are."""
    if patch_keys:
        return keys.astype(np.int64, copy=False) >> PACKED_FRAME_SHIFT
    return keys


def array_key_tuples(keys: np.ndarray, patch_keys: bool) -> list[Key]:
    """The key tuples a 1-D int array of keys stands for: packed patch
    keys when ``patch_keys``, else frame ids."""
    if patch_keys:
        return unpack_patch_keys(keys.astype(np.int64, copy=False))
    return list(zip(keys.tolist()))


def _key_arrays(keys: list[Key]) -> tuple[np.ndarray | None,
                                         np.ndarray | None]:
    """``(frame ids, packed patch keys)`` of a non-empty list of key
    tuples: the int64 ids when every key is ``(frame_id,)`` with an int
    that fits, else None; the :func:`pack_key_tuples` keys, else None."""
    if set(map(len, keys)) == {1} \
            and set(map(type, chain.from_iterable(keys))) == {int}:
        try:
            return np.fromiter(chain.from_iterable(keys), dtype=np.int64,
                               count=len(keys)), None
        except OverflowError:  # beyond int64
            return None, None
    return None, pack_key_tuples(keys)


def _nothing(batch: ColumnBatch) -> ColumnBatch:
    """The empty batch of ``batch``'s columns: what an append of only
    stored keys inserted."""
    return ColumnBatch([], [], {col: [] for col in batch.columns})


def _array_key(key: Key, patch_keyed: bool) -> int:
    """The int64 array key the key tuple ``key`` equals in a view of this
    form — a packed patch key when ``patch_keyed``, else a frame id below
    ``_DENSE_FRAME_LIMIT`` — or -1, which no stored key equals.  A part
    that merely equals an int (``2.0``, ``True``) counts as that int, as
    in a dict of key tuples."""
    if patch_keyed:
        if len(key) != 2 or not isinstance(key[1], tuple):
            return -1
        key = (key[0], *key[1])
    try:
        ints = [int(part) for part in key]
    except (TypeError, ValueError, OverflowError):
        return -1
    if ints != list(key):
        return -1
    if not patch_keyed:
        return ints[0] if len(ints) == 1 \
            and 0 <= ints[0] < _DENSE_FRAME_LIMIT else -1
    if len(ints) != 5:
        return -1
    packed = pack_key_tuples([(ints[0], tuple(ints[1:]))])
    return -1 if packed is None else int(packed[0])
