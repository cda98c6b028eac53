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
array, and a ``key -> ordinal`` index — the table-with-an-index the
paper's LEFT OUTER JOIN rewrite (section 4.4) probes.  While every key is
``(frame_id,)`` (detectors, frame filters) the view also keeps a dense
``ordinal_of_frame`` array, and while every key is a ``(frame_id, box)``
pair that packs into one int64 (:func:`pack_patch_keys`, patch classifiers)
a packed-key index, so a probe by an int array is a join on arrays.
Writers hand over column slices (:meth:`MaterializedView.put_many`), keyed
by the same int arrays a probe takes or by key tuples; readers get a
:class:`ViewHits` whose columns are zero-copy views over the stored
columns, and the durable store logs and snapshots the same
:class:`~repro.storage.columnar.ColumnBatch` a write appended.

Every append adds its raw JSON size to the running estimate behind
:meth:`MaterializedView.serialized_bytes`.  The size is defined by
``json.dumps`` but computed from the key arrays and the typed columns
(:func:`_payload_bytes`); only values of no typed form are dumped.
"""

from __future__ import annotations

import json
import threading
from collections import Counter
from itertools import chain, count, repeat
from operator import attrgetter
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
    grow,
    materialize_column,
    stored_column,
)
from repro.storage.columnar import ColumnBatch, row_ranges
from repro.types import BoundingBox

Key = tuple[Hashable, ...]

#: Serialized size of an *empty* view (npz container + headers); measured
#: 576 bytes for a two-column layout, rounded down so the estimate stays
#: a mild over-approximation only through the payload term.
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

#: Compressed-bytes per raw-JSON-payload byte.  Calibrated against real
#: query output (detector views compress to 0.33, patch-classifier views
#: to 0.20 of their raw JSON); 0.35 over-estimates both slightly, which
#: is the safe direction for byte-budget enforcement.
SERIALIZED_COMPRESSION_FACTOR = 0.35


class ViewHits:
    """Result of one bulk probe: a slot per probed key, columns per hit row.

    ``counts[i]`` is None when key ``i`` was never computed, else the
    number of rows it produced; :meth:`column` yields the stored values of
    all hit rows, in probe order.  ``len()`` is the number of keys probed.
    Over a resident view the columns are zero-copy :class:`ColumnView`
    objects on the view's own columns (append-only, so a row once indexed
    never moves); pickling — the peer RPC — ships the gathered values.
    """

    __slots__ = ("counts", "num_rows", "_columns", "_rows", "_hits")

    def __init__(self, counts: list, columns: Mapping[str, Sequence],
                 rows: np.ndarray | None = None,
                 hits: tuple[np.ndarray, np.ndarray] | None = None):
        self.counts = counts
        self.num_rows = (sum(filter(None, counts)) if rows is None
                         else len(rows))
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
        #: key -> ordinal, in insertion order; the rows of ordinal ``i``
        #: are ``[_offsets[i], _offsets[i + 1])`` of every column.
        #: ``_offsets`` is an int64 array with spare capacity (entries
        #: past ``num_keys`` are not yet written).
        self._ordinals: dict[Key, int] = {}
        self._offsets = np.zeros(1, dtype=np.int64)
        #: frame id -> ordinal (-1: not stored) while every key is
        #: ``(frame_id,)`` with an int in ``[0, _DENSE_FRAME_LIMIT)``;
        #: None once one is not.  Derived, extended by every append,
        #: never serialized.
        self._ordinal_of_frame: np.ndarray | None = np.zeros(
            0, dtype=np.int64)
        #: packed patch key -> ordinal while every key packs
        #: (:func:`pack_key_tuples`); None once one does not.  Derived,
        #: extended by every append, never serialized.
        self._ordinal_of_patch: dict[int, int] | None = {}
        #: Whether the first key stored is a ``(frame_id, box)`` pair: an
        #: int array probe or write then holds packed patch keys, not
        #: frame ids.  An array write to an empty view sets it from the
        #: writer's ``patch_keys``.
        self._patch_keyed = False
        #: Typed columns (:func:`~repro.storage.batch.stored_column`); an
        #: empty list until the first rows arrive.
        self._columns: dict[str, Sequence] = {
            col: [] for col in output_columns}
        #: Running raw-JSON payload size, maintained by every append so
        #: :meth:`serialized_bytes` is O(1) — it is the eviction hot path.
        self._approx_payload_bytes = 0
        #: Lazily-built secondary index: first key component -> keys.
        #: Used by fuzzy bounding-box reuse to enumerate a frame's boxes.
        self._prefix_index: dict[Hashable, list[Key]] | None = None
        #: Guards index, offsets and columns as one unit.  Without it, a
        #: lazy prefix-index build racing a concurrent append could either
        #: miss the new key or record it twice, and a probe could find an
        #: ordinal whose offsets are not written yet — so *every* mutation
        #: and every lookup runs under this lock.  Uncontended acquisition
        #: is tens of nanoseconds, irrelevant next to the work it protects.
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
        array feeds the view's indexes, byte count and the listener's
        batch; the key index and the lineage hooks get its key tuples.

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
            record_view_write(self.name, fresh.keys, int(fresh.counts.sum()))
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
        keys = batch.keys
        if keys is None:
            keys = batch.keys = array_key_tuples(batch.array,
                                                 batch.patch_keys)
        rows = int(batch.counts.sum())
        if len(batch.counts) != len(keys) or any(
                len(batch.columns[col]) != rows
                for col in self.output_columns):
            raise StorageError(
                f"view {self.name!r}: ragged column batch "
                f"({len(keys)} keys, {rows} rows)")
        with self._lock:
            ordinals = self._ordinals
            old = len(ordinals)
            if writer and batch.array is not None and old \
                    and batch.patch_keys != self._patch_keyed:
                form = "packed patch keys" if batch.patch_keys \
                    else "frame ids"
                raise StorageError(f"view {self.name!r}: an array of "
                                   f"{form} does not key this view")
            if not any(map(ordinals.__contains__, keys)) \
                    and len(set(keys)) == len(keys):
                # The APPLY operators write misses only, without repeats.
                inserted = [True] * len(keys)
                new = len(keys)
            else:
                first: dict[Key, int] = {}  # fresh key -> first position
                for index, key in enumerate(keys):
                    if key not in ordinals:
                        first.setdefault(key, index)
                inserted = [first.get(key) == index
                            for index, key in enumerate(keys)]
                new = len(first)
                if new and new != len(keys):
                    batch = batch.select(list(first.values()))
            if not new:
                return inserted, ColumnBatch([], [], {
                    col: [] for col in batch.columns})
            if batch.array is None:
                frames, packed = _key_arrays(batch.keys)
            else:
                frames, packed = ((None, batch.array) if batch.patch_keys
                                  else (batch.array, None))
            nbytes = batch.payload_bytes
            if nbytes is None:
                # Raises (a value no codec stores) before anything changed.
                nbytes = _payload_bytes(batch, frames, packed)
            if not old:
                self._patch_keyed = len(batch.keys[0]) == 2
            ordinals.update(zip(batch.keys, count(old)))
            offsets = grow(self._offsets, old + new + 1, 0)
            offsets[old + 1:old + new + 1] = (np.cumsum(batch.counts)
                                              + offsets[old])
            self._offsets = offsets
            self._index_frames(frames, old)
            self._index_patches(packed, old)
            columns = self._columns
            for col in self.output_columns:
                columns[col] = stored_column(columns[col],
                                             batch.columns[col])
            self._approx_payload_bytes += nbytes
            if self._prefix_index is not None:
                for key in batch.keys:
                    self._prefix_index.setdefault(key[0], []).append(key)
        batch = ColumnBatch(
            batch.keys, batch.counts, batch.columns,
            array=packed if frames is None else frames,
            patch_keys=frames is None and packed is not None,
            payload_bytes=nbytes)
        return inserted, batch

    def _index_frames(self, frames: np.ndarray | None,
                      first_ordinal: int) -> None:
        """Extend ``_ordinal_of_frame`` by the fresh keys' frame ids
        (ordinals from ``first_ordinal``), or drop it for good when they
        are not all ``(frame_id,)`` keys (``frames`` is None) or an id is
        out of its range.  Caller holds the view lock."""
        dense = self._ordinal_of_frame
        if dense is None:
            return
        if frames is None or frames.min() < 0 \
                or frames.max() >= _DENSE_FRAME_LIMIT:
            self._ordinal_of_frame = None
            return
        dense = grow(dense, int(frames.max()) + 1, -1)
        dense[frames] = np.arange(first_ordinal, first_ordinal + len(frames))
        self._ordinal_of_frame = dense

    def _index_patches(self, packed: np.ndarray | None,
                       first_ordinal: int) -> None:
        """Extend ``_ordinal_of_patch`` by the fresh keys packed, or drop
        it for good when one of them does not pack (``packed`` is None).
        Caller holds the view lock."""
        index = self._ordinal_of_patch
        if index is None:
            return
        if packed is None:
            self._ordinal_of_patch = None
            return
        index.update(zip(packed.tolist(), count(first_ordinal)))

    def _int64_keys(self, keys: np.ndarray) -> np.ndarray:
        """``keys``, an array of keys, as int64; refuses any other
        shape or type."""
        if keys.ndim != 1 or keys.dtype.kind not in "iu" \
                or not np.can_cast(keys.dtype, np.int64):
            raise StorageError(
                f"view {self.name!r}: array keys must be a 1-D int64 array")
        return keys.astype(np.int64, copy=False)

    # -- reads ------------------------------------------------------------------

    def __contains__(self, key: Key) -> bool:
        return key in self._ordinals

    def get_many(self, keys: Iterable[Key] | np.ndarray) -> ViewHits:
        """Bulk probe: the LEFT OUTER JOIN of ``keys`` against the view.

        ``keys`` are key tuples or a 1-D int array: frame ids for a view
        keyed by ``(frame_id,)``, answered from the dense
        ``ordinal_of_frame`` array (negative or never-stored ids miss);
        packed patch keys (:func:`pack_patch_keys`) for a view keyed by
        ``(frame_id, box)``, answered from the packed-key index.  A view
        whose array index is gone answers an array as its key tuples
        (:meth:`key_tuples`).  Either way the probe is one ordinal array
        and the row ranges one ``np.repeat``, under one lock acquisition —
        this is what lets the APPLY operators resolve a batch's hits and
        misses without taking the view lock once per row.
        """
        if isinstance(keys, np.ndarray):
            keys = self._int64_keys(keys)
        with self._lock:
            dense = self._ordinal_of_frame
            patches = self._ordinal_of_patch
            if not isinstance(keys, np.ndarray):
                found = np.fromiter(
                    map(self._ordinals.get, keys, repeat(-1)),
                    dtype=np.int64)
            elif self._patch_keyed and patches is not None:
                found = np.fromiter(
                    map(patches.get, keys.tolist(), repeat(-1)),
                    dtype=np.int64, count=len(keys))
            elif not self._patch_keyed and dense is not None:
                found = np.full(len(keys), -1, dtype=np.int64)
                inside = (keys >= 0) & (keys < len(dense))
                found[inside] = dense[keys[inside]]
            else:
                found = np.fromiter(
                    map(self._ordinals.get, self.key_tuples(keys),
                        repeat(-1)),
                    dtype=np.int64, count=len(keys))
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
                        (np.flatnonzero(hit), lengths))
        record_view_probe_many(self.name, hits)
        return hits

    def get(self, key: Key) -> tuple[dict, ...] | None:
        """Stored output rows for ``key`` as dicts, or None if never
        computed (a single-key adapter: fuzzy reuse, tests)."""
        with self._lock:
            ordinal = self._ordinals.get(key)
            rows = None if ordinal is None else self._rows_of(ordinal)
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

    def keys(self) -> Iterable[Key]:
        return self._ordinals.keys()

    def keys_with_prefix(self, first_component: Hashable) -> list[Key]:
        """All keys whose first component equals ``first_component``.

        Backs fuzzy bounding-box reuse: enumerate the stored boxes of one
        frame to find a spatial near-match.  The index is built lazily on
        first call and kept consistent by every append afterwards; both
        run under the view lock so keys added before and after the first
        build are indexed exactly once.
        """
        with self._lock:
            if self._prefix_index is None:
                index: dict[Hashable, list[Key]] = {}
                for key in self._ordinals:
                    index.setdefault(key[0], []).append(key)
                self._prefix_index = index
            return list(self._prefix_index.get(first_component, ()))

    @property
    def num_keys(self) -> int:
        return len(self._ordinals)

    @property
    def num_output_rows(self) -> int:
        with self._lock:
            return int(self._offsets[len(self._ordinals)])

    def batch(self) -> ColumnBatch:
        """Consistent view of all entries, in insertion order: zero-copy
        views of the typed columns, which only ever grow, and the keys as
        the array the view's index holds (else as tuples)."""
        with self._lock:
            size = len(self._ordinals)
            offsets = self._offsets[:size + 1]
            dense, patches = self._ordinal_of_frame, self._ordinal_of_patch
            array = None
            if self._patch_keyed and patches is not None:
                # Insertion order is ordinal order.
                array = np.fromiter(patches, dtype=np.int64, count=size)
            elif not self._patch_keyed and dense is not None:
                stored = dense >= 0
                array = np.empty(size, dtype=np.int64)
                array[dense[stored]] = np.flatnonzero(stored)
            return ColumnBatch(
                list(self._ordinals) if array is None else None,
                np.diff(offsets),
                {col: ColumnView(values, stop=int(offsets[-1]))
                 for col, values in self._columns.items()},
                array=array, patch_keys=self._patch_keyed,
                payload_bytes=self._approx_payload_bytes)

    def items(self) -> list[tuple[Key, tuple[dict, ...]]]:
        """Consistent snapshot of all (key, row dicts) entries."""
        with self._lock:
            return [(key, self._rows_of(ordinal))
                    for key, ordinal in self._ordinals.items()]

    # -- serialization ----------------------------------------------------------

    def serialized_bytes(self) -> int:
        """Estimated compressed size of :meth:`serialize` output, in O(1).

        ``SERIALIZED_BASE_OVERHEAD`` plus ``SERIALIZED_COMPRESSION_FACTOR``
        times the raw JSON payload: the sum of ``len(json.dumps(.))`` over
        every stored key and value (boxes as ``["__bbox__", x1, y1, x2,
        y2]``, tuples as ``["__tuple__", ...]``).  Every insert adds its
        share, counted from the key arrays and typed columns without
        dumping them (:func:`_payload_bytes`); :meth:`serialize` itself
        remains exact.  Calibrated to over-estimate real views by
        1.05–1.75x — byte-budget policies built on it (tier eviction,
        footprint caps) err conservative.
        """
        return SERIALIZED_BASE_OVERHEAD + int(
            self._approx_payload_bytes * SERIALIZED_COMPRESSION_FACTOR)

    def serialize(self) -> bytes:
        """Serialize all entries (the compressed :class:`ColumnBatch`)."""
        return self.batch().encode(compress=True)

    @classmethod
    def deserialize(cls, name: str, key_columns: list[str],
                    output_columns: list[str],
                    payload: bytes) -> "MaterializedView":
        """Rebuild a view previously produced by :meth:`serialize`."""
        view = cls(name, key_columns, output_columns)
        view.restore(ColumnBatch.decode(payload, compressed=True))
        return view


class ViewStore:
    """All materialized views of a session, by view name."""

    def __init__(self) -> None:
        self._views: dict[str, MaterializedView] = {}
        #: Pluggable durability backend (duck-typed; see ``repro.store``):
        #: gets ``view_created(view)`` after a view is registered and
        #: ``view_dropped(name)`` after one is removed.  ``None`` (the
        #: default) keeps the store purely in-memory with zero overhead.
        self.backend = None
        #: Optional :class:`repro.obs.lineage.ViewLedger`: told about
        #: creations (generation bump) and drops.  Like ``backend`` it is
        #: duck-typed and defaults to None for zero overhead.
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
                backend = self.backend
                if backend is not None:
                    # Log the creation and attach the WAL listener *before*
                    # the view becomes reachable through the map — a racing
                    # writer must never see a view whose puts would miss
                    # the WAL.  Creation is rare (once per view name), so
                    # the control-log fsync under the lock is immaterial.
                    backend.view_created(view)
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
        """Serialized sizes of the named resident views.

        Observability-path accessor: no promotion, no per-view lock
        acquisition (``serialized_bytes`` is O(1)), so the lineage
        ledger's post-query fold cannot perturb flight-record stage
        attribution or the durable store's tiering.
        """
        sizes: dict[str, int] = {}
        with self._lock:
            for name in names:
                view = self._views.get(name)
                if view is not None:
                    sizes[name] = view.serialized_bytes()
        return sizes

    def drop(self, name: str, *, reason: str = "drop") -> int:
        """Evict one view; returns the (estimated) bytes it freed, 0 if
        the view did not exist.  ``reason`` feeds the lineage ledger's
        status (``"evicted"`` marks budget evictions).

        An existing view always frees a non-zero amount (the serialized
        container overhead), so truthiness still answers "did it exist".
        Single-view eviction is the primitive the server's storage-budget
        policies build on (drop the coldest view when over budget); the
        durability backend is told *after* the map removal so the
        tombstone it logs cannot race a resurrection through
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
            ledger.on_drop(name, reason=reason)
        backend = self.backend
        if backend is not None:
            backend.view_dropped(name)
        return freed

    def drop_all(self) -> int:
        """Drop every view; returns the total (estimated) bytes freed."""
        with self._lock:
            names = list(self._views)
        return sum(self.drop(name) for name in names)

    # -- persistence -------------------------------------------------------------

    def save_to(self, directory) -> int:
        """Persist every view under ``directory``; returns bytes written."""
        from pathlib import Path

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = []
        total = 0
        for index, (name, view) in enumerate(sorted(self._views.items())):
            filename = f"view_{index:04d}.npz"
            payload = view.serialize()
            (directory / filename).write_bytes(payload)
            total += len(payload)
            manifest.append({
                "name": name,
                "file": filename,
                "key_columns": view.key_columns,
                "output_columns": view.output_columns,
            })
        manifest_bytes = json.dumps(manifest, indent=2).encode("utf-8")
        (directory / "views.json").write_bytes(manifest_bytes)
        return total + len(manifest_bytes)

    @classmethod
    def load_from(cls, directory) -> "ViewStore":
        """Rebuild a store previously written by :meth:`save_to`."""
        from pathlib import Path

        directory = Path(directory)
        manifest_path = directory / "views.json"
        if not manifest_path.exists():
            raise StorageError(f"no view store at {directory}")
        store = cls()
        for entry in json.loads(manifest_path.read_text("utf-8")):
            payload = (directory / entry["file"]).read_bytes()
            view = MaterializedView.deserialize(
                entry["name"], entry["key_columns"],
                entry["output_columns"], payload)
            store._views[entry["name"]] = view
        return store


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


#: ``10**1 .. 10**19``: a magnitude ``m`` has ``1 + (powers <= m)``
#: decimal digits.
_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)
_INFINITY = float("inf")
_BOX_COORDS = attrgetter("x1", "y1", "x2", "y2")


def _payload_bytes(batch: ColumnBatch, frames: np.ndarray | None,
                   packed: np.ndarray | None) -> int:
    """Raw JSON size of a non-empty batch — the unit the running estimate
    sums: ``len(json.dumps(.))`` of every key and every stored value, a
    key as a list of its parts, boxes and tuples tagged as
    :meth:`MaterializedView.serialized_bytes` says.

    Counted, not dumped.  ``[f]`` is 2 + the digits of ``f``, and
    ``[f, ["__tuple__", x1, y1, x2, y2]]`` is 25 + the digits of its five
    ints, over the batch's ``frames`` or ``packed`` array.  A column is
    counted by its exact type set, as
    :func:`~repro.storage.batch.stored_column` types it: ``str`` / None
    once per distinct value, floats from one list repr, a box as 20 plus
    its coordinates.  Keys with no array and values of no typed form are
    dumped, which raises ``TypeError`` for a value JSON cannot hold."""
    n = len(batch.keys)
    if frames is not None:
        total = 2 * n + _decimal_chars(frames)
    elif packed is not None:
        total = 25 * n + _decimal_chars(_patch_key_parts(packed))
    else:
        total = _json_bytes([list(map(_jsonable, key))
                             for key in batch.keys])
    for values in batch.columns.values():
        if len(values):
            total += _column_bytes(materialize_column(values))
    return total


def _column_bytes(values: list) -> int:
    """``len(json.dumps(v))`` summed over the non-empty ``values``."""
    kinds = set(map(type, values))
    if kinds <= {str, type(None)}:
        return sum(len(json.dumps(value)) * times
                   for value, times in Counter(values).items())
    if kinds == {float}:
        return _float_chars(values)
    if kinds == {BoundingBox}:
        coords = list(chain.from_iterable(map(_BOX_COORDS, values)))
        if set(map(type, coords)) == {float}:
            return 20 * len(values) + _float_chars(coords)
        return 20 * len(values) + _json_bytes(coords)
    return _json_bytes(list(map(_jsonable, values)))


def _decimal_chars(values: np.ndarray) -> int:
    """``len(str(v))`` summed over an int64 array."""
    # abs(-2**63) is -2**63 again, whose uint64 view is 2**63.
    magnitudes = np.abs(values).view(np.uint64)
    return int(np.searchsorted(_POWERS_OF_TEN, magnitudes, side="right")
               .sum()) + values.size + int((values < 0).sum())


def _float_chars(values: list) -> int:
    """``len(json.dumps(v))`` summed over a non-empty list of floats: a
    float's JSON is its repr, but for ``Infinity`` / ``-Infinity``, five
    longer than ``inf`` / ``-inf``."""
    return (len(repr(values)) - 2 * len(values)
            + 5 * (values.count(_INFINITY) + values.count(-_INFINITY)))


def _json_bytes(items: list) -> int:
    """``len(json.dumps(item))`` summed over ``items``, by one dumps of
    the list: its brackets and ``", "`` separators add two characters
    per item."""
    return len(json.dumps(items)) - 2 * len(items) if items else 0


def _jsonable(value):
    if isinstance(value, BoundingBox):
        return ["__bbox__", value.x1, value.y1, value.x2, value.y2]
    if isinstance(value, tuple):
        return ["__tuple__"] + [_jsonable(v) for v in value]
    return value
