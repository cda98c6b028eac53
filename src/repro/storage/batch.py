"""Column-oriented batches: the unit of data flow between operators.

A :class:`Batch` holds named columns of equal length.  Values are arbitrary
Python objects (ints, strings, :class:`~repro.types.BoundingBox`, frame
handles), so batches can carry video frames and model outputs alike.  The
execution engine streams batches between physical operators, mirroring the
paper's batch-level processing (section 5.3).

Row-subset transforms (``take`` / ``filter_mask`` / ``slice``) are
zero-copy: they return :class:`ColumnView` columns — a (base, indices)
indirection over the source column — instead of copying every value.  The
selection index array is built once per batch and shared by every column,
so selecting k rows out of an n-row, c-column batch costs O(k + c) instead
of O(k * c); columns that are never read downstream are never copied at
all.  Nested selections compose their index arrays by numpy fancy-indexing.
A view materializes (copies) lazily, at most once, on first element access.
Batches are immutable by convention, which is what makes the aliasing safe;
:func:`aliasing_debug` turns on a checker that verifies the convention.

A scan's ``frame`` column is a :class:`FrameColumn`: frames ``[start,
stop)`` of one video, a :class:`~repro.video.frames.Frame` handle built
only when an element is read.  The APPLY operators never read one: they
take ``(video, frame ids)`` from :func:`frame_ids`.

A materialized view stores its output columns typed (:func:`stored_column`):
``str`` / None values as dictionary codes (:class:`CodedColumn`), floats
as a float64 array (:class:`FloatColumn`), bounding boxes as a list with
derived rounded-key and area arrays (:class:`BoxColumn`), anything else as
a list.  A view over a typed column gathers with one fancy index and
still reads as the same Python values; :func:`coded`, :func:`float_array`,
:func:`box_keys` and :func:`column_areas` read the arrays through it.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ExecutorError
from repro.types import (
    BoundingBox,
    box_areas,
    box_coords,
    round_boxes,
)


class _DebugState:
    """Process-wide state for the debug-mode aliasing checker.

    Disabled by default (zero overhead beyond a truthiness check on the
    cold paths).  When enabled via :func:`aliasing_debug`, every view
    records the length of its base column at creation time and re-checks
    it at materialization time — a mutated base (the one way aliasing can
    go wrong under the immutable-by-convention contract) is reported as an
    :class:`ExecutorError` instead of silent corruption.  The checker also
    counts column-list allocations, which the ``Batch.concat`` unit test
    uses to pin the one-allocation-per-output-column guarantee.
    """

    __slots__ = ("enabled", "column_allocations", "view_creations",
                 "materializations", "_base_lengths")

    def __init__(self) -> None:
        self.enabled = False
        self.column_allocations = 0
        self.view_creations = 0
        self.materializations = 0
        self._base_lengths: dict[int, int] = {}

    def reset(self) -> None:
        self.column_allocations = 0
        self.view_creations = 0
        self.materializations = 0
        self._base_lengths.clear()

    def note_view(self, base: list) -> None:
        self.view_creations += 1
        key = id(base)
        recorded = self._base_lengths.get(key)
        if recorded is None:
            self._base_lengths[key] = len(base)
        elif recorded != len(base):
            raise ExecutorError(
                f"aliasing violation: base column length changed from "
                f"{recorded} to {len(base)} while views were outstanding")

    def note_allocation(self) -> None:
        self.column_allocations += 1

    def check_base(self, base: list) -> None:
        recorded = self._base_lengths.get(id(base))
        if recorded is not None and recorded != len(base):
            raise ExecutorError(
                f"aliasing violation: base column mutated ({recorded} -> "
                f"{len(base)} values) after a zero-copy view was taken")


_debug = _DebugState()


@contextlib.contextmanager
def aliasing_debug():
    """Enable the aliasing checker for a ``with`` block.

    Yields the debug-state object so tests can read
    ``column_allocations`` / ``view_creations`` / ``materializations``.
    Counters are reset on entry.  Not reentrant.
    """
    _debug.reset()
    _debug.enabled = True
    try:
        yield _debug
    finally:
        _debug.enabled = False
        _debug.reset()


class FrameColumn(Sequence):
    """The ``frame`` column of one scan batch: frames ``[start, stop)`` of
    ``video``, each handle built only when that element is read."""

    __slots__ = ("video", "start", "stop")

    def __init__(self, video, start: int, stop: int):
        self.video = video
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, item):
        selected = range(self.start, self.stop)[item]
        if isinstance(item, slice):
            return list(map(self.video.frame, selected))
        return self.video.frame(selected)

    def __iter__(self) -> Iterator:
        return map(self.video.frame, range(self.start, self.stop))


def _selection(column) -> tuple[Sequence, np.ndarray | None]:
    """``(base, indices)``: ``column`` is ``base`` at ``indices`` (None:
    all of it)."""
    if not isinstance(column, ColumnView):
        return column, None
    indices = column._indices
    if indices is None:
        indices = np.arange(column._start, column._stop)
    return column._base, indices


def frame_ids(column) -> tuple[str, np.ndarray]:
    """``(video name, int64 frame ids)`` of a ``frame`` column.

    A scan's lazy column (or a selection of it) answers from its range
    without building a handle; a plain list of frames is read element by
    element.  A pipeline batch comes from one scan, hence one video; a
    column that spans videos is an error.
    """
    base, indices = _selection(column)
    if isinstance(base, FrameColumn):
        if indices is None:
            return base.video.name, np.arange(base.start, base.stop)
        return base.video.name, indices + base.start
    frames = materialize_column(column)
    names = {frame.video_name for frame in frames}
    if len(names) > 1:
        raise ExecutorError(
            f"a frame column spans videos {sorted(names)}; a pipeline "
            "batch comes from one scan")
    ids = np.fromiter((frame.frame_id for frame in frames), dtype=np.int64,
                      count=len(frames))
    return (names.pop() if names else ""), ids


def coded(column) -> tuple[np.ndarray, list] | None:
    """``(codes, vocabulary)`` of a column over dictionary-coded stored
    values — row ``i`` is ``vocabulary[codes[i]]`` — or None for any
    other column."""
    base, indices = _selection(column)
    if not isinstance(base, CodedColumn):
        return None
    codes = base.codes()
    # No copy: the vocabulary is append-only, and the codes read first
    # are all in it.
    return (codes if indices is None else codes[indices]), base.vocab


def float_array(column) -> np.ndarray | None:
    """The values of a column over stored floats or a float64 array, as
    one float64 array without a list in between; None for any other
    column."""
    base, indices = _selection(column)
    if isinstance(base, FloatColumn):
        base = base.array()
    if not (isinstance(base, np.ndarray) and base.dtype == np.float64):
        return None
    return base if indices is None else base[indices]


def box_keys(column) -> np.ndarray | None:
    """:meth:`BoundingBox.rounded` of every box of a ``bbox`` column, as
    an ``(n, 4)`` int64 array (see :func:`~repro.types.round_boxes`).

    Over a view's stored boxes this reads the view's derived key array;
    other boxes are rounded here.  None when a value is not a box or a
    coordinate is not a float — the caller's per-box path raises the
    error.
    """
    base, indices = _selection(column)
    if isinstance(base, BoxColumn):
        keys = base.keys()
        return keys if indices is None else keys[indices]
    boxes = materialize_column(column)
    if not all(isinstance(box, BoundingBox) for box in boxes):
        return None
    try:
        return round_boxes(box_coords(boxes))
    except (TypeError, ValueError, OverflowError):
        return None


def column_areas(column) -> np.ndarray:
    """:meth:`BoundingBox.area` of every box of a ``bbox`` column, as
    float64 — the view's derived area array over its stored boxes."""
    base, indices = _selection(column)
    if isinstance(base, BoxColumn):
        areas = base.areas()
        return areas if indices is None else areas[indices]
    return box_areas(box_coords(materialize_column(column)))


def has_duplicates(keys) -> bool:
    """Whether ``keys`` — an int array or a list of hashables — repeats a
    value.  (Not ``np.unique``: its first call imports ``numpy.ma``, a
    megabyte of resident memory.)"""
    if not isinstance(keys, np.ndarray):
        return len(set(keys)) != len(keys)
    ordered = np.sort(keys)
    return bool((ordered[1:] == ordered[:-1]).any())


class ColumnView(Sequence):
    """A zero-copy view over a base column.

    Either a contiguous range (``start``/``stop``) or an int64 index array
    selects rows from ``base``.  Length is O(1); element access goes
    through a lazily cached materialization, so a view costs nothing until
    (unless) it is actually read, and at most one copy ever.  Index arrays
    are shared between all columns of the batch that created the views.
    """

    __slots__ = ("_base", "_indices", "_start", "_stop", "_materialized")

    def __init__(self, base: Sequence, indices=None,
                 start: int = 0, stop: int | None = None):
        self._base = base
        self._materialized: list | None = None
        if indices is None:
            self._indices = None
            self._start = start
            self._stop = len(base) if stop is None else stop
        else:
            self._indices = np.asarray(indices, dtype=np.int64)
            self._start = 0
            self._stop = len(indices)
        if _debug.enabled:
            _debug.note_view(base)

    def __len__(self) -> int:
        indices = self._indices
        if indices is not None:
            return len(indices)
        return self._stop - self._start

    def materialized(self) -> list:
        """The selected values as a real list (computed once, cached)."""
        values = self._materialized
        if values is None:
            base = self._base
            if _debug.enabled:
                _debug.check_base(base)
                _debug.materializations += 1
                _debug.note_allocation()
            indices = self._indices
            if isinstance(base, np.ndarray):
                values = (base[self._start:self._stop] if indices is None
                          else base[indices]).tolist()
            elif indices is None:
                values = base[self._start:self._stop]
            elif isinstance(base, StoredColumn):
                values = base.gather(indices)
            else:
                values = list(map(base.__getitem__, indices.tolist()))
            self._materialized = values
        return values

    def __getitem__(self, item):
        return self.materialized()[item]

    def __iter__(self) -> Iterator:
        return iter(self.materialized())

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnView):
            return self.materialized() == other.materialized()
        if isinstance(other, list):
            return self.materialized() == other
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # views compare by value, like lists

    def __array__(self, dtype=None, copy=None):
        """Numpy interop: ``np.asarray(view)`` converts via one list."""
        array = np.asarray(self.materialized())
        if dtype is not None:
            array = array.astype(dtype, copy=False)
        return array

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "range" if self._indices is None else "indices"
        state = "materialized" if self._materialized is not None else "lazy"
        return f"<ColumnView {len(self)} rows via {kind}, {state}>"


def grow(array: np.ndarray, size: int, fill) -> np.ndarray:
    """``array`` if it holds ``size`` rows, else a copy grown to at least
    twice its length, new rows ``fill`` — appends stay O(new)."""
    if len(array) >= size:
        return array
    grown = np.full((max(size, 2 * len(array)),) + array.shape[1:], fill,
                    dtype=array.dtype)
    grown[:len(array)] = array
    return grown


class StoredColumn(Sequence):
    """An append-only output column of a materialized view over numpy
    arrays with spare capacity.

    :meth:`extend` appends under the view's lock.  A row once written
    never changes, and growing copies the written rows, so a reader
    holding any version of an array reads every row that existed when
    it probed.  Elements and slices read as the Python values stored.
    """

    __slots__ = ("_size",)

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, item):
        if isinstance(item, slice):
            return self.gather(np.arange(*item.indices(self._size)))
        return self.gather(np.array([range(self._size)[item]]))[0]

    def __iter__(self) -> Iterator:
        return iter(self[:])

    def gather(self, indices: np.ndarray) -> list:
        """The values at ``indices``, as a list."""
        raise NotImplementedError

    def extend(self, values: list) -> bool:
        """Append ``values``; False, appending nothing, when one of them
        is not of this column's type."""
        raise NotImplementedError


class CodedColumn(StoredColumn):
    """``str`` / None values as int32 codes into a vocabulary."""

    __slots__ = ("_codes", "vocab", "_code_of", "_lookup")

    def __init__(self) -> None:
        self._size = 0
        self._codes = np.zeros(0, dtype=np.int32)
        #: Distinct values in order of first appearance (append-only).
        self.vocab: list = []
        self._code_of: dict = {}
        #: ``(array, filled)``: ``vocab[:filled]`` as an object array
        #: with spare capacity, extended by the new entries as the
        #: vocabulary grows.  One attribute, so a reader replaces it
        #: whole.
        self._lookup = (np.zeros(0, dtype=object), 0)

    def codes(self) -> np.ndarray:
        return self._codes[:self._size]

    def gather(self, indices: np.ndarray) -> list:
        codes = self._codes[indices]
        lookup, filled = self._lookup
        size = len(self.vocab)  # holds every code read above
        if filled < size:
            # O(new entries): rows below ``filled`` are written once,
            # with the value every reader writes there.
            lookup = grow(lookup, size, None)
            lookup[filled:size] = self.vocab[filled:size]
            self._lookup = (lookup, size)
        return lookup[codes].tolist()

    def extend(self, values: list) -> bool:
        if not set(map(type, values)) <= {str, type(None)}:
            return False
        code_of, vocab = self._code_of, self.vocab
        for value in dict.fromkeys(values):
            if value not in code_of:
                code_of[value] = len(vocab)
                vocab.append(value)
        size = self._size + len(values)
        codes = grow(self._codes, size, 0)
        codes[self._size:size] = np.fromiter(
            map(code_of.__getitem__, values), dtype=np.int32,
            count=len(values))
        self._codes, self._size = codes, size
        return True


class FloatColumn(StoredColumn):
    """``float`` values as a float64 array."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._size = 0
        self._values = np.zeros(0)

    def array(self) -> np.ndarray:
        return self._values[:self._size]

    def gather(self, indices: np.ndarray) -> list:
        return self._values[indices].tolist()

    def extend(self, values: list) -> bool:
        if not set(map(type, values)) <= {float}:
            return False
        size = self._size + len(values)
        array = grow(self._values, size, 0.0)
        array[self._size:size] = values
        self._values, self._size = array, size
        return True


class BoxColumn(StoredColumn):
    """:class:`~repro.types.BoundingBox` values as a list, plus two arrays
    derived from their coordinates: the rounded ``(n, 4)`` keys and the
    areas.  Derived on append, never serialized."""

    __slots__ = ("_boxes", "_keys", "_areas")

    def __init__(self) -> None:
        self._size = 0
        self._boxes: list = []
        self._keys = np.zeros((0, 4), dtype=np.int64)
        self._areas = np.zeros(0)

    def keys(self) -> np.ndarray:
        return self._keys[:self._size]

    def areas(self) -> np.ndarray:
        return self._areas[:self._size]

    def __getitem__(self, item):
        return self._boxes[item]

    def gather(self, indices: np.ndarray) -> list:
        return list(map(self._boxes.__getitem__, indices.tolist()))

    def extend(self, values: list) -> bool:
        if not set(map(type, values)) <= {BoundingBox}:
            return False
        try:
            coords = box_coords(values)
        except (TypeError, ValueError, OverflowError):
            return False
        size = self._size + len(values)
        keys = grow(self._keys, size, 0)
        keys[self._size:size] = round_boxes(coords)
        areas = grow(self._areas, size, 0.0)
        areas[self._size:size] = box_areas(coords)
        self._boxes.extend(values)
        self._keys, self._areas, self._size = keys, areas, size
        return True


def stored_column(stored: Sequence, values: list) -> Sequence:
    """``stored`` (a view's output column) with ``values`` appended.

    An empty column takes the first form of :class:`CodedColumn`,
    :class:`FloatColumn` and :class:`BoxColumn` that holds all of
    ``values``, else a list.  A typed column that meets a value it cannot
    hold becomes a list of all its values, for good; the typed one is
    left as it was for readers that hold it.
    """
    if not values:
        return stored
    if not len(stored):
        for form in (CodedColumn, FloatColumn, BoxColumn):
            column = form()
            if column.extend(values):
                return column
        return list(values)
    if isinstance(stored, list):
        stored.extend(values)
        return stored
    if stored.extend(values):
        return stored
    return stored[:] + list(values)


def materialize_column(values) -> list:
    """``values`` as a plain list; no copy when it already is one."""
    if isinstance(values, ColumnView):
        return values.materialized()
    if isinstance(values, list):
        return values
    return list(values)


def _view_take(values, indices: np.ndarray, memo: dict):
    """A view of ``values`` at ``indices``, flattening nested views.

    Composed index arrays (one fancy-index each) are memoised by the
    identity of the inner indirection so sibling columns created by the
    same earlier selection share one composed array.
    """
    if not isinstance(values, ColumnView):
        return ColumnView(values, indices)
    inner = values._materialized
    if inner is not None:
        return ColumnView(inner, indices)
    inner_indices = values._indices
    if inner_indices is not None:
        key = id(inner_indices)
        composed = memo.get(key)
        if composed is None:
            composed = memo[key] = inner_indices[indices]
        return ColumnView(values._base, composed)
    start = values._start
    if start == 0:
        return ColumnView(values._base, indices)
    key = ("range", start)
    composed = memo.get(key)
    if composed is None:
        composed = memo[key] = indices + start
    return ColumnView(values._base, composed)


def _view_slice(values, start: int, stop: int, memo: dict):
    """A view of ``values[start:stop]``, flattening nested views."""
    if not isinstance(values, ColumnView):
        return ColumnView(values, start=start, stop=min(stop, len(values)))
    inner = values._materialized
    if inner is not None:
        return ColumnView(inner, start=start, stop=min(stop, len(inner)))
    inner_indices = values._indices
    if inner_indices is not None:
        key = (id(inner_indices), "slice", start, stop)
        sliced = memo.get(key)
        if sliced is None:
            sliced = inner_indices[start:stop]
            memo[key] = sliced
        return ColumnView(values._base, sliced)
    base_start = values._start + start
    base_stop = min(values._start + stop, values._stop)
    return ColumnView(values._base, start=base_start,
                      stop=max(base_start, base_stop))


class Batch:
    """An immutable-by-convention set of equal-length named columns."""

    __slots__ = ("_columns", "_names")

    def __init__(self, columns: Mapping[str, list] | None = None):
        self._columns: dict[str, list] = dict(columns or {})
        self._names: list[str] = list(self._columns)
        lengths = {len(col) for col in self._columns.values()}
        if len(lengths) > 1:
            raise ExecutorError(
                f"ragged batch: column lengths {sorted(lengths)}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, column_names: Iterable[str] = ()) -> "Batch":
        return cls({name: [] for name in column_names})

    @classmethod
    def from_rows(cls, column_names: list[str],
                  rows: Iterable[tuple]) -> "Batch":
        columns: dict[str, list] = {name: [] for name in column_names}
        for row in rows:
            if len(row) != len(column_names):
                raise ExecutorError(
                    f"row width {len(row)} != {len(column_names)} columns")
            for name, value in zip(column_names, row):
                columns[name].append(value)
        return cls(columns)

    @classmethod
    def concat(cls, batches: Iterable["Batch"]) -> "Batch":
        """Concatenate batches holding the same column *set*.

        Column order is allowed to differ between inputs (operators that
        assemble columns from dicts do not guarantee one order); the
        result uses the first batch's order.  Differing column *sets*
        still raise.  Each output column is built with exactly one list
        allocation (sized up front, filled by slice assignment), not one
        per input batch.
        """
        batches = [b for b in batches if b.num_rows or b.column_names]
        if not batches:
            return cls()
        if len(batches) == 1:
            return batches[0]
        names = batches[0].column_names
        name_set = set(names)
        for batch in batches[1:]:
            if batch.column_names != names \
                    and set(batch.column_names) != name_set:
                raise ExecutorError(
                    "cannot concat batches with differing columns: "
                    f"{names} vs {batch.column_names}")
        total = sum(batch.num_rows for batch in batches)
        columns: dict[str, list] = {}
        for name in names:
            out = [None] * total
            if _debug.enabled:
                _debug.note_allocation()
            position = 0
            for batch in batches:
                values = materialize_column(batch.column(name))
                end = position + len(values)
                out[position:end] = values
                position = end
            columns[name] = out
        return cls(columns)

    # -- shape ---------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        if not self._names:
            return 0
        return len(self._columns[self._names[0]])

    @property
    def column_names(self) -> list[str]:
        return list(self._names)

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Batch {self.num_rows} rows x {self._names}>"

    # -- access ---------------------------------------------------------------

    def column(self, name: str) -> list:
        try:
            return self._columns[name]
        except KeyError:
            raise ExecutorError(
                f"no column {name!r}; have {self._names}") from None

    def column_values(self, name: str) -> list:
        """Column as a plain list (materializes a lazy view once).

        Hot per-row loops index lists at C speed; going through
        ``ColumnView.__getitem__`` would re-enter Python per element.
        """
        column = self.column(name)
        if isinstance(column, ColumnView):
            return column.materialized()
        return column

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def row(self, index: int) -> dict[str, Any]:
        return {name: self._columns[name][index] for name in self._names}

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        columns = [self._columns[name] for name in self._names]
        for values in zip(*columns):
            yield dict(zip(self._names, values))

    def to_tuples(self, column_names: list[str] | None = None
                  ) -> list[tuple]:
        names = column_names if column_names is not None else self._names
        columns = [self.column(name) for name in names]
        return list(zip(*columns)) if names else []

    # -- transforms ------------------------------------------------------------

    def project(self, column_names: list[str]) -> "Batch":
        return Batch({name: self.column(name) for name in column_names})

    def rename(self, mapping: Mapping[str, str]) -> "Batch":
        return Batch({mapping.get(name, name): values
                      for name, values in self._columns.items()})

    def with_column(self, name: str, values: list) -> "Batch":
        """A new batch with ``name`` added (or replaced)."""
        if self._names and len(values) != self.num_rows:
            raise ExecutorError(
                f"column {name!r} has {len(values)} values, "
                f"batch has {self.num_rows} rows")
        columns = dict(self._columns)
        columns[name] = values if isinstance(values, ColumnView) \
            else list(values)
        return Batch(columns)

    def with_columns(self, new_columns: Mapping[str, list]) -> "Batch":
        """A new batch with every column of ``new_columns`` added (or
        replaced) in one pass — the bulk form of :meth:`with_column` used
        by the vectorized operators (one copy of the column dict instead
        of one per added column)."""
        columns = dict(self._columns)
        for name, values in new_columns.items():
            if self._names and len(values) != self.num_rows:
                raise ExecutorError(
                    f"column {name!r} has {len(values)} values, "
                    f"batch has {self.num_rows} rows")
            columns[name] = values if isinstance(values, ColumnView) \
                else list(values)
        return Batch(columns)

    def filter(self, mask) -> "Batch":
        if len(mask) != self.num_rows:
            raise ExecutorError(
                f"mask length {len(mask)} != {self.num_rows} rows")
        return Batch({
            name: [v for v, keep in zip(values, mask) if keep]
            for name, values in self._columns.items()
        })

    def filter_mask(self, mask) -> "Batch":
        """Like :meth:`filter`, but tuned for the vectorized path.

        Accepts any boolean sequence (including numpy bool arrays) and
        short-circuits the all-true / all-false cases: an all-true mask
        returns ``self`` unchanged (columns are immutable by convention,
        so sharing them is safe), an all-false mask skips per-column work.
        Partial selections return zero-copy :class:`ColumnView` columns
        over one shared index array.
        """
        n = self.num_rows
        if len(mask) != n:
            raise ExecutorError(
                f"mask length {len(mask)} != {n} rows")
        if not (isinstance(mask, np.ndarray) and mask.dtype == np.bool_):
            mask = np.fromiter(map(bool, mask), dtype=bool, count=n)
        keep = np.flatnonzero(mask)
        if len(keep) == n:
            return self
        if not len(keep):
            return Batch({name: [] for name in self._names})
        return self._select(keep)

    def take(self, indices) -> "Batch":
        """Rows at ``indices`` (any integer sequence, numpy included)."""
        return self._select(np.asarray(indices, dtype=np.int64))

    def _select(self, indices: np.ndarray) -> "Batch":
        memo: dict = {}
        return Batch({
            name: _view_take(values, indices, memo)
            for name, values in self._columns.items()
        })

    def slice(self, start: int, stop: int) -> "Batch":
        memo: dict = {}
        return Batch({
            name: _view_slice(values, start, stop, memo)
            for name, values in self._columns.items()
        })

    def sorted_by(self, column_name: str) -> "Batch":
        values = materialize_column(self.column(column_name))
        order = sorted(range(self.num_rows), key=values.__getitem__)
        return self.take(order)
