"""A flat columnar on-disk format for materialized views.

Stand-in for the paper's Petastorm/Parquet storage.  Every payload is one
JSON header line — each column's form and every buffer's size — and then
the contiguous buffers: dictionary codes (int32 codes and a JSON
vocabulary) for ``str`` / None values, float64, ``(n, 4)`` float64 boxes,
or JSON for anything else (:func:`_encode_values`).  Decoding is a handful
of ``np.frombuffer`` calls with no container format in between, and
returns exactly the Python values that went in.

A :class:`ColumnBatch` holds materialized-view entries: the unit a view
appends to its typed columns, the body of a WAL ``puts`` record and,
compressed whole, a partition snapshot.  Its keys travel as the int64
array the view indexes — frame ids or packed patch keys
(``view_store.pack_patch_keys``) — and as JSON only when they do not pack.

The format exists so the storage footprint experiment (section 5.2) measures
real serialized bytes, and so materialized views survive process restarts.
"""

from __future__ import annotations

import json
import zlib
from itertools import accumulate, starmap

import numpy as np

from repro.errors import StorageError
from repro.storage.batch import (Batch, BoxColumn, CodedColumn, FloatColumn,
                                 coded, float_array, materialize_column)
from repro.types import BoundingBox, box_coords

#: What a payload this module did not write raises while being decoded.
_UNDECODABLE = (ValueError, KeyError, TypeError, IndexError, zlib.error)


class ColumnBatch:
    """View entries in column form: the one layout of memory, WAL and snapshot.

    ``keys[i]`` produced ``counts[i]`` output rows (zero is legal: the UDF
    ran and returned nothing); each sequence of ``columns`` holds one value
    per output row, the rows of ``keys[0]`` first.  ``array``, when not
    None, is the same keys as an int64 array — packed patch keys when
    ``patch_keys``, else frame ids — and ``keys`` may then be None until
    a view builds the tuples.  :meth:`encode` types every column from its
    values, so :meth:`decode` returns exactly the objects that went in.
    """

    __slots__ = ("keys", "array", "patch_keys", "counts", "columns")

    def __init__(self, keys: list[tuple] | None, counts, columns: dict,
                 *, array: np.ndarray | None = None,
                 patch_keys: bool = False):
        self.keys = keys
        self.array = array
        self.patch_keys = patch_keys
        self.counts = np.asarray(counts, dtype=np.int64)
        self.columns = columns

    def __len__(self) -> int:
        return len(self.counts)

    def select(self, indices) -> "ColumnBatch":
        """The entries at ``indices`` (positions in :attr:`keys`)."""
        indices = np.asarray(indices, dtype=np.int64)
        counts = self.counts[indices]
        rows = row_ranges((np.cumsum(self.counts) - self.counts)[indices],
                          counts)
        keys = None if self.keys is None else list(
            map(self.keys.__getitem__, indices.tolist()))
        taken = Batch(self.columns).take(rows)
        return ColumnBatch(
            keys, counts, {name: taken.column(name) for name in self.columns},
            array=None if self.array is None else self.array[indices],
            patch_keys=self.patch_keys)

    def partition(self, groups: np.ndarray) -> dict[int, "ColumnBatch"]:
        """Split by ``groups[i]``, the group of entry ``i``; a one-group
        batch is not copied."""
        if not len(groups) or (groups == groups[0]).all():
            return {int(groups[0]): self} if len(groups) else {}
        order = np.argsort(groups, kind="stable")
        cuts = np.flatnonzero(np.diff(groups[order])) + 1
        return {int(groups[part[0]]): self.select(part)
                for part in np.split(order, cuts)}

    def encode(self, *, compress: bool = False) -> bytes:
        """The flat layout: the keys (int64, or JSON when they do not
        pack) and the int64 counts, then the columns; the header also
        names the key kind.  ``compress`` deflates the whole payload
        (snapshots)."""
        if self.array is not None:
            kind = "packed" if self.patch_keys else "frames"
            keys = self.array.astype(np.int64, copy=False).tobytes()
        else:
            kind, keys = "json", _json_dumps(self.keys)
        forms, buffers = _encode_columns(self.columns)
        payload = _frame({"n": len(self), "keys": kind, "columns": forms},
                         [keys, self.counts.tobytes(), *buffers])
        return zlib.compress(payload) if compress else payload

    @classmethod
    def decode(cls, payload: bytes, *,
               compressed: bool = False) -> "ColumnBatch":
        """Inverse of :meth:`encode`; raises :class:`StorageError` for a
        payload it did not write."""
        try:
            header, buffers = _unframe(zlib.decompress(payload) if compressed
                                       else payload)
            counts = np.frombuffer(buffers[1], dtype=np.int64)
            kind = header["keys"]
            keys = array = None
            if kind == "json":
                keys = [tuple(map(_from_json, key))
                        for key in json.loads(buffers[0])]
            elif kind in ("frames", "packed"):
                array = np.frombuffer(buffers[0], dtype=np.int64)
            else:
                raise ValueError(f"unknown key kind {kind!r}")
            if not len(counts) == header["n"] == len(
                    keys if array is None else array) or (counts < 0).any():
                raise ValueError("bad keys or counts")
            columns = _decode_columns(header["columns"], buffers[2:],
                                      int(counts.sum()))
        except _UNDECODABLE as exc:
            raise StorageError(f"undecodable column batch: {exc}") from exc
        return cls(keys, counts, columns, array=array,
                   patch_keys=kind == "packed")


def row_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The row numbers ``[starts[i], starts[i] + lengths[i])``, in order,
    as one int64 array."""
    ends = np.cumsum(lengths)
    return (np.arange(ends[-1] if len(ends) else 0)
            + np.repeat(starts - ends + lengths, lengths))


def _frame(header: dict, buffers: list[bytes]) -> bytes:
    """``header`` (with every buffer's size) as one JSON line, then the
    buffers."""
    header["sizes"] = list(map(len, buffers))
    return b"\n".join([_json_dumps(header), b"".join(buffers)])


def _unframe(payload: bytes) -> tuple[dict, list[bytes]]:
    """Inverse of :func:`_frame`."""
    line, _, body = payload.partition(b"\n")
    header = json.loads(line)
    sizes = header["sizes"]
    if sum(sizes) != len(body) or min(sizes, default=0) < 0:
        raise ValueError("buffer sizes do not match the payload")
    bounds = list(accumulate(sizes, initial=0))
    return header, [body[start:stop]
                    for start, stop in zip(bounds, bounds[1:])]


def _encode_columns(columns: dict) -> tuple[list, list[bytes]]:
    """``([name, form] per column, buffers)`` of named columns."""
    forms, buffers = [], []
    for name, values in columns.items():
        form, parts = _encode_values(values)
        forms.append([name, form])
        buffers += parts
    return forms, buffers


def _decode_columns(forms: list, buffers: list[bytes], rows: int) -> dict:
    """Inverse of :func:`_encode_columns`, every column ``rows`` long."""
    columns = {}
    for name, form in forms:
        columns[name], buffers = _decode_values(form, buffers, rows)
    if buffers:
        raise ValueError("unclaimed buffers")
    return columns


def _encode_values(values) -> tuple[str, list[bytes]]:
    """``(form, buffers)`` of one column: ``codes`` (int32 codes and a
    JSON vocabulary) for ``str`` / None, ``float`` (float64), ``box``
    (``(n, 4)`` float64) for boxes of float coordinates, else ``json`` —
    the forms of a view's typed columns, by their own ``takes``."""
    dictionary = coded(values)
    if dictionary is not None:
        codes, vocab = dictionary
        return "codes", [codes.astype(np.int32, copy=False).tobytes(),
                         _json_dumps(vocab)]
    array = float_array(values)
    if array is not None:
        return "float", [array.tobytes()]
    values = materialize_column(values)
    if CodedColumn.takes(values):
        column = CodedColumn()
        column.extend(values)
        return "codes", [column.codes().tobytes(), _json_dumps(column.vocab)]
    if FloatColumn.takes(values):
        return "float", [np.array(values, dtype=np.float64).tobytes()]
    if BoxColumn.takes(values):
        return "box", [box_coords(values).tobytes()]
    return "json", [_json_dumps(values)]


def _decode_values(form: str, buffers: list[bytes], rows: int
                   ) -> tuple[list, list[bytes]]:
    """One column of ``rows`` values from the head of ``buffers``, and the
    buffers after it."""
    head, rest = buffers[0], buffers[1:]
    if form == "codes":
        codes, vocab = np.frombuffer(head, dtype=np.int32), json.loads(rest[0])
        lookup = np.empty(len(vocab), dtype=object)
        lookup[:] = vocab
        if len(codes) and not 0 <= codes.min() <= codes.max() < len(lookup):
            raise ValueError("code outside the vocabulary")
        values, rest = lookup[codes].tolist(), rest[1:]
    elif form == "float":
        values = np.frombuffer(head, dtype=np.float64).tolist()
    elif form == "box":
        values = list(starmap(BoundingBox, np.frombuffer(
            head, dtype=np.float64).reshape(-1, 4).tolist()))
    elif form == "json":
        values = list(map(_from_json, json.loads(head)))
    else:
        raise ValueError(f"unknown column form {form!r}")
    if len(values) != rows:
        raise ValueError(f"a {form} column holds {len(values)} of "
                         f"{rows} rows")
    return values, rest


def json_chars(items: list) -> int:
    """The summed length of each item's JSON as this codec writes a list
    of them (:func:`~repro.storage.batch.json_list_bytes` of it is the
    list's); raises ``TypeError`` for a value it cannot store."""
    return len(_json_dumps(items)) - len(items) - 1 if items else 0


def _json_dumps(value) -> bytes:
    return json.dumps(value, default=_json_default,
                      separators=(",", ":")).encode("utf-8")


def _json_default(value):
    if isinstance(value, BoundingBox):
        return ["__bbox__", *value.as_tuple()]
    raise TypeError(f"cannot store {type(value).__name__} values")


def _from_json(value):
    """JSON arrays come back as tuples (keys must hash), tagged ones as
    bounding boxes."""
    if type(value) is not list:
        return value
    if value and value[0] == "__bbox__":
        return BoundingBox(*value[1:])
    return tuple([_from_json(item) for item in value])
