"""A simple columnar on-disk format for tables and materialized views.

Stand-in for the paper's Petastorm/Parquet storage: a table is a directory
containing ``manifest.json`` (schema + row count) and one ``.npz`` file per
column group.  Numeric columns are stored as numpy arrays; strings as JSON;
bounding boxes as an ``(n, 4)`` float array; arbitrary objects via pickle.

A :class:`ColumnBatch` is the same codec applied to materialized-view
entries: it is the unit a view appends to its in-memory columns, the body
of a WAL ``puts`` record and the content of a partition snapshot, so a
stored entry is encoded once and decoded straight into a view.

The format exists so the storage footprint experiment (section 5.2) measures
real serialized bytes, and so materialized views survive process restarts.
"""

from __future__ import annotations

import io
import json
import pickle
import threading
from itertools import accumulate, chain
from pathlib import Path
from typing import Callable, Hashable

import numpy as np

from repro.errors import StorageError
from repro.catalog.schema import ColumnType, TableSchema
from repro.storage.batch import Batch, materialize_column
from repro.types import BoundingBox

_MANIFEST = "manifest.json"
_COLUMNS = "columns.npz"
_MANIFEST_VERSION = 1

#: numpy parses every ``.npy`` header with ``ast.literal_eval``, and
#: CPython 3.11 keeps the AST converter's recursion depth per interpreter,
#: not per thread: two loads that interleave raise ``SystemError: AST
#: constructor recursion depth mismatch``.  Recovery decodes partitions
#: from a thread pool, so :meth:`ColumnBatch.decode` loads under this lock.
_NPZ_LOAD_LOCK = threading.Lock()


def write_table(directory: str | Path, schema: TableSchema,
                batch: Batch) -> int:
    """Write ``batch`` with ``schema`` into ``directory``.

    Returns:
        Total bytes written (manifest + column data).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    for col in schema.columns:
        values = batch.column(col.name)
        arrays[col.name] = _encode_column(col.ctype, values)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    column_bytes = buffer.getvalue()
    (directory / _COLUMNS).write_bytes(column_bytes)
    manifest = {
        "version": _MANIFEST_VERSION,
        "num_rows": batch.num_rows,
        "columns": [
            {"name": c.name, "type": c.ctype.value} for c in schema.columns
        ],
    }
    manifest_bytes = json.dumps(manifest, indent=2).encode("utf-8")
    (directory / _MANIFEST).write_bytes(manifest_bytes)
    return len(column_bytes) + len(manifest_bytes)


def read_table(directory: str | Path) -> tuple[TableSchema, Batch]:
    """Read a table previously written by :func:`write_table`."""
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise StorageError(f"no table at {directory}")
    manifest = json.loads(manifest_path.read_text("utf-8"))
    if manifest.get("version") != _MANIFEST_VERSION:
        raise StorageError(
            f"unsupported table version {manifest.get('version')}")
    schema = TableSchema.of(*[
        (c["name"], ColumnType(c["type"])) for c in manifest["columns"]
    ])
    with np.load(directory / _COLUMNS, allow_pickle=False) as arrays:
        columns = {
            col.name: _decode_column(col.ctype, arrays[col.name])
            for col in schema.columns
        }
    batch = Batch(columns)
    if batch.num_rows != manifest["num_rows"]:
        raise StorageError(
            f"row count mismatch: manifest says {manifest['num_rows']}, "
            f"data has {batch.num_rows}")
    return schema, batch


def _encode_column(ctype: ColumnType, values: list) -> np.ndarray:
    values = materialize_column(values)
    if ctype is ColumnType.INTEGER:
        return np.asarray(values, dtype=np.int64)
    if ctype is ColumnType.FLOAT:
        return np.asarray(values, dtype=np.float64)
    if ctype is ColumnType.BOOLEAN:
        return np.asarray(values, dtype=np.bool_)
    if ctype is ColumnType.STRING:
        return _json_array(values)
    if ctype is ColumnType.BBOX:
        flat = [(b.x1, b.y1, b.x2, b.y2) for b in values]
        return np.asarray(flat, dtype=np.float64).reshape(-1, 4)
    if ctype in (ColumnType.OBJECT, ColumnType.FRAME):
        payload = pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL)
        return np.frombuffer(payload, dtype=np.uint8)
    raise StorageError(f"cannot encode column type {ctype}")


def _decode_column(ctype: ColumnType, array: np.ndarray) -> list:
    # tolist() converts int64/float64/bool_ arrays to native Python
    # values in one C-level pass instead of one boxed conversion per
    # element.
    if ctype is ColumnType.INTEGER:
        return array.tolist()
    if ctype is ColumnType.FLOAT:
        return array.tolist()
    if ctype is ColumnType.BOOLEAN:
        return array.tolist()
    if ctype is ColumnType.STRING:
        return json.loads(array.tobytes().decode("utf-8"))
    if ctype is ColumnType.BBOX:
        return [BoundingBox(*row) for row in array.reshape(-1, 4).tolist()]
    if ctype in (ColumnType.OBJECT, ColumnType.FRAME):
        return pickle.loads(array.tobytes())
    raise StorageError(f"cannot decode column type {ctype}")


# -- materialized-view entries ---------------------------------------------------


class ColumnBatch:
    """View entries in column form: the one layout of memory, WAL and snapshot.

    ``keys[i]`` produced ``counts[i]`` output rows (zero is legal: the UDF
    ran and returned nothing); each list of ``columns`` holds one value per
    output row, the rows of ``keys[0]`` first.  :meth:`encode` types every
    column from its values — float64, an ``(n, 4)`` bbox array, or JSON for
    anything else — so decoding returns exactly the objects that went in.
    """

    __slots__ = ("keys", "counts", "columns")

    def __init__(self, keys: list[tuple], counts: list[int],
                 columns: dict[str, list]):
        self.keys = keys
        self.counts = counts
        self.columns = columns

    def __len__(self) -> int:
        return len(self.keys)

    def select(self, indices: list[int]) -> "ColumnBatch":
        """The entries at ``indices`` (positions in :attr:`keys`)."""
        starts = list(accumulate(self.counts, initial=0))
        rows = [row for i in indices
                for row in range(starts[i], starts[i + 1])]
        return ColumnBatch(
            [self.keys[i] for i in indices],
            [self.counts[i] for i in indices],
            {name: [values[row] for row in rows]
             for name, values in self.columns.items()})

    def partition(self, group_of: Callable[[tuple], Hashable]
                  ) -> dict[Hashable, "ColumnBatch"]:
        """Split by ``group_of(key)``; a one-group batch is not copied."""
        groups: dict[Hashable, list[int]] = {}
        for index, key in enumerate(self.keys):
            groups.setdefault(group_of(key), []).append(index)
        if len(groups) == 1:
            return {group: self for group in groups}
        return {group: self.select(indices)
                for group, indices in groups.items()}

    def encode(self, *, compress: bool = False) -> bytes:
        """An ``.npz`` payload: ``keys`` (JSON), ``counts`` and one
        ``<type>_<column>`` array per column."""
        arrays = {"keys": _json_array(self.keys),
                  "counts": np.asarray(self.counts, dtype=np.int64)}
        for name, values in self.columns.items():
            ctype = _infer_type(values)
            arrays[f"{ctype.value}_{name}"] = _encode_column(ctype, values)
        buffer = io.BytesIO()
        (np.savez_compressed if compress else np.savez)(buffer, **arrays)
        return buffer.getvalue()

    @classmethod
    def decode(cls, payload: bytes) -> "ColumnBatch":
        """Inverse of :meth:`encode`."""
        columns: dict[str, list] = {}
        with _NPZ_LOAD_LOCK, \
                np.load(io.BytesIO(payload), allow_pickle=False) as arrays:
            keys = [tuple([_from_json(part) for part in raw])
                    for raw in _decode_column(ColumnType.STRING,
                                              arrays["keys"])]
            counts = arrays["counts"].tolist()
            for member in arrays.files:
                if member in ("keys", "counts"):
                    continue
                ctype, _, name = member.partition("_")
                values = _decode_column(ColumnType(ctype), arrays[member])
                if ctype == ColumnType.STRING.value:
                    values = [_from_json(value) for value in values]
                columns[name] = values
        return cls(keys, counts, columns)


def _infer_type(values: list) -> ColumnType:
    """The binary type that round-trips ``values`` exactly, else JSON."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return ColumnType.FLOAT
    if kinds == {BoundingBox} and set(map(type, chain.from_iterable(
            box.as_tuple() for box in values))) == {float}:
        return ColumnType.BBOX
    return ColumnType.STRING


def _json_array(values: list) -> np.ndarray:
    payload = json.dumps(values, default=_json_default,
                         separators=(",", ":")).encode("utf-8")
    return np.frombuffer(payload, dtype=np.uint8)


def _json_default(value):
    if isinstance(value, BoundingBox):
        return ["__bbox__", *value.as_tuple()]
    raise TypeError(f"cannot store {type(value).__name__} values in a view")


def _from_json(value):
    """JSON arrays come back as tuples (keys must hash), tagged ones as
    bounding boxes."""
    if type(value) is not list:
        return value
    if value and value[0] == "__bbox__":
        return BoundingBox(*value[1:])
    return tuple([_from_json(item) for item in value])
