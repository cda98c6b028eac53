"""Storage engine: batches, a columnar on-disk format, and view storage.

The paper stores videos through Petastorm/Parquet and moves data as pandas
dataframes.  Offline we provide the same roles with local code: a
column-oriented :class:`~repro.storage.batch.Batch` as the unit of data flow,
a simple columnar on-disk format, and a materialized-view store keyed by UDF
input identity (frame id, or frame id + bounding box).
"""

from repro.storage.batch import Batch
from repro.storage.view_store import MaterializedView, ViewStore
from repro.storage.engine import StorageEngine, VideoTable

__all__ = [
    "Batch",
    "MaterializedView",
    "ViewStore",
    "StorageEngine",
    "VideoTable",
]
