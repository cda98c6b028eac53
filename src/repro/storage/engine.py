"""Table access: video tables backed by the synthetic generator.

A :class:`VideoTable` exposes a video as a relation with schema
``(id INTEGER, timestamp FLOAT, frame FRAME)`` — the shape Listing 1's
queries assume.  Scans stream column-oriented batches; the executor charges
per-frame read costs to the virtual clock.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import StorageError
from repro.catalog.schema import ColumnType, TableSchema
from repro.storage.batch import Batch, FrameColumn
from repro.video.synthetic import SyntheticVideo

#: Rows per scan batch.  The paper batches at ~200 MiB; with lazy frame
#: handles a fixed row count plays the same role.
DEFAULT_BATCH_ROWS = 512

VIDEO_SCHEMA = TableSchema.of(
    ("id", ColumnType.INTEGER),
    ("timestamp", ColumnType.FLOAT),
    ("frame", ColumnType.FRAME),
)


class VideoTable:
    """A video registered as a scannable relation."""

    def __init__(self, video: SyntheticVideo):
        self.video = video
        self.schema = VIDEO_SCHEMA

    @property
    def name(self) -> str:
        return self.video.name

    @property
    def num_rows(self) -> int:
        return self.video.num_frames

    def scan(self, start: int = 0, stop: int | None = None,
             batch_rows: int = DEFAULT_BATCH_ROWS,
             columns: Sequence[str] | None = None) -> Iterator[Batch]:
        """Stream frames ``[start, stop)`` as batches.

        ``frame`` is a lazy :class:`~repro.storage.batch.FrameColumn` over
        the batch's range: a frame handle is built only where a reader
        indexes it (a row-tree operator, ``SELECT frame``), never for the
        APPLY operators, which read frame ids.  ``columns`` restricts the
        built columns (schema order is preserved); row counts (and thus
        READ_VIDEO charges) are unaffected.
        """
        stop = self.num_rows if stop is None else min(stop, self.num_rows)
        start = max(0, start)
        fps = self.video.metadata.fps or 1.0
        wanted = None if columns is None else set(columns)
        for begin in range(start, stop, batch_rows):
            end = min(begin + batch_rows, stop)
            ids = list(range(begin, end))
            built: dict[str, Sequence] = {}
            if wanted is None or "id" in wanted:
                built["id"] = ids
            if wanted is None or "timestamp" in wanted:
                built["timestamp"] = (np.arange(begin, end) / fps).tolist()
            if wanted is None or "frame" in wanted:
                built["frame"] = FrameColumn(self.video, begin, end)
            if not built:
                built["id"] = ids
            yield Batch(built)


class StorageEngine:
    """Registry of scannable tables (videos, and in-memory test tables)."""

    def __init__(self) -> None:
        self._videos: dict[str, VideoTable] = {}

    def register_video(self, video: SyntheticVideo) -> VideoTable:
        if video.name in self._videos:
            raise StorageError(f"video {video.name!r} already registered")
        table = VideoTable(video)
        self._videos[video.name] = table
        return table

    def table(self, name: str) -> VideoTable:
        try:
            return self._videos[name]
        except KeyError:
            raise StorageError(f"unknown table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._videos

    def table_names(self) -> list[str]:
        return sorted(self._videos)
