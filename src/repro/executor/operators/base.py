"""Operator base class, and the segment cut the APPLY stages share."""

from __future__ import annotations

import abc
from typing import Callable, Iterator

import numpy as np

from repro.executor.context import ExecutionContext
from repro.storage.batch import Batch, has_duplicates


def node_label(node) -> str:
    """A plan node's display label (``PhysFilter`` -> ``Filter``)."""
    return type(node).__name__.removeprefix("Phys")


def segments(keys, cut_repeats: bool,
             creating_row: Callable[[int, int], int | None]
             ) -> Iterator[np.ndarray]:
    """A batch's rows, keyed by ``keys``, as consecutive segments on which
    resolving the rows at once equals resolving them one per batch: the
    segment contract that makes ``batch_rows`` invisible to rows, views,
    counts and every charge but APPLY's.

    A segment ends before a repeated key when ``cut_repeats`` (the
    earlier row's STORE makes the repeat a hit), and right after
    ``creating_row(start, stop)`` — the first row of ``[start, stop)``
    whose STORE may create a view the stage probes, or None — which is
    asked once the previous segment is resolved.
    """
    stops = []
    if cut_repeats and has_duplicates(keys):
        seen: set = set()
        for index, key in enumerate(
                keys.tolist() if isinstance(keys, np.ndarray) else keys):
            if key in seen:
                stops.append(index)
                seen = set()
            seen.add(key)
    start = 0
    for stop in stops + [len(keys)]:
        while start < stop:
            row = creating_row(start, stop)
            end = stop if row is None else row + 1
            yield np.arange(start, end)
            start = end


class Operator(abc.ABC):
    """A pull-based physical operator producing batches."""

    def __init__(self, context: ExecutionContext):
        self.context = context
        #: How this operator evaluates batches: ``"fused"`` (the
        #: streaming pipeline), ``"vectorized"`` / ``"row-fallback"`` (a
        #: blocking operator whose expression kernels all compiled / did
        #: not), or ``None`` when the distinction does not apply
        #: (DISTINCT, LIMIT).  EXPLAIN ANALYZE and the obs layer report it
        #: per operator.
        self.kernel_mode: str | None = None
        #: Batches that started on a compiled kernel but re-ran through
        #: the row interpreter (runtime fallback).
        self.kernel_fallback_batches: int = 0

    @abc.abstractmethod
    def execute(self) -> Iterator[Batch]:
        """Stream output batches."""

    def fallback_counts(self) -> dict[str, int]:
        """Runtime row-fallback batches, keyed by plan-node label."""
        node = getattr(self, "node", None)
        label = node_label(node) if node is not None else type(self).__name__
        return {label: self.kernel_fallback_batches}

    def run_to_completion(self) -> Batch:
        """Drain the operator into a single batch (for plan roots).

        Checks the context's cancel token between batches so a server
        timeout unwinds the pipeline at the next batch boundary.
        """
        batches = []
        for batch in self.execute():
            self.context.check_cancelled()
            batches.append(batch)
        if not batches:
            return Batch()
        return Batch.concat(batches)
