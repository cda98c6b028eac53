"""Detector CROSS APPLY with reuse: a stage of the streaming pipeline.

Implements the composite of Fig. 4 in pipelined form.  For each input frame
the stage consults its :class:`~repro.optimizer.plans.DetectorSource`
list in order:

* a **view** source serves the frame when its predicate covers the frame's
  values *and* the frame's key is present in that model's materialized view
  (the LEFT OUTER JOIN + pass-through-predicate check);
* a **model** source evaluates the physical model (the conditional APPLY),
  and — when the plan says so — appends the fresh results to the model's
  view (the STORE operator).

Under the HashStash policy the stage instead reads the deduplicated
union of all matched recycler entries up front, and under FunCache it
probes the execution engine's function cache per frame.

The pipeline hands it whole batches
(:meth:`DetectorApplyOperator._apply_batch_vectorized`), which it cuts
into :func:`~repro.executor.operators.base.segments` so that the answer,
the views and every charge equal those of one frame per batch.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Sequence

import numpy as np

from repro.clock import CostCategory
from repro.baselines.hashstash import RecyclerEntry
from repro.config import ReusePolicy
from repro.errors import ExecutorError
from repro.executor.context import ExecutionContext
from repro.executor.operators.base import segments
from repro.models.base import ObjectDetectorModel
from repro.optimizer.plans import DetectorSource, PhysDetectorApply
from repro.optimizer.udf_manager import UdfSignature
from repro.storage.batch import (
    Batch,
    ColumnView,
    column_areas,
    frame_ids,
)
from repro.symbolic.compiled import compile_dnf
from repro.types import Detection
from repro.video.synthetic import SyntheticVideo

#: Output columns the detector adds to each row.
DETECTOR_COLUMNS = ("label", "bbox", "score", "area")
VIEW_OUTPUT_COLUMNS = ["label", "bbox", "score"]


class DetectorApplyOperator:
    """CROSS APPLY of an object detector over a batch of frames."""

    def __init__(self, node: PhysDetectorApply, context: ExecutionContext):
        self.context = context
        self.node = node
        self._sources = [
            (source, compile_dnf(source.predicate),
             self._model_for(source))
            for source in node.sources
        ]
        self._fallback_model = self._pick_fallback()
        self._join_charged = False
        # HashStash state: combined recycler results (read when the
        # pipeline starts) and this query's output (a new recycler entry,
        # added when it ends).
        self._hashstash_combined: dict | None = None
        self._hashstash_output: dict = {}

    def _model_for(self, source: DetectorSource) -> ObjectDetectorModel:
        model = self.context.catalog.zoo.get(source.model_name)
        if not isinstance(model, ObjectDetectorModel):
            raise ExecutorError(
                f"{source.model_name!r} is not an object detector")
        return model

    def _pick_fallback(self) -> ObjectDetectorModel:
        """Safety net: the cheapest model named by any source."""
        models = [model for source, _, model in self._sources
                  if not source.use_view]
        if not models:
            models = [model for _, _, model in self._sources]
        return min(models, key=lambda m: m.per_tuple_cost)

    def _apply_batch_vectorized(self, batch: Batch,
                                policy: ReusePolicy) -> Batch:
        """Resolve a whole batch of frames at once.

        Under EVA and NONE each of the batch's :func:`segments` walks the
        sources in plan order over a shrinking *pending* set: each view
        source bulk-probes its materialized view (one ``get_many``), each
        model source batch-evaluates the rows its predicate matches (one
        ``predict_batch``), and leftovers go to the fallback model.  On a
        segment that is what one frame per batch computes, with the same
        virtual charges; the clock is additive so interleaving order is
        irrelevant.  HashStash and FunCache answer every frame with the
        fallback model.

        Frames travel as ids (:func:`~repro.storage.batch.frame_ids`):
        the probe takes the id array, the model the miss ids, and ``area``
        the video's frame size — no frame handle is built.
        """
        n = batch.num_rows
        if n == 0:
            return Batch()
        for name in ("frame", "id"):
            if not batch.has_column(name):
                raise KeyError(name)  # before any row is resolved
        video_name, ids = frame_ids(batch.column("frame"))
        video = self.context.video(video_name)
        #: ``(input rows, detections per row, output columns)`` of every
        #: group a source resolved, in resolution order.
        parts: list[tuple[np.ndarray, np.ndarray, dict]] = []
        if policy in (ReusePolicy.HASHSTASH, ReusePolicy.FUNCACHE):
            parts.append(self._baseline_batch(policy, video, ids))
        else:
            values_of = cache(partial(self._predicate_values, batch))
            for rows in segments(
                    ids, self.node.store,
                    partial(self._creating_row, video_name, values_of)):
                self._resolve_rows(video, ids, rows, values_of, parts)
        return self._assemble(batch, parts)

    def _resolve_rows(self, video: SyntheticVideo, ids: np.ndarray,
                      pending: np.ndarray, values_of, parts: list) -> None:
        """The source list over one segment's rows."""
        for source, predicate, model in self._sources:
            if not len(pending):
                return
            if source.use_view:
                pending = self._probe_view_batch(model, video, ids, pending,
                                                 parts)
                continue
            values = values_of()
            matched = np.array([predicate(values[i])
                                for i in pending.tolist()], dtype=bool)
            if matched.any():
                self._evaluate_many(model, video, ids, pending[matched],
                                    parts)
                pending = pending[~matched]
        if len(pending):
            self._evaluate_many(self._fallback_model, video, ids, pending,
                                parts)

    def _creating_row(self, video_name: str, values_of, start: int,
                      stop: int) -> int | None:
        """The first row of ``[start, stop)`` whose STORE may create a view
        a source probes: one whose resolving model — the first model
        source its predicate values satisfy, else the fallback model —
        stores to such a view that is absent.  (A view source answering
        the row first only makes the cut early.)"""
        view_store = self.context.view_store
        absent = {model.name for source, _, model in self._sources
                  if source.use_view and view_store.get(
                      self._view_name(model.name, video_name)) is None}
        if not (self.node.store and absent):
            return None
        for row in range(start, stop):
            model = next((model for source, predicate, model in self._sources
                          if not source.use_view
                          and predicate(values_of()[row])),
                         self._fallback_model)
            if model.name in absent:
                return row
        return None

    def _predicate_values(self, batch: Batch) -> list[dict]:
        """Per-row value dicts for source predicates (columnar build)."""
        n = batch.num_rows
        ids = batch.column("id")
        timestamps = (batch.column("timestamp")
                      if batch.has_column("timestamp") else None)
        udf_columns = [
            ("udf:" + name[len("__udf::"):], batch.column(name))
            for name in batch.column_names if name.startswith("__udf::")
        ]
        values_list = []
        for i in range(n):
            values: dict = {}
            if ids[i] is not None:
                values["id"] = ids[i]
            if timestamps is not None and timestamps[i] is not None:
                values["timestamp"] = timestamps[i]
            for key, column in udf_columns:
                values[key] = column[i]
            values_list.append(values)
        return values_list

    def _probe_view_batch(self, model: ObjectDetectorModel,
                          video: SyntheticVideo, ids: np.ndarray,
                          pending: np.ndarray, parts: list) -> np.ndarray:
        """Bulk LEFT OUTER JOIN against the model's view; returns misses.

        The view is probed with the pending rows' frame ids.  The hit
        rows' output columns are zero-copy views over the materialized
        view's own typed columns; ``area`` divides the view's derived box
        areas by the frame size (a video's frames share one), as
        :meth:`~repro.types.BoundingBox.relative_area` does.
        """
        view = self.context.view_store.get(
            self._view_name(model.name, video.name))
        if view is None:
            return pending
        costs = self.context.costs
        if not self._join_charged:
            self.context.clock.charge(CostCategory.JOIN, costs.join_setup)
            self._join_charged = True
        self.context.clock.charge(
            CostCategory.READ_VIEW, len(pending) * costs.view_read_per_key)
        hits = view.get_many(ids[pending])
        positions, counts = hits.hit_positions()
        if not len(positions):
            return pending
        if hits.num_rows:
            self.context.clock.charge(
                CostCategory.READ_VIEW,
                hits.num_rows * costs.view_read_per_row)
        found = pending[positions]
        self._record_many(model, video, ids[found], reused=True)
        columns = {name: hits.column(name) for name in VIEW_OUTPUT_COLUMNS}
        columns["area"] = ColumnView(_relative_areas(
            video, column_areas(columns["bbox"])))
        parts.append((found, counts, columns))
        missed = np.ones(len(pending), dtype=bool)
        missed[positions] = False
        return pending[missed]

    def _evaluate_many(self, model: ObjectDetectorModel,
                       video: SyntheticVideo, ids: np.ndarray,
                       indices: np.ndarray, parts: list) -> None:
        """One ``predict_batch`` over the rows at ``indices`` + bulk
        STORE."""
        part = _part(video, indices, self._invoke(model, video, ids, indices))
        if self.node.store:
            counts = part[1].tolist()
            view = self.context.view_store.create_or_get(
                self._view_name(model.name, video.name), ["id"],
                VIEW_OUTPUT_COLUMNS)
            inserted = view.put_many(ids[indices], counts, part[2])
            stored_rows = sum(
                max(1, count)
                for count, was_new in zip(counts, inserted) if was_new)
            if stored_rows:
                self.context.clock.charge(
                    CostCategory.MATERIALIZE,
                    stored_rows * self.context.costs.materialize_per_row)
        parts.append(part)

    def _invoke(self, model: ObjectDetectorModel, video: SyntheticVideo,
                ids: np.ndarray, indices: np.ndarray) -> list:
        """One ``predict_batch`` over the frames at ``indices``, charged
        and recorded as evaluated; their detections, in order."""
        if not len(indices):
            return []
        self.context.clock.charge(
            CostCategory.UDF, len(indices) * model.per_tuple_cost)
        inputs = ids[indices]
        outputs = self.context.invoke_model(model, video, inputs.tolist())
        self._record_many(model, video, inputs, reused=False)
        return outputs

    def _baseline_batch(self, policy: ReusePolicy, video: SyntheticVideo,
                        ids: np.ndarray) -> tuple:
        """HashStash and FunCache answer every frame with the fallback
        model.  FunCache looks each frame up, charged its hash; HashStash
        reads the recycler union read when the query started, and every
        frame's detections join this query's recycler entry."""
        model = self._fallback_model
        frames = ids.tolist()

        def evaluate(misses: list[int]) -> list:
            return list(map(tuple, self._invoke(
                model, video, ids, np.array(misses, dtype=np.int64))))

        if policy is ReusePolicy.FUNCACHE:
            # A video's frames share one size.
            outputs, hits = self.context.function_cache.lookup_many(
                model.name, [(model.name, video.name, frame_id)
                             for frame_id in frames],
                [video.frame(frames[0]).nbytes()] * len(frames), evaluate)
        else:
            outputs = list(map(self._hashstash_combined.get, frames))
            hits = [row for row, out in enumerate(outputs) if out is not None]
            misses = [row for row, out in enumerate(outputs) if out is None]
            for row, detections in zip(misses, evaluate(misses)):
                outputs[row] = detections
            self._hashstash_output.update(zip(frames, outputs))
        self._record_many(model, video, ids[hits], reused=True)
        return _part(video, np.arange(len(frames)), outputs)

    @staticmethod
    def _assemble(batch: Batch, parts: list) -> Batch:
        """Expand input rows by their detections, column-at-a-time.

        One part — every row answered by the same view or model, the
        common case — already is the output, in input order.  Several
        parts are concatenated and read back through one index array that
        restores input order.
        """
        if len(parts) == 1:
            rows, counts, columns = parts[0]
            order = None
        else:
            columns = {name: [] for name in DETECTOR_COLUMNS}
            for _, _, part_columns in parts:
                for name, values in part_columns.items():
                    columns[name].extend(values)
            rows = np.concatenate([part[0] for part in parts])
            counts = np.concatenate([part[1] for part in parts])
            # Where each row's detections start in the concatenation.
            starts = np.cumsum(counts) - counts
            by_row = np.argsort(rows, kind="stable")
            rows, counts, starts = rows[by_row], counts[by_row], \
                starts[by_row]
            ends = np.cumsum(counts)
            order = (np.arange(ends[-1] if len(ends) else 0)
                     + np.repeat(starts - ends + counts, counts))
        indices = np.repeat(rows, counts)
        if not len(indices):
            return Batch()
        if order is not None:
            columns = {name: ColumnView(values, order)
                       for name, values in columns.items()}
        return batch.take(indices).with_columns(columns)

    # -- baseline paths -----------------------------------------------------------

    @property
    def _recycler_signature(self) -> str:
        """Sub-tree signature for recycler matching.

        Includes the resolved physical model: a logical detector resolved
        to different models must not cross-reuse operator results.
        """
        return f"{self.node.signature}#{self._fallback_model.name}"

    def _prepare_hashstash(self) -> None:
        """Read + deduplicate the union of matched recycler entries."""
        recycler = self.context.recycler
        if recycler is None:
            raise ExecutorError("HashStash policy without a recycler graph")
        combined, rows_read = recycler.union_of_matched(
            self._recycler_signature)
        if rows_read:
            costs = self.context.costs
            self.context.clock.charge(CostCategory.JOIN, costs.join_setup)
            self.context.clock.charge(
                CostCategory.READ_VIEW,
                rows_read * (costs.view_read_per_row
                             + costs.view_read_per_key))
            # Deduplicating the union of all matched entries is hash work.
            self.context.clock.charge(
                CostCategory.HASH,
                rows_read * costs.hashstash_dedup_per_row)
        self._hashstash_combined = combined

    def _add_recycler_entry(self) -> None:
        """This query's output — partial under LIMIT or cancel — becomes
        a recycler entry."""
        if self._hashstash_output:
            self.context.recycler.add(RecyclerEntry(
                self._recycler_signature, dict(self._hashstash_output)))

    # -- bookkeeping ------------------------------------------------------------------

    def _record_many(self, model: ObjectDetectorModel, video: SyntheticVideo,
                     frames: np.ndarray, reused: bool) -> None:
        if len(frames):
            self.context.metrics.record_invocations(
                model.name, frames, reused,
                per_tuple_cost=model.per_tuple_cost, video=video.name)

    @staticmethod
    def _view_name(model_name: str, video_name: str) -> str:
        signature = UdfSignature(model_name, (video_name,))
        return f"mv::{signature.key()}"


def _part(video: SyntheticVideo, rows: np.ndarray,
          outputs: Sequence[Sequence[Detection]]) -> tuple:
    """``(rows, detections per row, output columns)`` of the detections
    ``outputs`` of ``rows``."""
    counts = [len(detections) for detections in outputs]
    flat = [d for detections in outputs for d in detections]
    bboxes = [d.bbox for d in flat]
    columns = {"label": [d.label for d in flat], "bbox": bboxes,
               "score": [d.score for d in flat],
               "area": ColumnView(_relative_areas(
                   video, column_areas(bboxes)))}
    return rows, np.array(counts, dtype=np.int64), columns


def _relative_areas(video: SyntheticVideo, areas: np.ndarray) -> np.ndarray:
    """``AREA(bbox)`` — :meth:`~repro.types.BoundingBox.relative_area` on
    the frames of ``video`` — of boxes whose areas are ``areas``."""
    frame_area = video.metadata.width * video.metadata.height
    if frame_area <= 0:
        return np.zeros(len(areas))
    return areas / frame_area
