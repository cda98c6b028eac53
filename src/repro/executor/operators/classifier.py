"""Conditional APPLY of patch classifiers and frame filters.

Adds one column per UDF term (named via
:func:`repro.expressions.evaluator.udf_column_name`) holding the term's
value for each row.  Under the EVA policy the operator probes the term's
materialized view first and evaluates the model only on misses, appending
fresh results (the conditional-APPLY + STORE composite of Fig. 4); under
FunCache it probes the execution-time cache; otherwise it always
evaluates.  The row tree (``execution_mode="row"``) runs NONE and exact
EVA one row at a time, the reference for the pipeline's batch methods.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.clock import CostCategory
from repro.config import ReusePolicy
from repro.errors import ExecutorError
from repro.catalog.udf_registry import UdfKind
from repro.executor.context import ExecutionContext
from repro.executor.operators.base import Operator, segments
from repro.expressions.analysis import term_key
from repro.expressions.evaluator import udf_column_name
from repro.models.base import PatchClassifierModel
from repro.models.filters import SpecializedFilter
from repro.optimizer.plans import PhysClassifierApply
from repro.storage.batch import (
    Batch,
    box_keys,
    frame_ids,
    materialize_column,
)
from repro.storage.view_store import (
    MaterializedView,
    pack_key_tuples,
    pack_patch_keys,
)
from repro.types import BoundingBox
from repro.video.frames import Frame


class ClassifierApplyOperator(Operator):
    """Adds the computed UDF column to every row."""

    def __init__(self, child: Operator, node: PhysClassifierApply,
                 context: ExecutionContext):
        super().__init__(context)
        self.child = child
        self.node = node
        self.model = context.catalog.zoo.get(node.model_name)
        definition = context.catalog.udfs.get(node.call.name)
        self.kind = definition.kind
        if self.kind not in (UdfKind.PATCH_CLASSIFIER, UdfKind.FRAME_FILTER):
            raise ExecutorError(
                f"cannot apply UDF kind {self.kind} as a classifier")
        self.column = udf_column_name(term_key(node.call))
        self._view_name = f"mv::{node.signature}"
        self._join_charged = False
        self.kernel_mode = "row"

    def execute(self) -> Iterator[Batch]:
        policy = self.context.config.reuse_policy
        for batch in self.child.execute():
            self.context.clock.charge(
                CostCategory.APPLY, self.context.costs.apply_per_batch)
            values = [self._resolve(row, policy)
                      for row in batch.iter_rows()]
            yield batch.with_column(self.column, values)

    # -- batch resolution (called by the streaming pipeline) ---------------------

    def _resolve_batch(self, batch: Batch,
                       policy: ReusePolicy) -> Sequence:
        """Resolve the UDF column for a whole batch at once.

        Under EVA each of the batch's :func:`segments` probes the
        materialized view with one bulk ``get_many``, invokes the model
        **once** on its misses, and appends fresh results with one bulk
        ``put_many`` — on a segment, what the row path computes, with the
        same virtual charges (the clock is additive, so per-row
        interleaving order does not matter).

        Frames travel as ids (:func:`~repro.storage.batch.frame_ids`): a
        frame filter's view is keyed by ``(frame_id,)`` and is probed
        with the id array itself; a patch classifier's view is probed
        with each id and rounded box packed into one int64
        (:func:`~repro.storage.view_store.pack_patch_keys`), the boxes
        rounded as one array (:func:`~repro.storage.batch.box_keys`).
        Keys that do not pack are key tuples.  Whatever form the probe
        takes, the invocation metrics identify a patch by its packed key
        when it packs — as the row path and every other batch do — so
        #DI does not depend on the batch.  A batch every row of which
        hits returns the view's own column, dictionary codes and all, so
        a compare on it runs on the codes.
        """
        n = batch.num_rows
        if n == 0:
            return []
        video_name, ids, keys, recorded = self._batch_keys(batch)
        if policy is ReusePolicy.FUNCACHE:
            return self._funcache_batch(video_name, ids, batch, recorded)
        values: list = [None] * n
        if not (policy is ReusePolicy.EVA and self.node.use_view):
            # NONE / HashStash / EVA-without-view: evaluate everything.
            rows = np.arange(n)
            _scatter(values, rows, self._evaluate_batch(
                video_name, ids, batch, recorded, rows))
            return values
        for rows in segments(keys, self.node.store, self._creating_row):
            column = self._resolve_rows(video_name, ids, batch, keys,
                                        recorded, rows, values)
            if column is not None:
                return column
        return values

    def _batch_keys(self, batch: Batch) -> tuple:
        """``(video name, frame ids, keys, recorded)``: the keys the view
        is probed with, and those the invocation metrics record.  Raises
        the row path's error for the first row whose key cannot be built,
        before any row is resolved."""
        if not batch.has_column("frame"):
            raise KeyError("frame")
        video_name, ids = frame_ids(batch.column("frame"))
        if self.kind is UdfKind.FRAME_FILTER:
            return video_name, ids, ids, ids
        if not batch.has_column("bbox"):
            raise self._needs_bbox()
        rounded = box_keys(batch.column("bbox"))
        keys = None if rounded is None else pack_patch_keys(ids, rounded)
        if keys is not None:
            return video_name, ids, keys, keys
        keys = []
        for frame_id, bbox in zip(ids.tolist(),
                                  batch.column_values("bbox")):
            if not isinstance(bbox, BoundingBox):
                raise self._needs_bbox()
            keys.append((frame_id, bbox.rounded()))
        return video_name, ids, keys, list(map(_recorded_key, keys))

    def _creating_row(self, start: int, stop: int) -> int | None:
        """A segment's first row creates the view when it is absent."""
        if self.node.store and \
                self.context.view_store.get(self._view_name) is None:
            return start
        return None

    def _resolve_rows(self, video_name: str, ids: np.ndarray,
                      batch: Batch, keys, recorded, rows: np.ndarray,
                      values: list):
        """EVA over one segment: probe, fuzzy-match, evaluate, store.

        Fills ``values`` at ``rows``; returns the view's value column
        instead when ``rows`` is the whole batch and every row hit.
        """
        pending = rows
        view = self.context.view_store.get(self._view_name)
        if view is not None:
            costs = self.context.costs
            if not self._join_charged:
                self.context.clock.charge(CostCategory.JOIN, costs.join_setup)
                self._join_charged = True
            self.context.clock.charge(
                CostCategory.READ_VIEW,
                len(pending) * costs.view_read_per_key)
            hits = view.get_many(_at(keys, pending))
            positions, counts = hits.hit_positions()
            # A key stored with no row is a miss, as in the row path.
            firsts = (np.cumsum(counts) - counts)[counts > 0]
            positions = positions[counts > 0]
            if len(positions):
                found = pending[positions]
                self.context.clock.charge(
                    CostCategory.READ_VIEW,
                    len(found) * costs.view_read_per_row)
                self._record_many(video_name, recorded, found, True)
                if len(found) == len(values) and hits.num_rows == len(found):
                    return hits.column("value")  # one row per row, in order
                stored = materialize_column(hits.column("value"))
                for i, row in zip(found.tolist(), firsts.tolist()):
                    values[i] = stored[row]
                missed = np.ones(len(pending), dtype=bool)
                missed[positions] = False
                pending = pending[missed]
        copies: list[tuple[int, int]] = []
        if view is not None and len(pending) \
                and self.context.config.fuzzy_reuse \
                and self.kind is UdfKind.PATCH_CLASSIFIER:
            pending, copies = self._fuzzy_misses(
                view, video_name, ids, batch, recorded, pending, values)
        if len(pending):
            _scatter(values, pending, self._evaluate_batch(
                video_name, ids, batch, recorded, pending))
            if self.node.store:
                self._store_batch(keys, values, pending)
        for row, source in copies:
            values[row] = values[source]
        return None

    def _fuzzy_misses(self, view: MaterializedView, video_name: str,
                      ids: np.ndarray, batch: Batch, recorded,
                      pending: np.ndarray, values: list
                      ) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """Section 6 extension: reuse the result of a spatially close box.

        Different detectors place near-identical boxes around the same
        object; when the exact key misses, a box in the same frame with
        IoU above the configured threshold is close enough for patch
        attributes (type, color) to transfer.  This makes results
        *approximate* — it is off by default.

        A miss's candidates are its frame's stored boxes, then — when the
        node stores — the boxes of the segment's earlier evaluated misses,
        which one row at a time would be stored by then.  Returns the rows
        left to evaluate, and ``(row, earlier row)`` for each row whose
        best match is an earlier miss's box.
        """
        threshold = self.context.config.fuzzy_iou_threshold
        costs = self.context.costs
        bboxes = batch.column_values("bbox")
        #: frame id -> (rounded box, row) of the segment's evaluated misses.
        evaluated: dict[int, list[tuple[tuple, int]]] = {}
        remaining, copies, matched = [], [], []
        for row in pending.tolist():
            frame_id = int(ids[row])
            candidates = [(key[1], None)
                          for key in view.keys_with_prefix(frame_id)]
            candidates += evaluated.get(frame_id, [])
            if candidates:
                # One extra (indexed) probe per candidate box in this frame.
                self.context.clock.charge(
                    CostCategory.READ_VIEW, costs.view_read_per_key
                    + len(candidates) * costs.view_read_per_row)
            best_iou, best = threshold, None
            for box, source in candidates:
                iou = bboxes[row].iou(BoundingBox(*box))
                if iou > best_iou:
                    match = source if source is not None \
                        else view.get((frame_id, box))
                    if source is not None or match:
                        best_iou, best = iou, match
            if best is None:
                remaining.append(row)
                if self.node.store:
                    evaluated.setdefault(frame_id, []).append(
                        (bboxes[row].rounded(), row))
            elif isinstance(best, int):
                copies.append((row, best))
            else:
                values[row] = best[0]["value"]
            if best is not None:
                matched.append(row)
        self._record_many(video_name, recorded, np.array(matched), True)
        return np.array(remaining, dtype=np.int64), copies

    def _funcache_batch(self, video_name: str, ids: np.ndarray,
                        batch: Batch, recorded) -> list:
        """FunCache: one lookup per row, charged its input's hash."""
        if self.kind is UdfKind.FRAME_FILTER:
            # A video's frames share one size.
            frame = self.context.video(video_name).frame(int(ids[0]))
            input_bytes = [frame.nbytes()] * len(ids)
        else:  # the cropped RGB patch
            input_bytes = [int(bbox.area()) * 3
                           for bbox in batch.column_values("bbox")]
        keys = recorded.tolist() if isinstance(recorded, np.ndarray) \
            else recorded
        values, hits = self.context.function_cache.lookup_many(
            self.model.name, [(self.model.name, key) for key in keys],
            input_bytes, lambda misses: self._evaluate_batch(
                video_name, ids, batch, recorded,
                np.array(misses, dtype=np.int64)))
        self._record_many(video_name, recorded, np.array(hits), True)
        return values

    def _evaluate_batch(self, video_name: str, ids: np.ndarray,
                        batch: Batch, recorded, indices: np.ndarray) -> list:
        """Model-evaluate the rows at ``indices`` with one invocation.

        Charges ``len(indices) * per_tuple_cost`` — the same total the
        per-row path accumulates — and records the invocations (as
        ``recorded``, one per row of the batch) in bulk.
        """
        if not len(indices):
            return []
        video = self.context.video(video_name)
        self.context.clock.charge(
            CostCategory.UDF, len(indices) * self.model.per_tuple_cost)
        rows = indices.tolist()
        inputs = ids[indices].tolist()
        if self.kind is UdfKind.PATCH_CLASSIFIER:
            bboxes = batch.column_values("bbox")
            inputs = list(zip(inputs, map(bboxes.__getitem__, rows)))
        outputs = self.context.invoke_model(self.model, video, inputs)
        self._record_many(video_name, recorded, indices, False)
        return outputs

    def _record_many(self, video_name: str, recorded, rows: np.ndarray,
                     reused: bool) -> None:
        if len(rows):
            self.context.metrics.record_invocations(
                self.model.name, _at(recorded, rows), reused,
                per_tuple_cost=self.model.per_tuple_cost, video=video_name)

    def _store_batch(self, keys, values: list, indices: np.ndarray) -> None:
        """Bulk STORE: one ``put_many`` and one materialize charge."""
        view = self.context.view_store.create_or_get(
            self._view_name, ["id", "bbox_key"], ["value"])
        inserted = view.put_many(
            _at(keys, indices), [1] * len(indices),
            {"value": [values[i] for i in indices.tolist()]},
            patch_keys=self.kind is UdfKind.PATCH_CLASSIFIER)
        added = sum(inserted)
        if added:
            self.context.clock.charge(
                CostCategory.MATERIALIZE,
                added * self.context.costs.materialize_per_row)

    # -- per-row resolution (the row operator tree) -------------------------------

    def _resolve(self, row: dict, policy: ReusePolicy):
        frame: Frame = row["frame"]
        key = self._key(row, frame)
        if policy is ReusePolicy.EVA and self.node.use_view:
            hit = self._probe_view(key)
            if hit is not None:
                self._record(frame, key, reused=True)
                return hit["value"]
            value = self._evaluate(row, frame)
            if self.node.store:
                self._store(key, value)
            return value
        return self._evaluate(row, frame)

    def _key(self, row: dict, frame: Frame) -> tuple:
        if self.kind is UdfKind.FRAME_FILTER:
            return (frame.frame_id,)
        bbox = row.get("bbox")
        if not isinstance(bbox, BoundingBox):
            raise self._needs_bbox()
        return (frame.frame_id, bbox.rounded())

    def _needs_bbox(self) -> ExecutorError:
        return ExecutorError(f"{self.node.call.to_sql()} needs a bbox column "
                             "(is the detector APPLY missing?)")

    def _probe_view(self, key: tuple) -> dict | None:
        view = self.context.view_store.get(self._view_name)
        if view is None:
            return None
        if not self._join_charged:
            self.context.clock.charge(CostCategory.JOIN,
                                      self.context.costs.join_setup)
            self._join_charged = True
        self.context.clock.charge(CostCategory.READ_VIEW,
                                  self.context.costs.view_read_per_key)
        rows = view.get(key)
        if not rows:
            return None
        self.context.clock.charge(CostCategory.READ_VIEW,
                                  self.context.costs.view_read_per_row)
        return rows[0]

    def _store(self, key: tuple, value) -> None:
        view = self.context.view_store.create_or_get(
            self._view_name, ["id", "bbox_key"], ["value"])
        if key in view:
            return
        view.put(key, [{"value": value}])
        self.context.clock.charge(CostCategory.MATERIALIZE,
                                  self.context.costs.materialize_per_row)

    def _evaluate(self, row: dict, frame: Frame):
        video = self.context.video(frame.video_name)
        self.context.clock.charge(CostCategory.UDF,
                                  self.model.per_tuple_cost)
        if self.kind is UdfKind.FRAME_FILTER:
            assert isinstance(self.model, SpecializedFilter)
            value = self.model.predict(video, frame.frame_id)
        else:
            assert isinstance(self.model, PatchClassifierModel)
            value = self.model.classify(video, frame.frame_id, row["bbox"])
        self._record(frame, self._key(row, frame), reused=False)
        return value

    def _record(self, frame: Frame, key: tuple, reused: bool) -> None:
        # The input as the batch path records it: a frame filter's frame
        # id, a patch's packed key when it packs.
        self.context.metrics.record_invocations(
            self.model.name,
            [frame.frame_id if self.kind is UdfKind.FRAME_FILTER
             else _recorded_key(key)], reused,
            per_tuple_cost=self.model.per_tuple_cost,
            video=frame.video_name)


def _recorded_key(key: tuple):
    """A patch key as the invocation metrics record it: its packed int
    when it packs, else the key tuple."""
    packed = pack_key_tuples([key])
    return key if packed is None else int(packed[0])


def _scatter(values: list, indices: np.ndarray, outputs: list) -> None:
    for i, value in zip(indices.tolist(), outputs):
        values[i] = value


def _at(keys, indices: np.ndarray):
    """``keys`` (an int array or a key list) at ``indices``."""
    if isinstance(keys, np.ndarray):
        return keys[indices]
    return list(map(keys.__getitem__, indices.tolist()))
