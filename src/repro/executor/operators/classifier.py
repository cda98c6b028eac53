"""Conditional APPLY of patch classifiers and frame filters.

Adds one column per UDF term (named via
:func:`repro.expressions.evaluator.udf_column_name`) holding the term's
value for each row.  Under the EVA policy the operator probes the term's
materialized view first and evaluates the model only on misses, appending
fresh results (the conditional-APPLY + STORE composite of Fig. 4); under
FunCache it probes the execution-time cache; otherwise it always evaluates.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.clock import CostCategory
from repro.config import ReusePolicy
from repro.errors import ExecutorError
from repro.catalog.udf_registry import UdfKind
from repro.executor.context import ExecutionContext
from repro.executor.operators.base import Operator
from repro.expressions.analysis import term_key
from repro.expressions.evaluator import udf_column_name
from repro.models.base import PatchClassifierModel
from repro.models.filters import SpecializedFilter
from repro.optimizer.plans import PhysClassifierApply
from repro.storage.batch import (
    Batch,
    box_keys,
    frame_ids,
    has_duplicates,
    materialize_column,
)
from repro.storage.view_store import (
    pack_key_tuples,
    pack_patch_keys,
    packable_patch_keys,
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
                       policy: ReusePolicy) -> Sequence | None:
        """Resolve the UDF column for a whole batch at once.

        Probes the materialized view with one bulk ``get_many``, invokes
        the model **once** on the miss sub-batch, and appends fresh results
        with one bulk ``put_many``.  Charges the exact virtual costs the
        row path charges (the clock is additive, so per-row interleaving
        order does not matter).  Returns None to request row-at-a-time
        fallback for this batch — taken when the batch would exercise
        behavior that depends on per-row interleaving (duplicate keys
        being stored then re-probed within one batch) or when key
        computation fails (the row path must surface its exact error
        after its partial charges).

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
        if not batch.has_column("frame"):
            return None  # row path raises its KeyError
        video_name, ids = frame_ids(batch.column("frame"))
        if self.kind is UdfKind.FRAME_FILTER:
            keys = ids
        else:
            if not batch.has_column("bbox"):
                return None  # row path raises its "needs a bbox" error
            rounded = box_keys(batch.column("bbox"))
            if rounded is None:
                return None  # not a box: the row path raises
            keys = pack_patch_keys(ids, rounded)
        # What the invocation metrics record per row.
        recorded = keys
        if keys is None:
            try:
                keys = list(zip(ids.tolist(), map(
                    BoundingBox.rounded, batch.column_values("bbox"))))
            except (OverflowError, ValueError):
                # A coordinate that is not finite: the row path raises
                # it, after its own partial charges.
                return None
            recorded = _packed_where_possible(ids, rounded, keys)
        use_view = policy is ReusePolicy.EVA and self.node.use_view
        if not use_view:
            # NONE / EVA-without-view: evaluate everything.
            values: list = [None] * n
            self._evaluate_batch(video_name, ids, batch, recorded,
                                 np.arange(n), values)
            return values
        if self.node.store and has_duplicates(keys):
            # A duplicate key stored by an earlier row becomes a view hit
            # for a later row *within the same batch* — per-row semantics
            # the bulk probe cannot reproduce.
            return None
        values = [None] * n
        pending = np.arange(n)
        view = self.context.view_store.get(self._view_name)
        if view is None and self.node.store:
            # Legacy semantics: the first row evaluates + stores, which
            # *creates* the view; the remaining rows then probe it.
            values[0] = self._resolve(batch.row(0), policy)
            pending = pending[1:]
            view = self.context.view_store.get(self._view_name)
        if view is not None and len(pending):
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
                self.context.metrics.record_invocations(
                    self.model.name, _at(recorded, found), True,
                    per_tuple_cost=self.model.per_tuple_cost,
                    video=video_name)
                if len(found) == n and hits.num_rows == n:
                    return hits.column("value")  # one row per row, in order
                stored = materialize_column(hits.column("value"))
                for i, row in zip(found.tolist(), firsts.tolist()):
                    values[i] = stored[row]
                missed = np.ones(len(pending), dtype=bool)
                missed[positions] = False
                pending = pending[missed]
        if len(pending):
            self._evaluate_batch(video_name, ids, batch, recorded,
                                 pending, values)
            if self.node.store:
                self._store_batch(keys, values, pending)
        return values

    def _evaluate_batch(self, video_name: str, ids: np.ndarray,
                        batch: Batch, recorded, indices: np.ndarray,
                        values: list) -> None:
        """Model-evaluate the rows at ``indices`` with one invocation.

        Charges ``len(indices) * per_tuple_cost`` — the same total the
        per-row path accumulates — and records the invocations (as
        ``recorded``, one per row of the batch) in bulk.
        """
        video = self.context.video(video_name)
        self.context.clock.charge(
            CostCategory.UDF, len(indices) * self.model.per_tuple_cost)
        rows = indices.tolist()
        inputs = ids[indices].tolist()
        if self.kind is UdfKind.PATCH_CLASSIFIER:
            bboxes = batch.column_values("bbox")
            inputs = list(zip(inputs, map(bboxes.__getitem__, rows)))
        outputs = self.context.invoke_model(self.model, video, inputs)
        for i, value in zip(rows, outputs):
            values[i] = value
        self.context.metrics.record_invocations(
            self.model.name, _at(recorded, indices), False,
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

    # -- per-row resolution ------------------------------------------------------

    def _resolve(self, row: dict, policy: ReusePolicy):
        frame: Frame = row["frame"]
        key = self._key(row, frame)
        if policy is ReusePolicy.EVA and self.node.use_view:
            hit = self._probe_view(key)
            if hit is not None:
                self._record(frame, key, reused=True)
                return hit["value"]
            if (self.context.config.fuzzy_reuse
                    and self.kind is UdfKind.PATCH_CLASSIFIER):
                fuzzy = self._probe_view_fuzzy(frame, row["bbox"])
                if fuzzy is not None:
                    self._record(frame, key, reused=True)
                    return fuzzy["value"]
            value = self._evaluate(row, frame)
            if self.node.store:
                self._store(key, value)
            return value
        if policy is ReusePolicy.FUNCACHE:
            cache = self.context.function_cache
            assert cache is not None
            hit, value = cache.lookup(self.model.name,
                                      (self.model.name,) + key,
                                      self._input_bytes(row, frame))
            if hit:
                self._record(frame, key, reused=True)
                return value
            value = self._evaluate(row, frame)
            cache.store(self.model.name, (self.model.name,) + key, value)
            return value
        return self._evaluate(row, frame)

    def _key(self, row: dict, frame: Frame) -> tuple:
        if self.kind is UdfKind.FRAME_FILTER:
            return (frame.frame_id,)
        bbox = row.get("bbox")
        if not isinstance(bbox, BoundingBox):
            raise ExecutorError(
                f"{self.node.call.to_sql()} needs a bbox column "
                "(is the detector APPLY missing?)")
        return (frame.frame_id, bbox.rounded())

    def _input_bytes(self, row: dict, frame: Frame) -> int:
        if self.kind is UdfKind.FRAME_FILTER:
            return frame.nbytes()
        bbox: BoundingBox = row["bbox"]
        return int(bbox.area()) * 3  # the cropped RGB patch

    # -- view path --------------------------------------------------------------

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

    def _probe_view_fuzzy(self, frame: Frame, bbox: BoundingBox
                          ) -> dict | None:
        """Section 6 extension: reuse the result of a spatially close box.

        Different detectors place near-identical boxes around the same
        object; when the exact key misses, a stored box in the same frame
        with IoU above the configured threshold is close enough for patch
        attributes (type, color) to transfer.  This makes results
        *approximate* — it is off by default.
        """
        view = self.context.view_store.get(self._view_name)
        if view is None:
            return None
        threshold = self.context.config.fuzzy_iou_threshold
        costs = self.context.costs
        best_rows = None
        best_iou = threshold
        candidates = view.keys_with_prefix(frame.frame_id)
        if candidates:
            # One extra (indexed) probe per candidate box in this frame.
            self.context.clock.charge(
                CostCategory.READ_VIEW,
                costs.view_read_per_key
                + len(candidates) * costs.view_read_per_row)
        for key in candidates:
            stored_bbox = BoundingBox(*key[1])
            iou = bbox.iou(stored_bbox)
            if iou > best_iou:
                rows = view.get(key)
                if rows:
                    best_iou = iou
                    best_rows = rows
        return best_rows[0] if best_rows else None

    def _store(self, key: tuple, value) -> None:
        view = self.context.view_store.create_or_get(
            self._view_name, ["id", "bbox_key"], ["value"])
        if key in view:
            return
        view.put(key, [{"value": value}])
        self.context.clock.charge(CostCategory.MATERIALIZE,
                                  self.context.costs.materialize_per_row)

    # -- evaluation ----------------------------------------------------------------

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
        if self.kind is UdfKind.FRAME_FILTER:
            key = frame.frame_id
        else:
            packed = pack_key_tuples([key])
            key = key if packed is None else int(packed[0])
        self.context.metrics.record_invocations(
            self.model.name, [key], reused,
            per_tuple_cost=self.model.per_tuple_cost,
            video=frame.video_name)


def _packed_where_possible(ids: np.ndarray, rounded: np.ndarray,
                           keys: list) -> list:
    """``keys`` (the patch key tuples of ``ids`` and ``rounded``) with
    every key that packs replaced by its packed int."""
    packs = packable_patch_keys(ids, rounded)
    recorded = list(keys)
    packed = pack_patch_keys(ids[packs], rounded[packs])
    for i, key in zip(np.flatnonzero(packs).tolist(), packed.tolist()):
        recorded[i] = key
    return recorded


def _at(keys, indices: np.ndarray):
    """``keys`` (an int array or a key list) at ``indices``."""
    if isinstance(keys, np.ndarray):
        return keys[indices]
    return list(map(keys.__getitem__, indices.tolist()))
