"""The reference: a row-at-a-time interpreter of physical plans.

Sessions configured ``EvaConfig(reuse_policy=ReusePolicy.NONE,
execution_mode="row")`` run their plans here, not in the engine
(:mod:`repro.executor`).  It is the oracle the engine is held to (the
end-to-end benchmark's recorded digests, the tests' fuzzer), so it
shares no code with it: each plan node is a generator of row dicts, each
UDF one model call per row, and nothing is reused, stored, charged or
recorded in the metrics.  What it evaluated stays on the instance.
"""

from __future__ import annotations

from typing import Iterator

from repro.catalog.udf_registry import UdfKind
from repro.errors import ExecutorError
from repro.expressions.analysis import term_key
from repro.expressions.evaluator import ExpressionEvaluator, udf_column_name
from repro.expressions.expr import AggregateCall, Expression, Star
from repro.optimizer.plans import (
    PhysClassifierApply, PhysDetectorApply, PhysDistinct, PhysFilter,
    PhysGroupBy, PhysLimit, PhysOrderBy, PhysProject, PhysScan, PhysicalPlan)
from repro.storage.batch import Batch
from repro.types import BoundingBox

AGGREGATES = ("count", "sum", "avg", "min", "max")


def _area(bbox, frame=None) -> float:
    """AREA(bbox[, frame]): relative to the frame, else in pixels."""
    if not isinstance(bbox, BoundingBox):
        raise ExecutorError(f"AREA expects a bounding box, got {bbox!r}")
    if frame is not None:
        return bbox.relative_area(frame.width, frame.height)
    return bbox.area()


class Reference:
    """Runs physical plans under ``ReusePolicy.NONE``, one row at a time,
    over ``storage``'s videos and ``catalog``'s UDFs and models."""

    def __init__(self, storage, catalog):
        self.storage = storage
        self.catalog = catalog
        self.evaluator = ExpressionEvaluator(builtins={"area": _area})
        #: Model name -> ``(video name, input)`` of every evaluation, in
        #: order: a frame id, or ``(frame id, rounded box)`` for a patch.
        self.inputs: dict[str, list[tuple]] = {}
        #: Frames the scans read.
        self.frames_read = 0

    def run(self, plan: PhysicalPlan) -> Batch:
        """``plan``'s result (with no rows, the engine's empty columns)."""
        rows = list(self._rows(plan))
        if not rows:
            return Batch({name: [] for name in self._empty(plan) or ()})
        return Batch({name: [row[name] for row in rows] for name in rows[0]})

    def answer(self, model_name: str, video_name: str, frame_id: int,
               bbox: BoundingBox | None = None):
        """What ``model_name`` answers for one input, unrecorded: a tuple
        of detections, a patch's class, or a frame filter's verdict."""
        model = self.catalog.zoo.get(model_name)
        video = self.storage.table(video_name).video
        if hasattr(model, "detect"):
            return tuple(model.detect(video, frame_id))
        if bbox is None:
            return model.predict(video, frame_id)
        return model.classify(video, frame_id, bbox)

    def _rows(self, node: PhysicalPlan) -> Iterator[dict]:
        if isinstance(node, PhysScan):
            return self._scan(node)
        if isinstance(node, PhysDetectorApply):
            return self._detect(node)
        if isinstance(node, PhysClassifierApply):
            return self._classify(node)
        child = self._rows(node.child)
        evaluate = self.evaluator.evaluate
        if isinstance(node, PhysFilter):
            return (row for row in child if evaluate(node.predicate, row))
        if isinstance(node, PhysProject):
            return (self._project(node, row) for row in child)
        if isinstance(node, PhysGroupBy):
            return self._group(node, child)
        if isinstance(node, PhysDistinct):
            return self._distinct(child)
        if isinstance(node, PhysOrderBy):
            return self._sort(node, child)
        if isinstance(node, PhysLimit):
            return (row for _, row in zip(range(node.count), child))
        raise ExecutorError(f"no reference for {type(node).__name__}")

    def _scan(self, node: PhysScan) -> Iterator[dict]:
        video = self.storage.table(node.table_name).video
        fps = video.metadata.fps or 1.0
        for start, stop in node.ranges:
            for frame_id in range(max(0, start), min(stop, video.num_frames)):
                self.frames_read += 1
                row = {"id": frame_id, "timestamp": frame_id / fps,
                       "frame": video.frame(frame_id)}
                if node.residual is None or self.evaluator.evaluate(
                        node.residual, row):
                    yield row

    def _detect(self, node: PhysDetectorApply) -> Iterator[dict]:
        zoo = self.catalog.zoo
        models = [zoo.get(source.model_name) for source in node.sources]
        evaluated = [model for model, source in zip(models, node.sources)
                     if not source.use_view] or models
        fallback = min(evaluated, key=lambda model: model.per_tuple_cost)
        for row in self._rows(node.child):
            values = {name: row[name] for name in ("id", "timestamp")
                      if row.get(name) is not None}
            values.update(("udf:" + name[len("__udf::"):], value)
                          for name, value in row.items()
                          if name.startswith("__udf::"))
            # Nothing is materialized: a view source never answers.
            model = next((model for model, source in zip(models,
                                                         node.sources)
                          if not source.use_view
                          and source.predicate.satisfied_by(values)),
                         fallback)
            frame = row["frame"]
            self.inputs.setdefault(model.name, []).append(
                (frame.video_name, frame.frame_id))
            for detection in self.answer(model.name, frame.video_name,
                                         frame.frame_id):
                yield {**row, "label": detection.label,
                       "bbox": detection.bbox, "score": detection.score,
                       "area": detection.bbox.relative_area(frame.width,
                                                            frame.height)}

    def _classify(self, node: PhysClassifierApply) -> Iterator[dict]:
        column = udf_column_name(term_key(node.call))
        patches = (self.catalog.udfs.get(node.call.name).kind
                   is UdfKind.PATCH_CLASSIFIER)
        for row in self._rows(node.child):
            frame = row["frame"]
            bbox = None
            key = frame.frame_id
            if patches:
                bbox = row.get("bbox")
                if not isinstance(bbox, BoundingBox):
                    raise ExecutorError(
                        f"{node.call.to_sql()} needs a bbox column "
                        "(is the detector APPLY missing?)")
                key = (frame.frame_id, bbox.rounded())
            self.inputs.setdefault(node.model_name, []).append(
                (frame.video_name, key))
            yield {**row, column: self.answer(
                node.model_name, frame.video_name, frame.frame_id, bbox)}

    def _project(self, node: PhysProject, row: dict) -> dict:
        out = {}
        for expr, name in node.items:
            if isinstance(expr, Star):
                out.update((column, value) for column, value in row.items()
                           if not column.startswith("__udf::"))
            else:
                out[name] = self.evaluator.evaluate(expr, row)
        return out

    def _group(self, node: PhysGroupBy, rows) -> Iterator[dict]:
        evaluate = self.evaluator.evaluate
        # An item reports the first aggregate call in it.
        aggregates = [next((part for part in expr.walk()
                            if isinstance(part, AggregateCall)), None)
                      for expr, _ in node.items]
        #: group key -> (its first row, one accumulator per item)
        groups: dict[tuple, tuple[dict, list[dict]]] = {}
        for row in rows:
            key = tuple(evaluate(expr, row) for expr in node.keys)
            if key not in groups:
                groups[key] = (row, [{"count": 0, "sum": 0.0, "min": None,
                                      "max": None} for _ in aggregates])
            for aggregate, acc in zip(aggregates, groups[key][1]):
                if aggregate is None:
                    continue
                if aggregate.func not in AGGREGATES:
                    raise ExecutorError(
                        f"unsupported aggregate {aggregate.func.upper()}")
                if isinstance(aggregate.arg, Star):
                    acc["count"] += 1
                    continue
                value = evaluate(aggregate.arg, row)
                if value is None:
                    continue
                acc["count"] += 1
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    acc["sum"] += value
                elif aggregate.func in ("sum", "avg"):
                    raise ExecutorError(
                        f"{aggregate.func.upper()} needs numeric input, "
                        f"got {type(value).__name__}")
                if acc["min"] is None or value < acc["min"]:
                    acc["min"] = value
                if acc["max"] is None or value > acc["max"]:
                    acc["max"] = value
        for first, accs in groups.values():
            yield {name: self._final(expr, aggregate, acc, first)
                   for (expr, name), aggregate, acc
                   in zip(node.items, aggregates, accs)}

    def _final(self, expr: Expression, aggregate: AggregateCall | None,
               acc: dict, first: dict):
        if aggregate is None:
            return self.evaluator.evaluate(expr, first)
        if aggregate.func in ("sum", "avg") and not acc["count"]:
            return None
        if aggregate.func == "avg":
            return acc["sum"] / acc["count"]
        return acc[aggregate.func]  # an accumulator field per aggregate

    @staticmethod
    def _distinct(rows) -> Iterator[dict]:
        seen: set = set()
        for row in rows:
            if repr(tuple(row.values())) not in seen:
                seen.add(repr(tuple(row.values())))
                yield row

    def _sort(self, node: PhysOrderBy, rows) -> list[dict]:
        rows = list(rows)
        # Stable sorts, last key first: a multi-key ORDER BY.
        for expr, ascending in reversed(node.keys):
            rows.sort(key=lambda row, expr=expr: self.evaluator.evaluate(
                expr, row), reverse=not ascending)
        return rows

    def _empty(self, node: PhysicalPlan) -> list[str] | None:
        """Columns of the empty batch ``node`` yields when no row reaches
        it (None: no batch): a select list's less its star columns, GROUP
        BY's; ORDER BY always yields one; DISTINCT and LIMIT pass theirs."""
        if isinstance(node, PhysGroupBy):
            return [name for _, name in node.items]
        if isinstance(node, PhysProject):
            return list(dict.fromkeys(name for expr, name in node.items
                                      if not isinstance(expr, Star)))
        if not isinstance(node, (PhysDistinct, PhysOrderBy, PhysLimit)):
            return None
        below = self._empty(node.child)
        if isinstance(node, PhysOrderBy):
            return below or []
        if isinstance(node, PhysLimit) and node.count <= 0:
            return None
        return below
