"""APPLY stages cut a batch into segments instead of falling back to rows.

Each test runs one hand-built batch through a pipeline stage
(``_detector_step`` / ``_classifier_step``) whole, and again one row per
batch, each from the same starting state, and compares the output rows,
the view contents, the virtual clock per category (APPLY, charged once
per batch, as that count) and #TI/#DI/reused per UDF.  The batches are
the cases a segment cut exists for: repeated keys (a row hits what an
earlier row of its batch stored) and a STORE that creates a view the
stage probes.  Generated SQL rarely repeats a key within a batch, so
these batches are what hold the cuts.  The pipeline runtime records no
fallback.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.clock import CostCategory
from repro.config import EvaConfig, ReusePolicy
from repro.executor.fusion import (
    _classifier_step,
    _detector_step,
    _FusedRuntime,
)
from repro.executor.operators.classifier import ClassifierApplyOperator
from repro.executor.operators.detector import DetectorApplyOperator
from repro.optimizer.plans import (
    DetectorSource,
    PhysClassifierApply,
    PhysDetectorApply,
    walk_plan,
)
from repro.parser.parser import parse
from repro.session import EvaSession
from repro.storage.batch import Batch
from repro.symbolic.dnf import dnf_from_expression
from repro.types import BoundingBox

DETECT = ("SELECT id, label FROM tiny CROSS APPLY "
          "FastRCNNObjectDetector(frame) WHERE id < {};")
CLASSIFY = ("SELECT id FROM tiny CROSS APPLY FastRCNNObjectDetector(frame) "
            "WHERE id < 40 AND CarType(frame, bbox) = 'Nissan';")


def _run(tiny_video, warm: list[str], sql: str, batch: Batch, whole: bool,
         edit=lambda node: node) -> dict:
    """Resolve ``batch`` — ``whole``, or one row per batch — with the
    APPLY node of ``sql`` (after ``edit``) in a session that ran ``warm``
    first; what the comparison looks at."""
    session = EvaSession(config=EvaConfig())
    session.register_video(tiny_video)
    for query in warm:
        session.execute(query)
    plan = session.optimizer.optimize(parse(sql)).plan
    node = edit(next(node for node in walk_plan(plan)
                     if isinstance(node, (PhysDetectorApply,
                                          PhysClassifierApply))))
    detector = isinstance(node, PhysDetectorApply)
    operator = DetectorApplyOperator if detector else ClassifierApplyOperator
    op = operator(node, session.context)
    runtime = _FusedRuntime(ReusePolicy.EVA, [op])
    step = _detector_step if detector else _classifier_step
    before = session.clock.breakdown().get(CostCategory.APPLY, 0.0)
    parts = [step(part, runtime, op) for part in (
        [batch] if whole else [batch.slice(i, i + 1)
                               for i in range(batch.num_rows)])]
    assert runtime.fallbacks == {}
    parts = [part for part in parts if part is not None]
    out = Batch.concat(parts) if parts else None
    clock = session.clock.breakdown()
    apply_batches = round((clock.pop(CostCategory.APPLY, 0.0) - before)
                          / session.config.costs.apply_per_batch)
    assert apply_batches == (1 if whole else batch.num_rows)
    return {
        "rows": None if out is None else {
            name: list(out.column_values(name)) for name in out.column_names},
        "views": {name: sorted(map(repr,
                                   session.view_store.get(name).items()))
                  for name in session.view_store.names()},
        "clock": {category: seconds for category, seconds in clock.items()
                  if category is not CostCategory.OPTIMIZE},
        "udfs": {name: (stats.total_invocations,
                        stats.distinct_invocations,
                        stats.reused_invocations)
                 for name, stats in session.metrics.udf_stats.items()},
    }


def _assert_as_one_row_per_batch(tiny_video, warm, sql, batch,
                                 **kwargs) -> dict:
    row = _run(tiny_video, warm, sql, batch, whole=False, **kwargs)
    pipe = _run(tiny_video, warm, sql, batch, whole=True, **kwargs)
    assert pipe["rows"] == row["rows"]
    assert pipe["views"] == row["views"]
    assert pipe["udfs"] == row["udfs"]
    assert set(pipe["clock"]) == set(row["clock"])
    for category, seconds in row["clock"].items():
        assert pipe["clock"][category] == pytest.approx(
            seconds, rel=1e-9, abs=1e-12), category
    return row


def _frames(tiny_video, ids: list[int]) -> Batch:
    return Batch({"id": list(ids),
                  "frame": [tiny_video.frame(i) for i in ids]})


def _patches(tiny_video, keys: list[tuple[int, BoundingBox]]) -> Batch:
    return Batch({"frame": [tiny_video.frame(i) for i, _ in keys],
                  "bbox": [box for _, box in keys]})


BOX_A = BoundingBox(100.0, 120.0, 260.0, 230.0)
BOX_B = BoundingBox(400.0, 300.0, 520.0, 390.0)


class TestClassifierSegments:
    def test_duplicate_patch_keys(self, tiny_video):
        # The view exists; a repeated patch hits what its first
        # occurrence stored.
        batch = _patches(tiny_video, [(50, BOX_A), (51, BOX_B), (50, BOX_A),
                                      (52, BOX_A), (51, BOX_B)])
        row = _assert_as_one_row_per_batch(tiny_video, [CLASSIFY], CLASSIFY,
                                      batch)
        warmed = _run(tiny_video, [CLASSIFY], CLASSIFY, _patches(
            tiny_video, []), whole=False)
        total, _, reused = row["udfs"]["car_type"]
        assert (total - warmed["udfs"]["car_type"][0],
                reused - warmed["udfs"]["car_type"][2]) == (5, 2)

    def test_absent_view_on_the_first_batch(self, tiny_video):
        # Row 0 creates the view; the rows after it probe it.
        batch = _patches(tiny_video, [(5, BOX_A), (6, BOX_B), (7, BOX_A)])
        row = _assert_as_one_row_per_batch(tiny_video, [], CLASSIFY, batch)
        assert CostCategory.JOIN in row["clock"]
        assert row["udfs"]["car_type"] == (3, 3, 0)


class TestDetectorSegments:
    def test_duplicate_frame_ids(self, tiny_video):
        # Sources: the view for id < 20, the model for 20 <= id < 40.  A
        # repeated frame hits what its first occurrence stored.
        batch = _frames(tiny_video, [25, 26, 25, 10, 26])
        row = _assert_as_one_row_per_batch(tiny_video, [DETECT.format(20)],
                                      DETECT.format(40), batch)
        assert row["udfs"]["fasterrcnn_resnet50"] == (20 + 5, 22, 3)

    def test_creating_row_is_not_row_zero(self, tiny_video):
        # Sources: the absent view of fasterrcnn_resnet50, yolo_tiny for
        # id < 30, fasterrcnn_resnet50 for the rest.  Rows 0 and 1 store
        # into yolo_tiny's view, which no source probes; row 2 creates
        # the probed view, and the rows after it probe it.
        def where(sql: str):
            return dnf_from_expression(
                parse(f"SELECT id FROM tiny WHERE {sql};").where)

        def sources(node):
            return dataclasses.replace(node, store=True, sources=(
                DetectorSource("fasterrcnn_resnet50", True, where("id >= 0")),
                DetectorSource("yolo_tiny", False, where("id < 30")),
                DetectorSource("fasterrcnn_resnet50", False,
                               where("id >= 0"))))

        batch = _frames(tiny_video, [10, 20, 35, 36, 12])
        row = _assert_as_one_row_per_batch(tiny_video, [], DETECT.format(40),
                                      batch, edit=sources)
        assert CostCategory.JOIN in row["clock"]
        assert row["udfs"]["yolo_tiny"] == (3, 3, 0)
        assert row["udfs"]["fasterrcnn_resnet50"] == (2, 2, 0)
