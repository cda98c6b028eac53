"""Video scan operator of the row operator tree."""

from __future__ import annotations

from typing import Iterator

from repro.clock import CostCategory
from repro.executor.context import ExecutionContext
from repro.executor.operators.base import Operator
from repro.optimizer.plans import PhysScan
from repro.storage.batch import Batch


class ScanOperator(Operator):
    """Streams the frame ranges of a video table as batches.

    Charges the per-frame read cost (decode + transfer) to the virtual
    clock; both the paper's No-Reuse and EVA configurations pay this cost
    (Table 4's "Read Video" row).  The read charge is batched (one
    multiply per batch); the residual predicate is interpreted per row.
    """

    def __init__(self, node: PhysScan, context: ExecutionContext):
        super().__init__(context)
        self.node = node
        if node.residual is not None:
            self.kernel_mode = "row"

    def execute(self) -> Iterator[Batch]:
        table = self.context.storage.table(self.node.table_name)
        costs = self.context.costs
        evaluator = self.context.evaluator
        residual = self.node.residual
        for start, stop in self.node.ranges:
            for batch in table.scan(start, stop,
                                    self.context.config.batch_rows):
                # Scans feed every pipeline, so this is the one place a
                # cooperative cancel check covers all plan shapes — even
                # when a blocking operator (ORDER BY, GROUP BY) sits
                # between the root and the source.
                self.context.check_cancelled()
                self.context.clock.charge(
                    CostCategory.READ_VIDEO,
                    batch.num_rows * costs.read_video_per_frame)
                if residual is not None:
                    mask = [evaluator.evaluate_predicate(residual, row)
                            for row in batch.iter_rows()]
                    batch = batch.filter(mask)
                if batch.num_rows:
                    yield batch
