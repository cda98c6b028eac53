"""The blocking operators: group-by, distinct, order-by, and limit.

They sit above the streaming pipeline (:mod:`repro.executor.fusion`),
one per node of a plan's blocking prefix.  GROUP BY and ORDER BY compile
their expressions once into batch kernels
(:mod:`repro.expressions.compiler`).
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import ExecutorError
from repro.executor.context import ExecutionContext
from repro.executor.operators.base import Operator
from repro.expressions.compiler import CompiledKernel, compile_expression
from repro.expressions.expr import AggregateCall, Expression, Star
from repro.optimizer.plans import PhysGroupBy, PhysLimit, PhysOrderBy
from repro.storage.batch import Batch


class GroupByOperator(Operator):
    """Hash aggregation: COUNT(*)/COUNT(expr), SUM, AVG, MIN, MAX.

    Evaluates group keys and aggregate arguments as whole columns per
    batch, then folds them into the per-group accumulators.
    """

    def __init__(self, child: Operator, node: PhysGroupBy,
                 context: ExecutionContext):
        super().__init__(context)
        self.child = child
        self.node = node
        self._key_kernels = [compile_expression(k, context.evaluator)
                             for k in node.keys]
        self._agg_kernels: list[tuple[AggregateCall | None,
                                      CompiledKernel | None]] = []
        for expr, _ in node.items:
            aggregate = _find_aggregate(expr)
            if aggregate is None or isinstance(aggregate.arg, Star):
                self._agg_kernels.append((aggregate, None))
            else:
                self._agg_kernels.append(
                    (aggregate,
                     compile_expression(aggregate.arg, context.evaluator)))
        self.kernel_mode = "vectorized"

    def execute(self) -> Iterator[Batch]:
        evaluator = self.context.evaluator
        groups: dict[tuple, dict] = {}
        order: list[tuple] = []
        for batch in self.child.execute():
            self._consume_batch(batch, groups, order)
        rows = []
        for key in order:
            state = groups[key]
            out_row = tuple(
                self._finalize(state, index, expr, evaluator)
                for index, (expr, _) in enumerate(self.node.items))
            rows.append(out_row)
        names = [name for _, name in self.node.items]
        yield Batch.from_rows(names, rows)

    def _consume_batch(self, batch: Batch, groups: dict,
                       order: list) -> None:
        n = batch.num_rows
        if not n:
            return
        for aggregate, _ in self._agg_kernels:
            if (aggregate is not None
                    and aggregate.func not in self.SUPPORTED_AGGREGATES):
                raise ExecutorError(
                    f"unsupported aggregate {aggregate.func.upper()}")
        key_columns = [k.evaluate(batch) for k in self._key_kernels]
        arg_columns = [k.evaluate(batch) if k is not None else None
                       for _, k in self._agg_kernels]
        for i in range(n):
            key = tuple(column[i] for column in key_columns)
            state = groups.get(key)
            if state is None:
                state = self._new_state(batch.row(i))
                groups[key] = state
                order.append(key)
            state["count"] += 1
            for index, (aggregate, _) in enumerate(self._agg_kernels):
                if aggregate is None:
                    continue
                acc = state["agg"][index]
                if isinstance(aggregate.arg, Star):
                    acc["count"] += 1
                    continue
                self._accumulate_value(acc, aggregate.func,
                                       arg_columns[index][i])

    def _new_state(self, first_row: dict) -> dict:
        return {"first_row": first_row, "count": 0,
                "agg": [{"count": 0, "sum": 0.0, "min": None, "max": None}
                        for _ in self.node.items]}

    SUPPORTED_AGGREGATES = ("count", "sum", "avg", "min", "max")

    @classmethod
    def _accumulate_value(cls, acc: dict, func: str, value) -> None:
        """Fold one argument value into an accumulator."""
        if value is None:
            return
        acc["count"] += 1
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            acc["sum"] += value
        elif func in ("sum", "avg"):
            raise ExecutorError(
                f"{func.upper()} needs numeric input, got "
                f"{type(value).__name__}")
        if acc["min"] is None or value < acc["min"]:
            acc["min"] = value
        if acc["max"] is None or value > acc["max"]:
            acc["max"] = value

    @staticmethod
    def _finalize(state: dict, index: int, expr: Expression, evaluator):
        aggregate = _find_aggregate(expr)
        if aggregate is None:
            return evaluator.evaluate(expr, state["first_row"])
        acc = state["agg"][index]
        if aggregate.func == "count":
            return acc["count"]
        if aggregate.func == "sum":
            return acc["sum"] if acc["count"] else None
        if aggregate.func == "avg":
            return acc["sum"] / acc["count"] if acc["count"] else None
        if aggregate.func == "min":
            return acc["min"]
        return acc["max"]


class DistinctOperator(Operator):
    """Removes duplicate rows (SELECT DISTINCT), preserving order."""

    def __init__(self, child: Operator, node, context: ExecutionContext):
        super().__init__(context)
        self.child = child
        self.node = node

    def execute(self):
        seen: set = set()
        for batch in self.child.execute():
            mask = []
            for row_tuple in batch.to_tuples():
                fingerprint = repr(row_tuple)
                if fingerprint in seen:
                    mask.append(False)
                else:
                    seen.add(fingerprint)
                    mask.append(True)
            filtered = batch.filter(mask)
            if filtered.num_rows or filtered.column_names:
                yield filtered


class OrderByOperator(Operator):
    """Full sort (blocking)."""

    def __init__(self, child: Operator, node: PhysOrderBy,
                 context: ExecutionContext):
        super().__init__(context)
        self.child = child
        self.node = node
        self._kernels = [compile_expression(expr, context.evaluator)
                         for expr, _ in node.keys]
        self.kernel_mode = "vectorized"

    def execute(self) -> Iterator[Batch]:
        batch = self.child.run_to_completion()
        if not batch.num_rows:
            yield batch  # keep the (possibly empty) output schema
            return
        indices = list(range(batch.num_rows))
        # Sort by keys right-to-left for stable multi-key ordering.
        for position in reversed(range(len(self.node.keys))):
            _, ascending = self.node.keys[position]
            column = self._kernels[position].evaluate(batch)
            keys = [column[i] for i in indices]
            decorated = sorted(zip(keys, indices), key=lambda p: p[0],
                               reverse=not ascending)
            indices = [i for _, i in decorated]
        yield batch.take(indices)


class LimitOperator(Operator):
    """LIMIT n."""

    def __init__(self, child: Operator, node: PhysLimit,
                 context: ExecutionContext):
        super().__init__(context)
        self.child = child
        self.node = node

    def execute(self) -> Iterator[Batch]:
        remaining = self.node.count
        for batch in self.child.execute():
            if remaining <= 0:
                return
            if batch.num_rows > remaining:
                yield batch.slice(0, remaining)
                return
            remaining -= batch.num_rows
            yield batch


def _find_aggregate(expr: Expression) -> AggregateCall | None:
    for node in expr.walk():
        if isinstance(node, AggregateCall):
            return node
    return None
