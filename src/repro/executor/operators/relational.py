"""Filter, project, group-by, distinct, order-by, and limit operators.

``FilterOperator`` and ``ProjectOperator`` belong to the row operator
tree (the oracle; under ``execution_mode="vectorized"`` the streaming
pipeline of :mod:`repro.executor.fusion` runs those nodes) and interpret
their expressions per row.  The blocking operators sit above either
engine: under ``execution_mode="vectorized"`` GROUP BY and ORDER BY
compile their expressions once into batch kernels
(:mod:`repro.expressions.compiler`), which fall back to the row
interpreter for any construct (or runtime error) they cannot reproduce
exactly, so results are identical in both modes.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import ExecutorError
from repro.executor.context import ExecutionContext
from repro.executor.operators.base import Operator
from repro.expressions.compiler import CompiledKernel, compile_expression
from repro.expressions.expr import AggregateCall, Expression, Star
from repro.optimizer.plans import (
    PhysFilter,
    PhysGroupBy,
    PhysLimit,
    PhysOrderBy,
    PhysProject,
)
from repro.storage.batch import Batch


def _combined_mode(kernels: list[CompiledKernel]) -> str:
    """Operator-level kernel mode: vectorized only if *every* kernel is."""
    if all(k.vectorized for k in kernels):
        return "vectorized"
    return "row-fallback"


class FilterOperator(Operator):
    """Row filter over an arbitrary predicate expression."""

    def __init__(self, child: Operator, node: PhysFilter,
                 context: ExecutionContext):
        super().__init__(context)
        self.child = child
        self.node = node
        self.kernel_mode = "row"

    def execute(self) -> Iterator[Batch]:
        evaluator = self.context.evaluator
        predicate = self.node.predicate
        for batch in self.child.execute():
            mask = [evaluator.evaluate_predicate(predicate, row)
                    for row in batch.iter_rows()]
            filtered = batch.filter(mask)
            if filtered.num_rows:
                yield filtered


class ProjectOperator(Operator):
    """Evaluates the select list; ``*`` expands to the input columns."""

    def __init__(self, child: Operator, node: PhysProject,
                 context: ExecutionContext):
        super().__init__(context)
        self.child = child
        self.node = node
        self.kernel_mode = "row"

    def execute(self) -> Iterator[Batch]:
        evaluator = self.context.evaluator
        produced = False
        for batch in self.child.execute():
            produced = True
            columns: dict[str, list] = {}
            for expr, name in self.node.items:
                if isinstance(expr, Star):
                    for column in batch.column_names:
                        if not column.startswith("__udf::"):
                            columns[column] = batch.column(column)
                    continue
                columns[name] = [evaluator.evaluate(expr, row)
                                 for row in batch.iter_rows()]
            yield Batch(columns)
        if not produced:
            # Empty result: still emit the output schema (star columns
            # cannot be known without input and are omitted).
            yield Batch({name: [] for expr, name in self.node.items
                         if not isinstance(expr, Star)})


class GroupByOperator(Operator):
    """Hash aggregation: COUNT(*)/COUNT(expr), SUM, AVG, MIN, MAX.

    The vectorized path evaluates group keys and aggregate arguments as
    whole columns per batch, then folds them into the per-group
    accumulators; the row path interprets each expression per row.  Both
    share :meth:`_accumulate_value`, so accumulation semantics (NULL
    skipping, numeric checks, min/max ordering) are identical.
    """

    def __init__(self, child: Operator, node: PhysGroupBy,
                 context: ExecutionContext):
        super().__init__(context)
        self.child = child
        self.node = node
        self._vectorized = context.config.execution_mode == "vectorized"
        self._key_kernels: list[CompiledKernel] = []
        self._agg_kernels: list[tuple[AggregateCall | None,
                                      CompiledKernel | None]] = []
        if self._vectorized:
            self._key_kernels = [compile_expression(k, context.evaluator)
                                 for k in node.keys]
            for expr, _ in node.items:
                aggregate = _find_aggregate(expr)
                if aggregate is None or isinstance(aggregate.arg, Star):
                    self._agg_kernels.append((aggregate, None))
                else:
                    self._agg_kernels.append(
                        (aggregate,
                         compile_expression(aggregate.arg,
                                            context.evaluator)))
            kernels = self._key_kernels + [
                k for _, k in self._agg_kernels if k is not None]
            self.kernel_mode = _combined_mode(kernels) if kernels \
                else "vectorized"
        else:
            self.kernel_mode = "row"

    def execute(self) -> Iterator[Batch]:
        evaluator = self.context.evaluator
        groups: dict[tuple, dict] = {}
        order: list[tuple] = []
        for batch in self.child.execute():
            if self._vectorized:
                self._consume_batch_vectorized(batch, groups, order)
            else:
                self._consume_batch_rows(batch, groups, order, evaluator)
        rows = []
        for key in order:
            state = groups[key]
            out_row = tuple(
                self._finalize(state, index, expr, evaluator)
                for index, (expr, _) in enumerate(self.node.items))
            rows.append(out_row)
        names = [name for _, name in self.node.items]
        yield Batch.from_rows(names, rows)

    # -- batch consumption -------------------------------------------------------

    def _consume_batch_rows(self, batch: Batch, groups: dict,
                            order: list, evaluator) -> None:
        for row in batch.iter_rows():
            key = tuple(evaluator.evaluate(k, row)
                        for k in self.node.keys)
            state = groups.get(key)
            if state is None:
                state = self._new_state(row)
                groups[key] = state
                order.append(key)
            state["count"] += 1
            for index, (expr, _) in enumerate(self.node.items):
                self._accumulate(state, index, expr, row, evaluator)

    def _consume_batch_vectorized(self, batch: Batch, groups: dict,
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
        self.kernel_fallback_batches = sum(
            k.fallback_batches for k in self._key_kernels
            + [k for _, k in self._agg_kernels if k is not None])
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
    def _accumulate(cls, state: dict, index: int, expr: Expression,
                    row: dict, evaluator) -> None:
        aggregate = _find_aggregate(expr)
        if aggregate is None:
            return
        if aggregate.func not in cls.SUPPORTED_AGGREGATES:
            raise ExecutorError(
                f"unsupported aggregate {aggregate.func.upper()}")
        acc = state["agg"][index]
        if isinstance(aggregate.arg, Star):
            acc["count"] += 1
            return
        value = evaluator.evaluate(aggregate.arg, row)
        cls._accumulate_value(acc, aggregate.func, value)

    @classmethod
    def _accumulate_value(cls, acc: dict, func: str, value) -> None:
        """Fold one argument value into an accumulator (both paths)."""
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
        self._kernels: list[CompiledKernel] | None = None
        if context.config.execution_mode == "vectorized":
            self._kernels = [compile_expression(expr, context.evaluator)
                             for expr, _ in node.keys]
            self.kernel_mode = _combined_mode(self._kernels) \
                if self._kernels else "vectorized"
        else:
            self.kernel_mode = "row"

    def execute(self) -> Iterator[Batch]:
        batch = self.child.run_to_completion()
        if not batch.num_rows:
            yield batch  # keep the (possibly empty) output schema
            return
        evaluator = self.context.evaluator
        indices = list(range(batch.num_rows))
        # Sort by keys right-to-left for stable multi-key ordering.
        for position in reversed(range(len(self.node.keys))):
            expr, ascending = self.node.keys[position]
            if self._kernels is not None:
                column = self._kernels[position].evaluate(batch)
                self.kernel_fallback_batches = sum(
                    k.fallback_batches for k in self._kernels)
                keys = [column[i] for i in indices]
            else:
                keys = [evaluator.evaluate(expr, batch.row(i))
                        for i in indices]
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
