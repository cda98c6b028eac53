"""Row-wise expression evaluation.

The executor materializes UDF outputs into row columns before predicates
referencing them are evaluated, so by evaluation time every
:class:`FunctionCall` resolves either to a pre-computed column (looked up by
its term key) or to a cheap builtin implementation.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.errors import ExecutorError
from repro.expressions.analysis import term_key
from repro.expressions.expr import (
    AggregateCall,
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    Literal,
    Not,
    Or,
    Star,
)

#: Column name under which a UDF term's computed value is stored in rows.
def udf_column_name(key: str) -> str:
    return f"__udf::{key}"


class ExpressionEvaluator:
    """Evaluates expressions against row dicts.

    Args:
        builtins: map of UDF name -> python callable for cheap builtin UDFs
            (e.g. ``area``).  Called with the evaluated argument values.
    """

    def __init__(self, builtins: Mapping[str, Callable] | None = None):
        self._builtins = {k.lower(): v for k, v in (builtins or {}).items()}

    def evaluate(self, expr: Expression, row: Mapping[str, object]):
        """Evaluate ``expr`` for one row; comparisons use SQL-ish semantics
        (any comparison against a missing/None value is False)."""
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            return row.get(expr.name)
        if isinstance(expr, Comparison):
            left = self.evaluate(expr.left, row)
            right = self.evaluate(expr.right, row)
            try:
                return expr.op.apply(left, right)
            except TypeError:
                raise ExecutorError(
                    f"cannot compare {type(left).__name__} with "
                    f"{type(right).__name__} in {expr.to_sql()}") from None
        if isinstance(expr, And):
            return all(bool(self.evaluate(o, row)) for o in expr.operands)
        if isinstance(expr, Or):
            return any(bool(self.evaluate(o, row)) for o in expr.operands)
        if isinstance(expr, Not):
            return not bool(self.evaluate(expr.operand, row))
        if isinstance(expr, Arithmetic):
            left = self.evaluate(expr.left, row)
            right = self.evaluate(expr.right, row)
            if left is None or right is None:
                return None  # NULL propagation
            try:
                if expr.op == "+":
                    return left + right
                if expr.op == "-":
                    return left - right
                if expr.op == "*":
                    if isinstance(left, str) or isinstance(right, str):
                        raise TypeError  # SQL has no string repetition
                    return left * right
                if right == 0:
                    return None  # SQL-ish: division by zero yields NULL
                return left / right
            except (TypeError, OverflowError):
                raise ExecutorError(
                    f"cannot compute {expr.to_sql()} over "
                    f"{type(left).__name__} and {type(right).__name__}"
                ) from None
        if isinstance(expr, FunctionCall):
            return self._evaluate_call(expr, row)
        if isinstance(expr, Star):
            raise ExecutorError("'*' cannot be evaluated as a value")
        if isinstance(expr, AggregateCall):
            # Above a GROUP BY, the aggregate's value is the output column
            # named after it (so ORDER BY COUNT(*) works).
            column = expr.to_sql()
            if column in row:
                return row[column]
            raise ExecutorError(
                f"aggregate {expr.to_sql()} outside GROUP BY context")
        raise ExecutorError(f"cannot evaluate {expr!r}")

    def evaluate_predicate(self, expr: Expression,
                           row: Mapping[str, object]) -> bool:
        return bool(self.evaluate(expr, row))

    def builtin_impl(self, name: str) -> Callable | None:
        """The builtin implementation registered for ``name`` (or None).

        Exposed for the batch-kernel compiler
        (:mod:`repro.expressions.compiler`), which resolves UDF calls the
        same way the row path does: pre-computed column first, builtin
        second.
        """
        return self._builtins.get(name.lower())

    def _evaluate_call(self, call: FunctionCall, row: Mapping[str, object]):
        # A pre-computed UDF column takes precedence: the plan has already
        # applied the (possibly reused) model for this term.
        column = udf_column_name(term_key(call))
        if column in row:
            return row[column]
        impl = self._builtins.get(call.name)
        if impl is None:
            raise ExecutorError(
                f"UDF {call.name!r} was not applied before evaluation and "
                "has no builtin implementation")
        args = [self.evaluate(arg, row) for arg in call.args]
        return impl(*args)
