"""Compilation of expression trees into column-at-a-time batch kernels.

The row interpreter (:class:`~repro.expressions.evaluator.ExpressionEvaluator`)
walks the AST once *per row*, building a dict per row along the way.  For the
hot filter/project path that interpretation overhead dominates real wall-clock
time.  This module compiles an :class:`~repro.expressions.expr.Expression`
once into a **batch kernel**: a closure evaluated once *per batch* that
operates on whole columns — numpy where the operands are numeric, plain list
comprehensions otherwise.  It is the engine's only expression evaluator.

Semantics are identical to the row interpreter by construction:

* comparisons against ``None`` are ``False`` (SQL-ish missing semantics);
* arithmetic propagates ``None`` and maps division by zero to ``None``;
* logical operators coerce operands with ``bool(...)``;
* ``AND`` / ``OR`` short-circuit per row: each operand runs on the whole
  batch, and only if it raises is it run again on just the rows the
  earlier operands left undecided — the rows the interpreter's
  ``all()`` / ``any()`` reach — so an error surfaces exactly when some
  row the interpreter evaluates raises (its message may name another of
  the failing rows than the interpreter's first);
* a :class:`FunctionCall` resolves to its pre-computed UDF column when the
  plan materialized one, and to the builtin implementation otherwise;
* an :class:`AggregateCall` (``COUNT(*)`` included) is its GROUP BY
  output column; a bare ``*`` has no value and raises;
* a batch of zero rows evaluates nothing and raises nothing.

Expression evaluation never charges the virtual clock.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import ExecutorError
from repro.expressions.analysis import term_key
from repro.expressions.evaluator import ExpressionEvaluator, udf_column_name
from repro.expressions.expr import (
    AggregateCall,
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    CompOp,
    Expression,
    FunctionCall,
    Literal,
    Not,
    Or,
    Star,
)
from repro.storage.batch import Batch, ColumnView, coded, float_array

#: numpy dtype kinds treated as numeric for arithmetic (bool is excluded:
#: ``True + True`` is ``2`` in Python but ``True`` in numpy).
_ARITH_KINDS = frozenset("iuf")
#: numpy dtype kinds comparable through numpy ufuncs (bool compares like
#: 0/1 in both Python and numpy, so it is safe here).
_COMPARE_KINDS = frozenset("iufb")

#: Ints up to this magnitude are exact in float64.
_EXACT_FLOAT_INT = 1 << 53

_NUMPY_COMPARE = {
    CompOp.LT: np.less,
    CompOp.LE: np.less_equal,
    CompOp.GT: np.greater,
    CompOp.GE: np.greater_equal,
    CompOp.EQ: np.equal,
    CompOp.NE: np.not_equal,
}


class _Scalar:
    """A compile-time constant flowing through the kernel graph.

    Kept symbolic (not materialized to an ``n``-long list) so numpy
    broadcasting applies and scalar-only subtrees stay O(1).
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


#: A column value inside the kernel graph: a full column (list or ndarray)
#: or a broadcast scalar.
_Col = "list | np.ndarray | _Scalar"

#: What a kernel yields for a batch of zero rows.
_NOTHING = _Scalar(None)


class CompiledKernel:
    """A batch-at-a-time evaluator for one expression.

    Attributes:
        expr: the compiled expression.
        batches: number of batches evaluated through :meth:`evaluate` /
            :meth:`evaluate_mask`.
    """

    __slots__ = ("expr", "batches", "_fn")

    def __init__(self, expr: Expression, fn: Callable):
        self.expr = expr
        self._fn = fn
        self.batches = 0

    def evaluate(self, batch: Batch) -> list:
        """The expression's value column for ``batch`` (a Python list)."""
        self.batches += 1
        return run_kernel_values(self, batch)

    def evaluate_mask(self, batch: Batch) -> list[bool]:
        """The expression as a predicate: one ``bool`` per row."""
        self.batches += 1
        return run_kernel_mask(self, batch).tolist()

    def _run(self, batch: Batch):
        return self._fn(batch) if batch.num_rows else _NOTHING


def compile_expression(expr: Expression,
                       evaluator: ExpressionEvaluator) -> CompiledKernel:
    """Compile ``expr`` into a :class:`CompiledKernel`."""
    return CompiledKernel(expr, _compile_node(expr, evaluator))


# ---------------------------------------------------------------------------
# shared-kernel runners (used by the streaming pipeline)
# ---------------------------------------------------------------------------
#
# Fused plans (executor/fusion.py) cache compiled kernels and share them
# across queries, sessions, and server client threads, so the pipeline
# runs kernels through these functions, which leave the kernel's own
# ``batches`` counter alone.


def run_kernel_values(kernel: CompiledKernel, batch: Batch) -> list:
    """The kernel's value column for ``batch``."""
    return _materialize(kernel._run(batch), batch.num_rows)


def run_kernel_mask(kernel: CompiledKernel, batch: Batch) -> np.ndarray:
    """The kernel as a predicate over ``batch``: a bool array
    (``Batch.filter_mask`` takes it as is)."""
    return _as_bool_array(kernel._run(batch), batch.num_rows)


# ---------------------------------------------------------------------------
# kernel generators (one per node type)
# ---------------------------------------------------------------------------


def _short_circuit(operands: list[Callable], batch: Batch,
                   stop: bool) -> np.ndarray:
    """Rows on which some operand is ``stop`` (False for AND, True for
    OR), operands taken in order the way ``all()`` / ``any()`` take them.

    Each operand runs on the whole batch; an operand that raises runs
    again on the still-undecided rows alone, and a second raise
    propagates — some row the interpreter evaluates raises.
    """
    n = batch.num_rows
    decided = np.zeros(n, dtype=bool)
    for fn in operands:
        undecided = ~decided
        if not undecided.any():
            break
        try:
            hits = _as_bool_array(fn(batch), n) == stop
        except ExecutorError:
            rows = batch.filter_mask(undecided)
            hits = np.zeros(n, dtype=bool)
            hits[undecided] = _as_bool_array(fn(rows), rows.num_rows) == stop
        decided |= hits
    return decided


def _compile_node(expr: Expression,
                  evaluator: ExpressionEvaluator) -> Callable:
    if isinstance(expr, Literal):
        scalar = _Scalar(expr.value)
        return lambda batch: scalar
    if isinstance(expr, ColumnRef):
        name = expr.name
        none = _Scalar(None)

        def column_fn(batch: Batch):
            if batch.has_column(name):
                return batch.column(name)
            return none  # row.get() semantics: missing column -> None

        return column_fn
    if isinstance(expr, Comparison):
        left = _compile_node(expr.left, evaluator)
        right = _compile_node(expr.right, evaluator)
        op = expr.op
        sql = expr.to_sql()

        def compare_fn(batch: Batch):
            return _compare(op, left(batch), right(batch),
                            batch.num_rows, sql)

        return compare_fn
    if isinstance(expr, And):
        operands = [_compile_node(o, evaluator) for o in expr.operands]
        return lambda batch: ~_short_circuit(operands, batch, False)
    if isinstance(expr, Or):
        operands = [_compile_node(o, evaluator) for o in expr.operands]
        return lambda batch: _short_circuit(operands, batch, True)
    if isinstance(expr, Not):
        operand = _compile_node(expr.operand, evaluator)

        def not_fn(batch: Batch):
            return np.logical_not(
                _as_bool_array(operand(batch), batch.num_rows))

        return not_fn
    if isinstance(expr, Arithmetic):
        left = _compile_node(expr.left, evaluator)
        right = _compile_node(expr.right, evaluator)
        op = expr.op
        sql = expr.to_sql()

        def arith_fn(batch: Batch):
            return _arithmetic(op, left(batch), right(batch),
                               batch.num_rows, sql)

        return arith_fn
    if isinstance(expr, FunctionCall):
        column = udf_column_name(term_key(expr))
        name = expr.name
        args = [_compile_node(a, evaluator) for a in expr.args]

        def call_fn(batch: Batch):
            # A pre-computed UDF column takes precedence (the plan already
            # applied the possibly-reused model for this term).
            if batch.has_column(column):
                return batch.column(column)
            impl = evaluator.builtin_impl(name)
            if impl is None:
                raise ExecutorError(
                    f"UDF {name!r} was not applied before evaluation and "
                    "has no builtin implementation")
            n = batch.num_rows
            arg_cols = [_values(fn(batch), n) for fn in args]
            return [impl(*row_args) for row_args in zip(*arg_cols)] \
                if arg_cols else [impl() for _ in range(n)]

        return call_fn
    if isinstance(expr, AggregateCall):
        # Above a GROUP BY the aggregate's value is its output column.
        column = expr.to_sql()
        sql = expr.to_sql()

        def aggregate_fn(batch: Batch):
            if batch.has_column(column):
                return batch.column(column)
            raise ExecutorError(
                f"aggregate {sql} outside GROUP BY context")

        return aggregate_fn
    if isinstance(expr, Star):

        def star_fn(batch: Batch):
            raise ExecutorError("'*' cannot be evaluated as a value")

        return star_fn
    raise ExecutorError(
        f"no kernel generator for {type(expr).__name__}")


# ---------------------------------------------------------------------------
# columnar primitives
# ---------------------------------------------------------------------------


def _compare(op: CompOp, left, right, n: int, sql: str):
    if isinstance(left, _Scalar) and isinstance(right, _Scalar):
        try:
            return _Scalar(op.apply(left.value, right.value))
        except TypeError:
            raise ExecutorError(
                f"cannot compare {type(left.value).__name__} with "
                f"{type(right.value).__name__} in {sql}") from None
    larr = _numeric_operand(left, _COMPARE_KINDS)
    rarr = _numeric_operand(right, _COMPARE_KINDS)
    if larr is not None and rarr is not None \
            and _compares_exactly(larr, rarr):
        return _NUMPY_COMPARE[op](larr, rarr)
    if isinstance(right, _Scalar) and op in (CompOp.EQ, CompOp.NE):
        # Scalar (in)equality — e.g. ``label = 'car'`` — never raises
        # and NULL compares false, so one fused pass replaces the
        # per-element ``op.apply`` dispatch and emits the bool array
        # ``_as_bool_array`` would otherwise rebuild.  Over dictionary
        # codes the pass runs once per vocabulary entry, not once per
        # row — when that is fewer passes (an open vocabulary can
        # outgrow the batch).
        value = right.value
        if value is None:
            return np.zeros(n, dtype=bool)
        codes = None
        dictionary = coded(left)
        if dictionary is not None and len(dictionary[1]) <= n:
            codes, lvals = dictionary
        else:
            lvals = _values(left, n)
        # ``count`` bounds the pass: the vocabulary may grow meanwhile.
        count = len(lvals)
        if op is CompOp.EQ:
            matches = np.fromiter(
                (v is not None and v == value for v in lvals),
                dtype=bool, count=count)
        else:
            matches = np.fromiter(
                (v is not None and v != value for v in lvals),
                dtype=bool, count=count)
        return matches if codes is None else matches[codes]
    lvals = _values(left, n)
    rvals = _values(right, n)
    out = []
    append = out.append
    apply = op.apply
    try:
        for a, b in zip(lvals, rvals):
            append(apply(a, b))
    except TypeError:
        raise ExecutorError(
            f"cannot compare {type(a).__name__} with "
            f"{type(b).__name__} in {sql}") from None
    return out


def _arithmetic(op: str, left, right, n: int, sql: str):
    if isinstance(left, _Scalar) and isinstance(right, _Scalar):
        return _Scalar(_scalar_arith(op, left.value, right.value, sql))
    larr = _numeric_operand(left, _ARITH_KINDS)
    rarr = _numeric_operand(right, _ARITH_KINDS)
    if larr is not None and rarr is not None \
            and _exact_in_numpy(op, larr, rarr):
        if op == "+":
            return larr + rarr
        if op == "-":
            return larr - rarr
        if op == "*":
            return larr * rarr
        # Division: Python semantics yield NULL for a zero divisor, so the
        # pure-numpy path only applies to all-nonzero divisors.
        if not np.any(rarr == 0):
            return np.true_divide(larr, rarr)
        with np.errstate(divide="ignore", invalid="ignore"):
            quotient = np.true_divide(larr, rarr)
        zero = np.broadcast_to(np.asarray(rarr) == 0, np.shape(quotient))
        return [None if z else q
                for q, z in zip(quotient.tolist(), zero.tolist())]
    lvals = _values(left, n)
    rvals = _values(right, n)
    return [_scalar_arith(op, a, b, sql) for a, b in zip(lvals, rvals)]


def _is_int(operand) -> bool:
    """Whether a numeric operand is an int array or a Python int (or
    bool): a float, or a bool array, is not."""
    if isinstance(operand, np.ndarray):
        return operand.dtype.kind in "iu"
    return not isinstance(operand, float)


def _int_bounds(operand) -> tuple[int, int] | None:
    """``(min, max)`` of an integer operand as Python ints (``(0, 0)``
    when empty); None for a float one."""
    if not _is_int(operand):
        return None
    if isinstance(operand, np.ndarray):
        if not len(operand):
            return 0, 0
        return int(operand.min()), int(operand.max())
    return operand, operand


def _compares_exactly(left, right) -> bool:
    """Whether numpy compares ``left`` with ``right`` as Python does: it
    compares ints with ints exactly, but an int with a float as two
    float64s, which is exact only while the int is."""
    if _is_int(left) == _is_int(right):
        return True
    lo, hi = _int_bounds(left if _is_int(left) else right)
    return max(-lo, hi) <= _EXACT_FLOAT_INT


def _exact_in_numpy(op: str, left, right) -> bool:
    """Whether numpy computes ``left op right`` as Python does: an
    integer result stays in int64 (numpy wraps around, or refuses a
    Python int beyond it), and an integer quotient's operands are exact
    in float64 (numpy divides them as floats, Python rounds once)."""
    bounds = _int_bounds(left), _int_bounds(right)
    if None in bounds:
        return True  # a float operand: both convert the ints to float64
    (llo, lhi), (rlo, rhi) = bounds
    if op == "/":
        return max(-llo, lhi, -rlo, rhi) <= _EXACT_FLOAT_INT
    if op == "+":
        lo, hi = llo + rlo, lhi + rhi
    elif op == "-":
        lo, hi = llo - rhi, lhi - rlo
    else:
        products = (llo * rlo, llo * rhi, lhi * rlo, lhi * rhi)
        lo, hi = min(products), max(products)
    return -1 << 63 <= lo and hi < 1 << 63


def _scalar_arith(op: str, left, right, sql: str):
    if left is None or right is None:
        return None  # NULL propagation
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            if isinstance(left, str) or isinstance(right, str):
                raise TypeError  # SQL has no string repetition
            return left * right
        if right == 0:
            return None  # SQL-ish: division by zero yields NULL
        return left / right
    except (TypeError, OverflowError):
        raise ExecutorError(
            f"cannot compute {sql} over {type(left).__name__} and "
            f"{type(right).__name__}") from None


def _numeric_operand(col, kinds: frozenset):
    """``col`` as a numpy-compatible numeric operand, or None.

    Scalars pass through as Python numbers (numpy broadcasts them); columns
    are converted with :func:`np.asarray` and accepted when their dtype kind
    is numeric — object dtype (mixed types, Nones, boxes) is rejected, which
    routes evaluation to the exact element-wise path.
    """
    if isinstance(col, _Scalar):
        value = col.value
        if isinstance(value, bool):
            return value if "b" in kinds else None
        if isinstance(value, (int, float)):
            return value
        return None
    if isinstance(col, np.ndarray):
        return col if col.dtype.kind in kinds else None
    array = float_array(col)
    if array is not None:
        return array if "f" in kinds else None
    if coded(col) is not None:
        return None  # str / None values
    try:
        # Fast reject for string columns: ``np.asarray`` would copy the
        # whole column into a U-dtype array only to be refused below.
        # Rejection is always safe — it routes to the exact
        # element-wise path.
        if len(col) > 0 and isinstance(col[0], str):
            return None
    except TypeError:
        pass
    try:
        arr = np.asarray(col)
    except (ValueError, TypeError, OverflowError):  # ragged / unconvertible
        return None
    if arr.dtype.kind not in kinds:
        return None
    if arr.dtype.kind == "f" and (
            kinds is _ARITH_KINDS
            or (np.abs(arr) >= _EXACT_FLOAT_INT).any()) \
            and any(isinstance(v, (int, np.integer)) for v in col):
        # numpy would compute on the ints as floats, where Python keeps
        # ``int`` results (``n + 0`` stays ``2 ** 53 + 1``, which
        # float64 rounds) and compares ints exactly.
        return None
    return arr


def _as_bool_array(col, n: int) -> np.ndarray:
    """Coerce a kernel column to a bool array using Python truthiness."""
    if isinstance(col, _Scalar):
        return np.full(n, bool(col.value))
    if isinstance(col, np.ndarray):
        if col.dtype.kind == "b":
            return col
        if col.dtype.kind in _ARITH_KINDS:
            return col.astype(bool)
        return np.fromiter((bool(v) for v in col.tolist()),
                           dtype=bool, count=n)
    return np.fromiter((bool(v) for v in col), dtype=bool, count=n)


def _values(col, n: int) -> Sequence:
    """``col`` as an iterable of ``n`` Python values."""
    if isinstance(col, _Scalar):
        return [col.value] * n
    if isinstance(col, np.ndarray):
        return col.tolist()
    return col


def _materialize(col, n: int) -> list:
    if isinstance(col, _Scalar):
        return [col.value] * n
    if isinstance(col, np.ndarray):
        return col.tolist()
    if isinstance(col, (list, ColumnView)):
        # ColumnViews pass through zero-copy: consumers index/iterate
        # them like lists and they materialize at most once on demand.
        return col
    return list(col)

