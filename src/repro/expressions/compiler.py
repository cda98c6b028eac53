"""Compilation of expression trees into column-at-a-time batch kernels.

The row interpreter (:class:`~repro.expressions.evaluator.ExpressionEvaluator`)
walks the AST once *per row*, building a dict per row along the way.  For the
hot filter/project path that interpretation overhead dominates real wall-clock
time.  This module compiles an :class:`~repro.expressions.expr.Expression`
once into a **batch kernel**: a closure evaluated once *per batch* that
operates on whole columns — numpy where the operands are numeric, plain list
comprehensions otherwise.

Semantics are bit-identical to the row interpreter by construction:

* comparisons against ``None`` are ``False`` (SQL-ish missing semantics);
* arithmetic propagates ``None`` and maps division by zero to ``None``;
* logical operators coerce operands with ``bool(...)``;
* a :class:`FunctionCall` resolves to its pre-computed UDF column when the
  plan materialized one, and to the builtin implementation otherwise.

Two safety nets keep the old behavior reachable:

* **compile-time fallback** — :func:`supports_vectorized` rejects nodes the
  kernel generator does not understand (``*``, unknown node types); the
  compiler then returns a kernel that runs the row interpreter, flagged
  ``vectorized=False``;
* **runtime fallback** — if a vectorized kernel raises while evaluating a
  batch (e.g. a type error that the row path would surface mid-evaluation),
  the kernel transparently re-evaluates that batch through the row
  interpreter, which reproduces the exact legacy result or error (including
  short-circuit semantics the columnar path cannot honor).  Fallback batches
  are counted on the kernel (``fallback_batches``) so EXPLAIN ANALYZE and
  the obs layer can report them.

Expression evaluation never charges the virtual clock, so a runtime retry is
cost-neutral and side-effect free.
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


def supports_vectorized(expr: Expression) -> bool:
    """Can every node of ``expr`` be compiled to a batch kernel?

    ``Star`` has no value semantics (it is handled structurally by the
    project operator) and unknown node types have no kernel generator;
    everything else — including UDF calls, which resolve to pre-computed
    columns or builtins at batch time — vectorizes.
    """
    supported = (Literal, ColumnRef, Comparison, And, Or, Not, Arithmetic,
                 FunctionCall, AggregateCall)
    for node in expr.walk():
        if isinstance(node, Star):
            return False
        if not isinstance(node, supported):
            return False
    return True


class CompiledKernel:
    """A batch-at-a-time evaluator for one expression.

    Attributes:
        expr: the compiled expression.
        vectorized: compile-time decision — False means the kernel is a
            plain row-interpreter wrapper (``row-fallback``).
        batches: number of batches evaluated.
        fallback_batches: batches that hit the runtime fallback (the
            vectorized kernel raised and the row interpreter re-ran them).
    """

    __slots__ = ("expr", "vectorized", "batches", "fallback_batches",
                 "_fn", "_evaluator")

    def __init__(self, expr: Expression, evaluator: ExpressionEvaluator,
                 fn: Callable | None):
        self.expr = expr
        self._evaluator = evaluator
        self._fn = fn
        self.vectorized = fn is not None
        self.batches = 0
        self.fallback_batches = 0

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, batch: Batch) -> list:
        """The expression's value column for ``batch`` (a Python list)."""
        self.batches += 1
        if self._fn is not None:
            try:
                return _materialize(self._fn(batch), batch.num_rows)
            except ExecutorError:
                # Re-run through the row interpreter: it reproduces the
                # legacy result *or* the legacy error (e.g. short-circuit
                # semantics the columnar path cannot honor).
                self.fallback_batches += 1
        return self._evaluate_rows(batch)

    def evaluate_mask(self, batch: Batch) -> list[bool]:
        """The expression as a predicate: one ``bool`` per row."""
        self.batches += 1
        if self._fn is not None:
            try:
                return _materialize_mask(self._fn(batch), batch.num_rows)
            except ExecutorError:
                self.fallback_batches += 1
        evaluator = self._evaluator
        expr = self.expr
        return [evaluator.evaluate_predicate(expr, row)
                for row in batch.iter_rows()]

    def _evaluate_rows(self, batch: Batch) -> list:
        evaluator = self._evaluator
        expr = self.expr
        return [evaluator.evaluate(expr, row) for row in batch.iter_rows()]

    @property
    def mode(self) -> str:
        """``vectorized`` or ``row-fallback`` (compile-time decision)."""
        return "vectorized" if self.vectorized else "row-fallback"


def compile_expression(expr: Expression,
                       evaluator: ExpressionEvaluator) -> CompiledKernel:
    """Compile ``expr`` into a :class:`CompiledKernel`.

    Falls back to a row-interpreter kernel (``vectorized=False``) when any
    node fails :func:`supports_vectorized`.
    """
    if not supports_vectorized(expr):
        return CompiledKernel(expr, evaluator, None)
    fn = _compile_node(expr, evaluator)
    return CompiledKernel(expr, evaluator, fn)


# ---------------------------------------------------------------------------
# shared-kernel runners (used by the streaming pipeline)
# ---------------------------------------------------------------------------
#
# Fused plans (executor/fusion.py) cache compiled kernels and share them
# across queries, sessions, and server client threads.  The kernel's own
# ``batches`` / ``fallback_batches`` counters are per-instance state and
# would race (and misattribute) under sharing, so the pipeline runs
# kernels through these functions, which report runtime fallbacks into a
# caller-owned per-execution ``counts`` dict instead.


def run_kernel_values(kernel: CompiledKernel, batch: Batch,
                      counts: dict | None = None, label: str = "") -> list:
    """:meth:`CompiledKernel.evaluate` with caller-owned fallback counts."""
    fn = kernel._fn
    if fn is not None:
        try:
            return _materialize(fn(batch), batch.num_rows)
        except ExecutorError:
            if counts is not None:
                counts[label] = counts.get(label, 0) + 1
    evaluator = kernel._evaluator
    expr = kernel.expr
    return [evaluator.evaluate(expr, row) for row in batch.iter_rows()]


def run_kernel_mask(kernel: CompiledKernel, batch: Batch,
                    counts: dict | None = None,
                    label: str = "") -> np.ndarray | list[bool]:
    """:meth:`CompiledKernel.evaluate_mask` with caller-owned counts; a
    vectorized mask stays a bool array (``Batch.filter_mask`` takes it
    as is)."""
    fn = kernel._fn
    if fn is not None:
        try:
            return _as_bool_array(fn(batch), batch.num_rows)
        except ExecutorError:
            if counts is not None:
                counts[label] = counts.get(label, 0) + 1
    evaluator = kernel._evaluator
    expr = kernel.expr
    return [evaluator.evaluate_predicate(expr, row)
            for row in batch.iter_rows()]


def run_kernel_mask_vectorized(kernel: CompiledKernel,
                               batch: Batch) -> np.ndarray:
    """The kernel's mask via the vectorized path *only*, as a bool array.

    No fallback: any exception propagates so the caller can demote (used
    for the speculative evaluation of upper filters in a fused mask
    group, where errors must not surface for rows a lower filter would
    have removed).  Requires ``kernel.vectorized``.
    """
    return _as_bool_array(kernel._fn(batch), batch.num_rows)


# ---------------------------------------------------------------------------
# kernel generators (one per node type)
# ---------------------------------------------------------------------------


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

        def and_fn(batch: Batch):
            masks = [_as_bool_array(fn(batch), batch.num_rows)
                     for fn in operands]
            return np.logical_and.reduce(masks)

        return and_fn
    if isinstance(expr, Or):
        operands = [_compile_node(o, evaluator) for o in expr.operands]

        def or_fn(batch: Batch):
            masks = [_as_bool_array(fn(batch), batch.num_rows)
                     for fn in operands]
            return np.logical_or.reduce(masks)

        return or_fn
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
    if larr is not None and rarr is not None:
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
    if larr is not None and rarr is not None:
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


def _scalar_arith(op: str, left, right, sql: str):
    if left is None or right is None:
        return None  # NULL propagation
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if right == 0:
            return None  # SQL-ish: division by zero yields NULL
        return left / right
    except TypeError:
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
    except (ValueError, TypeError):  # ragged / unconvertible
        return None
    return arr if arr.dtype.kind in kinds else None


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


def _materialize_mask(col, n: int) -> list[bool]:
    if isinstance(col, _Scalar):
        return [bool(col.value)] * n
    if isinstance(col, np.ndarray):
        if col.dtype.kind != "b":
            return [bool(v) for v in col.tolist()]
        return col.tolist()
    return [bool(v) for v in col]
