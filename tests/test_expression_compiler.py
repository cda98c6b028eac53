"""Unit tests for the batch-kernel expression compiler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutorError
from repro.expressions.compiler import compile_expression
from repro.expressions.evaluator import ExpressionEvaluator
from repro.expressions.expr import (
    AggregateCall,
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    CompOp,
    FunctionCall,
    Literal,
    Not,
    Or,
    Star,
)
from repro.storage.batch import Batch, ColumnView, stored_column


@pytest.fixture
def evaluator():
    return ExpressionEvaluator(builtins={"double": lambda v: v * 2})


def _rows_reference(expr, evaluator, batch):
    return [evaluator.evaluate(expr, row) for row in batch.iter_rows()]


def _mask_reference(expr, evaluator, batch):
    return [evaluator.evaluate_predicate(expr, row)
            for row in batch.iter_rows()]


class TestStar:
    """``*`` has no value: the kernel raises the interpreter's error on
    any row, and evaluates nothing over zero rows."""

    @pytest.mark.parametrize("expr", [
        Star(), Comparison(Star(), CompOp.EQ, Literal(1))],
        ids=lambda e: e.to_sql())
    def test_star_raises_the_interpreters_error(self, evaluator, expr):
        kernel = compile_expression(expr, evaluator)
        batch = Batch({"id": [1, 2]})
        with pytest.raises(ExecutorError, match="cannot be evaluated"):
            evaluator.evaluate(expr, next(batch.iter_rows()))
        with pytest.raises(ExecutorError, match="cannot be evaluated"):
            kernel.evaluate(batch)
        with pytest.raises(ExecutorError, match="cannot be evaluated"):
            kernel.evaluate_mask(batch)
        assert kernel.evaluate(Batch({"id": []})) == []
        assert kernel.evaluate_mask(Batch({"id": []})) == []

    def test_count_star_is_its_output_column(self, evaluator):
        expr = AggregateCall("count", Star())
        kernel = compile_expression(expr, evaluator)
        assert kernel.evaluate(Batch({expr.to_sql(): [3, 4]})) == [3, 4]
        with pytest.raises(ExecutorError, match="outside GROUP BY"):
            kernel.evaluate(Batch({"id": [1]}))


class TestKernelsMatchInterpreter:
    """Every kernel must agree with the row interpreter bit-for-bit."""

    BATCH = Batch({
        "id": [0, 1, 2, 3, 4],
        "score": [0.1, 0.9, 0.5, None, 0.7],
        "label": ["car", "bus", "car", "van", None],
    })

    CASES = [
        Comparison(ColumnRef("id"), CompOp.LT, Literal(3)),
        Comparison(ColumnRef("id"), CompOp.GE, Literal(2)),
        Comparison(ColumnRef("score"), CompOp.GT, Literal(0.4)),
        Comparison(ColumnRef("label"), CompOp.EQ, Literal("car")),
        Comparison(ColumnRef("label"), CompOp.NE, Literal("car")),
        Comparison(ColumnRef("missing"), CompOp.EQ, Literal(1)),
        And((Comparison(ColumnRef("id"), CompOp.LT, Literal(4)),
             Comparison(ColumnRef("label"), CompOp.EQ, Literal("car")))),
        Or((Comparison(ColumnRef("id"), CompOp.EQ, Literal(0)),
            Comparison(ColumnRef("score"), CompOp.GT, Literal(0.8)))),
        Not(Comparison(ColumnRef("id"), CompOp.LT, Literal(2))),
        Arithmetic(ColumnRef("id"), "+", Literal(10)),
        Arithmetic(ColumnRef("id"), "*", ColumnRef("id")),
        Arithmetic(ColumnRef("score"), "-", Literal(0.5)),
        Arithmetic(Literal(10), "/", ColumnRef("id")),  # div-by-zero row
        Arithmetic(ColumnRef("score"), "+", Literal(1)),  # None in column
        Literal(42),
        ColumnRef("label"),
        FunctionCall("double", (ColumnRef("id"),)),
    ]

    @pytest.mark.parametrize("expr", CASES, ids=lambda e: e.to_sql())
    def test_evaluate_matches(self, evaluator, expr):
        kernel = compile_expression(expr, evaluator)
        assert kernel.evaluate(self.BATCH) == \
            _rows_reference(expr, evaluator, self.BATCH)

    @pytest.mark.parametrize("expr", CASES, ids=lambda e: e.to_sql())
    def test_evaluate_mask_matches(self, evaluator, expr):
        kernel = compile_expression(expr, evaluator)
        assert kernel.evaluate_mask(self.BATCH) == \
            _mask_reference(expr, evaluator, self.BATCH)

    def test_python_int_semantics_preserved(self, evaluator):
        """numpy must not leak: results are Python ints, not np.int64."""
        kernel = compile_expression(
            Arithmetic(ColumnRef("id"), "+", Literal(1)), evaluator)
        out = kernel.evaluate(Batch({"id": [1, 2]}))
        assert out == [2, 3]
        assert all(type(v) is int for v in out)

    def test_bool_arithmetic_matches_python(self, evaluator):
        """True + True is 2 in Python; numpy's bool add must not apply."""
        batch = Batch({"flag": [True, False, True]})
        expr = Arithmetic(ColumnRef("flag"), "+", ColumnRef("flag"))
        kernel = compile_expression(expr, evaluator)
        assert kernel.evaluate(batch) == \
            _rows_reference(expr, evaluator, batch)

    def test_mixed_type_column_uses_elementwise_path(self, evaluator):
        batch = Batch({"v": [1, 2.5, 7]})
        expr = Comparison(ColumnRef("v"), CompOp.GT, Literal(2))
        kernel = compile_expression(expr, evaluator)
        assert kernel.evaluate(batch) == \
            _rows_reference(expr, evaluator, batch)

    def test_aggregate_column_lookup(self, evaluator):
        expr = AggregateCall("count", Star())
        batch = Batch({expr.to_sql(): [3, 4]})
        kernel = compile_expression(expr, evaluator)
        assert kernel.evaluate(batch) == [3, 4]


class TestShortCircuit:
    """AND / OR evaluate an operand only on the rows the interpreter's
    ``all()`` / ``any()`` reach: an operand that raises on the whole batch
    runs again on the undecided rows alone."""

    def test_or_skips_the_error_on_rows_it_decided(self, evaluator):
        """``id < 'x'`` raises on every row it is evaluated on, but OR
        decides every row on its first operand, so the interpreter never
        evaluates it — while the whole-batch pass (which evaluates both
        operands eagerly) raises and is retried on no rows.
        """
        expr = Or((Comparison(ColumnRef("id"), CompOp.GE, Literal(0)),
                   Comparison(ColumnRef("id"), CompOp.LT, Literal("x"))))
        batch = Batch({"id": [1, 2]})
        kernel = compile_expression(expr, evaluator)
        assert kernel.evaluate_mask(batch) == \
            _mask_reference(expr, evaluator, batch)
        assert kernel.batches == 1

    def test_batches_count_evaluations(self, evaluator):
        expr = Or((Comparison(ColumnRef("id"), CompOp.GE, Literal(0)),
                   Comparison(ColumnRef("id"), CompOp.LT, Literal("x"))))
        kernel = compile_expression(expr, evaluator)
        batch = Batch({"id": [1]})
        kernel.evaluate_mask(batch)
        kernel.evaluate_mask(batch)
        assert kernel.batches == 2

    def test_retry_runs_on_the_undecided_rows(self, evaluator):
        # Rows 0 and 2 reach ``v * 2 < 10`` (both fine); rows 1 and 3
        # hold values it cannot compute and are decided by ``id`` first.
        expr = And((Comparison(ColumnRef("id"), CompOp.NE, Literal(1)),
                    Or((Comparison(ColumnRef("id"), CompOp.EQ, Literal(3)),
                        Comparison(Arithmetic(ColumnRef("v"), "*",
                                              Literal(2)),
                                   CompOp.LT, Literal(10))))))
        batch = Batch({"id": [0, 1, 2, 3], "v": [1, "x", 7, 2.5]})
        kernel = compile_expression(expr, evaluator)
        assert kernel.evaluate_mask(batch) == [True, False, False, True]
        assert kernel.evaluate(batch) == \
            _rows_reference(expr, evaluator, batch)

    def test_error_on_a_reached_row_propagates(self, evaluator):
        expr = And((Comparison(ColumnRef("id"), CompOp.NE, Literal(1)),
                    Comparison(ColumnRef("v"), CompOp.LT, Literal(10))))
        batch = Batch({"id": [0, 1, 2], "v": [1, "x", "y"]})
        kernel = compile_expression(expr, evaluator)
        with pytest.raises(ExecutorError, match="cannot compare"):
            _rows_reference(expr, evaluator, batch)
        with pytest.raises(ExecutorError, match="cannot compare"):
            kernel.evaluate_mask(batch)


#: Values of the property's columns: int, float, str and None.  The
#: floats are binary fractions, so a sum or product of them with a small
#: int is exact in float64 as in Python.
_FLOATS = st.sampled_from([-2.5, -0.5, 0.0, 0.5, 1.5, 3.25])
_STRS = st.sampled_from(["", "a", "ab"])
#: Ints at and beyond the ends of int64 (and of the ints float64 holds
#: exactly), where numpy would wrap around, refuse a Python int or round,
#: and the kernel must compute as Python does.  Eight leaves of at most
#: ``2 ** 72`` keep every float far from overflow.
_WIDE_INTS = st.one_of(
    st.integers(-6, 6),
    st.sampled_from([2 ** 40, -2 ** 53 - 1, 2 ** 53 + 1, 2 ** 62,
                     2 ** 63 - 1, -2 ** 63, 2 ** 63, 2 ** 70]),
    st.integers(-2 ** 72, 2 ** 72))
_COLUMNS = ("a", "b", "c")
_ROWS = 6


def _extend(children):
    operands = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        operands.map(And),
        operands.map(Or),
        children.map(Not),
        st.builds(Comparison, children, st.sampled_from(list(CompOp)),
                  children),
        st.builds(Arithmetic, children, st.sampled_from("+-*/"), children))


def _cases():
    """``(expression, batch)`` pairs over columns of wide ints, floats,
    strs and None.  A column is of one type or mixes them: one-type
    columns take numpy's paths, mixed ones the element-wise path and its
    errors."""
    values = st.one_of(st.none(), _WIDE_INTS, _FLOATS, _STRS)
    leaves = st.one_of(st.sampled_from([ColumnRef(c) for c in _COLUMNS]),
                       values.map(Literal))
    column = st.one_of(
        st.lists(_WIDE_INTS, min_size=_ROWS, max_size=_ROWS),
        st.lists(st.sampled_from([-2.5, 0.5, 1.5, None]),
                 min_size=_ROWS, max_size=_ROWS),
        st.lists(st.one_of(st.none(), _STRS),
                 min_size=_ROWS, max_size=_ROWS),
        st.lists(values, min_size=_ROWS, max_size=_ROWS))
    return st.tuples(
        st.recursive(leaves, _extend, max_leaves=8),
        st.fixed_dictionaries({c: column for c in _COLUMNS}).map(Batch))


_CASES = _cases()


def _interpreted(evaluate, expr, batch):
    """The interpreter's column for ``batch``, or None when some row
    raises."""
    try:
        return [evaluate(expr, row) for row in batch.iter_rows()]
    except ExecutorError:
        return None


@settings(max_examples=400, deadline=None)
@given(_CASES)
def test_kernel_equals_the_interpreter_row_by_row(case):
    expr, batch = case
    evaluator = ExpressionEvaluator()
    kernel = compile_expression(expr, evaluator)
    for kernel_fn, evaluate in (
            (kernel.evaluate, evaluator.evaluate),
            (kernel.evaluate_mask, evaluator.evaluate_predicate)):
        expected = _interpreted(evaluate, expr, batch)
        if expected is None:
            with pytest.raises(ExecutorError):
                kernel_fn(batch)
        else:
            assert list(kernel_fn(batch)) == expected


class TestIntsBeyondNumpy:
    """Integer results that leave int64, and ints float64 does not hold
    exactly, are computed row by row, as the interpreter computes them.
    The int columns are Python lists, which numpy reads as int64."""

    A = [2 ** 40, 3]

    @pytest.mark.parametrize("expr, expected", [
        (Arithmetic(ColumnRef("a"), "*", ColumnRef("a")), [2 ** 80, 9]),
        (Arithmetic(ColumnRef("a"), "+", Literal(2 ** 70)),
         [2 ** 70 + 2 ** 40, 2 ** 70 + 3]),
        (Arithmetic(Literal(-2 ** 63), "-", ColumnRef("a")),
         [-2 ** 63 - 2 ** 40, -2 ** 63 - 3]),
        (Arithmetic(ColumnRef("a"), "*", Literal(2 ** 23)),
         [2 ** 63, 3 * 2 ** 23]),
        (Arithmetic(ColumnRef("a"), "/", Literal(2 ** 53 + 1)),
         [2 ** 40 / (2 ** 53 + 1), 3 / (2 ** 53 + 1)]),
    ], ids=["square", "plus-big-literal", "minus", "product-at-2**63",
            "quotient"])
    def test_arithmetic_matches_the_interpreter(self, evaluator, expr,
                                                expected):
        batch = Batch({"a": self.A})
        assert compile_expression(expr, evaluator).evaluate(batch) == \
            expected == _rows_reference(expr, evaluator, batch)

    @pytest.mark.parametrize("text, n", [("", 2 ** 63), ("ab", 2 ** 40)],
                             ids=["empty-str-past-int64", "str-terabyte"])
    def test_str_times_int_is_an_error(self, evaluator, text, n):
        """SQL has no string repetition: both paths refuse ``str * int``
        without computing it, whichever side the str is on."""
        batch = Batch({"s": [text, text], "n": [n, 3]})
        for expr in (Arithmetic(ColumnRef("s"), "*", ColumnRef("n")),
                     Arithmetic(ColumnRef("n"), "*", ColumnRef("s")),
                     Arithmetic(Literal(text), "*", Literal(n))):
            with pytest.raises(ExecutorError, match="cannot compute"):
                _rows_reference(expr, evaluator, batch)
            with pytest.raises(ExecutorError, match="cannot compute"):
                compile_expression(expr, evaluator).evaluate(batch)

    def test_in_range_products_stay_on_numpy(self, evaluator):
        expr = Arithmetic(ColumnRef("a"), "*", Literal(2 ** 22))
        kernel = compile_expression(expr, evaluator)
        assert kernel._run(Batch({"a": self.A})).dtype == np.int64

    @pytest.mark.parametrize("op", list(CompOp))
    def test_int_against_float_compares_exactly(self, evaluator, op):
        batch = Batch({"a": [2 ** 53 + 1, 5],
                       "b": [float(2 ** 53), 5.0],
                       "c": [2 ** 63, 1.5],
                       "d": [2 ** 53 + 1, 5.5]})
        for left, right in (("a", "b"), ("c", "b"), ("a", "c"), ("d", "b")):
            expr = Comparison(ColumnRef(left), op, ColumnRef(right))
            assert compile_expression(expr, evaluator).evaluate(batch) == \
                _rows_reference(expr, evaluator, batch)


class TestScalarShortcuts:
    def test_constant_subtree_stays_scalar(self, evaluator):
        expr = Comparison(Arithmetic(Literal(2), "*", Literal(3)),
                          CompOp.EQ, Literal(6))
        kernel = compile_expression(expr, evaluator)
        assert kernel.evaluate_mask(Batch({"id": [1, 2, 3]})) == [True] * 3

    def test_missing_column_broadcasts_none(self, evaluator):
        kernel = compile_expression(ColumnRef("nope"), evaluator)
        assert kernel.evaluate(Batch({"id": [1, 2]})) == [None, None]


class TestComparesOnDictionaryCodes:
    """``=`` / ``!=`` against a literal over a view's dictionary-coded
    column runs once per vocabulary entry, with the row interpreter's
    answers: NULL compares false, ``''`` is a value, a literal may be
    outside the vocabulary, of another type, or None."""

    STORED = ["car", None, "", "bus", "car", None, "van"]
    ROWS = np.array([6, 0, 1, 2, 4, 3, 5, 0, 2])
    LITERALS = ["car", "", "zzz", None, True, False, 1, 0, 0.0]

    def _coded_batch(self):
        column = ColumnView(stored_column([], self.STORED), self.ROWS)
        return Batch({"label": column, "id": list(range(len(self.ROWS)))})

    @pytest.mark.parametrize("literal", LITERALS, ids=repr)
    @pytest.mark.parametrize("op", [CompOp.EQ, CompOp.NE])
    def test_matches_the_row_interpreter(self, evaluator, op, literal):
        exprs = [Comparison(ColumnRef("label"), op, Literal(literal))]
        exprs.append(Not(exprs[0]))
        exprs.append(Or((exprs[0], Comparison(ColumnRef("id"), CompOp.LT,
                                               Literal(2)))))
        for expr in exprs:
            kernel = compile_expression(expr, evaluator)
            batch = self._coded_batch()
            mask = kernel.evaluate_mask(batch)
            values = kernel.evaluate(batch)
            # Answered from the codes: no stored string was gathered.
            assert batch.column("label")._materialized is None
            assert mask == _mask_reference(expr, evaluator, batch)
            assert values == _rows_reference(expr, evaluator, batch)

    @pytest.mark.parametrize("literal", LITERALS, ids=repr)
    @pytest.mark.parametrize("op", [CompOp.EQ, CompOp.NE])
    def test_column_that_left_codes_for_bools(self, evaluator, op, literal):
        # ``True == 1`` and ``False == 0``: a bool puts a stored column
        # back on a list, where the element-wise pass keeps Python's
        # answers.
        column = stored_column(stored_column([], self.STORED), [True, False])
        assert type(column) is list
        batch = Batch({"label": ColumnView(column, np.arange(len(column)))})
        expr = Comparison(ColumnRef("label"), op, Literal(literal))
        kernel = compile_expression(expr, evaluator)
        assert kernel.evaluate_mask(batch) == \
            _mask_reference(expr, evaluator, batch)

    @pytest.mark.parametrize("op", [CompOp.EQ, CompOp.NE])
    def test_vocabulary_larger_than_the_batch_runs_on_rows(self, evaluator,
                                                           op):
        # An open vocabulary (plate strings) can outgrow a batch: one
        # pass per row is then fewer passes than one per entry.
        stored = stored_column([], [f"p{i}" for i in range(50)] + [None])
        batch = Batch({"label": ColumnView(stored, np.array([49, 3, 50]))})
        expr = Comparison(ColumnRef("label"), op, Literal("p3"))
        kernel = compile_expression(expr, evaluator)
        mask = kernel.evaluate_mask(batch)
        assert batch.column("label")._materialized is not None
        assert mask == _mask_reference(expr, evaluator, batch)

    def test_numeric_compare_reads_the_float_array(self, evaluator):
        scores = ColumnView(stored_column([], [0.25, -0.0, 0.75, 1e300]),
                            np.array([3, 0, 2, 1]))
        batch = Batch({"score": scores})
        expr = Comparison(ColumnRef("score"), CompOp.GT, Literal(0.5))
        kernel = compile_expression(expr, evaluator)
        assert kernel.evaluate_mask(batch) == [True, False, True, False]
        assert scores._materialized is None
