"""Expression ASTs, evaluation, and predicate analysis helpers."""

from repro.expressions.expr import (
    AggregateCall,
    And,
    ColumnRef,
    CompOp,
    Comparison,
    Expression,
    FALSE,
    FunctionCall,
    Literal,
    Not,
    Or,
    Star,
    TRUE,
)
from repro.expressions.analysis import (
    collect_columns,
    collect_function_calls,
    conjunction_of,
    references_only,
    split_conjuncts,
    substitute,
    term_key,
)
from repro.expressions.evaluator import ExpressionEvaluator
from repro.expressions.compiler import (
    CompiledKernel,
    compile_expression,
)

__all__ = [
    "Expression",
    "ColumnRef",
    "Literal",
    "FunctionCall",
    "AggregateCall",
    "Comparison",
    "CompOp",
    "And",
    "Or",
    "Not",
    "Star",
    "TRUE",
    "FALSE",
    "split_conjuncts",
    "conjunction_of",
    "collect_function_calls",
    "collect_columns",
    "references_only",
    "substitute",
    "term_key",
    "ExpressionEvaluator",
    "CompiledKernel",
    "compile_expression",
]
