"""The materialization-aware UDF cost model (Eq. 3) and cost constants.

Eq. 3 prices one UDF-based predicate over an input of cardinality ``|R|``:

    T(sigma, |R|) = 3*C_M + |R|*c_r + |R| * s_{p-} * c_e

where ``C_M`` is the cost of reading the materialized view (the hash-join
estimate of [38]), ``c_r`` the per-tuple input read cost, ``c_e`` the
per-tuple UDF evaluation cost, and ``s_{p-}`` the selectivity of the
difference predicate — the fraction of input tuples missing from the view.

The constants also calibrate the execution engine's virtual clock; they are
chosen so the component times match the paper's Table 4 decomposition
(e.g. ~2.2 ms/frame video reads).

Every constant is strictly *per tuple* (or per key/row/operator), which is
what makes the vectorized executor cost-transparent: charging
``len(batch) * per_tuple_cost`` once per batch is arithmetically the sum
of the per-row charges, so row and column-at-a-time execution produce
identical virtual totals by construction (``docs/execution.md``; enforced
by ``tests/test_vectorized_differential.py``).  Nothing here depends on
batch size — batching changes real seconds only.

The ``udf_cost`` (c_e) argument of :meth:`CostModel.udf_predicate_cost`
is supplied by the caller from ``Catalog.per_tuple_cost``: the zoo
model's profiled per-tuple cost, the same number the executor charges
per evaluated tuple.  The metrics collector records that cost once per
model (``UdfInvocationStats.per_tuple_cost``), and ``repro profile``
prints it beside the model's executed invocations.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Eq. 3's ``c_e`` (virtual seconds per tuple) of a model or UDF the
#: catalog does not know (``Catalog.per_tuple_cost``).
DEFAULT_PER_TUPLE_COST = 0.05


@dataclass(frozen=True)
class CostConstants:
    """Calibrated per-unit costs (virtual seconds)."""

    #: Reading one frame (decode + transfer); Table 4: ~22 s / 10k frames.
    read_video_per_frame: float = 0.0022
    #: Probing the view hash table for one key; Table 4: ~10 s / 10k frames.
    view_read_per_key: float = 0.00012
    #: Reading one materialized output row from the view.
    view_read_per_row: float = 0.00002
    #: Appending one output row to a view (batched, section 5.3).
    materialize_per_row: float = 0.00002
    #: Building/probing the outer-join hash table, per operator (the 3*C_M
    #: fixed term of Eq. 3, amortized).
    join_setup: float = 0.05
    #: APPLY operator bookkeeping per input batch.
    apply_per_batch: float = 0.0005
    #: FunCache: xxHash over input bytes (~8 GB/s) plus per-call overhead.
    hash_per_byte: float = 1e-9
    #: HashStash: deduplicating one row of the union of matched recycler
    #: entries (hash + compare).
    hashstash_dedup_per_row: float = 0.0005
    hash_per_call: float = 0.0025

    @property
    def view_read_per_tuple(self) -> float:
        """The c_r term of Eq. 3/Eq. 4 (per-tuple view access cost)."""
        return self.view_read_per_key


class CostModel:
    """Implements Eq. 3 on top of :class:`CostConstants`."""

    def __init__(self, constants: CostConstants | None = None):
        self.constants = constants or CostConstants()

    def view_scan_cost(self, view_rows: int) -> float:
        """C_M: full cost of reading a materialized view of that many rows."""
        return view_rows * self.constants.view_read_per_row

    def udf_predicate_cost(self, input_rows: float, udf_cost: float,
                           missing_fraction: float,
                           view_rows: int = 0) -> float:
        """Eq. 3: expected cost of one UDF-based predicate.

        Args:
            input_rows: |R|, cardinality flowing into the predicate.
            udf_cost: c_e, per-tuple UDF evaluation cost.
            missing_fraction: s_{p-}, fraction of tuples not in the view.
            view_rows: size of the materialized view (for the 3*C_M term).
        """
        join_term = 3.0 * self.view_scan_cost(view_rows)
        read_term = input_rows * self.constants.view_read_per_tuple
        eval_term = input_rows * missing_fraction * udf_cost
        return join_term + read_term + eval_term

    def ordering_cost(self, input_rows: float,
                      predicates: list[tuple[float, float, float]]) -> float:
        """Expected cost of evaluating predicates in the given order.

        Each predicate is ``(selectivity, udf_cost, missing_fraction)``;
        cardinality shrinks by each selectivity in turn (Theorem 4.1's
        T(O, |R|) expansion).
        """
        total = 0.0
        rows = float(input_rows)
        for selectivity, udf_cost, missing_fraction in predicates:
            total += self.udf_predicate_cost(rows, udf_cost,
                                             missing_fraction)
            rows *= selectivity
        return total
