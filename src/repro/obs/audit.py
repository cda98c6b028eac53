"""Structured audit records for the optimizer's reuse decisions.

Every place the optimizer consults the aggregated predicates — Rule I's
materialization-aware ranking (Eq. 4), Rule II's classifier/detector
implementation (Eq. 3), and Algorithm 2's greedy model selection — emits
one :class:`ReuseDecisionRecord` into the optimization context's
:class:`ReuseAuditTrail`.  The records capture the symbolic inputs
(``p_u``, ``q``, the reduced INTER/DIFF), the cost/rank numbers that fed
the decision, the candidate models with their weights, and the chosen
physical sources — enough to answer "why did EVA (not) reuse the view
for this query?" from logs alone.

Records ride back on
:class:`~repro.optimizer.optimizer.OptimizedQuery`; the session stamps
the query's trace id on them and exports each as a ``reuse_decision``
event through the tracer's sink.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Record kinds (the decision sites).
KIND_RANKING = "predicate-ranking"
KIND_CLASSIFIER = "classifier-apply"
KIND_DETECTOR = "detector-apply"
KIND_MODEL_SELECTION = "model-selection"
#: Emitted once per optimization pass that exercised the symbolic
#: engine's reduction memo; the record's ``costs`` carry the pass's
#: hit/miss/eviction deltas and the memo's current size, and ``reused``
#: means at least one reduction was served from cache.
KIND_SYMBOLIC_MEMO = "symbolic-memo"


def predicate_sql(predicate) -> str:
    """Best-effort SQL rendering of a symbolic DNF predicate."""
    if predicate is None:
        return ""
    try:
        return predicate.to_expression().to_sql()
    except Exception:  # pragma: no cover - defensive fallback
        return repr(predicate)


@dataclass
class ReuseDecisionRecord:
    """One reuse decision, with everything that went into it."""

    #: Decision site: one of the ``KIND_*`` constants.
    kind: str
    #: UDF / model signature the decision is about (or the table for
    #: ranking decisions).
    signature: str
    #: q — the query-side predicate (guard) under consideration.
    query_predicate: str = ""
    #: p_u — the signature's aggregated (materialized) predicate, when
    #: the UdfManager knows it.
    history_predicate: str | None = None
    #: Reduced INTER(p_u, q) — what the views can serve.
    intersection: str | None = None
    #: Reduced DIFF(p_u, q) — what must still be evaluated.
    difference: str | None = None
    #: Estimated fraction of guarded tuples missing from the views
    #: (Eq. 3/4's f_miss; 1.0 when nothing is materialized).
    missing_fraction: float | None = None
    #: Selectivity estimates feeding the decision (name -> estimate).
    selectivities: dict = field(default_factory=dict)
    #: Cost-model numbers per alternative (label -> Eq. 3/4 cost).
    costs: dict = field(default_factory=dict)
    #: Candidate models with weights (Algorithm 2's W(x, q), ranking
    #: entries, ...): a list of dicts, schema per ``kind``.
    candidates: list = field(default_factory=list)
    #: The chosen physical sources / order, as readable dicts.
    chosen: list = field(default_factory=list)
    #: Did the decision route any tuples through materialized views?
    reused: bool = False
    #: Stamped by the session when the record is exported.
    trace_id: str | None = None
    client_id: str | None = None
    #: Lineage id of the live (view, generation) this decision touched,
    #: when the view ledger tracks one — joins the audit log to the
    #: provenance ledger (``repro lineage --view``).
    lineage_id: str | None = None

    def to_event(self) -> dict:
        """The JSON-serializable sink event for this record."""
        return {
            "type": "reuse_decision",
            "kind": self.kind,
            "signature": self.signature,
            "query_predicate": self.query_predicate,
            "history_predicate": self.history_predicate,
            "intersection": self.intersection,
            "difference": self.difference,
            "missing_fraction": self.missing_fraction,
            "selectivities": dict(self.selectivities),
            "costs": dict(self.costs),
            "candidates": list(self.candidates),
            "chosen": list(self.chosen),
            "reused": self.reused,
            "trace_id": self.trace_id,
            "client_id": self.client_id,
            "lineage_id": self.lineage_id,
        }


class ReuseAuditTrail:
    """Collects the records of one optimization pass."""

    def __init__(self) -> None:
        self.records: list[ReuseDecisionRecord] = []

    def record(self, record: ReuseDecisionRecord) -> ReuseDecisionRecord:
        self.records.append(record)
        return record

    def by_kind(self, kind: str) -> list[ReuseDecisionRecord]:
        return [r for r in self.records if r.kind == kind]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
