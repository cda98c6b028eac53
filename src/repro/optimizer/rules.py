"""The rule framework and the canonical transformation rules.

EVA's optimizer is Cascades-style: rewrites are expressed as first-class
rule objects that match a plan node and return a replacement subtree, and
the developer may extend the rule set over time (section 5.1).  The
:class:`RuleEngine` applies a phase's rules to a fixpoint with a
deterministic traversal.

This module contains the framework plus the canonical rules (predicate
pushdown and guard annotation); the semantic-reuse rules of section 4.4
live in :mod:`repro.optimizer.reuse_rules`.
"""

from __future__ import annotations

import abc
import time

from repro.catalog.udf_registry import UdfKind
from repro.errors import UnsupportedPredicateError
from repro.expressions.analysis import (
    conjunction_of,
    references_only,
    split_conjuncts,
)
from repro.optimizer.opt_context import OptimizationContext
from repro.optimizer.plans import (
    LogicalApply,
    LogicalClassifierApply,
    LogicalFilter,
    LogicalGet,
    LogicalNode,
    plan_children,
    replace_child,
    walk_plan,
)
from repro.symbolic.dnf import (
    DnfPredicate,
    dnf_conjunction,
    dnf_from_expression,
)
from repro.symbolic.reduce import reduce_predicate

#: Columns available before the detector APPLY (post-binding: timestamps
#: are rewritten to frame ids).
SCAN_COLUMNS = frozenset({"id", "timestamp", "frame"})


class TransformationRule(abc.ABC):
    """A logical-to-logical rewrite."""

    #: Rule name shown in traces.
    name: str = "rule"

    @abc.abstractmethod
    def apply(self, node: LogicalNode, ctx: OptimizationContext
              ) -> LogicalNode | None:
        """Rewritten subtree rooted at ``node``, or None when not
        applicable."""


class RuleEngine:
    """Applies transformation rules to a fixpoint.

    Traversal is top-down and restarts after every successful rewrite, so
    rule interactions (a pushdown enabling a merge) resolve without
    explicit ordering constraints inside one phase.
    """

    MAX_ITERATIONS = 200

    def rewrite(self, plan: LogicalNode, rules: list[TransformationRule],
                ctx: OptimizationContext, tracer=None) -> LogicalNode:
        """Apply ``rules`` to a fixpoint.

        ``tracer`` (a :class:`repro.obs.trace.Tracer`, optional) receives
        one ``rule:<name>`` span per *successful* rewrite, parented under
        the caller's open phase span.
        """
        for _ in range(self.MAX_ITERATIONS):
            rewritten = self._rewrite_once(plan, rules, ctx, tracer)
            if rewritten is None:
                return plan
            plan = rewritten
        raise RuntimeError(
            "rule engine did not reach a fixpoint; a rule likely "
            "oscillates")

    def _rewrite_once(self, node: LogicalNode,
                      rules: list[TransformationRule],
                      ctx: OptimizationContext,
                      tracer=None) -> LogicalNode | None:
        for rule in rules:
            start = time.perf_counter()
            replacement = rule.apply(node, ctx)
            if replacement is not None and replacement != node:
                self._trace_rule(tracer, rule, node,
                                 time.perf_counter() - start)
                return replacement
        for child in plan_children(node):
            new_child = self._rewrite_once(child, rules, ctx, tracer)
            if new_child is not None:
                return replace_child(node, new_child)
        return None

    @staticmethod
    def _trace_rule(tracer, rule: TransformationRule,
                    node: LogicalNode, wall_seconds: float) -> None:
        if tracer is None or not tracer.enabled:
            return
        trace_id = tracer.current_trace_id
        if trace_id is None:  # no open trace: nothing to attach to
            return
        tracer.add_span(
            f"rule:{rule.name}",
            trace_id=trace_id,
            parent_id=tracer.current_span_id,
            wall_seconds=wall_seconds,
            node=type(node).__name__,
        )


def guard_below(node: LogicalNode, ctx: OptimizationContext
                ) -> DnfPredicate:
    """The predicate guaranteed to hold on tuples flowing out of ``node``.

    For the linear plans EVA produces this is the conjunction of the scan
    predicate, every filter below, and the implicit TRUE-outcomes of
    frame-filter APPLY nodes — the "associated predicate" of section 4.1.

    Conjuncts the symbolic engine cannot analyze (e.g. column-to-column
    comparisons, the paper's section 6 limitation) are skipped: the guard
    then over-approximates coverage, which is safe — the executor's view
    probes are key-based and fall back to evaluation on any miss.
    """
    conjuncts = []
    for part in walk_plan(node):
        if isinstance(part, LogicalGet) and part.predicate is not None:
            conjuncts.extend(split_conjuncts(part.predicate))
        elif isinstance(part, LogicalFilter):
            conjuncts.extend(split_conjuncts(part.predicate))
    converted = [dnf for dnf in map(_converted, conjuncts) if dnf is not None]
    if not converted:
        return DnfPredicate.true()
    # One conversion per conjunct, one reduction for the guard.  The
    # product is exactly ``dnf_from_expression(conjunction_of(...))``, so
    # the guard's memo key, and every p_u built from it, stay the same.
    return ctx.engine.reduce(dnf_conjunction(converted))


def _converted(conjunct) -> DnfPredicate | None:
    """``conjunct`` in (unreduced) DNF; None when it is not analyzable.

    A disjunction that puts numeric and categorical constraints on one
    dimension converts but cannot be reduced, so a conjunct of several
    conjunctives is also reduced once here (outside the memo) to reject
    it; a single conjunctive always reduces.
    """
    try:
        dnf = dnf_from_expression(conjunct)
        if len(dnf.conjunctives) > 1:
            reduce_predicate(dnf)
        return dnf
    except UnsupportedPredicateError:
        return None


# ---------------------------------------------------------------------------
# Canonical rules
# ---------------------------------------------------------------------------


class PushFilterThroughApplyRule(TransformationRule):
    """Move scan-column conjuncts below the detector CROSS APPLY.

    ``Filter(p_scan AND rest, Apply(child))`` becomes
    ``Filter(rest, Apply(Filter(p_scan, child)))``.
    """

    name = "push-filter-through-apply"

    def apply(self, node, ctx):
        if not isinstance(node, LogicalFilter):
            return None
        if not isinstance(node.child, LogicalApply):
            return None
        pushable, rest = [], []
        for conjunct in split_conjuncts(node.predicate):
            if references_only(conjunct, SCAN_COLUMNS):
                pushable.append(conjunct)
            else:
                rest.append(conjunct)
        if not pushable:
            return None
        apply_node = node.child
        pushed = LogicalFilter(apply_node.child, conjunction_of(pushable))
        new_apply = LogicalApply(pushed, apply_node.call, apply_node.guard)
        if not rest:
            return new_apply
        return LogicalFilter(new_apply, conjunction_of(rest))


class PushFrameFilterThroughApplyRule(TransformationRule):
    """Plan specialized frame filters *before* the detector (section 5.6).

    A conjunct invoking a FRAME_FILTER UDF over scan columns only is
    rewritten into a classifier APPLY + filter below the detector APPLY,
    so vehicle-free frames never reach the expensive model.
    """

    name = "push-frame-filter-through-apply"

    def apply(self, node, ctx):
        if not isinstance(node, LogicalFilter):
            return None
        if not isinstance(node.child, LogicalApply):
            return None
        frame_conjuncts, rest = [], []
        for conjunct in split_conjuncts(node.predicate):
            if self._is_frame_filter_conjunct(conjunct, ctx):
                frame_conjuncts.append(conjunct)
            else:
                rest.append(conjunct)
        if not frame_conjuncts:
            return None
        apply_node = node.child
        below: LogicalNode = apply_node.child
        for conjunct in frame_conjuncts:
            call = ctx.expensive_calls(conjunct)[0]
            below = LogicalClassifierApply(below, call)
            below = LogicalFilter(below, conjunct)
        new_apply = LogicalApply(below, apply_node.call, apply_node.guard)
        if not rest:
            return new_apply
        return LogicalFilter(new_apply, conjunction_of(rest))

    @staticmethod
    def _is_frame_filter_conjunct(conjunct, ctx) -> bool:
        calls = ctx.expensive_calls(conjunct)
        if len(calls) != 1:
            return False
        definition = ctx.udf_definition(calls[0])
        return (definition.kind is UdfKind.FRAME_FILTER
                and references_only(conjunct, SCAN_COLUMNS,
                                    allow_functions=True))


class MergeFilterIntoGetRule(TransformationRule):
    """Fold pure frame-id conjuncts into the scan itself.

    The scan derives its frame ranges from this predicate, so a pushed
    ``id < 10000`` turns into a bounded physical scan.
    """

    name = "merge-filter-into-get"

    def apply(self, node, ctx):
        if not isinstance(node, LogicalFilter):
            return None
        if not isinstance(node.child, LogicalGet):
            return None
        mergeable, rest = [], []
        for conjunct in split_conjuncts(node.predicate):
            if references_only(conjunct, {"id"}) and \
                    _converted(conjunct) is not None:
                mergeable.append(conjunct)
            else:
                rest.append(conjunct)
        if not mergeable:
            return None
        get = node.child
        existing = ([get.predicate] if get.predicate is not None else [])
        new_get = LogicalGet(get.table_name,
                             conjunction_of(existing + mergeable))
        if not rest:
            return new_get
        return LogicalFilter(new_get, conjunction_of(rest))


class AnnotateApplyGuardRule(TransformationRule):
    """Attach the associated predicate (section 4.1) to detector applies.

    Runs in its own phase after pushdown so the guard reflects the final
    position of every filter below the APPLY.
    """

    name = "annotate-apply-guard"

    def apply(self, node, ctx):
        if isinstance(node, LogicalApply) and node.guard is None:
            return LogicalApply(node.child, node.call,
                                guard_below(node.child, ctx))
        if isinstance(node, LogicalClassifierApply) and node.guard is None:
            return LogicalClassifierApply(node.child, node.call,
                                          guard_below(node.child, ctx))
        return None


CANONICAL_RULES = [
    MergeFilterIntoGetRule(),
    PushFilterThroughApplyRule(),
    PushFrameFilterThroughApplyRule(),
]
