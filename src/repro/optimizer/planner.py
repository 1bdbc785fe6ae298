"""Plan generation (Section 4.2): queries → individual and combined plans.

Phase 2 of the CAESAR model translation.  Each event query becomes a
bottom-up operator pipeline per Table 1:

====================  =========================
Event query clause    Operator(s)
====================  =========================
INITIATE CONTEXT c    ``CI_c``
SWITCH CONTEXT c      ``CI_c``, ``CT_curr``
TERMINATE CONTEXT c   ``CT_c``
DERIVE E(A)           ``PR_{A,E}``
PATTERN P             ``P``
WHERE θ               ``FL_θ``
CONTEXT c             ``CW_c``
====================  =========================

A SEQ's ``P`` evaluates the ``WHERE`` conjuncts it can place itself
(:func:`~repro.algebra.pattern.place_where`); ``FL_θ`` gets only the rest.

The *initial* (non-optimized) plan places the context window above the
filter, as in Figure 6(a); the optimizer's push-down moves it to the bottom
(Figure 6(b)).  A query belonging to several contexts yields one plan per
context (``curr`` for a SWITCH is the plan's context).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.algebra.context_ops import (
    ContextInitiation,
    ContextTermination,
    ContextWindowOperator,
)
from repro.algebra.operators import Operator
from repro.algebra.pattern import PatternOperator, place_where
from repro.algebra.plan import CombinedQueryPlan, QueryPlan
from repro.algebra.relational_ops import Filter, Projection
from repro.algebra.seq_aggregate import (
    AggregateOutput,
    MatchAggregateProjection,
    PatternAggregateOperator,
    online_aggregation_supported,
)
from repro.core.queries import EventQuery, QueryAction
from repro.errors import PlanError
from repro.events.timebase import TimePoint

#: How DERIVE aggregates are evaluated: ``"online"`` propagates summaries
#: during pattern evaluation (linear in events), ``"materialize"``
#: enumerates every match and aggregates afterwards (the oracle).
AGGREGATION_MODES = ("online", "materialize")


def build_query_plan(
    query: EventQuery,
    context: str,
    *,
    retention: TimePoint = 300,
    with_context_window: bool = True,
    aggregation: str = "online",
) -> QueryPlan:
    """Translate one query, scoped to ``context``, into an individual plan.

    ``with_context_window=False`` omits the ``CW`` operator — this is how the
    context-independent baseline builds its always-on plans.

    ``aggregation`` selects the evaluation strategy for aggregating DERIVE
    queries.  Online-ineligible queries (negation, cross-variable
    predicates) silently fall back to materialization, so both modes accept
    every query.
    """
    if aggregation not in AGGREGATION_MODES:
        raise PlanError(
            f"unknown aggregation mode {aggregation!r}; expected one of "
            f"{AGGREGATION_MODES}"
        )
    if query.derive_aggregates:
        return _build_aggregate_plan(
            query,
            context,
            retention=retention,
            with_context_window=with_context_window,
            online=(
                aggregation == "online"
                and online_aggregation_supported(query.pattern, query.where)
            ),
        )
    operators = _matching_operators(query, retention)
    if with_context_window:
        operators.append(ContextWindowOperator(context))
    if query.action is QueryAction.DERIVE:
        if query.derive_type is None:
            raise PlanError(f"query {query.name!r}: DERIVE without output type")
        operators.append(Projection(query.derive_type, query.derive_items))
    elif query.action is QueryAction.INITIATE:
        assert query.target_context is not None
        operators.append(ContextInitiation(query.target_context))
    elif query.action is QueryAction.TERMINATE:
        assert query.target_context is not None
        operators.append(ContextTermination(query.target_context))
    elif query.action is QueryAction.SWITCH:
        assert query.target_context is not None
        operators.append(ContextInitiation(query.target_context))
        operators.append(ContextTermination(context))
    else:  # pragma: no cover - QueryAction is exhaustive
        raise PlanError(f"unsupported query action: {query.action}")
    return QueryPlan(
        operators, name=f"{query.name}@{context}", context_name=context
    )


def _build_aggregate_plan(
    query: EventQuery,
    context: str,
    *,
    retention: TimePoint,
    with_context_window: bool,
    online: bool,
) -> QueryPlan:
    """The plan of an aggregating DERIVE query.

    Online: one :class:`PatternAggregateOperator` absorbs pattern, filter
    and aggregation.  Materialize: the regular pattern/filter pipeline with
    a :class:`MatchAggregateProjection` on top — the oracle shape.
    """
    assert query.derive_type is not None
    output = AggregateOutput(query.derive_type, query.derive_aggregates)
    operators: list[Operator]
    if online:
        operators = [
            PatternAggregateOperator(
                query.pattern,
                (output,),
                where=query.where,
                retention=retention,
            )
        ]
        if with_context_window:
            operators.append(ContextWindowOperator(context))
    else:
        operators = _matching_operators(query, retention)
        if with_context_window:
            operators.append(ContextWindowOperator(context))
        operators.append(MatchAggregateProjection((output,)))
    return QueryPlan(
        operators, name=f"{query.name}@{context}", context_name=context
    )


def _matching_operators(query: EventQuery, retention: TimePoint) -> list[Operator]:
    """``P`` with the ``WHERE`` conjuncts it places, ``FL`` for the rest."""
    placed, rest = place_where(query.pattern, query.where)
    pattern = PatternOperator(query.pattern, where=placed, retention=retention)
    return [pattern] if rest is None else [pattern, Filter(rest)]


def build_plans_for_queries(
    queries: Iterable[EventQuery],
    *,
    retention: TimePoint = 300,
    with_context_window: bool = True,
    aggregation: str = "online",
) -> list[QueryPlan]:
    """One plan per (query, context) pair, in stable order."""
    plans: list[QueryPlan] = []
    for query in queries:
        contexts = query.contexts or ("default",)
        for context in contexts:
            plans.append(
                build_query_plan(
                    query,
                    context,
                    retention=retention,
                    with_context_window=with_context_window,
                    aggregation=aggregation,
                )
            )
    return plans


def build_combined_plans(
    plans: Sequence[QueryPlan],
) -> list[CombinedQueryPlan]:
    """Compose individual plans into combined plans (Section 4.2, step 2).

    Plans are grouped by context (all queries in a combined plan belong to
    the same context, by the independence assumption of Section 3.3); within
    a context, producer plans feed consumer plans.
    """
    by_context: dict[str | None, list[QueryPlan]] = {}
    order: list[str | None] = []
    for plan in plans:
        if plan.context_name not in by_context:
            by_context[plan.context_name] = []
            order.append(plan.context_name)
        by_context[plan.context_name].append(plan)
    return [
        CombinedQueryPlan(
            by_context[context],
            name=f"combined@{context}",
            context_name=context,
        )
        for context in order
    ]
