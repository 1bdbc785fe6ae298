"""CPU cost model (Section 5.1).

The paper borrows pattern-construction cost estimation from ZStream [24] and
adds that the context-specific operators are constant-cost: initiation and
termination flip one bit, the context window reads one bit.  We model a plan
as a pipeline through which an input event *rate* flows; each operator
charges ``rate_in × unit_cost`` and attenuates the rate by its selectivity.

The context window's selectivity is the fraction of the stream covered by
its context windows (``activity``).  Because a pushed-down ``CW`` attenuates
the rate seen by *every* operator above it, the model makes Theorem 1
visible: the bottom placement minimizes total cost, with equality only when
the context is always active (``activity == 1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.context_ops import (
    ContextInitiation,
    ContextTermination,
    ContextWindowOperator,
)
from repro.algebra.operators import Operator
from repro.algebra.pattern import PatternOperator
from repro.algebra.plan import QueryPlan
from repro.algebra.relational_ops import Filter, Projection
from repro.algebra.seq_aggregate import (
    MatchAggregateProjection,
    PatternAggregateOperator,
)


@dataclass
class CostModel:
    """Unit costs and default selectivities per operator kind.

    ``context_activity`` maps context names to the fraction of the stream
    during which that context holds (default 0.5 when unknown).
    """

    pattern_cost: float = 2.0
    filter_cost: float = 1.0
    projection_cost: float = 0.5
    context_op_cost: float = 0.1
    window_cost: float = 0.05
    #: the fused pattern+filter+aggregation operator does the pattern's
    #: per-event work plus a constant-size summary merge
    pattern_aggregate_cost: float = 2.2
    #: the oracle's post-hoc aggregation touches every materialized match
    match_aggregate_cost: float = 0.5
    pattern_selectivity: float = 0.8
    filter_selectivity: float = 0.5
    #: an aggregating operator emits at most one event per output per
    #: completion timestamp, regardless of how many matches it absorbs
    aggregate_selectivity: float = 0.1
    context_activity: dict[str, float] = field(default_factory=dict)
    default_activity: float = 0.5

    def unit_cost(self, operator: Operator) -> float:
        if isinstance(operator, PatternAggregateOperator):
            return self.pattern_aggregate_cost
        if isinstance(operator, MatchAggregateProjection):
            return self.match_aggregate_cost
        if isinstance(operator, PatternOperator):
            return self.pattern_cost
        if isinstance(operator, Filter):
            return self.filter_cost
        if isinstance(operator, Projection):
            return self.projection_cost
        if isinstance(operator, (ContextInitiation, ContextTermination)):
            return self.context_op_cost
        if isinstance(operator, ContextWindowOperator):
            return self.window_cost
        return 1.0

    def selectivity(self, operator: Operator) -> float:
        if isinstance(operator, PatternAggregateOperator):
            return self.aggregate_selectivity
        if isinstance(operator, MatchAggregateProjection):
            return self.aggregate_selectivity
        if isinstance(operator, PatternOperator):
            if operator.where is not None:  # it absorbed the WHERE filter
                return self.pattern_selectivity * self.filter_selectivity
            return self.pattern_selectivity
        if isinstance(operator, Filter):
            return self.filter_selectivity
        if isinstance(operator, ContextWindowOperator):
            return self.context_activity.get(
                operator.context_name, self.default_activity
            )
        return 1.0


def estimate_plan_cost(
    plan: QueryPlan,
    model: CostModel | None = None,
    *,
    input_rate: float = 1.0,
) -> float:
    """Estimated cost of processing one stream time unit through ``plan``.

    The context window operator itself is charged per *batch*, not per
    event (constant cost, Section 5.1); all other operators are charged per
    event at their incoming rate.
    """
    model = model or CostModel()
    rate = input_rate
    total = 0.0
    for operator in plan.operators:
        if isinstance(operator, ContextWindowOperator):
            total += model.unit_cost(operator)  # one bit lookup per batch
        else:
            total += rate * model.unit_cost(operator)
        rate *= model.selectivity(operator)
    return total


@dataclass
class SharingBenefit:
    """Estimated payoff of grouping a window workload (Section 5.3).

    Costs are cost-model units integrated over each plan's activation
    length: a shared plan is charged once for the union of its windows,
    the non-shared baseline once per (window, query) pair.  Aggregate
    fusion shows up as fewer shared plans — and therefore fewer summary
    propagation passes — for the same query set.
    """

    shared_cost: float
    nonshared_cost: float
    shared_plans: int
    nonshared_plans: int

    @property
    def benefit(self) -> float:
        """Estimated cost units saved by sharing (>= 0 when sharing wins)."""
        return self.nonshared_cost - self.shared_cost

    @property
    def ratio(self) -> float:
        """Non-shared cost over shared cost (1.0 = no benefit)."""
        if self.shared_cost <= 0:
            return float("inf") if self.nonshared_cost > 0 else 1.0
        return self.nonshared_cost / self.shared_cost


def estimate_sharing_benefit(
    specs,
    model: CostModel | None = None,
    *,
    retention: float = 300,
    aggregation: str = "online",
    input_rate: float = 1.0,
) -> SharingBenefit:
    """Compare the estimated cost of shared vs. non-shared execution.

    ``specs`` is a sequence of :class:`~repro.core.windows.WindowSpec`.
    The estimate drives grouping decisions: a workload whose ratio is
    near 1.0 gains nothing from sharing (disjoint windows, disjoint
    queries), while overlapping windows carrying fusible aggregate
    queries multiply the benefit — one propagation pass serves them all.
    """
    from repro.optimizer.sharing import (
        build_nonshared_workload,
        build_shared_workload,
    )

    model = model or CostModel()
    shared = build_shared_workload(
        specs, retention=retention, aggregation=aggregation
    )
    nonshared = build_nonshared_workload(
        specs, retention=retention, aggregation=aggregation
    )

    def workload_cost(workload) -> float:
        return sum(
            estimate_plan_cost(unit.plan, model, input_rate=input_rate)
            * float(unit.total_active_length())
            for unit in workload.units
        )

    return SharingBenefit(
        shared_cost=workload_cost(shared),
        nonshared_cost=workload_cost(nonshared),
        shared_plans=shared.plan_count,
        nonshared_plans=nonshared.plan_count,
    )
