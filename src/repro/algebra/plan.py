"""Query plans (Section 4.2): individual and combined.

An *individual* query plan is a bottom-up pipeline of algebra operators
translated from one event query per Table 1.  A *combined* query plan stitches
individual plans together: if one plan derives events that another consumes,
the first plan's output feeds the second (all plans in a combined plan belong
to the same context, by the paper's independence assumption in Section 3.3).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.algebra.context_ops import (
    ContextInitiation,
    ContextTermination,
    ContextWindowOperator,
)
from repro.algebra.operators import ExecutionContext, Operator
from repro.algebra.pattern import EventMatch, NegatedSpec, PatternOperator
from repro.algebra.pattern import Sequence as SeqSpec
from repro.algebra.relational_ops import Filter, Projection
from repro.algebra.seq_aggregate import (
    MatchAggregateProjection,
    PatternAggregateOperator,
)
from repro.errors import PlanError
from repro.events.event import Event
from repro.events.timebase import TimePoint


def clone_operator(operator: Operator) -> Operator:
    """A fresh, stateless copy of an operator (same parameters, zero state).

    Operators outside the core algebra (e.g. the fault-injection wrappers
    of :mod:`repro.testing`) may provide their own ``clone()`` method,
    which takes precedence.
    """
    from repro.algebra.aggregate import AggregateOperator

    custom_clone = getattr(operator, "clone", None)
    if callable(custom_clone):
        return custom_clone()
    if isinstance(operator, AggregateOperator):
        return AggregateOperator(
            operator.input_type,
            operator.output_type,
            window=operator.window,
            group_by=operator.group_by,
            functions=operator.functions,
        )
    if isinstance(operator, ContextInitiation):
        return ContextInitiation(operator.context_name)
    if isinstance(operator, ContextTermination):
        return ContextTermination(operator.context_name)
    if isinstance(operator, ContextWindowOperator):
        return ContextWindowOperator(operator.context_name)
    if isinstance(operator, Filter):
        return Filter(operator.predicate)
    if isinstance(operator, Projection):
        return Projection(operator.event_type, operator.items)
    if isinstance(operator, PatternOperator):
        return PatternOperator(
            operator.spec, where=operator.where, retention=operator.retention
        )
    if isinstance(operator, PatternAggregateOperator):
        return PatternAggregateOperator(
            operator.spec,
            operator.outputs,
            where=operator.where,
            retention=operator.retention,
        )
    if isinstance(operator, MatchAggregateProjection):
        return MatchAggregateProjection(operator.outputs)
    raise PlanError(f"cannot clone operator of type {type(operator).__name__}")


class QueryPlan:
    """An ordered operator pipeline for one event query.

    Operators are stored bottom-up: ``operators[0]`` receives the input
    stream.  Execution honours the suspension protocol — if an operator
    reports that the pipeline above it is suspended for this batch, the rest
    of the pipeline is skipped without touching any event (Section 5.2).
    """

    def __init__(
        self,
        operators: Sequence[Operator],
        *,
        name: str = "plan",
        context_name: str | None = None,
    ):
        if not operators:
            raise PlanError("a query plan needs at least one operator")
        self.operators = list(operators)
        self.name = name
        self.context_name = context_name
        self._input_types: set[str] | None = None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self, events: list[Event], ctx: ExecutionContext) -> list[Event]:
        """Push a batch through the pipeline; returns the derived events."""
        current = events
        for index, operator in enumerate(self.operators):
            if operator.suspends_pipeline(ctx):
                operator.process(current, ctx)
                return []
            current = operator.process(current, ctx)
            if not current and not self._needs_time_signal(index + 1):
                return []
        return current

    def advance_time(self, now: TimePoint, ctx: ExecutionContext) -> list[Event]:
        """Propagate a time tick (for trailing-negation timeouts)."""
        current: list[Event] = []
        for operator in self.operators:
            if operator.suspends_pipeline(ctx):
                return []
            emitted = operator.on_time_advance(now, ctx)
            if current:
                current = operator.process(current, ctx)
            current = current + emitted
        return current

    def _needs_time_signal(self, start: int) -> bool:
        """True if an operator above ``start`` holds pending timed state."""
        for operator in self.operators[start:]:
            if isinstance(operator, PatternOperator) and operator._pending:
                return True
        return False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def pattern_operators(self) -> list[PatternOperator]:
        return [op for op in self.operators if isinstance(op, PatternOperator)]

    def input_types(self) -> set[str]:
        """Event type names the bottom-most pattern operator consumes.

        Cached after the first call — this sits on the per-batch dispatch
        path, and plan rewrites construct new :class:`QueryPlan` objects
        rather than mutating ``operators`` in place.
        """
        if self._input_types is None:
            types: set[str] = set()
            for operator in self.operators:
                if isinstance(operator, (PatternOperator, PatternAggregateOperator)):
                    types = _spec_types(operator.spec)
                    break
            self._input_types = types
        return self._input_types

    def output_type(self) -> str | None:
        """Name of the derived event type, if the plan derives exactly one."""
        for operator in reversed(self.operators):
            if isinstance(operator, Projection):
                return operator.event_type.name
            if isinstance(
                operator, (PatternAggregateOperator, MatchAggregateProjection)
            ):
                # A fused operator derives several types; producer routing in
                # combined plans only supports single-output plans, and fused
                # plans only run as shared-workload units.
                if len(operator.outputs) == 1:
                    return operator.outputs[0].event_type.name
                return None
        return None

    def reacts_to_time(self) -> bool:
        """Whether a tick can matter; the router ticks only such plans."""
        return any(op.reacts_to_time for op in self.operators)

    def reset_stats(self) -> None:
        for operator in self.operators:
            operator.stats.reset()

    def reset_state(self) -> None:
        for operator in self.operators:
            operator.reset_state()

    def snapshot_state(self) -> list:
        """Per-operator state snapshots (None for stateless operators)."""
        return [operator.snapshot_state() for operator in self.operators]

    def restore_state(self, snapshots: list) -> None:
        if len(snapshots) != len(self.operators):
            raise PlanError(
                f"snapshot shape mismatch for plan {self.name!r}: "
                f"{len(snapshots)} entries for {len(self.operators)} operators"
            )
        for operator, snapshot in zip(self.operators, snapshots):
            if snapshot is not None:
                operator.restore_state(snapshot)

    def state_size(self) -> int:
        return sum(
            op.state_size()
            for op in self.operators
            if isinstance(op, (PatternOperator, PatternAggregateOperator))
        )

    def clone(self, *, name: str | None = None) -> "QueryPlan":
        """A fresh plan with the same operators and empty state."""
        return QueryPlan(
            [clone_operator(op) for op in self.operators],
            name=name or self.name,
            context_name=self.context_name,
        )

    def describe(self) -> str:
        """Multi-line plan printout, bottom operator last (as in Fig. 6)."""
        lines = [f"QueryPlan {self.name!r} (context={self.context_name}):"]
        for index, operator in enumerate(reversed(self.operators)):
            position = len(self.operators) - index
            lines.append(f"  {position}. {operator.name}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        ops = " -> ".join(op.name for op in self.operators)
        return f"<QueryPlan {self.name!r}: {ops}>"


def _spec_types(spec) -> set[str]:
    if isinstance(spec, EventMatch):
        return {spec.type_name}
    if isinstance(spec, NegatedSpec):
        return {spec.inner.type_name}
    if isinstance(spec, SeqSpec):
        types: set[str] = set()
        for element in spec.elements:
            types |= _spec_types(element)
        return types
    return set()


class CombinedQueryPlan:
    """Individual plans stitched by producer/consumer relationships.

    Plans are topologically ordered so that a plan deriving type ``T`` runs
    before every plan consuming ``T``.  Events derived by an inner plan are
    routed to downstream plans in the same batch (same application
    timestamp), matching the paper's combined plan of Fig. 6 where the
    ``NewTravelingCar`` plan feeds the ``TollNotification`` plan.
    """

    def __init__(
        self,
        plans: Iterable[QueryPlan],
        *,
        name: str = "combined",
        context_name: str | None = None,
    ):
        self.plans = self._topo_sort(list(plans))
        self.name = name
        self.context_name = context_name
        #: all event types any inner plan consumes (cached: plans are fixed)
        self._consumed_types: frozenset[str] = frozenset().union(
            *(plan.input_types() for plan in self.plans)
        )

    @staticmethod
    def _topo_sort(plans: list[QueryPlan]) -> list[QueryPlan]:
        producers: dict[str, QueryPlan] = {}
        for plan in plans:
            output = plan.output_type()
            if output is not None:
                if output in producers:
                    # Multiple producers of one type are allowed; order among
                    # them is preserved as given.
                    continue
                producers[output] = plan
        ordered: list[QueryPlan] = []
        visiting: set[int] = set()
        done: set[int] = set()

        def visit(plan: QueryPlan) -> None:
            key = id(plan)
            if key in done:
                return
            if key in visiting:
                raise PlanError(
                    f"cyclic derive/consume dependency involving {plan.name!r}"
                )
            visiting.add(key)
            for type_name in plan.input_types():
                producer = producers.get(type_name)
                if producer is not None and producer is not plan:
                    visit(producer)
            visiting.discard(key)
            done.add(key)
            ordered.append(plan)

        for plan in plans:
            visit(plan)
        return ordered

    def interest_set(self) -> frozenset[str]:
        """The input-type interest set: every event type a leaf pattern of
        an inner plan can consume.  A batch containing none of these types
        cannot change this combined plan's state or output, so the router
        may skip the plan entirely (interest-set suppression)."""
        return self._consumed_types

    def execute(self, events: list[Event], ctx: ExecutionContext) -> list[Event]:
        """Run the batch through all plans, routing derived events inward.

        Returns the events that no plan in this combined plan consumes —
        the combined plan's external output.
        """
        pool: list[Event] = list(events)
        outputs: list[Event] = []
        consumed_types = self._consumed_types
        for plan in self.plans:
            wanted = plan.input_types()
            batch = [e for e in pool if e.type_name in wanted]
            derived = plan.execute(batch, ctx)
            for event in derived:
                pool.append(event)
                if event.type_name not in consumed_types:
                    outputs.append(event)
        return outputs

    def advance_time(self, now: TimePoint, ctx: ExecutionContext) -> list[Event]:
        outputs: list[Event] = []
        consumed_types = self._consumed_types
        pool: list[Event] = []
        for plan in self.plans:
            wanted = plan.input_types()
            batch = [e for e in pool if e.type_name in wanted]
            derived = plan.advance_time(now, ctx)
            if batch:
                derived = derived + plan.execute(batch, ctx)
            for event in derived:
                pool.append(event)
                if event.type_name not in consumed_types:
                    outputs.append(event)
        return outputs

    def reacts_to_time(self) -> bool:
        return any(plan.reacts_to_time() for plan in self.plans)

    def reset_stats(self) -> None:
        for plan in self.plans:
            plan.reset_stats()

    def reset_state(self) -> None:
        for plan in self.plans:
            plan.reset_state()

    def snapshot_state(self) -> dict:
        """Per-plan state snapshots keyed by plan name."""
        return {plan.name: plan.snapshot_state() for plan in self.plans}

    def restore_state(self, snapshots: dict) -> None:
        for plan in self.plans:
            if plan.name in snapshots:
                plan.restore_state(snapshots[plan.name])

    def clone(self, *, name: str | None = None) -> "CombinedQueryPlan":
        return CombinedQueryPlan(
            [plan.clone() for plan in self.plans],
            name=name or self.name,
            context_name=self.context_name,
        )

    def __repr__(self) -> str:
        return f"<CombinedQueryPlan {self.name!r}: {len(self.plans)} plans>"
