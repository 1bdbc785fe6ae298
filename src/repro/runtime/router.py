"""Context-aware stream router (Section 6.2).

Based on the context window vector, the router knows which query workloads
are currently active and directs each stream batch only to the combined
plans of active contexts.  Plans of inactive contexts receive *no input* —
they are suspended rather than busy-waiting.  Routing is lightweight: one
bit-vector scan per batch, and it operates on batches (multiple events),
not single events.

On top of context suspension the router applies a second, orthogonal
suppression axis: **interest-set routing**.  Each combined plan exposes the
set of event types its leaf pattern operators can consume
(:meth:`~repro.algebra.plan.CombinedQueryPlan.interest_set`); the router
scans the batch's type set once and skips active plans whose interest set
does not intersect it.  Such a batch cannot change the plan's state or
output, so skipping preserves semantics while avoiding the per-plan
dispatch work.  The context-independent baseline (``context_aware=False``)
performs neither suppression: every plan receives every batch and is
charged for it, as a state-of-the-art context-independent engine would be.
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING, Iterable

from repro.algebra.operators import ExecutionContext
from repro.algebra.plan import CombinedQueryPlan
from repro.core.windows import ContextWindowStore
from repro.events.event import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability import Observability


class ContextAwareStreamRouter:
    """Routes stream batches to the plans of currently active contexts.

    With a *detailed* :class:`~repro.observability.Observability` facade the
    router also attributes wall time to each plan evaluation
    (``caesar_plan_seconds{phase,context}``) and, in tracing mode, emits one
    span per dispatch — the per-operator telemetry that cost-based sharing
    decisions feed on.  Both are resolved to preregistered handles at
    construction; the default metrics level leaves the dispatch loop
    untouched.
    """

    def __init__(
        self,
        plans_by_context: dict[str, CombinedQueryPlan],
        *,
        context_aware: bool = True,
        observability: "Observability | None" = None,
        phase: str = "",
    ):
        self._plans_by_context = dict(plans_by_context)
        self.context_aware = context_aware
        self.phase = phase
        self._observability = observability
        self._tracing = observability is not None and observability.tracing
        self._plan_timers = None
        if observability is not None and observability.detailed:
            self._plan_timers = {
                name: observability.registry.histogram(
                    "caesar_plan_seconds",
                    "Wall time per combined-plan evaluation",
                    labels={"phase": phase, "context": name},
                )
                for name in self._plans_by_context
            }
        self.batches_routed = 0
        self.batches_suppressed = 0
        #: batches skipped because the plan's interest set was disjoint from
        #: the batch's event types (context-aware mode only)
        self.batches_uninterested = 0
        #: cumulative cost units spent by plans this router executed
        self.cost_units = 0.0
        #: the same, broken down per context
        self.cost_by_context: dict[str, float] = {
            name: 0.0 for name in self._plans_by_context
        }

    @property
    def contexts(self) -> tuple[str, ...]:
        return tuple(self._plans_by_context)

    def plan_for(self, context_name: str) -> CombinedQueryPlan | None:
        return self._plans_by_context.get(context_name)

    def all_plans(self) -> list[CombinedQueryPlan]:
        return list(self._plans_by_context.values())

    def replace_plan(self, context_name: str, plan: CombinedQueryPlan) -> None:
        """Install or swap the plan of one context (online deployment).

        Accumulated routing counters and per-context cost are preserved —
        routing cost is charged by delta per batch, so swapping a plan
        mid-run loses nothing.  New contexts get a zeroed cost slot and,
        in detailed mode, their own plan timer; the interest set is read
        live from the plan at every batch, so interest routing picks up
        the new plan immediately.
        """
        self._plans_by_context[context_name] = plan
        self.cost_by_context.setdefault(context_name, 0.0)
        if (
            self._plan_timers is not None
            and context_name not in self._plan_timers
        ):
            self._plan_timers[context_name] = (
                self._observability.registry.histogram(
                    "caesar_plan_seconds",
                    "Wall time per combined-plan evaluation",
                    labels={"phase": self.phase, "context": context_name},
                )
            )

    def remove_plan(self, context_name: str) -> None:
        """Drop a context's plan (query retirement emptied its workload).

        The cost slot survives — cost already spent is history, not state.
        """
        self._plans_by_context.pop(context_name, None)

    def wrap_plans(self, wrap) -> None:
        """Replace every plan with ``wrap(context_name, plan)``.

        The supervision seam: a wrapper must preserve the plan interface
        (``execute``/``advance_time``/``total_cost_units``/``interest_set``
        plus the state-management methods) — e.g. a fault-isolation guard
        that delegates to the original plan.
        """
        for name in self._plans_by_context:
            self._plans_by_context[name] = wrap(name, self._plans_by_context[name])

    def route(
        self,
        events: list[Event],
        store: ContextWindowStore,
        ctx: ExecutionContext,
    ) -> list[Event]:
        """Dispatch one batch; returns all derived output events.

        In context-aware mode only the plans of active contexts run, and
        among those only the plans whose interest set intersects the batch's
        event types; in the context-independent mode (the baseline) every
        plan receives every batch and relies on its embedded ``CW`` operator
        for semantics.
        """
        outputs: list[Event] = []
        context_aware = self.context_aware
        plan_timers = self._plan_timers
        # One pass over the batch buckets it by type; each plan then gets a
        # set-intersection test instead of a per-event scan.
        batch_types = (
            frozenset(e.type_name for e in events) if context_aware else None
        )
        for context_name, plan in self._plans_by_context.items():
            if context_aware and not store.is_active(context_name):
                self.batches_suppressed += 1
                continue
            if context_aware and batch_types.isdisjoint(plan.interest_set()):
                self.batches_uninterested += 1
                continue
            self.batches_routed += 1
            before = plan.total_cost_units()
            if plan_timers is None:
                outputs.extend(plan.execute(events, ctx))
            else:
                outputs.extend(
                    self._timed_execute(context_name, plan, events, ctx)
                )
            delta = plan.total_cost_units() - before
            self.cost_units += delta
            self.cost_by_context[context_name] += delta
        return outputs

    def _timed_execute(
        self,
        context_name: str,
        plan: CombinedQueryPlan,
        events: list[Event],
        ctx: ExecutionContext,
    ) -> list[Event]:
        """Detailed-mode dispatch: per-plan wall time, optionally a span."""
        if self._tracing:
            with self._observability.recorder.span(
                "plan",
                "plan",
                phase=self.phase,
                context=context_name,
                t=ctx.now,
            ):
                started = _time.perf_counter()
                derived = plan.execute(events, ctx)
        else:
            started = _time.perf_counter()
            derived = plan.execute(events, ctx)
        self._plan_timers[context_name].observe(
            _time.perf_counter() - started
        )
        return derived

    def advance_time(
        self, now, store: ContextWindowStore, ctx: ExecutionContext
    ) -> list[Event]:
        """Propagate a time tick to active plans (trailing negations)."""
        outputs: list[Event] = []
        for context_name, plan in self._plans_by_context.items():
            if self.context_aware and not store.is_active(context_name):
                continue
            before = plan.total_cost_units()
            outputs.extend(plan.advance_time(now, ctx))
            delta = plan.total_cost_units() - before
            self.cost_units += delta
            self.cost_by_context[context_name] += delta
        return outputs
