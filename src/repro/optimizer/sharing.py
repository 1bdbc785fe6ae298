"""Context workload sharing (Section 5.3).

Given user-defined (possibly overlapping) context windows with their query
workloads, the sharing optimizer:

1. runs the context window grouping algorithm (Listing 1) to obtain
   non-overlapping grouped windows;
2. builds **one** plan instance per distinct query (by work signature) and
   activates it during the union of the grouped windows that carry the
   query — so overlapping windows execute each shared query once instead of
   once per window;
3. merges adjacent activation intervals, which is what keeps a query's
   partial matches alive across consecutive grouped windows split from the
   same user window (the *context history* requirement of Section 6.2);
4. **fuses aggregate state**: online-eligible aggregating DERIVE queries
   that share the same pattern and predicate — differing only in aggregate
   function or target attribute — collapse into one
   :class:`~repro.algebra.seq_aggregate.PatternAggregateOperator` carrying
   every fused query's output, so the summary propagation pass runs once
   for the whole group (Sharon-style shared aggregation).

The non-shared baseline (:func:`build_nonshared_workload`) instantiates one
plan per (window, query) pair — each window runs its own copy of every
query, which is what a context-unaware engine would do.

Either workload runs on the one engine runtime
(:class:`~repro.runtime.workload.WorkloadEngine`, built by
:func:`~repro.api.create_engine`): each unit becomes a context that a
schedule opens and closes at the unit's interval bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.algebra.plan import QueryPlan
from repro.algebra.seq_aggregate import (
    AggregateOutput,
    PatternAggregateOperator,
    online_aggregation_supported,
)
from repro.core.grouping import GroupedWindow, group_context_windows
from repro.core.queries import EventQuery
from repro.core.windows import WindowSpec
from repro.events.timebase import TimePoint
from repro.optimizer.planner import build_query_plan


@dataclass
class ExecutionUnit:
    """A plan plus the time intervals during which it is active.

    Intervals are half-open ``[start, end)``, sorted and non-overlapping.
    Outside its intervals the unit is suspended: its context is closed, so
    the engine feeds it nothing and the context history discards its state
    at every interval end.
    """

    plan: QueryPlan
    intervals: tuple[tuple[TimePoint, TimePoint], ...]
    query_names: tuple[str, ...] = ()

    def total_active_length(self) -> TimePoint:
        return sum(end - start for start, end in self.intervals)

    def __repr__(self) -> str:
        spans = ", ".join(f"[{s}, {e})" for s, e in self.intervals)
        return f"<ExecutionUnit {self.plan.name!r} active {spans}>"


@dataclass
class SharedWorkload:
    """The output of the sharing optimizer: execution units + grouping.

    ``retention`` is the horizon the unit plans were built with; the
    engine running the workload garbage-collects with the same one.
    """

    units: list[ExecutionUnit]
    grouped: list[GroupedWindow]
    shared: bool
    retention: TimePoint = 300

    @property
    def plan_count(self) -> int:
        return len(self.units)

    def span(self) -> tuple[TimePoint, TimePoint] | None:
        """Earliest start and latest end over all units, if any."""
        starts = [s for unit in self.units for s, _ in unit.intervals]
        ends = [e for unit in self.units for _, e in unit.intervals]
        if not starts:
            return None
        return min(starts), max(ends)


def _merge_intervals(
    intervals: list[tuple[TimePoint, TimePoint]]
) -> tuple[tuple[TimePoint, TimePoint], ...]:
    """Sort and coalesce touching/overlapping half-open intervals."""
    if not intervals:
        return ()
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return tuple(merged)


def _aggregate_fusion_key(query: EventQuery) -> tuple | None:
    """The fusion group of an aggregating query, or None if not fusible.

    Queries whose plans would run the *same* summary-propagation pass —
    same pattern, same predicate, online-eligible — share one fused
    operator even when their aggregate functions, target attributes or
    output types differ.

    The fused operator admits an event only if it carries every
    aggregation attribute of the *union* across fused outputs (the
    shared-admission rule, mirrored by the materialization oracle).  On
    schema-total streams — every typed event carrying its declared
    attributes — this coincides with per-query admission; an event
    missing an attribute is dropped for all fused outputs at once.
    """
    if not query.derive_aggregates:
        return None
    if not online_aggregation_supported(query.pattern, query.where):
        return None
    return ("aggregate", str(query.pattern), str(query.where))


def build_shared_workload(
    specs: Sequence[WindowSpec],
    *,
    retention: TimePoint = 300,
    aggregation: str = "online",
) -> SharedWorkload:
    """Shared execution of the windows' workloads via window grouping.

    One plan per distinct query signature; the plan's activation is the
    union of all grouped windows whose workload contains the query.
    With ``aggregation="online"``, fusible aggregating queries (same
    pattern and predicate) additionally collapse into one plan whose
    fused operator emits every member query's output from a single
    shared summary propagation (see :func:`_aggregate_fusion_key`).
    """
    grouped = group_context_windows(specs)
    plan_for: dict[tuple, QueryPlan] = {}
    intervals_for: dict[tuple, list[tuple[TimePoint, TimePoint]]] = {}
    names_for: dict[tuple, list[str]] = {}
    # fusion groups: key -> exemplar queries by signature, first-seen order
    fused_members: dict[tuple, dict[tuple, EventQuery]] = {}
    fused_context: dict[tuple, str] = {}
    for window in grouped:
        for query in window.queries:
            key: tuple = query.signature()
            fusion_key = (
                _aggregate_fusion_key(query)
                if aggregation == "online"
                else None
            )
            if fusion_key is not None:
                members = fused_members.setdefault(fusion_key, {})
                members.setdefault(query.signature(), query)
                fused_context.setdefault(
                    fusion_key, "+".join(window.source_names)
                )
                key = fusion_key
                # placeholder keeps first-seen unit order; filled below
                plan_for.setdefault(key, None)
            elif key not in plan_for:
                plan_for[key] = build_query_plan(
                    query,
                    context="+".join(window.source_names),
                    retention=retention,
                    with_context_window=False,
                    aggregation=aggregation,
                )
            if key not in intervals_for:
                intervals_for[key] = []
                names_for[key] = []
            intervals_for[key].append((window.start, window.end))
            if query.name not in names_for[key]:
                names_for[key].append(query.name)
    for fusion_key, members in fused_members.items():
        exemplars = list(members.values())
        first = exemplars[0]
        outputs = tuple(
            AggregateOutput(query.derive_type, query.derive_aggregates)
            for query in exemplars
        )
        operator = PatternAggregateOperator(
            first.pattern,
            outputs,
            where=first.where,
            retention=retention,
        )
        plan_for[fusion_key] = QueryPlan(
            [operator],
            name=f"{'+'.join(names_for[fusion_key])}@"
            f"{fused_context[fusion_key]}",
            context_name=fused_context[fusion_key],
        )
    units = [
        ExecutionUnit(
            plan=plan,
            intervals=_merge_intervals(intervals_for[key]),
            query_names=tuple(names_for[key]),
        )
        for key, plan in plan_for.items()
    ]
    return SharedWorkload(
        units=units, grouped=grouped, shared=True, retention=retention
    )


def build_nonshared_workload(
    specs: Sequence[WindowSpec],
    *,
    retention: TimePoint = 300,
    aggregation: str = "online",
) -> SharedWorkload:
    """The default non-shared execution: one plan per (window, query).

    Overlapping windows each run their own instance of every query they
    carry — the redundant work the sharing optimizer removes (Figure 14's
    baseline).  Aggregating queries keep one operator per query here;
    only the shared workload fuses their propagation passes.
    """
    units: list[ExecutionUnit] = []
    for spec in specs:
        for query in spec.queries:
            plan = build_query_plan(
                query,
                context=spec.name,
                retention=retention,
                with_context_window=False,
                aggregation=aggregation,
            )
            units.append(
                ExecutionUnit(
                    plan=plan,
                    intervals=((spec.start, spec.end),),
                    query_names=(query.name,),
                )
            )
    return SharedWorkload(
        units=units,
        grouped=group_context_windows(specs),
        shared=False,
        retention=retention,
    )
