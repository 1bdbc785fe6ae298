"""Online SEQ-match aggregation (Sharon-style shared incremental state).

``DERIVE Out(COUNT(*), SUM(a.x), ...)`` over a SEQ pattern has a result
that is combinatorial to *materialize* — ``SEQ(A, B)`` over ``n`` events
has up to ``n²/4`` matches, ``SEQ(A, B, C)`` up to ``n³`` — but linear to
*compute*: Sharon (Poppe et al., PAPERS.md) shows the aggregate of all
matches can be propagated during pattern evaluation without ever
enumerating a match.

:class:`PatternAggregateOperator` implements that propagation.  Instead of
the pattern operator's per-partial bindings, each stage ``k`` of the
sequence keeps *summaries* — ``(count, sums, mins, maxs, min_start)``
tuples bucketed by the timestamp of the stage's most recent event.  An
incoming event extends the merged summary of every strictly earlier bucket
in one step: the count is inherited, a ``SUM(v.x)`` bound at this stage
contributes ``count · x`` (one multiplication standing in for ``count``
materialized matches), and MIN/MAX merge monotonically.  A completed
summary folds into a per-timestamp result; one derived event per output
type is emitted per completion timestamp.

:class:`MatchAggregateProjection` is the brute-force oracle: placed above
a regular :class:`~repro.algebra.pattern.PatternOperator`, it aggregates
the materialized matches with identical grouping and arithmetic.  The
difftest ``aggregate`` axis asserts both paths agree byte-identically;
``benchmarks/bench_aggregation.py`` measures the asymptotic gap.

Sharing: one operator instance may carry several :class:`AggregateOutput`
columnsets (queries differing only in aggregate function/target), all
served by a single propagation pass — see
:func:`repro.optimizer.sharing.build_shared_workload`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.algebra.aggregate import MatchAggregate
from repro.algebra.expressions import Binding, Expr, all_hold, conjuncts
from repro.algebra.operators import ExecutionContext, Operator
from repro.algebra.pattern import (
    EventMatch,
    MatchEvent,
    NegatedSpec,
    PatternSpec,
    Sequence,
    flatten_sequence,
)
from repro.errors import PlanError
from repro.events.event import Event
from repro.events.timebase import TimeInterval, TimePoint
from repro.events.types import EventType


@dataclass(frozen=True)
class AggregateOutput:
    """One derived output type and its aggregate columns.

    A fused operator carries several of these — one per query sharing the
    same pattern and predicate — and emits one event per output per
    completion timestamp.
    """

    event_type: EventType
    aggregates: tuple[MatchAggregate, ...]

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise PlanError(
                f"aggregate output {self.event_type.name!r} needs at least "
                "one aggregate column"
            )
        names = [aggregate.name for aggregate in self.aggregates]
        if len(names) != len(set(names)):
            raise PlanError(
                f"duplicate aggregate output attributes for "
                f"{self.event_type.name!r}: {names}"
            )


def online_aggregation_supported(
    pattern: PatternSpec, where: Expr | None
) -> bool:
    """True if ``pattern``/``where`` admit incremental aggregation.

    The propagation supports flat positive sequences (and single event
    matches) whose predicate conjuncts each constrain at most one pattern
    variable — those compile into per-stage admission predicates.  Negation
    and cross-variable predicates fall back to materialize-then-aggregate.
    """
    pattern = flatten_sequence(pattern)
    if isinstance(pattern, EventMatch):
        variables = {pattern.var}
    elif isinstance(pattern, Sequence):
        if any(isinstance(e, NegatedSpec) for e in pattern.elements):
            return False
        variables = set(pattern.variables())
    else:
        return False
    if where is None:
        return True
    for conjunct in conjuncts(where):
        referenced = conjunct.variables()
        if len(referenced) > 1 or not referenced <= variables:
            return False
    return True


class _Summary:
    """Aggregate contributions of a set of same-stage partial matches.

    ``count`` partial matches, elementwise ``sums``/``mins``/``maxs`` per
    aggregation target (``mins``/``maxs`` are ``None`` until the target's
    variable is bound), and ``min_start`` — the earliest occurrence-interval
    start, which becomes the emitted event's interval start.
    """

    __slots__ = ("count", "min_start", "sums", "mins", "maxs")

    def __init__(
        self,
        count: int,
        min_start: TimePoint,
        sums: list,
        mins: list,
        maxs: list,
    ):
        self.count = count
        self.min_start = min_start
        self.sums = sums
        self.mins = mins
        self.maxs = maxs

    def copy(self) -> "_Summary":
        return _Summary(
            self.count,
            self.min_start,
            list(self.sums),
            list(self.mins),
            list(self.maxs),
        )

    def merge(self, other: "_Summary") -> None:
        """Fold ``other`` into this summary (same stage, disjoint partials)."""
        self.count += other.count
        if other.min_start < self.min_start:
            self.min_start = other.min_start
        sums = self.sums
        mins = self.mins
        maxs = self.maxs
        for j, value in enumerate(other.sums):
            sums[j] += value
        for j, value in enumerate(other.mins):
            if value is not None:
                current = mins[j]
                if current is None or value < current:
                    mins[j] = value
        for j, value in enumerate(other.maxs):
            if value is not None:
                current = maxs[j]
                if current is None or value > current:
                    maxs[j] = value


class _Stage:
    """Summaries waiting at one sequence position, bucketed by last time.

    ``buckets[t]`` merges every partial whose most recent event occurred at
    ``t``.  The *contribution pool* for an incoming event at time ``t`` is
    the merge of all buckets strictly before ``t`` (SEQ requires strictly
    increasing times); to keep that O(1) for in-order streams the stage
    maintains ``prev_total`` — the merge of every bucket before
    ``current_t``, the most recent bucket key — so the common pool reads
    are one summary merge, never a scan.  Late events fall back to a scan.
    """

    __slots__ = ("buckets", "prev_total", "current_t")

    def __init__(self) -> None:
        self.buckets: dict[TimePoint, _Summary] = {}
        self.prev_total: _Summary | None = None
        self.current_t: TimePoint = float("-inf")

    def pool_before(self, t: TimePoint) -> _Summary | None:
        if t > self.current_t:
            current = self.buckets.get(self.current_t)
            if current is None:
                return self.prev_total
            if self.prev_total is None:
                return current
            pool = self.prev_total.copy()
            pool.merge(current)
            return pool
        if t == self.current_t:
            return self.prev_total
        # late event: merge the strictly earlier buckets directly
        pool: _Summary | None = None
        for last_time, summary in self.buckets.items():
            if last_time < t:
                if pool is None:
                    pool = summary.copy()
                else:
                    pool.merge(summary)
        return pool

    def insert(self, summary: _Summary, t: TimePoint) -> None:
        if t > self.current_t:
            current = self.buckets.get(self.current_t)
            if current is not None:
                if self.prev_total is None:
                    self.prev_total = current.copy()
                else:
                    self.prev_total.merge(current)
            self.current_t = t
            self.buckets[t] = summary
            return
        if t == self.current_t:
            self.buckets[t].merge(summary)
            return
        # late event: the bucket joins prev_total (it precedes current_t)
        existing = self.buckets.get(t)
        if existing is None:
            self.buckets[t] = summary
        else:
            existing.merge(summary)
        if self.prev_total is None:
            self.prev_total = summary.copy()
        else:
            self.prev_total.merge(summary)

    def drop_before(self, horizon: TimePoint) -> int:
        stale = [t for t in self.buckets if t < horizon]
        for t in stale:
            del self.buckets[t]
        if stale:
            self.rebuild()
        return len(stale)

    def rebuild(self) -> None:
        """Recompute ``current_t``/``prev_total`` from the buckets."""
        if not self.buckets:
            self.prev_total = None
            self.current_t = float("-inf")
            return
        self.current_t = max(self.buckets)
        total: _Summary | None = None
        for last_time, summary in self.buckets.items():
            if last_time == self.current_t:
                continue
            if total is None:
                total = summary.copy()
            else:
                total.merge(summary)
        self.prev_total = total


class PatternAggregateOperator(Operator):
    """``PA``: evaluate SEQ-match aggregates without materializing matches.

    Parameters
    ----------
    spec:
        The pattern (flat positive :class:`Sequence` or single
        :class:`EventMatch`; negation is unsupported — the planner falls
        back to materialization).
    outputs:
        One or more :class:`AggregateOutput` columnsets served by this
        propagation pass.
    where:
        Optional predicate whose conjuncts each reference at most one
        pattern variable; compiled into per-stage admission checks with
        :class:`~repro.errors.ExpressionError` treated as "inadmissible",
        mirroring the filter operator's drop semantics.
    retention:
        Horizon for waiting summaries, identical to
        :class:`~repro.algebra.pattern.PatternOperator.retention`.
    """

    unit_cost = 2.0
    reacts_to_time = True

    def __init__(
        self,
        spec: PatternSpec,
        outputs: tuple[AggregateOutput, ...],
        *,
        where: Expr | None = None,
        retention: TimePoint = 300,
    ):
        spec = flatten_sequence(spec)
        if not outputs:
            raise PlanError("a pattern aggregate needs at least one output")
        label = "+".join(output.event_type.name for output in outputs)
        super().__init__(f"PA[{spec} => {label}]")
        if retention <= 0:
            raise PlanError(f"retention must be positive, got {retention}")
        if not online_aggregation_supported(spec, where):
            raise PlanError(
                f"pattern {spec} with predicate {where} is not eligible for "
                "online aggregation (negation or a cross-variable predicate)"
            )
        self.spec = spec
        self.outputs = tuple(outputs)
        self.where = where
        self.retention = retention
        if isinstance(spec, Sequence):
            self._positives: tuple[EventMatch, ...] = spec.positives
        else:
            assert isinstance(spec, EventMatch)
            self._positives = (spec,)
        self._vars = tuple(positive.var for positive in self._positives)
        stage_of = {var: k for k, var in enumerate(self._vars)}
        #: aggregation targets (var, attr) in first-seen order; every
        #: output's columns index into the shared summary slots
        self._targets: list[tuple[str, str]] = []
        target_index: dict[tuple[str, str], int] = {}
        for output in self.outputs:
            for aggregate in output.aggregates:
                if aggregate.func == "count":
                    continue
                if aggregate.var not in stage_of:
                    raise PlanError(
                        f"aggregate {aggregate.name!r} references unknown "
                        f"pattern variable {aggregate.var!r}; have "
                        f"{sorted(stage_of)}"
                    )
                key = (aggregate.var, aggregate.attribute)
                if key not in target_index:
                    target_index[key] = len(self._targets)
                    self._targets.append(key)
        self._target_index = target_index
        #: per stage: the (attr, slot) pairs bound when that stage binds
        self._stage_targets: tuple[tuple[tuple[str, int], ...], ...] = tuple(
            tuple(
                (attr, target_index[(var, attr)])
                for (var, attr) in self._targets
                if var == stage_var
            )
            for stage_var in self._vars
        )
        #: per stage: compiled admission predicates (conjuncts referencing
        #: only this stage's variable; variable-free conjuncts go to stage 0)
        stage_preds: list[list[Callable[[Binding], Any]]] = [
            [] for _ in self._positives
        ]
        if where is not None:
            for conjunct in conjuncts(where):
                referenced = conjunct.variables()
                stage = stage_of[next(iter(referenced))] if referenced else 0
                stage_preds[stage].append(conjunct.compile())
        self._stage_preds = tuple(tuple(preds) for preds in stage_preds)
        #: stages[k] holds summaries whose next positive is index k (k >= 1)
        self._stages: list[_Stage] = [_Stage() for _ in self._positives]
        #: cumulative matches folded into emitted aggregates (the counter
        #: the engine reports against the oracle's materialized count)
        self.matches_aggregated = 0
        #: newest timestamp seen; ``-inf`` so negative streams expire too
        self._now: TimePoint = float("-inf")
        #: a lower bound on every stored timestamp: expiry has nothing to
        #: drop while the horizon is at or below it
        self._oldest: TimePoint = float("inf")
        self._expired_at: TimePoint = float("-inf")

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def process(self, events: list[Event], ctx: ExecutionContext) -> list[Event]:
        completed: dict[TimePoint, _Summary] = {}
        for event in events:
            self._consume(event, completed)
        out = self._emit(completed)
        state = sum(len(stage.buckets) for stage in self._stages)
        cost = self.unit_cost * len(events) + 0.1 * state
        self._account(ctx, len(events), len(out), cost)
        return out

    def on_time_advance(self, now: TimePoint, ctx: ExecutionContext) -> list[Event]:
        self._now = max(self._now, now)
        return []

    def _consume(
        self, event: Event, completed: dict[TimePoint, _Summary]
    ) -> None:
        timestamp = event.timestamp
        if timestamp > self._now:
            self._now = timestamp
        if timestamp < self._oldest:
            self._oldest = timestamp
        if self._now > self._expired_at or timestamp < self._now:
            self._expire_horizon()
        positives = self._positives
        last_index = len(positives) - 1
        type_name = event.type_name
        for k, positive in enumerate(positives):
            if positive.type_name != type_name:
                continue
            predicates = self._stage_preds[k]
            if predicates and not all_hold(predicates, {positive.var: event}):
                continue
            extended = self._extend(k, event, timestamp)
            if extended is None:
                continue
            if k == last_index:
                self.matches_aggregated += extended.count
                done = completed.get(timestamp)
                if done is None:
                    completed[timestamp] = extended
                else:
                    done.merge(extended)
            else:
                self._stages[k + 1].insert(extended, timestamp)

    def _extend(
        self, k: int, event: Event, timestamp: TimePoint
    ) -> _Summary | None:
        """The summary of all partials event extends at stage ``k``.

        Returns ``None`` when nothing extends — no strictly earlier
        summaries wait at this stage, or the event lacks an aggregation
        attribute bound here (such an event can contribute no match, just
        as the oracle drops matches binding it).
        """
        bound: list[tuple[int, Any]] = []
        for attr, slot in self._stage_targets[k]:
            if attr not in event:
                return None
            bound.append((slot, event[attr]))
        if k == 0:
            base = _Summary(
                1,
                event.time.start,
                [0] * len(self._targets),
                [None] * len(self._targets),
                [None] * len(self._targets),
            )
        else:
            pool = self._stages[k].pool_before(timestamp)
            if pool is None or pool.count == 0:
                return None
            base = pool.copy()
            start = event.time.start
            if start < base.min_start:
                base.min_start = start
        for slot, value in bound:
            base.sums[slot] = base.count * value
            base.mins[slot] = value
            base.maxs[slot] = value
        return base

    def _emit(self, completed: dict[TimePoint, _Summary]) -> list[Event]:
        if not completed:
            return []
        out: list[Event] = []
        for timestamp in sorted(completed):
            summary = completed[timestamp]
            time = TimeInterval(summary.min_start, timestamp)
            for output in self.outputs:
                payload: dict[str, Any] = {}
                for aggregate in output.aggregates:
                    payload[aggregate.name] = self._result(aggregate, summary)
                out.append(Event(output.event_type, time, payload))
        return out

    def _result(self, aggregate: MatchAggregate, summary: _Summary) -> Any:
        if aggregate.func == "count":
            return summary.count
        slot = self._target_index[(aggregate.var, aggregate.attribute)]
        if aggregate.func == "sum":
            return summary.sums[slot]
        if aggregate.func == "avg":
            return summary.sums[slot] / summary.count
        if aggregate.func == "min":
            return summary.mins[slot]
        return summary.maxs[slot]

    # ------------------------------------------------------------------
    # state management (context history / GC / checkpoint hooks)
    # ------------------------------------------------------------------

    def state_size(self) -> int:
        """Number of waiting summary buckets across all stages."""
        return sum(len(stage.buckets) for stage in self._stages)

    def reset_state(self) -> None:
        for stage in self._stages:
            stage.buckets.clear()
            stage.prev_total = None
            stage.current_t = float("-inf")

    def snapshot_state(self) -> dict[str, Any]:
        return {
            "stages": [
                {t: summary.copy() for t, summary in stage.buckets.items()}
                for stage in self._stages
            ],
            "now": self._now,
        }

    def restore_state(self, snapshot: Mapping[str, Any]) -> None:
        for stage, buckets in zip(self._stages, snapshot["stages"]):
            stage.buckets = {t: summary.copy() for t, summary in buckets.items()}
            stage.rebuild()
        self._now = snapshot["now"]
        self._oldest = float("-inf")
        self._expired_at = float("-inf")

    def expire_state_before(self, t: TimePoint) -> int:
        return sum(stage.drop_before(t) for stage in self._stages)

    def _expire_horizon(self) -> None:
        self._expired_at = self._now
        horizon = self._now - self.retention
        if horizon <= self._oldest:
            return
        for stage in self._stages:
            stage.drop_before(horizon)


class MatchAggregateProjection(Operator):
    """``PR_agg``: the materialize-then-aggregate oracle.

    Sits above a :class:`~repro.algebra.pattern.PatternOperator` (and its
    filter), receives every materialized match, groups matches by
    completion timestamp and computes the same aggregate columns with the
    same arithmetic as the online operator.  Exists for the differential
    harness and the benchmark — production plans use the online path.
    """

    unit_cost = 0.5

    def __init__(self, outputs: tuple[AggregateOutput, ...]):
        if not outputs:
            raise PlanError("a match aggregation needs at least one output")
        label = "+".join(output.event_type.name for output in outputs)
        super().__init__(f"PR_agg[{label}]")
        self.outputs = tuple(outputs)
        #: union of aggregation targets across outputs, first-seen order —
        #: a match contributes only if *every* target attribute is present,
        #: the same shared-admission rule the online operator applies
        self._targets: list[tuple[str, str]] = []
        self._target_index: dict[tuple[str, str], int] = {}
        for output in self.outputs:
            for aggregate in output.aggregates:
                if aggregate.func == "count":
                    continue
                key = (aggregate.var, aggregate.attribute)
                if key not in self._target_index:
                    self._target_index[key] = len(self._targets)
                    self._targets.append(key)
        #: matches received and folded one-by-one — the combinatorial cost
        #: the online operator avoids; reported next to matches_aggregated
        self.matches_materialized = 0

    def process(self, events: list[Event], ctx: ExecutionContext) -> list[Event]:
        groups: dict[TimePoint, list[MatchEvent]] = {}
        for event in events:
            if isinstance(event, MatchEvent):
                groups.setdefault(event.timestamp, []).append(event)
        self.matches_materialized += sum(len(g) for g in groups.values())
        out: list[Event] = []
        for timestamp in sorted(groups):
            out.extend(self._aggregate_group(timestamp, groups[timestamp]))
        self._account(ctx, len(events), len(out), self.unit_cost * len(events))
        return out

    def _aggregate_group(
        self, timestamp: TimePoint, matches: list[MatchEvent]
    ) -> list[Event]:
        targets = self._targets
        count = 0
        min_start: TimePoint | None = None
        sums: list[Any] = [0] * len(targets)
        mins: list[Any] = [None] * len(targets)
        maxs: list[Any] = [None] * len(targets)
        for match in matches:
            values: list[Any] = []
            usable = True
            for var, attr in targets:
                event = match.binding.get(var)
                if event is None or attr not in event:
                    usable = False
                    break
                values.append(event[attr])
            if not usable:
                continue
            count += 1
            start = match.time.start
            if min_start is None or start < min_start:
                min_start = start
            for slot, value in enumerate(values):
                sums[slot] += value
                if mins[slot] is None or value < mins[slot]:
                    mins[slot] = value
                if maxs[slot] is None or value > maxs[slot]:
                    maxs[slot] = value
        if count == 0:
            return []
        assert min_start is not None
        time = TimeInterval(min_start, timestamp)
        out: list[Event] = []
        for output in self.outputs:
            payload: dict[str, Any] = {}
            for aggregate in output.aggregates:
                if aggregate.func == "count":
                    payload[aggregate.name] = count
                    continue
                slot = self._target_index[(aggregate.var, aggregate.attribute)]
                if aggregate.func == "sum":
                    payload[aggregate.name] = sums[slot]
                elif aggregate.func == "avg":
                    payload[aggregate.name] = sums[slot] / count
                elif aggregate.func == "min":
                    payload[aggregate.name] = mins[slot]
                else:
                    payload[aggregate.name] = maxs[slot]
            out.append(Event(output.event_type, time, payload))
        return out
