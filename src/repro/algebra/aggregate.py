"""Windowed aggregation operator (library extension).

The paper's context deriving conditions are aggregates — "over 50 cars per
minute move with an average speed less than 40 mph" (Section 1) — which its
CAESAR prototype, like every Linear Road implementation, computes in a
statistics stage below the event queries.  This module provides that stage
as a first-class operator: :class:`AggregateOperator` evaluates tumbling-
window aggregates (count, distinct count, sum, avg, min, max — optionally
predicate-filtered) grouped by key attributes, and emits one derived event
per group per window.

It composes with the rest of the algebra: place it below the deriving
queries (e.g. via ``CaesarEngine(preprocessors=...)``) and the queries
consume its output exactly like any other event type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.algebra.expressions import Expr, binding_from_event
from repro.algebra.operators import ExecutionContext, Operator
from repro.errors import ExpressionError, PlanError
from repro.events.event import Event
from repro.events.timebase import TimeInterval, TimePoint
from repro.events.types import EventType

#: Supported aggregate function names.  This is the single registry both
#: aggregate surfaces validate against: the windowed preprocessing operator
#: below and the online SEQ-match aggregation of
#: :mod:`repro.algebra.seq_aggregate`.
AGGREGATE_FUNCTIONS = (
    "count",
    "count_distinct",
    "sum",
    "avg",
    "min",
    "max",
)

#: The subset computable incrementally over SEQ matches.  ``count_distinct``
#: is excluded: distinct sets are not mergeable into the constant-size
#: per-stage summaries the online propagation carries.
MATCH_AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class AggregateFunction:
    """One aggregate column: ``name = func(attribute) [WHERE predicate]``.

    ``attribute`` may be None for ``count``.  ``predicate`` restricts which
    events contribute (e.g. stopped-car count: ``count(vid) WHERE speed = 0``).
    """

    name: str
    func: str
    attribute: str | None = None
    predicate: Expr | None = None

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCTIONS:
            raise PlanError(
                f"unknown aggregate function {self.func!r}; expected one of "
                f"{AGGREGATE_FUNCTIONS}"
            )
        if self.func != "count" and self.attribute is None:
            raise PlanError(
                f"aggregate {self.name!r}: {self.func} needs an attribute"
            )


@dataclass(frozen=True)
class MatchAggregate:
    """One DERIVE aggregate column over SEQ matches: ``func(var.attr)``.

    ``name`` is the output attribute; ``var``/``attribute`` locate the
    aggregated value in the match binding (both ``None`` for ``count(*)``,
    whose value is the number of matches).  Validated against the same
    :data:`AGGREGATE_FUNCTIONS` registry as :class:`AggregateFunction`,
    restricted to :data:`MATCH_AGGREGATE_FUNCTIONS`.
    """

    name: str
    func: str
    var: str | None = None
    attribute: str | None = None

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCTIONS:
            raise PlanError(
                f"unknown aggregate function {self.func!r}; expected one of "
                f"{AGGREGATE_FUNCTIONS}"
            )
        if self.func not in MATCH_AGGREGATE_FUNCTIONS:
            raise PlanError(
                f"aggregate {self.name!r}: {self.func} cannot be computed "
                f"incrementally over SEQ matches; expected one of "
                f"{MATCH_AGGREGATE_FUNCTIONS}"
            )
        if self.func == "count":
            if self.attribute is not None:
                raise PlanError(
                    f"aggregate {self.name!r}: count over matches takes no "
                    "attribute (use COUNT(*))"
                )
        elif self.attribute is None:
            raise PlanError(
                f"aggregate {self.name!r}: {self.func} needs an attribute"
            )

    def __str__(self) -> str:
        if self.func == "count":
            return "COUNT(*)"
        target = f"{self.var}.{self.attribute}" if self.var else self.attribute
        return f"{self.func.upper()}({target})"


class _Accumulator:
    """Incremental state for all functions of one group in one window."""

    __slots__ = ("counts", "distincts", "sums", "mins", "maxs", "events", "_predicate_fns")

    def __init__(self, functions: tuple[AggregateFunction, ...]):
        self.counts = [0] * len(functions)
        self.distincts: list[set] = [set() for _ in functions]
        self.sums = [0.0] * len(functions)
        self.mins: list[Any] = [None] * len(functions)
        self.maxs: list[Any] = [None] * len(functions)
        self.events = 0
        # compiled once per accumulator; Expr.compile memoizes per node, so
        # accumulators sharing functions share the compiled closures too
        self._predicate_fns = tuple(
            f.predicate.compile() if f.predicate is not None else None
            for f in functions
        )

    def add(self, functions: tuple[AggregateFunction, ...], event: Event) -> None:
        self.events += 1
        binding = binding_from_event(event)
        for index, function in enumerate(functions):
            predicate_fn = self._predicate_fns[index]
            if predicate_fn is not None:
                try:
                    if not predicate_fn(binding):
                        continue
                except ExpressionError:
                    continue
            if function.attribute is None:
                self.counts[index] += 1
                continue
            if function.attribute not in event:
                continue
            value = event[function.attribute]
            self.counts[index] += 1
            if function.func == "count_distinct":
                self.distincts[index].add(value)
            elif function.func in ("sum", "avg"):
                self.sums[index] += value
            elif function.func == "min":
                current = self.mins[index]
                self.mins[index] = value if current is None else min(current, value)
            elif function.func == "max":
                current = self.maxs[index]
                self.maxs[index] = value if current is None else max(current, value)

    def result(self, index: int, function: AggregateFunction) -> Any:
        if function.func == "count":
            return self.counts[index]
        if function.func == "count_distinct":
            return len(self.distincts[index])
        if function.func == "sum":
            return self.sums[index]
        if function.func == "avg":
            count = self.counts[index]
            return self.sums[index] / count if count else 0.0
        if function.func == "min":
            return self.mins[index]
        return self.maxs[index]


class AggregateOperator(Operator):
    """Tumbling-window grouped aggregation.

    Parameters
    ----------
    input_type:
        Name of the event type to aggregate.
    output_type:
        Event type of the emitted aggregate events.  Each emitted event
        carries the group-by attributes, one attribute per aggregate
        function, and ``sec`` = the window's end timestamp.
    window:
        Tumbling window length in stream time units.
    group_by:
        Attributes forming the group key.
    functions:
        The aggregate columns.

    Windows are aligned at multiples of ``window``; window ``k`` covers
    ``[k·window, (k+1)·window)`` and flushes as soon as time reaches its
    end — either an input event with a later timestamp or an explicit
    :meth:`on_time_advance`.
    """

    unit_cost = 0.8
    reacts_to_time = True

    def __init__(
        self,
        input_type: str,
        output_type: EventType,
        *,
        window: TimePoint,
        group_by: tuple[str, ...] = (),
        functions: tuple[AggregateFunction, ...] = (),
    ):
        if window <= 0:
            raise PlanError(f"aggregate window must be positive, got {window}")
        if not functions:
            raise PlanError("an aggregate needs at least one function")
        names = [f.name for f in functions] + list(group_by)
        if len(names) != len(set(names)):
            raise PlanError(f"duplicate aggregate output attributes: {names}")
        label = ", ".join(
            f"{f.name}={f.func}({f.attribute or '*'})" for f in functions
        )
        super().__init__(f"AGG[{output_type.name}({label})/{window}]")
        self.input_type = input_type
        self.output_type = output_type
        self.window = window
        self.group_by = tuple(group_by)
        self.functions = tuple(functions)
        #: {window_index: {group_key: accumulator}}
        self._windows: dict[int, dict[tuple, _Accumulator]] = {}
        self._flushed_through = -1  # all windows <= this index are emitted

    # ------------------------------------------------------------------

    def _window_index(self, t: TimePoint) -> int:
        return int(t // self.window)

    def _group_key(self, event: Event) -> tuple:
        return tuple(event.get(attribute) for attribute in self.group_by)

    def process(self, events: list[Event], ctx: ExecutionContext) -> list[Event]:
        out: list[Event] = []
        for event in events:
            if event.type_name == self.input_type:
                index = self._window_index(event.timestamp)
                if index > self._flushed_through:
                    groups = self._windows.setdefault(index, {})
                    key = self._group_key(event)
                    accumulator = groups.get(key)
                    if accumulator is None:
                        accumulator = _Accumulator(self.functions)
                        groups[key] = accumulator
                    accumulator.add(self.functions, event)
            out.extend(self._flush_before(event.timestamp))
        self._account(ctx, len(events), len(out), self.unit_cost * len(events))
        return out

    def on_time_advance(self, now: TimePoint, ctx: ExecutionContext) -> list[Event]:
        return self._flush_before(now)

    def _flush_before(self, t: TimePoint) -> list[Event]:
        """Emit every window that ended at or before time ``t``."""
        current = self._window_index(t)
        emitted: list[Event] = []
        ready = sorted(
            index for index in self._windows if index < current
        )
        for index in ready:
            groups = self._windows.pop(index)
            window_end = (index + 1) * self.window
            for key in sorted(groups, key=repr):
                accumulator = groups[key]
                payload: dict[str, Any] = dict(zip(self.group_by, key))
                payload["sec"] = window_end
                for position, function in enumerate(self.functions):
                    payload[function.name] = accumulator.result(
                        position, function
                    )
                emitted.append(
                    Event(
                        self.output_type,
                        TimeInterval.point(window_end),
                        payload,
                    )
                )
            self._flushed_through = max(self._flushed_through, index)
        return emitted

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------

    def state_size(self) -> int:
        return sum(len(groups) for groups in self._windows.values())

    def reset_state(self) -> None:
        self._windows.clear()

    def _copy_windows(
        self, windows: dict[int, dict[tuple, _Accumulator]]
    ) -> dict[int, dict[tuple, _Accumulator]]:
        copied_windows: dict[int, dict[tuple, _Accumulator]] = {}
        for index, groups in windows.items():
            copied: dict[tuple, _Accumulator] = {}
            for key, accumulator in groups.items():
                clone = _Accumulator(self.functions)
                clone.counts = list(accumulator.counts)
                clone.distincts = [set(s) for s in accumulator.distincts]
                clone.sums = list(accumulator.sums)
                clone.mins = list(accumulator.mins)
                clone.maxs = list(accumulator.maxs)
                clone.events = accumulator.events
                copied[key] = clone
            copied_windows[index] = copied
        return copied_windows

    def snapshot_state(self) -> dict:
        return {
            "windows": self._copy_windows(self._windows),
            "flushed_through": self._flushed_through,
        }

    def restore_state(self, snapshot: dict) -> None:
        self._windows = self._copy_windows(snapshot["windows"])
        self._flushed_through = snapshot["flushed_through"]

    def expire_state_before(self, t: TimePoint) -> int:
        horizon = self._window_index(t)
        stale = [index for index in self._windows if index < horizon - 1]
        dropped = 0
        for index in stale:
            dropped += len(self._windows.pop(index))
        return dropped
