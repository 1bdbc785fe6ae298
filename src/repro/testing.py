"""Testing toolkit for CAESAR applications.

Applications built on this library need to test their *models*: given this
stream, did the right contexts open at the right times, and were the right
events derived?  :func:`trace_model` runs a model over events and returns a
:class:`ModelTrace` with assertion-friendly accessors::

    trace = trace_model(model, events, partition_by=my_partitioner)
    trace.assert_context_active("congestion", at=450, partition=(0, 0, 3))
    trace.assert_derived("TollNotification", count=12)
    assert trace.transitions(partition=(0, 0, 3))[:2] == [
        ("clear", "congestion"), ("congestion", "clear")]

Deterministic fault injection
-----------------------------

Supervision machinery (circuit breakers, dead-letter queues, crash
recovery) must be testable without flaky randomness.  :func:`inject_plan_fault`
wraps the operator pipelines of a chosen plan so they raise on *chosen
stream timestamps and/or event types*::

    engine = SupervisedEngine(model, failure_threshold=1, cooldown=40)
    inject_plan_fault(engine, "alert", at_times={30, 40})   # raises at t=30, 40
    report = engine.run(stream)                              # keeps flowing

``crash=True`` raises :class:`InjectedCrashError` (a
:class:`~repro.errors.FatalEngineError`) instead, which escapes supervision
and aborts the run — the deterministic stand-in for a process crash in
recovery tests.  :class:`FaultInjector` provides the same triggering for a
single operator (e.g. an engine preprocessor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.algebra.operators import ExecutionContext, Operator
from repro.algebra.plan import QueryPlan, clone_operator
from repro.core.model import CaesarModel
from repro.core.windows import ContextWindow
from repro.errors import CaesarError, FatalEngineError, RuntimeEngineError
from repro.events.event import Event
from repro.events.stream import EventStream
from repro.events.timebase import TimePoint
from repro.runtime.engine import CaesarEngine, EngineReport
from repro.runtime.queues import Partitioner, single_partition


@dataclass
class ModelTrace:
    """The observable behaviour of one model run."""

    report: EngineReport
    default_context: str

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def windows(self, partition: object = None) -> list[ContextWindow]:
        return self.report.windows_by_partition.get(partition, [])

    def contexts_at(
        self, at: TimePoint, *, partition: object = None
    ) -> tuple[str, ...]:
        """Context names whose windows held at time ``at`` (``[start, end)``
        occupancy, so a context is not counted at its own termination
        instant)."""
        names = []
        for window in self.windows(partition):
            if window.start <= at and (window.end is None or at < window.end):
                names.append(window.context_name)
        return tuple(sorted(set(names)))

    def transitions(self, *, partition: object = None) -> list[tuple[str, str]]:
        """Context hand-offs in order: ``(from, to)`` for each window whose
        opening closed (or followed) another."""
        windows = sorted(self.windows(partition), key=lambda w: w.start)
        hops = []
        for previous, current in zip(windows, windows[1:]):
            hops.append((previous.context_name, current.context_name))
        return hops

    def derived(self, type_name: str) -> list[Event]:
        return [e for e in self.report.outputs if e.type_name == type_name]

    # ------------------------------------------------------------------
    # assertions
    # ------------------------------------------------------------------

    def assert_context_active(
        self, context: str, *, at: TimePoint, partition: object = None
    ) -> None:
        active = self.contexts_at(at, partition=partition)
        if context not in active:
            raise AssertionError(
                f"context {context!r} not active at t={at} "
                f"(partition {partition!r}; active: {active})"
            )

    def assert_context_inactive(
        self, context: str, *, at: TimePoint, partition: object = None
    ) -> None:
        active = self.contexts_at(at, partition=partition)
        if context in active:
            raise AssertionError(
                f"context {context!r} unexpectedly active at t={at} "
                f"(partition {partition!r})"
            )

    def assert_derived(
        self,
        type_name: str,
        *,
        count: int | None = None,
        at_least: int | None = None,
    ) -> None:
        actual = len(self.derived(type_name))
        if count is not None and actual != count:
            raise AssertionError(
                f"expected exactly {count} {type_name!r} events, got {actual}"
            )
        if at_least is not None and actual < at_least:
            raise AssertionError(
                f"expected at least {at_least} {type_name!r} events, "
                f"got {actual}"
            )
        if count is None and at_least is None and actual == 0:
            raise AssertionError(f"no {type_name!r} events were derived")

    def assert_nothing_derived(self, type_name: str) -> None:
        actual = len(self.derived(type_name))
        if actual:
            raise AssertionError(
                f"expected no {type_name!r} events, got {actual}"
            )


def trace_model(
    model: CaesarModel,
    events: Iterable[Event] | EventStream,
    *,
    partition_by: Partitioner = single_partition,
    retention: TimePoint = 300,
    optimize: bool = True,
) -> ModelTrace:
    """Run ``model`` over ``events`` and return its :class:`ModelTrace`."""
    stream = (
        events if isinstance(events, EventStream) else EventStream(events)
    )
    engine = CaesarEngine(
        model,
        optimize=optimize,
        partition_by=partition_by,
        retention=retention,
    )
    report = engine.run(stream)
    return ModelTrace(report=report, default_context=model.default_context)


# --------------------------------------------------------------------------
# Deterministic fault injection
# --------------------------------------------------------------------------


class InjectedFaultError(CaesarError):
    """A deterministic, injected plan/operator failure (isolatable)."""


class InjectedCrashError(FatalEngineError):
    """A deterministic, injected crash: escapes supervision, aborts the run."""


@dataclass(frozen=True)
class FaultSpec:
    """When to raise: chosen stream timestamps and/or event types.

    Empty ``at_times`` means "at every timestamp"; empty ``event_types``
    means "regardless of the batch contents".  With ``event_types`` set the
    fault only fires when a matching event is present, so pure time
    advances never trigger it.
    """

    at_times: frozenset = field(default_factory=frozenset)
    event_types: frozenset = field(default_factory=frozenset)
    message: str = "injected fault"
    crash: bool = False

    def triggers(self, events: list[Event], now: TimePoint) -> bool:
        if self.at_times and now not in self.at_times:
            return False
        if self.event_types:
            return any(e.type_name in self.event_types for e in events)
        return True

    def fire(self, now: TimePoint) -> None:
        error = InjectedCrashError if self.crash else InjectedFaultError
        raise error(f"{self.message} (t={now})")


class FaultInjector(Operator):
    """Wraps a single operator; raises per the spec, else delegates.

    Shares the inner operator's stats object, so cost accounting sees the
    inner operator's numbers unchanged.  Usable anywhere an operator is —
    notably as an engine preprocessor.
    """

    reacts_to_time = True  # it may fire on a time tick

    def __init__(self, inner: Operator, fault: FaultSpec):
        super().__init__(f"FAULT[{inner.name}]")
        self.inner = inner
        self.fault = fault
        self.stats = inner.stats

    def process(self, events: list[Event], ctx: ExecutionContext) -> list[Event]:
        if self.fault.triggers(events, ctx.now):
            self.fault.fire(ctx.now)
        return self.inner.process(events, ctx)

    def on_time_advance(self, now: TimePoint, ctx: ExecutionContext) -> list[Event]:
        if self.fault.triggers([], now):
            self.fault.fire(now)
        return self.inner.on_time_advance(now, ctx)

    def suspends_pipeline(self, ctx: ExecutionContext) -> bool:
        return self.inner.suspends_pipeline(ctx)

    def reset_state(self) -> None:
        self.inner.reset_state()

    def expire_state_before(self, t: TimePoint) -> int:
        return self.inner.expire_state_before(t)

    def snapshot_state(self):
        return self.inner.snapshot_state()

    def restore_state(self, snapshot) -> None:
        self.inner.restore_state(snapshot)

    def state_size(self) -> int:
        inner_size = getattr(self.inner, "state_size", None)
        return inner_size() if callable(inner_size) else 0

    def clone(self) -> "FaultInjector":
        return FaultInjector(clone_operator(self.inner), self.fault)


class FaultyQueryPlan(QueryPlan):
    """A query plan whose pipeline raises per a :class:`FaultSpec`.

    Clone-safe: per-partition plan instantiation preserves the fault, so
    injection into an engine's plan *templates* reaches every partition.
    """

    def __init__(self, operators, *, name, context_name, fault: FaultSpec):
        super().__init__(operators, name=name, context_name=context_name)
        self.fault = fault

    @classmethod
    def wrap(cls, plan: QueryPlan, fault: FaultSpec) -> "FaultyQueryPlan":
        return cls(
            plan.operators,
            name=plan.name,
            context_name=plan.context_name,
            fault=fault,
        )

    def execute(self, events: list[Event], ctx: ExecutionContext) -> list[Event]:
        if self.fault.triggers(events, ctx.now):
            self.fault.fire(ctx.now)
        return super().execute(events, ctx)

    def advance_time(self, now: TimePoint, ctx: ExecutionContext) -> list[Event]:
        if self.fault.triggers([], now):
            self.fault.fire(now)
        return super().advance_time(now, ctx)

    def reacts_to_time(self) -> bool:
        return True  # it may fire on a time tick

    def clone(self, *, name: str | None = None) -> "FaultyQueryPlan":
        return FaultyQueryPlan(
            [clone_operator(op) for op in self.operators],
            name=name or self.name,
            context_name=self.context_name,
            fault=self.fault,
        )


def inject_plan_fault(
    engine: CaesarEngine,
    context: str,
    *,
    phase: str = "processing",
    plan_name: str | None = None,
    at_times: Iterable[TimePoint] = (),
    event_types: Iterable[str] = (),
    crash: bool = False,
    message: str = "injected fault",
) -> FaultSpec:
    """Make a plan of ``context`` raise deterministically.

    Wraps the matching individual plan(s) inside the engine's combined-plan
    template for ``(phase, context)``, so every partition instantiated
    afterwards carries the fault.  Must be called before the engine
    processes events (templates are cloned per partition lazily).

    Returns the installed :class:`FaultSpec`.
    """
    if engine._partitions:
        raise RuntimeEngineError(
            "inject_plan_fault must run before the engine processes events "
            "(per-partition plans are already instantiated)"
        )
    if phase not in ("deriving", "processing"):
        raise ValueError(f"phase must be 'deriving' or 'processing', got {phase!r}")
    templates = (
        engine._processing_templates
        if phase == "processing"
        else engine._deriving_templates
    )
    combined = templates.get(context)
    if combined is None:
        raise RuntimeEngineError(
            f"no {phase} plan for context {context!r} "
            f"(have: {sorted(templates)})"
        )
    fault = FaultSpec(
        at_times=frozenset(at_times),
        event_types=frozenset(event_types),
        message=message,
        crash=crash,
    )
    # plan names inside a combined plan carry an "@context" suffix;
    # accept either the decorated or the bare query name
    matches = (
        lambda plan: plan_name is None
        or plan.name == plan_name
        or plan.name == f"{plan_name}@{context}"
    )
    wrapped = 0
    for index, plan in enumerate(combined.plans):
        if matches(plan):
            combined.plans[index] = FaultyQueryPlan.wrap(plan, fault)
            wrapped += 1
    if not wrapped:
        raise RuntimeEngineError(
            f"no plan named {plan_name!r} in the {phase} plan of "
            f"context {context!r}"
        )
    return fault
