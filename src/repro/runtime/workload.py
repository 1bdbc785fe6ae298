"""Shared workloads on the CAESAR runtime (Section 5.3 over Section 6).

The sharing experiments fix their context windows up front: a
:class:`~repro.optimizer.sharing.SharedWorkload` is a list of execution
units, each a plan plus the intervals during which it is active.
:class:`WorkloadEngine` runs one on a :class:`CaesarEngine` by turning
each unit into a context whose processing template is the unit's plan.
A :class:`WindowSchedule` preprocessor opens and closes those contexts at
the interval bounds, so suspension, the context history's discards,
garbage collection and the report are the engine's own.
"""

from __future__ import annotations

from repro.algebra.operators import ExecutionContext, Operator
from repro.algebra.plan import CombinedQueryPlan
from repro.core.model import CaesarModel
from repro.events.event import Event
from repro.events.timebase import TimePoint
from repro.optimizer.sharing import SharedWorkload
from repro.runtime.engine import CaesarEngine

Intervals = tuple[tuple[TimePoint, TimePoint], ...]


class WindowSchedule(Operator):
    """Initiates and terminates contexts at fixed half-open intervals.

    At each transaction's timestamp ``t`` a context whose intervals cover
    ``t`` is initiated and one whose intervals do not is terminated.  A
    window still open from an *earlier* interval is closed and reopened:
    the partition saw no batch in between (a silent gap), and the unit
    must not carry state from one interval into the next.  The schedule
    derives no events and charges no cost units.
    """

    def __init__(self, intervals: dict[str, Intervals]):
        super().__init__("SCHEDULE")
        self.intervals = intervals

    def clone(self) -> "WindowSchedule":
        return WindowSchedule(self.intervals)

    def process(self, events: list[Event], ctx: ExecutionContext) -> list[Event]:
        store, t = ctx.windows, ctx.now
        for name, intervals in self.intervals.items():
            start = next((s for s, e in intervals if s <= t < e), None)
            window = store.open_window(name)
            if window is not None and (start is None or window.start < start):
                store.terminate(name, t)
                window = None
            if window is None and start is not None:
                store.initiate(name, t)
        return []


class WorkloadEngine(CaesarEngine):
    """A :class:`CaesarEngine` executing a :class:`SharedWorkload`.

    Unit ``i`` runs in context ``unit<i>``; the workload's ``retention``
    is the engine's, so garbage collection never expires state the unit
    plans still hold.  Load shedding is off (``CAESAR_SHED`` is not
    consulted); the remaining keywords are :class:`CaesarEngine`'s.
    """

    def __init__(self, workload: SharedWorkload, **engine_kwargs):
        names = [f"unit{index}" for index in range(len(workload.units))]
        model = CaesarModel()
        for name in names:
            model.add_context(name)
        schedule = WindowSchedule(
            {name: unit.intervals for name, unit in zip(names, workload.units)}
        )
        super().__init__(
            model,
            retention=workload.retention,
            preprocessors=(schedule,),
            shedding=False,
            **engine_kwargs,
        )
        self._processing_templates = {
            name: CombinedQueryPlan(
                [unit.plan], name=unit.plan.name, context_name=name
            )
            for name, unit in zip(names, workload.units)
        }
