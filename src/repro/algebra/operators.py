"""Operator base class and execution bookkeeping.

CAESAR plans are push-based pipelines: each operator consumes a list of
events and produces a list of events.  Two aspects set CAESAR apart from a
plain stream algebra and are reflected here:

* **Suspension** (Section 5.2): an operator can report, before any event is
  touched, that the whole pipeline above it is suspended for the current
  batch.  The plan driver then skips the upstream operators entirely — no
  busy waiting — which is exactly how the context window operator cuts cost
  once pushed down.
* **Cost accounting** (Section 5.1): every operator records invocation and
  event counts plus abstract *cost units*.  Wall-clock latency on modern
  hardware is noisy at the microsecond scale, so the benchmarks report both
  wall time and these deterministic cost units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.events.event import Event
from repro.events.timebase import TimePoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.windows import ContextWindowStore


@dataclass
class OperatorStats:
    """Mutable execution counters for one operator."""

    invocations: int = 0
    events_in: int = 0
    events_out: int = 0
    cost_units: float = 0.0
    suspensions: int = 0

    def merge(self, other: "OperatorStats") -> None:
        self.invocations += other.invocations
        self.events_in += other.events_in
        self.events_out += other.events_out
        self.cost_units += other.cost_units
        self.suspensions += other.suspensions

    def reset(self) -> None:
        self.invocations = 0
        self.events_in = 0
        self.events_out = 0
        self.cost_units = 0.0
        self.suspensions = 0


@dataclass
class ExecutionContext:
    """Per-batch execution environment handed to every operator.

    ``windows`` is the store of current context windows (the context bit
    vector plus window objects); ``now`` is the application timestamp of the
    batch being processed.  Operators also charge their cost into
    ``cost_units``, which the router zeroes before a plan runs.
    """

    windows: "ContextWindowStore"
    now: TimePoint = 0
    cost_units: float = 0.0


class Operator:
    """Base class of the six CAESAR operators.

    Subclasses implement :meth:`process`.  ``name`` is a short algebra-style
    label used in plan printouts (``CW_congestion``, ``FL_θ`` ...).
    """

    #: Abstract CPU cost charged per input event (Section 5.1's cost model).
    unit_cost: float = 1.0
    #: Whether :meth:`on_time_advance` can emit or expire state (else: no ticks).
    reacts_to_time: bool = False

    def __init__(self, name: str):
        self.name = name
        self.stats = OperatorStats()

    def process(self, events: list[Event], ctx: ExecutionContext) -> list[Event]:
        """Consume a batch of events and emit derived/filtered events."""
        raise NotImplementedError

    def suspends_pipeline(self, ctx: ExecutionContext) -> bool:
        """True if the operators *above* this one are suspended right now.

        Only the context window operator ever returns True; all other
        operators are context-oblivious (Section 4.1).
        """
        return False

    def on_time_advance(self, now: TimePoint, ctx: ExecutionContext) -> list[Event]:
        """Hook invoked when application time advances without input events.

        Pattern operators with trailing negation need this to emit matches
        whose negation window elapsed.  The default does nothing.
        """
        return []

    def reset_state(self) -> None:
        """Discard any partial-match state (used on context termination)."""

    def expire_state_before(self, t: TimePoint) -> int:
        """Drop state older than ``t``; returns the number of items dropped."""
        return 0

    def snapshot_state(self):
        """A copy of the operator's mutable state, or ``None`` if stateless.

        Stateful operators (patterns, aggregates) override this together
        with :meth:`restore_state`; the pair powers the context history
        store and engine checkpointing.
        """
        return None

    def restore_state(self, snapshot) -> None:
        """Restore state produced by :meth:`snapshot_state` (default no-op)."""

    def _account(self, ctx, events_in: int, events_out: int, cost: float) -> None:
        self.stats.invocations += 1
        self.stats.events_in += events_in
        self.stats.events_out += events_out
        self.stats.cost_units += cost
        ctx.cost_units += cost

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
