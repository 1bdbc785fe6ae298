"""Filter ``FL_θ`` and projection ``PR_{A,E}`` (Section 4.1).

Both operate on the :class:`~repro.algebra.pattern.MatchEvent` objects that
pattern operators emit (so WHERE predicates can reference pattern variables)
as well as on plain events (treated as a one-variable binding).
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.expressions import SELF_VAR, Expr
from repro.algebra.operators import ExecutionContext, Operator
from repro.algebra.pattern import MatchEvent, binding_of
from repro.errors import ExpressionError
from repro.events.event import Event
from repro.events.types import EventType


class Filter(Operator):
    """``FL_θ``: pass through the events that satisfy predicate ``θ``.

    Events whose binding lacks an attribute referenced by ``θ`` are dropped
    (a predicate over a missing attribute cannot be satisfied), mirroring how
    schema-on-read stream systems treat heterogeneous inputs.
    """

    unit_cost = 1.0

    def __init__(self, predicate: Expr):
        super().__init__(f"FL[{predicate}]")
        self.predicate = predicate
        #: predicate lowered to closures once at plan-build time; the
        #: interpreted ``predicate.evaluate`` stays as the reference path
        self._predicate_fn = predicate.compile()

    def process(self, events: list[Event], ctx: ExecutionContext) -> list[Event]:
        out = []
        predicate_fn = self._predicate_fn
        for event in events:
            try:
                if predicate_fn(binding_of(event)):
                    out.append(event)
            except ExpressionError:
                continue
        self._account(ctx, len(events), len(out), self.unit_cost * len(events))
        return out


class Projection(Operator):
    """``PR_{A,E}``: restrict input events to attribute list ``A``, typed ``E``.

    Each item is a ``(name, expression)`` pair taken from the DERIVE clause —
    e.g. ``DERIVE TollNotification(p.vid, p.sec, 5)`` projects two attribute
    references and one constant.  The output event's occurrence time is that
    of the input event (for a match, the span of all contributing events),
    and it records the contributing events for provenance.
    """

    unit_cost = 0.5

    def __init__(self, event_type: EventType, items: Sequence[tuple[str, Expr]]):
        labels = ", ".join(name for name, _ in items)
        super().__init__(f"PR[{event_type.name}({labels})]")
        self.event_type = event_type
        self.items = tuple(items)
        self._item_fns = tuple((name, expr.compile()) for name, expr in self.items)

    def process(self, events: list[Event], ctx: ExecutionContext) -> list[Event]:
        out: list[Event] = []
        item_fns = self._item_fns
        for event in events:
            binding = binding_of(event)
            try:
                payload = {name: fn(binding) for name, fn in item_fns}
            except ExpressionError:
                continue
            if isinstance(event, MatchEvent):
                contributors: tuple[Event, ...] = tuple(event.binding.values())
            else:
                contributors = (event,)
            out.append(
                Event(
                    self.event_type,
                    event.time,
                    payload,
                    derived_from=contributors,
                )
            )
        self._account(ctx, len(events), len(out), self.unit_cost * len(events))
        return out
