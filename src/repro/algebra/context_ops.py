"""Context operators unique to the CAESAR algebra (Section 4.1).

* ``CI_c`` — context initiation: starts a context window ``w_c``, adds it to
  the set of current context windows and evicts the default window.
* ``CT_c`` — context termination: ends ``w_c``, removes it from the set and
  restores the default window if the set would become empty.
* ``CW_c`` — context window: passes through exactly the events that occur
  while ``w_c`` holds, and — crucially — *suspends the entire pipeline above
  it* otherwise (Section 5.2).

All three run in constant time per invocation: initiation/termination flip
one bit of the context bit vector, and the window operator reads one bit
(Section 5.1's cost analysis).
"""

from __future__ import annotations

from repro.algebra.operators import ExecutionContext, Operator
from repro.events.event import Event


class ContextInitiation(Operator):
    """``CI_c``: each input event initiates the context window ``w_c``.

    Initiation is idempotent — if ``w_c`` already holds, the window set is
    unchanged (Section 4.1's definition: "If ``w_c ∈ W`` then ``W' = W``").
    The input events are passed through unchanged so a deriving query can
    both raise a context and feed downstream plans.
    """

    unit_cost = 0.1  # one bit flip — constant, and cheap relative to matching

    def __init__(self, context_name: str):
        super().__init__(f"CI_{context_name}")
        self.context_name = context_name

    def process(self, events: list[Event], ctx: ExecutionContext) -> list[Event]:
        for event in events:
            ctx.windows.initiate(self.context_name, event.timestamp)
        self._account(ctx, len(events), len(events), self.unit_cost * len(events))
        return events


class ContextTermination(Operator):
    """``CT_c``: each input event terminates the context window ``w_c``.

    If the last user context window is removed, the default context window is
    restored (Section 4.1: "if the set becomes empty adds the default context
    window ``w_{c_d}``").
    """

    unit_cost = 0.1

    def __init__(self, context_name: str):
        super().__init__(f"CT_{context_name}")
        self.context_name = context_name

    def process(self, events: list[Event], ctx: ExecutionContext) -> list[Event]:
        for event in events:
            ctx.windows.terminate(self.context_name, event.timestamp)
        self._account(ctx, len(events), len(events), self.unit_cost * len(events))
        return events


class ContextWindowOperator(Operator):
    """``CW_c``: emit only events that occur during the window ``w_c``.

    When placed at the bottom of a plan (after push-down), an inactive
    context suspends every operator above: :meth:`suspends_pipeline` lets the
    plan driver skip the batch without touching a single event.  This is the
    paper's key distinction from predicate/traditional windows, which filter
    event-by-event while upstream operators busy-wait (Section 5.2).
    """

    unit_cost = 0.05  # a single bit-vector lookup per batch

    def __init__(self, context_name: str):
        super().__init__(f"CW_{context_name}")
        self.context_name = context_name

    def suspends_pipeline(self, ctx: ExecutionContext) -> bool:
        active = ctx.windows.is_active(self.context_name)
        if not active:
            self.stats.suspensions += 1
        return not active

    def process(self, events: list[Event], ctx: ExecutionContext) -> list[Event]:
        if ctx.windows.is_active(self.context_name):
            out = events
        else:
            out = []
        self._account(ctx, len(events), len(out), self.unit_cost)
        return out
