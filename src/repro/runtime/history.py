"""Context history (Section 6.2, "Context Processing").

When a user-defined context window ends, the event queries associated with
it are suspended and will not produce new matches until re-activated — so
their partial matches can be safely discarded.  When a user window has been
*split* into grouped windows (Listing 1), partial matches must instead
survive across the grouped windows originating from the same user window.
The sharing optimizer gets that for free: it merges a unit's adjacent
activation intervals (:mod:`repro.optimizer.sharing`), so its context stays
open across the split and nothing is discarded there.
"""

from __future__ import annotations

from repro.algebra.plan import CombinedQueryPlan, QueryPlan


class ContextHistory:
    """Discards partial matches when a context window ends."""

    def __init__(self) -> None:
        self.discards = 0

    def on_context_terminated(self, plan: CombinedQueryPlan | QueryPlan) -> None:
        """The window ended for good: partial matches are safely discarded."""
        plan.reset_state()
        self.discards += 1
