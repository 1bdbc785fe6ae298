"""Context window push-down (Section 5.2, Theorem 1).

Pushing the ``CW_c`` operator to the bottom of a plan suspends the *entire*
pipeline above it whenever context ``c`` is inactive — unlike a predicate or
traditional window, which filters events one by one while upstream operators
busy-wait.  Theorem 1: the pushed-down plan's cost is at most that of any
other placement (equal only if the context happens to be always active), and
the rewrite is semantics-preserving because a context window merely scopes
the query it belongs to.
"""

from __future__ import annotations

from repro.algebra.context_ops import ContextWindowOperator
from repro.algebra.plan import QueryPlan


def push_context_windows_down(plan: QueryPlan) -> QueryPlan:
    """Return a plan with all ``CW`` operators moved to the bottom.

    Relative order among multiple context windows is preserved.  The input
    plan is not modified; operator instances are reused (the rewrite is a
    reordering, not a reconstruction), so apply it before execution starts.
    """
    windows = [
        op for op in plan.operators if isinstance(op, ContextWindowOperator)
    ]
    if not windows:
        return plan
    others = [
        op for op in plan.operators if not isinstance(op, ContextWindowOperator)
    ]
    return QueryPlan(
        windows + others, name=plan.name, context_name=plan.context_name
    )


def is_pushed_down(plan: QueryPlan) -> bool:
    """True if every ``CW`` operator precedes every non-``CW`` operator."""
    seen_other = False
    for operator in plan.operators:
        if isinstance(operator, ContextWindowOperator):
            if seen_other:
                return False
        else:
            seen_other = True
    return True
