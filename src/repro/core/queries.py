"""Context-aware event query descriptors (Definition 3).

A query descriptor is the logical form of one CAESAR event query: which
clauses it carries (INITIATE/SWITCH/TERMINATE CONTEXT, DERIVE, PATTERN,
WHERE, CONTEXT) and which contexts it belongs to.  Descriptors are what the
model, the grouping algorithm and the optimizer manipulate; the planner
(:mod:`repro.language.compiler` and :mod:`repro.optimizer`) turns them into
operator pipelines per Table 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from repro.algebra.aggregate import MatchAggregate
from repro.algebra.expressions import Expr
from repro.algebra.pattern import PatternSpec
from repro.errors import ModelError
from repro.events.types import EventType


class QueryAction(enum.Enum):
    """What a query does when its pattern matches (Definition 3)."""

    #: Context deriving: open a new context window (may overlap others).
    INITIATE = "initiate"
    #: Context deriving: terminate the current window, open a new one.
    SWITCH = "switch"
    #: Context deriving: close a context window.
    TERMINATE = "terminate"
    #: Context processing: derive a complex event.
    DERIVE = "derive"


#: Actions performed by context *deriving* queries.
DERIVING_ACTIONS = frozenset(
    {QueryAction.INITIATE, QueryAction.SWITCH, QueryAction.TERMINATE}
)


@dataclass(frozen=True)
class EventQuery:
    """One context-aware event query.

    Parameters
    ----------
    name:
        Unique identifier for the query within its model.
    action:
        What the query does on a match (:class:`QueryAction`).
    pattern:
        The PATTERN clause (required for every query).
    contexts:
        The CONTEXT clause: names of the contexts the query belongs to.  The
        same query may be appropriate in several contexts (Section 3.3);
        deriving queries are evaluated within these contexts.
    where:
        Optional WHERE predicate.
    target_context:
        For deriving queries: the context to initiate/switch-to/terminate.
    derive_type / derive_items:
        For processing queries: the DERIVE clause's output event type and its
        ``(attribute_name, expression)`` argument list.
    derive_aggregates:
        For aggregating processing queries: the DERIVE clause's
        :class:`~repro.algebra.aggregate.MatchAggregate` columns, one per
        output attribute, computed over the pattern's matches.  Mutually
        exclusive with ``derive_items`` — a DERIVE clause either projects
        per-match expressions or aggregates over all matches.
    """

    name: str
    action: QueryAction
    pattern: PatternSpec
    contexts: tuple[str, ...] = ()
    where: Expr | None = None
    target_context: str | None = None
    derive_type: EventType | None = None
    derive_items: tuple[tuple[str, Expr], ...] = ()
    derive_aggregates: tuple[MatchAggregate, ...] = ()

    def __post_init__(self) -> None:
        if self.derive_aggregates and self.derive_items:
            raise ModelError(
                f"query {self.name!r}: DERIVE cannot mix per-match "
                "expressions and aggregates"
            )
        if self.action in DERIVING_ACTIONS:
            if not self.target_context:
                raise ModelError(
                    f"query {self.name!r}: {self.action.value} requires a "
                    "target context"
                )
            if self.derive_type is not None:
                raise ModelError(
                    f"query {self.name!r}: a context deriving query cannot "
                    "also carry a DERIVE clause"
                )
            if self.derive_aggregates:
                raise ModelError(
                    f"query {self.name!r}: a context deriving query cannot "
                    "carry aggregates"
                )
        else:
            if self.derive_type is None:
                raise ModelError(
                    f"query {self.name!r}: DERIVE requires an output event type"
                )
            if self.target_context is not None:
                raise ModelError(
                    f"query {self.name!r}: a context processing query cannot "
                    "target a context"
                )

    @property
    def is_deriving(self) -> bool:
        """True for INITIATE / SWITCH / TERMINATE CONTEXT queries."""
        return self.action in DERIVING_ACTIONS

    @property
    def is_processing(self) -> bool:
        """True for DERIVE queries."""
        return not self.is_deriving

    def with_contexts(self, contexts: Sequence[str]) -> "EventQuery":
        """The same query re-targeted at a different CONTEXT clause.

        Used in phase 1 of plan generation, where contexts implied by the
        model become mandatory clauses (Section 4.2), and by the grouping
        algorithm when re-associating workloads with grouped windows.
        """
        return EventQuery(
            name=self.name,
            action=self.action,
            pattern=self.pattern,
            contexts=tuple(contexts),
            where=self.where,
            target_context=self.target_context,
            derive_type=self.derive_type,
            derive_items=self.derive_items,
            derive_aggregates=self.derive_aggregates,
        )

    def signature(self) -> tuple:
        """Identity of the query's *work*, ignoring its CONTEXT clause.

        Two queries with equal signatures perform identical computation, so
        the grouping algorithm deduplicates on this key (Listing 1, lines
        20-22) and the sharing optimizer executes one instance for all of
        them.
        """
        return (
            self.action,
            str(self.pattern),
            str(self.where) if self.where is not None else None,
            self.target_context,
            self.derive_type.name if self.derive_type else None,
            tuple((name, str(expr)) for name, expr in self.derive_items),
            tuple(
                (aggregate.name, str(aggregate))
                for aggregate in self.derive_aggregates
            ),
        )

    def __str__(self) -> str:
        if self.is_deriving:
            head = f"{self.action.value.upper()} CONTEXT {self.target_context}"
        else:
            if self.derive_aggregates:
                args = ", ".join(str(a) for a in self.derive_aggregates)
            else:
                args = ", ".join(str(expr) for _, expr in self.derive_items)
            assert self.derive_type is not None
            head = f"DERIVE {self.derive_type.name}({args})"
        clauses = [head, f"PATTERN {self.pattern}"]
        if self.where is not None:
            clauses.append(f"WHERE {self.where}")
        if self.contexts:
            clauses.append(f"CONTEXT {', '.join(self.contexts)}")
        return " ".join(clauses)
