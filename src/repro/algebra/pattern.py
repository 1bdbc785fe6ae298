"""Pattern operator ``P`` (Section 4.1): event matching, SEQ, SEQ with NOT.

The pattern grammar (Fig. 4) is::

    Patt := NOT? EventType Var? | SEQ( (Patt ,?)+ )

We implement the three semantics the paper defines:

1. *Event matching* ``E()`` — every input event of type ``E`` is a match.
2. *Sequence without negation* ``SEQ(E1, ..., En)`` — all combinations of
   events ``e1, ..., en`` with strictly increasing occurrence times
   (skip-till-any-match, as in SASE [34]).
3. *Sequence with negation* ``SEQ(S1, NOT E, S2)`` — sequences of ``S1 S2``
   such that no ``E`` event falls strictly between them.  A negated element
   may also *start* or *end* a sequence, in which case a temporal constraint
   bounds the interval within which the negated event must not occur [34]:
   leading negation is bounded by the guard predicate or the operator's
   retention horizon; trailing negation requires an explicit ``within``.

Matches are emitted as :class:`MatchEvent` objects that carry the full
variable binding, so downstream ``FL_θ``/``PR_{A,E}`` operators can evaluate
multi-variable predicates.  The partial-match state of a pattern operator is
exactly the "context history" the runtime preserves across grouped context
windows (Section 6.2); it is exposed via :meth:`PatternOperator.state_size`,
:meth:`~repro.algebra.operators.Operator.reset_state` and
:meth:`~repro.algebra.operators.Operator.expire_state_before`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.algebra.expressions import SELF_VAR, Expr, split_guard
from repro.algebra.operators import ExecutionContext, Operator
from repro.errors import ExpressionError, PlanError
from repro.events.event import Event
from repro.events.timebase import TimeInterval, TimePoint
from repro.events.types import EventType

#: Event type tag for pattern matches flowing between operators.
MATCH_EVENT_TYPE = EventType("PatternMatch")


class MatchEvent(Event):
    """A pattern match: an event carrying its variable binding.

    The payload flattens the binding into ``"var.attr"`` keys for debugging;
    downstream operators evaluate expressions against :attr:`binding`, so
    the flat payload is computed *lazily* on first access — most matches are
    filtered or projected away without anyone reading it.
    """

    __slots__ = ("binding",)

    def __init__(self, binding: Mapping[str, Event], time: TimeInterval):
        super().__init__(
            MATCH_EVENT_TYPE,
            time,
            None,
            derived_from=tuple(binding.values()),
        )
        object.__setattr__(self, "binding", dict(binding))
        # Unset the payload slot: the first attribute access falls through
        # to __getattr__, which materializes the flat payload in place.
        object.__delattr__(self, "_payload")

    def __getstate__(self) -> dict:
        # Event's state protocol doesn't know about the binding slot; ship
        # it explicitly so matches survive the process backend's object
        # lane (the flat payload is rematerialized lazily on the far side).
        state = super().__getstate__()
        state["binding"] = self.binding
        return state

    def __setstate__(self, state: dict) -> None:
        binding = state.pop("binding")
        super().__setstate__(state)
        object.__setattr__(self, "binding", dict(binding))

    def __getattr__(self, name: str) -> Any:
        if name != "_payload":
            raise AttributeError(name)
        payload: dict[str, Any] = {}
        for var, event in self.binding.items():
            prefix = f"{var}." if var else ""
            for attr_name in event.attributes():
                payload[f"{prefix}{attr_name}"] = event[attr_name]
        object.__setattr__(self, "_payload", payload)
        return payload


def binding_of(event: Event) -> dict[str, Event]:
    """The evaluation binding of an event: its match binding or itself."""
    if isinstance(event, MatchEvent):
        return event.binding
    return {SELF_VAR: event}


# --------------------------------------------------------------------------
# Pattern specifications
# --------------------------------------------------------------------------


class PatternSpec:
    """Base class for pattern syntax trees."""

    def variables(self) -> tuple[str, ...]:
        raise NotImplementedError


@dataclass(frozen=True)
class EventMatch(PatternSpec):
    """``EventType Var?`` — match any event of the given type."""

    type_name: str
    var: str = SELF_VAR

    def variables(self) -> tuple[str, ...]:
        return (self.var,)

    def __str__(self) -> str:
        return f"{self.type_name} {self.var}".rstrip()


@dataclass(frozen=True)
class NegatedSpec(PatternSpec):
    """``NOT EventType Var?`` with an optional guard and time bound.

    ``guard`` is a predicate over the negated variable and the positive
    variables of the enclosing sequence; a negated event only *blocks* a
    match if the guard is satisfied.  ``within`` bounds trailing negation:
    the match is emitted once ``within`` time units elapse after the last
    positive event with no blocking event observed.
    """

    inner: EventMatch
    guard: Expr | None = None
    within: TimePoint | None = None

    def variables(self) -> tuple[str, ...]:
        return self.inner.variables()

    def __str__(self) -> str:
        return f"NOT {self.inner}"


@dataclass(frozen=True)
class Sequence(PatternSpec):
    """``SEQ(...)`` — ordered composition of matches and negations."""

    elements: tuple[PatternSpec, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise PlanError("SEQ requires at least one element")
        if not _has_positive(self):
            raise PlanError("SEQ requires at least one positive element")
        seen: set[str] = set()
        for var in self.variables():
            if var and var in seen:
                raise PlanError(f"duplicate pattern variable: {var!r}")
            seen.add(var)

    def variables(self) -> tuple[str, ...]:
        names: list[str] = []
        for element in self.elements:
            names.extend(element.variables())
        return tuple(names)

    @property
    def positives(self) -> tuple[EventMatch, ...]:
        return tuple(e for e in self.elements if isinstance(e, EventMatch))

    def validate_flat(self) -> None:
        """Check the invariants evaluation relies on (flat, has a positive)."""
        for element in self.elements:
            if isinstance(element, Sequence):
                raise PlanError(
                    "nested SEQ must be flattened before plan construction"
                )
        if not any(isinstance(e, EventMatch) for e in self.elements):
            raise PlanError("SEQ requires at least one positive element")

    def __str__(self) -> str:
        inner = ", ".join(str(e) for e in self.elements)
        return f"SEQ({inner})"


def _has_positive(spec: PatternSpec) -> bool:
    if isinstance(spec, EventMatch):
        return True
    if isinstance(spec, NegatedSpec):
        return False
    assert isinstance(spec, Sequence)
    return any(_has_positive(element) for element in spec.elements)


def flatten_sequence(spec: PatternSpec) -> PatternSpec:
    """Flatten nested SEQ nodes produced by the parser into one Sequence."""
    if not isinstance(spec, Sequence):
        return spec
    flat: list[PatternSpec] = []
    for element in spec.elements:
        element = flatten_sequence(element)
        if isinstance(element, Sequence):
            flat.extend(element.elements)
        else:
            flat.append(element)
    return Sequence(tuple(flat))


# --------------------------------------------------------------------------
# Incremental evaluation state
# --------------------------------------------------------------------------


@dataclass
class _Partial:
    """A partial match: bindings for the first ``k`` positive elements."""

    binding: dict[str, Event]
    next_index: int  # index into the positive-element list
    last_time: TimePoint  # timestamp of the most recent bound event


@dataclass
class _PendingMatch:
    """A completed match awaiting a trailing-negation deadline."""

    binding: dict[str, Event]
    deadline: TimePoint
    blocked: bool = False


class _GapNegation:
    """A gap negation split by :func:`split_guard`: the full ``guard``
    decides, ``own`` gates history admission, ``probe`` computes the key
    the first ``var.key_attr = probe`` conjunct looks up."""

    def __init__(self, negation: NegatedSpec):
        self.type_name, self.var = negation.inner.type_name, negation.inner.var
        self.guard = self.probe = self.key_attr = None
        self.own: list[Callable[[Mapping[str, Event]], Any]] = []
        if negation.guard is not None:
            keys, own, _ = split_guard(negation.guard, self.var)
            self.guard = negation.guard.compile()
            self.own = [conjunct.compile() for conjunct in own]
            if keys:
                self.key_attr, probe = keys[0]
                self.probe = probe.compile()


@dataclass
class _SequencePlan:
    """Pre-analyzed structure of a Sequence: negations between positives."""

    positives: tuple[EventMatch, ...]
    #: ``gap_negations[i]`` lists negations between positive ``i-1`` and
    #: positive ``i``; index 0 holds leading negations.
    gap_negations: tuple[tuple[_GapNegation, ...], ...]
    trailing: tuple[NegatedSpec, ...]


def _analyze(sequence: Sequence) -> _SequencePlan:
    positives: list[EventMatch] = []
    gaps: list[list[NegatedSpec]] = [[]]
    for element in sequence.elements:
        if isinstance(element, EventMatch):
            positives.append(element)
            gaps.append([])
        else:
            assert isinstance(element, NegatedSpec)
            gaps[-1].append(element)
    trailing = tuple(gaps.pop())
    for negation in trailing:
        if negation.within is None:
            raise PlanError(
                f"trailing negation {negation} needs an explicit 'within' "
                "time bound (Section 4.1: a negated event ending a sequence "
                "requires a temporal constraint)"
            )
        if negation.guard is not None:
            negation.guard.compile()
    return _SequencePlan(
        positives=tuple(positives),
        gap_negations=tuple(tuple(_GapNegation(n) for n in g) for g in gaps),
        trailing=trailing,
    )


_MISSING = object()


class _NegationHistory:
    """Retained events of one gap-negated type, indexed by key attribute.

    ``events`` (arrival order) owns the history: expiry pops its front and
    snapshots copy it.  ``index`` maps each key attribute to buckets
    ``{value: [events in arrival order]}`` plus an overflow list for values
    that are unhashable or not equal to themselves (NaN), so an expired
    event is always the front of its list.  An event lacking the attribute
    is in neither: its key conjunct raises, so the guard cannot hold.
    :meth:`candidates` thus returns a superset of the events the guard can
    accept, and the guard decides on each of them.
    """

    def __init__(self, negations: list[_GapNegation]):
        self.negations = negations
        self.events: deque[Event] = deque()
        self.index: dict[str, tuple[dict[Any, list[Event]], list[Event]]] = {
            n.key_attr: ({}, []) for n in negations if n.key_attr is not None
        }

    def may_block(self, event: Event) -> bool:
        """Whether all own conjuncts of some negation hold for ``event``."""
        for negation in self.negations:
            binding = {negation.var: event}
            try:
                if all(conjunct(binding) for conjunct in negation.own):
                    return True
            except ExpressionError:
                pass
        return False

    def _slot(self, attr: str, event: Event) -> list[Event] | None:
        key = event._payload.get(attr, _MISSING)
        if key is _MISSING:
            return None
        buckets, overflow = self.index[attr]
        try:
            if key == key:
                return buckets.setdefault(key, [])
        except TypeError:
            pass
        return overflow

    def append(self, event: Event) -> None:
        self.events.append(event)
        for attr in self.index:
            slot = self._slot(attr, event)
            if slot is not None:
                slot.append(event)

    def expire_before(self, t: TimePoint) -> int:
        dropped = 0
        while self.events and self.events[0].timestamp < t:
            event = self.events.popleft()
            dropped += 1
            for attr, (buckets, overflow) in self.index.items():
                slot = self._slot(attr, event)
                if slot is not None:
                    del slot[0]
                    if not slot and slot is not overflow:
                        del buckets[event._payload[attr]]
        return dropped

    def reset(self, events: Iterable[Event] = ()) -> None:
        self.events.clear()
        for buckets, overflow in self.index.values():
            buckets.clear()
            overflow.clear()
        for event in events:
            self.append(event)

    def candidates(
        self, negation: _GapNegation, binding: Mapping[str, Event]
    ) -> Iterable[Event]:
        """The retained events that may satisfy ``negation``'s guard."""
        if negation.probe is None:
            return self.events
        try:
            probe = negation.probe(binding)
        except ExpressionError:
            return ()  # the key conjunct raises for every event
        buckets, overflow = self.index[negation.key_attr]
        try:
            if probe == probe:
                bucket = buckets.get(probe, ())
                return [*bucket, *overflow] if overflow else bucket
        except TypeError:
            pass
        return self.events


class PatternOperator(Operator):
    """The CAESAR pattern operator ``P``.

    Parameters
    ----------
    spec:
        The pattern to evaluate (:class:`EventMatch` or :class:`Sequence`).
    retention:
        Time horizon for partial matches and negation history.  Events and
        partials older than ``now - retention`` are expired; this bounds both
        memory and the lookback of leading negation.
    """

    unit_cost = 2.0

    def __init__(self, spec: PatternSpec, *, retention: TimePoint = 300):
        spec = flatten_sequence(spec)
        super().__init__(f"P[{spec}]")
        if retention <= 0:
            raise PlanError(f"retention must be positive, got {retention}")
        self.spec = spec
        self.retention = retention
        if isinstance(spec, Sequence):
            spec.validate_flat()
            self._plan: _SequencePlan | None = _analyze(spec)
        elif isinstance(spec, EventMatch):
            self._plan = None
        else:
            raise PlanError(f"unsupported pattern spec: {spec!r}")
        self._negated_types: set[str] = set()
        #: keyed negation history, only for types some gap negation reads;
        #: trailing negations check arriving events directly
        self._history: dict[str, _NegationHistory] = {}
        if self._plan is not None:
            by_type: dict[str, list[_GapNegation]] = {}
            for gap in self._plan.gap_negations:
                for negation in gap:
                    by_type.setdefault(negation.type_name, []).append(negation)
            self._history = {t: _NegationHistory(n) for t, n in by_type.items()}
            self._negated_types.update(by_type)
            self._negated_types.update(
                n.inner.type_name for n in self._plan.trailing
            )
        #: partial matches indexed by the *next positive type* they wait
        #: for — an incoming event only touches the partials it can extend
        self._partials_by_next: dict[str, list[_Partial]] = {}
        if self._plan is not None:
            for positive in self._plan.positives:
                self._partials_by_next.setdefault(positive.type_name, [])
        self._pending: list[_PendingMatch] = []
        #: newest timestamp seen; ``-inf`` so negative streams expire too
        self._now: TimePoint = float("-inf")
        #: a lower bound on every stored timestamp: expiry has nothing to
        #: drop while the horizon is at or below it
        self._oldest: TimePoint = float("inf")
        #: the value of ``_now`` the last horizon expiry ran at; expiry is
        #: amortized to time advances instead of running per event
        self._expired_at: TimePoint = float("-inf")

    # ------------------------------------------------------------------
    # state management (context history / garbage collection hooks)
    # ------------------------------------------------------------------

    def _partial_count(self) -> int:
        return sum(len(bucket) for bucket in self._partials_by_next.values())

    def _iter_partials(self) -> Iterable[_Partial]:
        for bucket in self._partials_by_next.values():
            yield from bucket

    def _add_partial(self, partial: _Partial) -> None:
        assert self._plan is not None
        next_type = self._plan.positives[partial.next_index].type_name
        self._partials_by_next[next_type].append(partial)

    def state_size(self) -> int:
        """Number of partial matches, pending matches and history events."""
        history = sum(len(h.events) for h in self._history.values())
        return self._partial_count() + len(self._pending) + history

    def reset_state(self) -> None:
        for bucket in self._partials_by_next.values():
            bucket.clear()
        self._pending.clear()
        for history in self._history.values():
            history.reset()

    def snapshot_state(self) -> dict[str, Any]:
        """Copy the mutable state (used by the context history store).

        Partials are stored as one flat list (the pre-index snapshot
        format); :meth:`restore_state` re-buckets them by next type.
        """
        return {
            "partials": [
                _Partial(dict(p.binding), p.next_index, p.last_time)
                for p in self._iter_partials()
            ],
            "pending": [
                _PendingMatch(dict(p.binding), p.deadline, p.blocked)
                for p in self._pending
            ],
            "history": {t: deque(h.events) for t, h in self._history.items()},
            "now": self._now,
        }

    def restore_state(self, snapshot: Mapping[str, Any]) -> None:
        """Restore state saved by :meth:`snapshot_state`.

        The snapshot is copied, so it can be restored any number of times
        (e.g. replaying from one checkpoint repeatedly).  Only the history
        deques are stored; the key buckets are rebuilt from them.
        """
        for bucket in self._partials_by_next.values():
            bucket.clear()
        for p in snapshot["partials"]:
            self._add_partial(_Partial(dict(p.binding), p.next_index, p.last_time))
        self._pending = [
            _PendingMatch(dict(p.binding), p.deadline, p.blocked)
            for p in snapshot["pending"]
        ]
        for type_name, history in self._history.items():
            history.reset(snapshot["history"].get(type_name, ()))
        self._now = snapshot["now"]
        self._oldest = float("-inf")
        self._expired_at = float("-inf")

    def expire_state_before(self, t: TimePoint) -> int:
        dropped = 0
        for bucket in self._partials_by_next.values():
            kept = [p for p in bucket if p.last_time >= t]
            dropped += len(bucket) - len(kept)
            bucket[:] = kept
        for history in self._history.values():
            dropped += history.expire_before(t)
        return dropped

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def process(self, events: list[Event], ctx: ExecutionContext) -> list[Event]:
        out: list[Event] = []
        for event in events:
            out.extend(self._consume(event))
        cost = self.unit_cost * len(events) + 0.1 * self._partial_count()
        self._account(len(events), len(out), cost)
        return out

    def on_time_advance(self, now: TimePoint, ctx: ExecutionContext) -> list[Event]:
        self._now = max(self._now, now)
        return self._flush_pending(now)

    def _consume(self, event: Event) -> list[Event]:
        timestamp = event.timestamp
        if timestamp > self._now:
            self._now = timestamp
        if self._plan is None:
            return self._match_single(event)
        emitted: list[Event] = []
        # Negated-type events may block pending trailing-negation matches.
        if event.type_name in self._negated_types:
            self._block_pending(event)
            history = self._history.get(event.type_name)
            if history is not None and history.may_block(event):
                history.append(event)
        if timestamp < self._oldest:
            self._oldest = timestamp
        # Horizon expiry is idempotent at a fixed ``_now``, so it only needs
        # to run when time advanced — or when a late event arrives, which
        # the per-event expiry used to drop from history immediately.
        if self._now > self._expired_at or timestamp < self._now:
            self._expire_horizon()
        emitted.extend(self._advance_partials(event))
        emitted.extend(self._flush_pending(self._now))
        return emitted

    def _match_single(self, event: Event) -> list[Event]:
        assert isinstance(self.spec, EventMatch)
        if event.type_name != self.spec.type_name:
            return []
        return [MatchEvent({self.spec.var: event}, event.time)]

    def _advance_partials(self, event: Event) -> list[Event]:
        assert self._plan is not None
        plan = self._plan
        timestamp = event.timestamp
        # Only the partials waiting for this event's type can extend; the
        # type index makes this O(matching) instead of O(all partials).
        bucket = self._partials_by_next.get(event.type_name)
        if bucket:
            candidates = [p for p in bucket if timestamp > p.last_time]
        else:
            candidates = []
        # A fresh partial if the event matches the first positive element.
        # ``-inf`` means "no previous event": any timestamp (including
        # negative ones) may start a sequence.
        if plan.positives[0].type_name == event.type_name:
            candidates.append(_Partial({}, 0, float("-inf")))
        emitted: list[Event] = []
        last_index = len(plan.positives) - 1
        for partial in candidates:
            index = partial.next_index
            binding = dict(partial.binding)
            binding[plan.positives[index].var] = event
            if not self._gap_clear(plan, index, binding, partial.last_time, event):
                continue
            extended = _Partial(binding, index + 1, timestamp)
            if index == last_index:
                emitted.extend(self._complete(plan, extended))
            else:
                self._add_partial(extended)
        return emitted

    def _gap_clear(
        self,
        plan: _SequencePlan,
        index: int,
        binding: dict[str, Event],
        previous_time: TimePoint,
        event: Event,
    ) -> bool:
        """Check the negations between positive ``index-1`` and ``index``.

        For leading negation (``index == 0``) the forbidden interval is the
        retention horizon up to the event; otherwise it is strictly between
        the two positive events.  Guards run on ``binding`` itself, with
        the negated variable set for the call.
        """
        high = event.timestamp
        for negation in plan.gap_negations[index]:
            candidates = self._history[negation.type_name].candidates(
                negation, binding
            )
            low = previous_time if index > 0 else high - self.retention
            var, guard = negation.var, negation.guard
            shadowed = binding.get(var)
            for blocked in candidates:
                t = blocked.timestamp
                if index > 0 and not (low < t < high):
                    continue
                if index == 0 and not (low <= t < high):
                    continue
                if blocked is event:
                    continue
                if guard is None:
                    return False
                binding[var] = blocked
                try:
                    if guard(binding):
                        return False  # ``binding`` is dropped with the match
                except ExpressionError:
                    pass
            if shadowed is None:
                binding.pop(var, None)
            else:
                binding[var] = shadowed
        return True

    def _guard_holds(
        self, negation: NegatedSpec, blocked: Event, binding: dict[str, Event]
    ) -> bool:
        if negation.guard is None:
            return True
        guard_binding = dict(binding)
        guard_binding[negation.inner.var] = blocked
        try:
            # compiled (and memoized) at plan-build time in _analyze
            return bool(negation.guard.compile()(guard_binding))
        except ExpressionError:
            return False

    def _complete(self, plan: _SequencePlan, partial: _Partial) -> list[Event]:
        if plan.trailing:
            deadline = partial.last_time + min(
                n.within for n in plan.trailing if n.within is not None
            )
            self._pending.append(_PendingMatch(partial.binding, deadline))
            return []
        return [self._emit(partial.binding)]

    def _emit(self, binding: dict[str, Event]) -> MatchEvent:
        time = None
        for event in binding.values():
            time = event.time if time is None else time.span(event.time)
        assert time is not None
        return MatchEvent(binding, time)

    def _block_pending(self, event: Event) -> None:
        assert self._plan is not None
        for pending in self._pending:
            if pending.blocked:
                continue
            last_time = max(e.timestamp for e in pending.binding.values())
            if not (last_time < event.timestamp <= pending.deadline):
                continue
            for negation in self._plan.trailing:
                if negation.inner.type_name != event.type_name:
                    continue
                if self._guard_holds(negation, event, pending.binding):
                    pending.blocked = True
                    break

    def _flush_pending(self, now: TimePoint) -> list[Event]:
        if not self._pending:
            return []
        emitted: list[Event] = []
        remaining: list[_PendingMatch] = []
        for pending in self._pending:
            if pending.blocked:
                continue
            if now > pending.deadline:
                emitted.append(self._emit(pending.binding))
            else:
                remaining.append(pending)
        self._pending = remaining
        return emitted

    def _expire_horizon(self) -> None:
        self._expired_at = self._now
        horizon = self._now - self.retention
        if horizon <= self._oldest:
            return
        for bucket in self._partials_by_next.values():
            bucket[:] = [p for p in bucket if p.last_time >= horizon]
        for history in self._history.values():
            history.expire_before(horizon)
