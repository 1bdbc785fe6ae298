"""Tests for the pattern operator P: event matching and SEQ (Section 4.1)."""

import pytest

from repro.algebra.operators import ExecutionContext
from repro.algebra.pattern import (
    EventMatch,
    MatchEvent,
    NegatedSpec,
    PatternOperator,
    Sequence,
    binding_of,
    flatten_sequence,
)
from repro.core.windows import ContextWindowStore
from repro.errors import PlanError
from repro.events.event import Event
from repro.events.timebase import TimeInterval
from repro.events.types import EventType

A = EventType.define("A", n="int")
B = EventType.define("B", n="int")
C = EventType.define("C", n="int")


def ev(event_type, t, n=0):
    return Event(event_type, t, {"n": n})


def ctx():
    return ExecutionContext(windows=ContextWindowStore([], "default"), now=0)


class TestEventMatching:
    def test_matches_own_type_only(self):
        op = PatternOperator(EventMatch("A", "x"))
        out = op.process([ev(A, 1), ev(B, 1)], ctx())
        assert len(out) == 1
        assert isinstance(out[0], MatchEvent)
        assert out[0].binding["x"] == ev(A, 1)

    def test_match_event_payload_is_flattened(self):
        op = PatternOperator(EventMatch("A", "x"))
        [match] = op.process([ev(A, 3, n=9)], ctx())
        assert match.payload == {"x.n": 9}

    def test_binding_of_plain_event(self):
        event = ev(A, 0)
        assert binding_of(event) == {"": event}


class TestSequence:
    def test_two_step_sequence(self):
        spec = Sequence((EventMatch("A", "a"), EventMatch("B", "b")))
        op = PatternOperator(spec)
        assert op.process([ev(A, 1)], ctx()) == []
        [match] = op.process([ev(B, 2)], ctx())
        assert match.binding["a"].timestamp == 1
        assert match.binding["b"].timestamp == 2
        assert match.time == TimeInterval(1, 2)

    def test_strictly_increasing_times_required(self):
        spec = Sequence((EventMatch("A", "a"), EventMatch("B", "b")))
        op = PatternOperator(spec)
        op.process([ev(A, 5)], ctx())
        # same timestamp must not match (e1.time < e2.time)
        assert op.process([ev(B, 5)], ctx()) == []
        assert len(op.process([ev(B, 6)], ctx())) == 1

    def test_all_combinations_matched(self):
        """SEQ constructs *all* event sequences (skip-till-any-match)."""
        spec = Sequence((EventMatch("A", "a"), EventMatch("B", "b")))
        op = PatternOperator(spec)
        op.process([ev(A, 1, n=1)], ctx())
        op.process([ev(A, 2, n=2)], ctx())
        out = op.process([ev(B, 3)], ctx())
        assert len(out) == 2
        assert {m.binding["a"]["n"] for m in out} == {1, 2}

    def test_three_step_sequence(self):
        spec = Sequence(
            (EventMatch("A", "a"), EventMatch("B", "b"), EventMatch("C", "c"))
        )
        op = PatternOperator(spec)
        op.process([ev(A, 1)], ctx())
        op.process([ev(B, 2)], ctx())
        assert op.process([ev(C, 3)], ctx()) != []

    def test_same_type_sequence(self):
        spec = Sequence((EventMatch("A", "x"), EventMatch("A", "y")))
        op = PatternOperator(spec)
        op.process([ev(A, 1)], ctx())
        [match] = op.process([ev(A, 2)], ctx())
        assert match.binding["x"].timestamp == 1
        assert match.binding["y"].timestamp == 2

    def test_out_of_scope_types_ignored(self):
        spec = Sequence((EventMatch("A", "a"), EventMatch("B", "b")))
        op = PatternOperator(spec)
        op.process([ev(A, 1)], ctx())
        assert op.process([ev(C, 2)], ctx()) == []

    def test_sequence_starts_at_timebase_origin(self):
        """A sequence may start at the very beginning of the timebase.

        Regression test for the fresh-partial sentinel: it used to be the
        magic number ``-1.0`` (meaning "no previous event"), which only
        works because the paper's timebase happens to be non-negative.  It
        is now ``float("-inf")`` so the operator itself imposes no lower
        bound on timestamps: an event at t=0 — or at any fractional time
        below the old sentinel's safety margin — must be able to open a
        partial match.
        """
        spec = Sequence((EventMatch("A", "a"), EventMatch("B", "b")))
        op = PatternOperator(spec)
        assert op.process([ev(A, 0)], ctx()) == []
        [match] = op.process([ev(B, 0.5)], ctx())
        assert match.binding["a"].timestamp == 0
        assert match.binding["b"].timestamp == 0.5
        assert match.time == TimeInterval(0, 0.5)

    def test_fresh_partial_sentinel_is_unbounded(self):
        """The "no previous event" sentinel precedes every legal timestamp.

        Guards against reintroducing a finite sentinel: a partial restored
        from a snapshot keeps whatever ``last_time`` it had, and a fresh
        partial must sort strictly before all of them.
        """
        spec = Sequence((EventMatch("A", "a"), EventMatch("B", "b")))
        op = PatternOperator(spec)
        op.process([ev(A, 0)], ctx())
        snapshot = op.snapshot_state()
        [partial] = snapshot["partials"]
        assert partial.last_time == 0
        assert float("-inf") < partial.last_time


class TestSpecValidation:
    def test_empty_sequence_rejected(self):
        with pytest.raises(PlanError, match="at least one element"):
            Sequence(())

    def test_all_negated_rejected(self):
        with pytest.raises(PlanError, match="positive"):
            Sequence((NegatedSpec(EventMatch("A", "a")),))

    def test_duplicate_variables_rejected(self):
        with pytest.raises(PlanError, match="duplicate pattern variable"):
            Sequence((EventMatch("A", "x"), EventMatch("B", "x")))

    def test_nested_sequence_flattened(self):
        nested = Sequence(
            (
                EventMatch("A", "a"),
                Sequence((EventMatch("B", "b"), EventMatch("C", "c"))),
            )
        )
        flat = flatten_sequence(nested)
        assert [type(e) for e in flat.elements] == [EventMatch] * 3

    def test_trailing_negation_requires_within(self):
        spec = Sequence(
            (EventMatch("A", "a"), NegatedSpec(EventMatch("B", "b")))
        )
        with pytest.raises(PlanError, match="within"):
            PatternOperator(spec)

    def test_negative_retention_rejected(self):
        with pytest.raises(PlanError, match="retention"):
            PatternOperator(EventMatch("A"), retention=0)


class TestRetention:
    def test_partials_expire_beyond_horizon(self):
        spec = Sequence((EventMatch("A", "a"), EventMatch("B", "b")))
        op = PatternOperator(spec, retention=10)
        op.process([ev(A, 0)], ctx())
        assert op.state_size() == 1
        # B arrives far later; the stale partial must have been expired
        assert op.process([ev(B, 100)], ctx()) == []
        assert op.state_size() == 0

    def test_partials_survive_within_horizon(self):
        spec = Sequence((EventMatch("A", "a"), EventMatch("B", "b")))
        op = PatternOperator(spec, retention=100)
        op.process([ev(A, 0)], ctx())
        assert len(op.process([ev(B, 50)], ctx())) == 1

    @pytest.mark.parametrize("origin", [-2000, -1000, -150, 0, 500])
    def test_expiry_does_not_depend_on_the_epoch(self, origin):
        """Retention is relative to the newest event, so shifting a stream
        by a constant (negative timestamps included) changes nothing."""
        spec = Sequence((EventMatch("A", "a"), EventMatch("B", "b")))
        far = PatternOperator(spec, retention=300)
        far.process([ev(A, origin)], ctx())
        assert far.process([ev(B, origin + 1050)], ctx()) == []
        assert far.state_size() == 0
        near = PatternOperator(spec, retention=300)
        near.process([ev(A, origin)], ctx())
        assert len(near.process([ev(B, origin + 100)], ctx())) == 1

    def test_explicit_expiry(self):
        spec = Sequence((EventMatch("A", "a"), EventMatch("B", "b")))
        op = PatternOperator(spec, retention=1000)
        op.process([ev(A, 0)], ctx())
        dropped = op.expire_state_before(10)
        assert dropped == 1
        assert op.state_size() == 0


class TestStateManagement:
    def test_reset_state(self):
        spec = Sequence((EventMatch("A", "a"), EventMatch("B", "b")))
        op = PatternOperator(spec)
        op.process([ev(A, 1)], ctx())
        op.reset_state()
        assert op.state_size() == 0
        assert op.process([ev(B, 2)], ctx()) == []

    def test_snapshot_and_restore(self):
        spec = Sequence((EventMatch("A", "a"), EventMatch("B", "b")))
        op = PatternOperator(spec)
        op.process([ev(A, 1)], ctx())
        snapshot = op.snapshot_state()
        op.reset_state()
        assert op.process([ev(B, 2)], ctx()) == []
        op.restore_state(snapshot)
        assert len(op.process([ev(B, 3)], ctx())) == 1

    def test_snapshot_is_independent_copy(self):
        spec = Sequence((EventMatch("A", "a"), EventMatch("B", "b")))
        op = PatternOperator(spec)
        op.process([ev(A, 1)], ctx())
        snapshot = op.snapshot_state()
        op.process([ev(A, 2)], ctx())  # mutate after snapshot
        op.restore_state(snapshot)
        assert op.state_size() == 1
