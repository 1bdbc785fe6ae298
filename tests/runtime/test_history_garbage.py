"""Tests for the context history store and the garbage collector."""

import pytest

from repro.algebra.expressions import attr
from repro.algebra.operators import ExecutionContext
from repro.algebra.pattern import EventMatch, PatternOperator, Sequence
from repro.algebra.plan import CombinedQueryPlan, QueryPlan
from repro.core.windows import ContextWindowStore
from repro.events.event import Event
from repro.events.types import EventType
from repro.runtime.garbage import GarbageCollector
from repro.runtime.history import ContextHistory

A = EventType.define("A", n="int")
B = EventType.define("B", n="int")


def ctx():
    return ExecutionContext(windows=ContextWindowStore([], "d"), now=0)


def seq_plan():
    return QueryPlan(
        [PatternOperator(Sequence((EventMatch("A", "a"), EventMatch("B", "b"))))],
        name="seq",
    )


def ev(event_type, t):
    return Event(event_type, t, {"n": 0})


class TestContextHistory:
    def test_termination_discards_partial_matches(self):
        history = ContextHistory()
        plan = seq_plan()
        plan.execute([ev(A, 1)], ctx())
        assert plan.state_size() == 1
        history.on_context_terminated(plan)
        assert plan.state_size() == 0
        assert history.discards == 1


class TestGarbageCollector:
    def make_combined(self):
        plan = seq_plan()
        return plan, CombinedQueryPlan([plan], name="c")

    def test_collects_expired_state(self):
        plan, combined = self.make_combined()
        gc = GarbageCollector([combined], retention=10, interval=1)
        plan.execute([ev(A, 0)], ctx())
        freed = gc.collect(now=100)
        assert freed == 1
        assert plan.state_size() == 0

    def test_keeps_fresh_state(self):
        plan, combined = self.make_combined()
        gc = GarbageCollector([combined], retention=100, interval=1)
        plan.execute([ev(A, 0)], ctx())
        assert gc.collect(now=50) == 0
        assert plan.state_size() == 1

    def test_maybe_collect_respects_interval(self):
        plan, combined = self.make_combined()
        gc = GarbageCollector([combined], retention=10, interval=60)
        plan.execute([ev(A, 0)], ctx())
        gc.collect(now=0)
        assert gc.maybe_collect(now=30) == 0  # too soon
        assert gc.runs == 1
        gc.maybe_collect(now=100)
        assert gc.runs == 2

    def test_invalid_interval(self):
        with pytest.raises(ValueError, match="positive"):
            GarbageCollector([], interval=0)

    def test_collected_counter_accumulates(self):
        plan, combined = self.make_combined()
        gc = GarbageCollector([combined], retention=1, interval=1)
        plan.execute([ev(A, 0)], ctx())
        gc.collect(now=100)
        plan.execute([ev(A, 101)], ctx())
        gc.collect(now=200)
        assert gc.collected == 2


class TestGarbageCollectorArming:
    def test_first_observation_arms_instead_of_collecting(self):
        """A stream starting at a large timestamp (e.g. a replayed suffix)
        must not trigger an immediate collection on first sight."""
        plan = seq_plan()
        combined = CombinedQueryPlan([plan], name="c")
        gc = GarbageCollector([combined], retention=10, interval=60)
        plan.execute([ev(A, 99_000)], ctx())
        assert gc.maybe_collect(now=100_000) == 0
        assert gc.runs == 0
        assert plan.state_size() == 1  # armed, nothing freed

    def test_interval_counts_from_first_observation(self):
        plan = seq_plan()
        combined = CombinedQueryPlan([plan], name="c")
        gc = GarbageCollector([combined], retention=10, interval=60)
        gc.maybe_collect(now=100_000)  # arms
        plan.execute([ev(A, 100_010)], ctx())
        assert gc.maybe_collect(now=100_030) == 0  # < interval since arming
        assert gc.maybe_collect(now=100_060) == 1  # interval elapsed, expired
        assert gc.runs == 1
