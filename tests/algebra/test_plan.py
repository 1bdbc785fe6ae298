"""Tests for query plans and combined plans (Section 4.2)."""

import pytest

from repro.algebra.context_ops import ContextWindowOperator
from repro.algebra.expressions import attr, const
from repro.algebra.operators import ExecutionContext
from repro.algebra.pattern import EventMatch, PatternOperator, Sequence
from repro.algebra.plan import CombinedQueryPlan, QueryPlan, clone_operator
from repro.algebra.relational_ops import Filter, Projection
from repro.core.windows import ContextWindowStore
from repro.errors import PlanError
from repro.events.event import Event
from repro.events.types import EventType

A = EventType.define("A", n="int", sec="int")
MID = EventType.define("Mid", n="int")
OUT = EventType.define("Out", n="int")


def ev(t, n=0):
    return Event(A, t, {"n": n, "sec": t})


def make_ctx(active=()):
    store = ContextWindowStore(["c1", "c2"], "default")
    for name in active:
        store.initiate(name, 0)
    return ExecutionContext(windows=store, now=0)


def simple_plan(context="c1"):
    return QueryPlan(
        [
            PatternOperator(EventMatch("A", "x")),
            Filter(attr("n", "x").gt(0)),
            ContextWindowOperator(context),
            Projection(OUT, [("n", attr("n", "x"))]),
        ],
        name="simple",
        context_name=context,
    )


class TestQueryPlan:
    def test_requires_operators(self):
        with pytest.raises(PlanError, match="at least one"):
            QueryPlan([])

    def test_executes_pipeline(self):
        plan = simple_plan()
        out = plan.execute([ev(1, n=5), ev(1, n=0)], make_ctx(active=["c1"]))
        assert len(out) == 1
        assert out[0].type_name == "Out"
        assert out[0]["n"] == 5

    def test_inactive_context_blocks_output(self):
        plan = simple_plan()
        assert plan.execute([ev(1, n=5)], make_ctx()) == []

    def test_suspension_skips_upstream_operators(self):
        """With CW at the bottom, nothing above runs while suspended."""
        cw = ContextWindowOperator("c1")
        pattern = PatternOperator(EventMatch("A", "x"))
        plan = QueryPlan([cw, pattern])
        plan.execute([ev(1)], make_ctx())  # c1 inactive
        assert pattern.stats.invocations == 0

    def test_without_pushdown_pattern_busy_waits(self):
        pattern = PatternOperator(EventMatch("A", "x"))
        cw = ContextWindowOperator("c1")
        plan = QueryPlan([pattern, cw])
        plan.execute([ev(1)], make_ctx())  # c1 inactive
        assert pattern.stats.invocations == 1  # busy waiting

    def test_input_and_output_types(self):
        plan = simple_plan()
        assert plan.input_types() == {"A"}
        assert plan.output_type() == "Out"

    def test_describe_lists_operators_bottom_last(self):
        text = simple_plan().describe()
        lines = text.splitlines()
        # as in Figure 6, the bottom (pattern) operator is printed last
        assert lines[-1].strip().startswith("1. P[")
        assert lines[1].strip().startswith("4. PR[")

    def test_clone_is_fresh(self):
        plan = simple_plan()
        plan.execute([ev(1, n=5)], make_ctx(active=["c1"]))
        clone = plan.clone()
        assert all(op.stats.cost_units == 0 for op in clone.operators)
        assert clone.state_size() == 0
        assert [op.name for op in clone.operators] == [
            op.name for op in plan.operators
        ]

    def test_reset_stats_and_state(self):
        plan = QueryPlan(
            [
                PatternOperator(
                    Sequence((EventMatch("A", "x"), EventMatch("A", "y")))
                )
            ]
        )
        plan.execute([ev(1)], make_ctx())
        assert plan.state_size() == 1
        plan.reset_state()
        assert plan.state_size() == 0
        plan.reset_stats()
        assert all(op.stats.cost_units == 0 for op in plan.operators)

    def test_clone_unknown_operator_rejected(self):
        class Strange(PatternOperator.__bases__[0]):  # Operator
            def __init__(self):
                super().__init__("strange")

        with pytest.raises(PlanError, match="cannot clone"):
            clone_operator(Strange())


class TestCombinedQueryPlan:
    def producer_plan(self):
        return QueryPlan(
            [
                PatternOperator(EventMatch("A", "x")),
                Projection(MID, [("n", attr("n", "x"))]),
            ],
            name="producer",
            context_name="c1",
        )

    def consumer_plan(self):
        return QueryPlan(
            [
                PatternOperator(EventMatch("Mid", "m")),
                Projection(OUT, [("n", attr("n", "m"))]),
            ],
            name="consumer",
            context_name="c1",
        )

    def test_producer_feeds_consumer_within_batch(self):
        combined = CombinedQueryPlan(
            [self.consumer_plan(), self.producer_plan()]
        )
        out = combined.execute([ev(1, n=4)], make_ctx(active=["c1"]))
        assert [e.type_name for e in out] == ["Out"]
        assert out[0]["n"] == 4

    def test_topological_order(self):
        combined = CombinedQueryPlan(
            [self.consumer_plan(), self.producer_plan()]
        )
        assert [p.name for p in combined.plans] == ["producer", "consumer"]

    def test_intermediate_events_not_in_output(self):
        combined = CombinedQueryPlan(
            [self.producer_plan(), self.consumer_plan()]
        )
        out = combined.execute([ev(1, n=4)], make_ctx(active=["c1"]))
        assert all(e.type_name != "Mid" for e in out)

    def test_unconsumed_derivations_are_output(self):
        combined = CombinedQueryPlan([self.producer_plan()])
        out = combined.execute([ev(1, n=4)], make_ctx(active=["c1"]))
        assert [e.type_name for e in out] == ["Mid"]

    def test_cycle_detection(self):
        loop_a = QueryPlan(
            [
                PatternOperator(EventMatch("Mid", "m")),
                Projection(OUT, [("n", attr("n", "m"))]),
            ],
            name="a",
        )
        loop_b = QueryPlan(
            [
                PatternOperator(EventMatch("Out", "o")),
                Projection(MID, [("n", attr("n", "o"))]),
            ],
            name="b",
        )
        with pytest.raises(PlanError, match="cyclic"):
            CombinedQueryPlan([loop_a, loop_b])

    def test_clone(self):
        combined = CombinedQueryPlan(
            [self.producer_plan(), self.consumer_plan()]
        )
        clone = combined.clone()
        assert len(clone.plans) == len(combined.plans)
        assert all(
            op.stats.cost_units == 0 for p in clone.plans for op in p.operators
        )
