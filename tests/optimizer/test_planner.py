"""Tests for Table 1 plan construction and combined plans (Section 4.2)."""

import pytest

from repro.algebra.context_ops import (
    ContextInitiation,
    ContextTermination,
    ContextWindowOperator,
)
from repro.algebra.expressions import attr, conjoin, const
from repro.algebra.pattern import EventMatch, NegatedSpec, PatternOperator, Sequence
from repro.algebra.relational_ops import Filter, Projection
from repro.core.queries import EventQuery, QueryAction
from repro.errors import PlanError
from repro.events.types import EventType
from repro.language import parse_query
from repro.optimizer.planner import (
    build_combined_plans,
    build_plans_for_queries,
    build_query_plan,
)


OUT = EventType.define("PlannerOut", v="int")


def op_types(plan):
    return [type(op).__name__ for op in plan.operators]


class TestIndividualPlans:
    def test_processing_query_plan_matches_figure_6a(self):
        """Initial plan order: pattern, filter, context window, projection."""
        query = parse_query(
            "DERIVE Toll(p.vid, p.sec, 5) PATTERN NewTravelingCar p "
            "WHERE p.lane != 'exit' CONTEXT congestion",
            name="q1",
        )
        plan = build_query_plan(query, "congestion")
        assert op_types(plan) == [
            "PatternOperator", "Filter", "ContextWindowOperator", "Projection",
        ]
        assert plan.context_name == "congestion"

    def test_processing_without_where(self):
        query = parse_query(
            "DERIVE Toll(p.vid) PATTERN Car p CONTEXT congestion", name="q"
        )
        plan = build_query_plan(query, "congestion")
        assert op_types(plan) == [
            "PatternOperator", "ContextWindowOperator", "Projection",
        ]

    def test_initiate_plan(self):
        query = parse_query(
            "INITIATE CONTEXT accident PATTERN Accident CONTEXT clear",
            name="q3",
        )
        plan = build_query_plan(query, "clear")
        assert op_types(plan) == [
            "PatternOperator", "ContextWindowOperator", "ContextInitiation",
        ]
        assert plan.operators[-1].context_name == "accident"

    def test_terminate_plan(self):
        query = parse_query(
            "TERMINATE CONTEXT accident PATTERN Cleared CONTEXT accident",
            name="q",
        )
        plan = build_query_plan(query, "accident")
        assert isinstance(plan.operators[-1], ContextTermination)

    def test_switch_plan_has_both_operators(self):
        """SWITCH CONTEXT c maps to CI_c plus CT_curr (Table 1)."""
        query = parse_query(
            "SWITCH CONTEXT clear PATTERN Stats s CONTEXT congestion",
            name="q",
        )
        plan = build_query_plan(query, "congestion")
        initiation = plan.operators[-2]
        termination = plan.operators[-1]
        assert isinstance(initiation, ContextInitiation)
        assert initiation.context_name == "clear"
        assert isinstance(termination, ContextTermination)
        assert termination.context_name == "congestion"

    def test_without_context_window(self):
        query = parse_query(
            "DERIVE Toll(p.vid) PATTERN Car p CONTEXT congestion", name="q"
        )
        plan = build_query_plan(query, "congestion", with_context_window=False)
        assert "ContextWindowOperator" not in op_types(plan)

    def test_retention_propagates(self):
        query = parse_query("DERIVE X(a.n) PATTERN A a", name="q")
        plan = build_query_plan(query, "c", retention=77)
        assert plan.pattern_operators[0].retention == 77


class TestPlansForQueries:
    def test_one_plan_per_query_context_pair(self):
        query = parse_query(
            "DERIVE X(a.n) PATTERN A a CONTEXT c1, c2", name="q"
        )
        plans = build_plans_for_queries([query])
        assert [p.context_name for p in plans] == ["c1", "c2"]
        assert [p.name for p in plans] == ["q@c1", "q@c2"]


class TestWherePlacement:
    """A SEQ evaluates the WHERE conjuncts over its named positive
    variables while matching; only the others stay in a Filter."""

    def test_seq_owns_its_where_and_drops_the_filter(self):
        query = parse_query(
            "DERIVE Breakout(a.sec, b.sec) "
            "PATTERN SEQ(Tick a, NOT Tick n, Tick b) "
            "WHERE a.volume > 800 AND b.volume > 900 AND b.price > a.price "
            "AND n.volume > 950 CONTEXT volatile",
            name="breakout",
        )
        plan = build_query_plan(query, "volatile")
        assert op_types(plan) == [
            "PatternOperator", "ContextWindowOperator", "Projection",
        ]
        assert str(plan.operators[0].where) == str(query.where)
        # a clone keeps the placed conjuncts
        assert plan.clone().operators[0].where == query.where

    def test_unplaceable_conjuncts_stay_in_the_filter(self):
        query = EventQuery(
            name="q",
            action=QueryAction.DERIVE,
            pattern=Sequence((
                EventMatch("A", "a"),
                NegatedSpec(EventMatch("C", "n")),
                EventMatch("B", "b"),
            )),
            where=conjoin([
                attr("v", "a").gt(1),
                const(1).lt(2),
                attr("v").gt(0),
                attr("v", "n").gt(0),
                attr("v", "b").gt(attr("v", "a")),
            ]),
            derive_type=OUT,
            derive_items=(("v", attr("v", "a")),),
        )
        pattern, filter_op = build_query_plan(query, "c").operators[:2]
        assert str(pattern.where) == "((a.v > 1) AND (b.v > a.v))"
        assert isinstance(filter_op, Filter)
        assert str(filter_op.predicate) == "(((1 < 2) AND (v > 0)) AND (n.v > 0))"

    def test_event_match_keeps_pattern_then_filter(self):
        query = parse_query(
            "DERIVE X(a.n) PATTERN A a WHERE a.n > 1 CONTEXT c", name="q"
        )
        pattern, filter_op = build_query_plan(query, "c").operators[:2]
        assert pattern.where is None
        assert isinstance(filter_op, Filter)

    def test_materialized_aggregate_places_its_where(self):
        query = parse_query(
            "DERIVE N(COUNT(*)) PATTERN SEQ(A a, NOT C n, B b) "
            "WHERE b.v > a.v CONTEXT c",
            name="q",
        )
        plan = build_query_plan(query, "c", aggregation="materialize")
        assert op_types(plan) == [
            "PatternOperator", "ContextWindowOperator",
            "MatchAggregateProjection",
        ]

    def test_pattern_operator_refuses_unplaceable_where(self):
        spec = Sequence((EventMatch("A", "a"), EventMatch("B", "b")))
        with pytest.raises(PlanError, match="Filter"):
            PatternOperator(spec, where=attr("v").gt(1))
        with pytest.raises(PlanError, match="Filter"):
            PatternOperator(EventMatch("A", "a"), where=attr("v", "a").gt(1))


class TestCombinedPlans:
    def test_grouped_by_context(self):
        q_congestion = parse_query(
            "DERIVE X(a.n) PATTERN A a CONTEXT congestion", name="q1"
        )
        q_clear = parse_query(
            "DERIVE Y(a.n) PATTERN A a CONTEXT clear", name="q2"
        )
        plans = build_plans_for_queries([q_congestion, q_clear])
        combined = build_combined_plans(plans)
        assert [c.context_name for c in combined] == ["congestion", "clear"]

    def test_producer_before_consumer(self):
        """Figure 6: the NewTravelingCar plan feeds the TollNotification
        plan inside one combined plan."""
        q2 = parse_query(
            "DERIVE NewTravelingCar(p2.vid, p2.sec) "
            "PATTERN SEQ(NOT PositionReport p1, PositionReport p2) "
            "WHERE p1.sec + 30 = p2.sec AND p1.vid = p2.vid "
            "CONTEXT congestion",
            name="q2",
        )
        q1 = parse_query(
            "DERIVE Toll(p.vid, p.sec, 5) PATTERN NewTravelingCar p "
            "CONTEXT congestion",
            name="q1",
        )
        plans = build_plans_for_queries([q1, q2])
        [combined] = build_combined_plans(plans)
        assert [p.name for p in combined.plans] == [
            "q2@congestion", "q1@congestion",
        ]
