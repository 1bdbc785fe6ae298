"""Tests for the CPU cost model (Section 5.1)."""

import pytest

from repro.algebra.context_ops import (
    ContextInitiation,
    ContextTermination,
    ContextWindowOperator,
)
from repro.algebra.expressions import attr
from repro.algebra.pattern import EventMatch, PatternOperator, Sequence
from repro.algebra.plan import QueryPlan
from repro.algebra.relational_ops import Filter, Projection
from repro.events.types import EventType
from repro.optimizer.cost import CostModel, estimate_plan_cost

OUT = EventType.define("Out", n="int")


class TestCostModel:
    def test_unit_costs_by_kind(self):
        model = CostModel()
        assert model.unit_cost(PatternOperator(EventMatch("A"))) == 2.0
        assert model.unit_cost(Filter(attr("n").gt(1))) == 1.0
        assert model.unit_cost(Projection(OUT, [("n", attr("n"))])) == 0.5
        # context operators are constant and cheap (Section 5.1)
        assert model.unit_cost(ContextInitiation("c")) == pytest.approx(0.1)
        assert model.unit_cost(ContextTermination("c")) == pytest.approx(0.1)
        assert model.unit_cost(ContextWindowOperator("c")) == pytest.approx(0.05)

    def test_selectivity_defaults(self):
        model = CostModel()
        assert model.selectivity(Filter(attr("n").gt(1))) == 0.5
        assert model.selectivity(Projection(OUT, [("n", attr("n"))])) == 1.0

    def test_pattern_owning_where_attenuates_like_pattern_then_filter(self):
        """A SEQ that evaluates its WHERE while matching passes on what a
        pattern followed by a filter did, so estimates above it hold."""
        model = CostModel()
        spec = Sequence((EventMatch("A", "a"), EventMatch("B", "b")))
        where = attr("n", "b").gt(attr("n", "a"))
        owning = PatternOperator(spec, where=where)
        plain = PatternOperator(spec)
        assert model.selectivity(owning) == pytest.approx(
            model.selectivity(plain) * model.selectivity(Filter(where))
        )
        assert model.unit_cost(owning) == model.unit_cost(plain)

    def test_window_selectivity_from_activity(self):
        model = CostModel(context_activity={"busy": 0.9, "rare": 0.1})
        assert model.selectivity(ContextWindowOperator("busy")) == 0.9
        assert model.selectivity(ContextWindowOperator("rare")) == 0.1
        assert model.selectivity(ContextWindowOperator("unknown")) == 0.5


class TestPlanCost:
    def test_rate_attenuation(self):
        """Downstream operators are charged at the attenuated rate."""
        plan = QueryPlan(
            [
                Filter(attr("n").gt(1)),  # sel 0.5
                Filter(attr("n").lt(9)),  # charged at rate 0.5
            ]
        )
        cost = estimate_plan_cost(plan, CostModel(), input_rate=1.0)
        assert cost == pytest.approx(1.0 * 1.0 + 0.5 * 1.0)

    def test_window_charged_per_batch_not_per_event(self):
        plan = QueryPlan([ContextWindowOperator("c")])
        cost_high_rate = estimate_plan_cost(plan, input_rate=1000.0)
        cost_low_rate = estimate_plan_cost(plan, input_rate=1.0)
        assert cost_high_rate == cost_low_rate

    def test_input_rate_scales_cost(self):
        plan = QueryPlan([Filter(attr("n").gt(1))])
        assert estimate_plan_cost(plan, input_rate=10.0) == pytest.approx(
            10 * estimate_plan_cost(plan, input_rate=1.0)
        )

    def test_rare_context_window_shields_upstream(self):
        model = CostModel(context_activity={"rare": 0.1})
        shielded = QueryPlan(
            [ContextWindowOperator("rare"), PatternOperator(EventMatch("A"))]
        )
        exposed = QueryPlan(
            [PatternOperator(EventMatch("A")), ContextWindowOperator("rare")]
        )
        assert estimate_plan_cost(shielded, model) < estimate_plan_cost(
            exposed, model
        )


class TestAggregateCosts:
    def _pattern_aggregate(self):
        from repro.algebra.aggregate import MatchAggregate
        from repro.algebra.pattern import Sequence
        from repro.algebra.seq_aggregate import (
            AggregateOutput,
            MatchAggregateProjection,
            PatternAggregateOperator,
        )

        online = PatternAggregateOperator(
            Sequence((EventMatch("A", "a"), EventMatch("B", "b"))),
            (AggregateOutput(OUT, (MatchAggregate("n", "count"),)),),
        )
        oracle = MatchAggregateProjection(
            (AggregateOutput(OUT, (MatchAggregate("n", "count"),)),)
        )
        return online, oracle

    def test_unit_costs(self):
        model = CostModel()
        online, oracle = self._pattern_aggregate()
        assert model.unit_cost(online) == model.pattern_aggregate_cost
        assert model.unit_cost(oracle) == model.match_aggregate_cost
        # the aggregate operator costs slightly more per event than the
        # plain pattern operator (summary bookkeeping) but emits far less
        assert model.unit_cost(online) > model.unit_cost(
            PatternOperator(EventMatch("A"))
        )

    def test_selectivity(self):
        model = CostModel()
        online, oracle = self._pattern_aggregate()
        assert model.selectivity(online) == model.aggregate_selectivity
        assert model.selectivity(oracle) == model.aggregate_selectivity


class TestSharingBenefit:
    def _specs(self, queries_per_window=2):
        from repro.core.windows import WindowSpec
        from repro.language import parse_query

        queries = tuple(
            parse_query(
                f"DERIVE Fused{i}(COUNT(*)) "
                "PATTERN SEQ(CbA a, CbB b) WHERE a.v > 3",
                name=f"fused{i}",
            )
            for i in range(queries_per_window)
        )
        return [
            WindowSpec("w1", start=0, end=100, queries=queries),
            WindowSpec("w2", start=0, end=100, queries=queries),
        ]

    def test_fusible_aggregates_make_sharing_win(self):
        from repro.optimizer.cost import estimate_sharing_benefit

        benefit = estimate_sharing_benefit(self._specs())
        assert benefit.shared_plans < benefit.nonshared_plans
        assert benefit.benefit > 0
        assert benefit.ratio > 1.0

    def test_benefit_grows_with_fused_query_count(self):
        from repro.optimizer.cost import estimate_sharing_benefit

        small = estimate_sharing_benefit(self._specs(2))
        large = estimate_sharing_benefit(self._specs(4))
        assert large.ratio > small.ratio

    def test_no_overlap_no_benefit(self):
        from repro.core.windows import WindowSpec
        from repro.language import parse_query
        from repro.optimizer.cost import estimate_sharing_benefit

        specs = [
            WindowSpec("w1", start=0, end=100, queries=(
                parse_query("DERIVE CbOut1(a.v) PATTERN CbA a", name="q1"),
            )),
            WindowSpec("w2", start=200, end=300, queries=(
                parse_query("DERIVE CbOut2(a.v) PATTERN CbA a", name="q2"),
            )),
        ]
        benefit = estimate_sharing_benefit(specs)
        assert benefit.ratio == pytest.approx(1.0)
        assert benefit.benefit == pytest.approx(0.0)
