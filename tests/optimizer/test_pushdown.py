"""Tests for context window push-down (Section 5.2, Theorem 1)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.context_ops import ContextWindowOperator
from repro.algebra.operators import ExecutionContext
from repro.core.windows import ContextWindowStore
from repro.events.event import Event
from repro.events.types import EventType
from repro.language import parse_query
from repro.optimizer.cost import CostModel, estimate_plan_cost
from repro.optimizer.planner import build_query_plan
from repro.optimizer.pushdown import is_pushed_down, push_context_windows_down

A = EventType.define("A", n="int", sec="int", lane="str")


def make_plan(context="c1"):
    query = parse_query(
        "DERIVE X(a.n) PATTERN A a WHERE a.n > 2 CONTEXT c1", name="q"
    )
    return build_query_plan(query, context)


def make_ctx(active=()):
    store = ContextWindowStore(["c1"], "default")
    for name in active:
        store.initiate(name, 0)
    return ExecutionContext(windows=store, now=0)


def events(n):
    return [Event(A, 1, {"n": i, "sec": 1, "lane": "x"}) for i in range(n)]


class TestRewrite:
    def test_moves_window_to_bottom(self):
        plan = make_plan()
        assert not is_pushed_down(plan)
        pushed = push_context_windows_down(plan)
        assert is_pushed_down(pushed)
        assert isinstance(pushed.operators[0], ContextWindowOperator)

    def test_preserves_other_operator_order(self):
        plan = make_plan()
        pushed = push_context_windows_down(plan)
        original_rest = [
            op for op in plan.operators
            if not isinstance(op, ContextWindowOperator)
        ]
        pushed_rest = [
            op for op in pushed.operators
            if not isinstance(op, ContextWindowOperator)
        ]
        assert pushed_rest == original_rest

    def test_plan_without_window_unchanged(self):
        query = parse_query("DERIVE X(a.n) PATTERN A a", name="q")
        plan = build_query_plan(query, "c1", with_context_window=False)
        assert push_context_windows_down(plan) is plan

    def test_idempotent(self):
        pushed = push_context_windows_down(make_plan())
        assert push_context_windows_down(pushed).operators == pushed.operators


class TestSemanticsPreserved:
    def test_same_output_when_active(self):
        plan, pushed = make_plan(), push_context_windows_down(make_plan())
        batch = events(10)
        out_a = plan.execute(batch, make_ctx(active=["c1"]))
        out_b = pushed.execute(batch, make_ctx(active=["c1"]))
        assert [e.payload for e in out_a] == [e.payload for e in out_b]

    def test_same_output_when_inactive(self):
        plan, pushed = make_plan(), push_context_windows_down(make_plan())
        batch = events(10)
        assert plan.execute(batch, make_ctx()) == []
        assert pushed.execute(batch, make_ctx()) == []

    def test_pushed_plan_does_less_work_when_inactive(self):
        plan, pushed = make_plan(), push_context_windows_down(make_plan())
        batch = events(10)
        plan.execute(batch, make_ctx())
        pushed.execute(batch, make_ctx())
        assert sum(op.stats.cost_units for op in pushed.operators) < sum(
            op.stats.cost_units for op in plan.operators
        )


class TestTheorem1:
    def test_pushed_down_cost_is_minimal(self):
        """cost(p') <= cost(p) for every placement p of the window."""
        model = CostModel(context_activity={"c1": 0.3})
        plan = make_plan()
        pushed = push_context_windows_down(plan)
        pushed_cost = estimate_plan_cost(pushed, model)
        # try the window at every other position
        others = [
            op for op in plan.operators
            if not isinstance(op, ContextWindowOperator)
        ]
        window = next(
            op for op in plan.operators
            if isinstance(op, ContextWindowOperator)
        )
        from repro.algebra.plan import QueryPlan

        for position in range(1, len(others) + 1):
            operators = others[:position] + [window] + others[position:]
            candidate = QueryPlan(operators, name="candidate")
            assert pushed_cost <= estimate_plan_cost(candidate, model)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30)
    def test_holds_for_any_activity(self, activity):
        model = CostModel(context_activity={"c1": activity})
        plan = make_plan()
        pushed = push_context_windows_down(plan)
        assert estimate_plan_cost(pushed, model) <= estimate_plan_cost(
            plan, model
        )

    def test_equal_cost_when_always_active(self):
        """Theorem 1's boundary case: an always-active context."""
        model = CostModel(context_activity={"c1": 1.0})
        plan = make_plan()
        pushed = push_context_windows_down(plan)
        assert estimate_plan_cost(pushed, model) == estimate_plan_cost(
            plan, model
        )
