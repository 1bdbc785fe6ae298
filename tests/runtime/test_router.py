"""Tests for the context-aware stream router (Section 6.2)."""

import pytest

from repro.algebra.context_ops import ContextInitiation
from repro.algebra.operators import ExecutionContext
from repro.algebra.plan import CombinedQueryPlan, QueryPlan
from repro.algebra.pattern import EventMatch, PatternOperator
from repro.algebra.relational_ops import Projection
from repro.algebra.expressions import attr
from repro.core.model import CaesarModel
from repro.core.windows import ContextWindowStore
from repro.events.event import Event
from repro.events.stream import EventStream
from repro.events.types import EventType
from repro.language import parse_query
from repro.runtime import CaesarEngine, EngineSession, ProcessPoolBackend
from repro.runtime.router import ContextAwareStreamRouter

A = EventType.define("A", n="int")
B = EventType.define("B", n="int")
OUT = EventType.define("Out", n="int")


def make_plan(name, input_type="A"):
    return CombinedQueryPlan(
        [
            QueryPlan(
                [
                    PatternOperator(EventMatch(input_type, "a")),
                    Projection(OUT, [("n", attr("n", "a"))]),
                ],
                name=name,
                context_name=name,
            )
        ],
        name=f"combined-{name}",
        context_name=name,
    )


def plan_cost(combined):
    """The cost units a combined plan's operators recorded."""
    return sum(op.stats.cost_units for p in combined.plans for op in p.operators)


def setup_router(context_aware=True):
    store = ContextWindowStore(["c1", "c2"], "default")
    router = ContextAwareStreamRouter(
        {"c1": make_plan("c1"), "c2": make_plan("c2")},
        context_aware=context_aware,
    )
    return store, router


def batch(n=3):
    return [Event(A, 1, {"n": i}) for i in range(n)]


class TestContextAwareRouting:
    def test_only_active_context_plans_receive_events(self):
        store, router = setup_router()
        store.initiate("c1", 0)
        ctx = ExecutionContext(windows=store, now=1)
        outputs = router.route(batch(), store, ctx)
        assert len(outputs) == 3  # only c1's plan produced
        assert router.batches_routed == 1
        assert router.batches_suppressed == 1

    def test_nothing_routed_when_no_user_context_active(self):
        store, router = setup_router()
        ctx = ExecutionContext(windows=store, now=1)
        assert router.route(batch(), store, ctx) == []
        assert router.batches_suppressed == 2

    def test_multiple_active_contexts(self):
        store, router = setup_router()
        store.initiate("c1", 0)
        store.initiate("c2", 0)
        ctx = ExecutionContext(windows=store, now=1)
        outputs = router.route(batch(2), store, ctx)
        assert len(outputs) == 4  # both plans produced

    def test_cost_attribution(self):
        store, router = setup_router()
        store.initiate("c1", 0)
        ctx = ExecutionContext(windows=store, now=1)
        router.route(batch(), store, ctx)
        assert router.cost_units > 0
        # suppressed plan spent nothing
        assert plan_cost(router.plan_for("c2")) == 0


class TestContextIndependentRouting:
    def test_everything_routed(self):
        store, router = setup_router(context_aware=False)
        ctx = ExecutionContext(windows=store, now=1)
        outputs = router.route(batch(2), store, ctx)
        # both plans ran even though neither context is active
        assert len(outputs) == 4
        assert router.batches_suppressed == 0
        assert router.batches_routed == 2


class TestInterestSetRouting:
    """Active plans whose interest set is disjoint from the batch are skipped."""

    def setup_mixed_router(self, context_aware=True):
        # c1 consumes A events, c2 consumes B events
        store = ContextWindowStore(["c1", "c2"], "default")
        router = ContextAwareStreamRouter(
            {"c1": make_plan("c1", "A"), "c2": make_plan("c2", "B")},
            context_aware=context_aware,
        )
        return store, router

    def test_disjoint_plan_skipped(self):
        store, router = self.setup_mixed_router()
        store.initiate("c1", 0)
        store.initiate("c2", 0)
        ctx = ExecutionContext(windows=store, now=1)
        outputs = router.route(batch(3), store, ctx)  # A events only
        assert len(outputs) == 3  # c1's plan produced, c2's never ran
        assert router.batches_routed == 1
        assert router.batches_uninterested == 1
        assert router.batches_suppressed == 0
        # the skipped plan was not charged any cost units
        assert plan_cost(router.plan_for("c2")) == 0

    def test_uninterested_counter_accumulates(self):
        store, router = self.setup_mixed_router()
        store.initiate("c1", 0)
        store.initiate("c2", 0)
        ctx = ExecutionContext(windows=store, now=1)
        for _ in range(4):
            router.route(batch(1), store, ctx)
        assert router.batches_uninterested == 4
        assert router.batches_routed == 4

    def test_mixed_batch_reaches_both_plans(self):
        store, router = self.setup_mixed_router()
        store.initiate("c1", 0)
        store.initiate("c2", 0)
        ctx = ExecutionContext(windows=store, now=1)
        mixed = [Event(A, 1, {"n": 0}), Event(B, 1, {"n": 1})]
        outputs = router.route(mixed, store, ctx)
        assert len(outputs) == 2
        assert router.batches_routed == 2
        assert router.batches_uninterested == 0

    def test_context_suppression_wins_over_interest(self):
        # an inactive context counts as suppressed, not uninterested, even
        # when the batch would also have been disjoint with its interests
        store, router = self.setup_mixed_router()
        store.initiate("c1", 0)
        ctx = ExecutionContext(windows=store, now=1)
        router.route(batch(1), store, ctx)
        assert router.batches_suppressed == 1
        assert router.batches_uninterested == 0

    def test_baseline_delivers_every_batch_to_every_plan(self):
        # the context-independent baseline must not benefit from interest
        # routing: both plans run and are charged even for a disjoint batch
        store, router = self.setup_mixed_router(context_aware=False)
        ctx = ExecutionContext(windows=store, now=1)
        router.route(batch(2), store, ctx)  # A events; c2 only wants B
        assert router.batches_routed == 2
        assert router.batches_uninterested == 0
        # c2's plan was really invoked for the disjoint batch
        c2_pattern = router.plan_for("c2").plans[0].operators[0]
        assert c2_pattern.stats.invocations == 1


class TestIntrospection:
    def test_contexts_and_lookup(self):
        _, router = setup_router()
        assert set(router.contexts) == {"c1", "c2"}
        assert router.plan_for("c1") is not None
        assert router.plan_for("missing") is None
        assert len(router.all_plans()) == 2


class TestDispatchTable:
    """The per-router table of (context, plan, mask, interest, timed) is
    rebuilt whenever a plan or the bit-vector layout changes, and its masks
    are tested against the live bits."""

    def setup_active_router(self):
        store, router = setup_router()
        store.initiate("c1", 0)
        ctx = ExecutionContext(windows=store, now=1)
        router.route(batch(1), store, ctx)  # builds the table
        return store, router, ctx

    def test_context_initiated_mid_route_runs_a_later_plan(self):
        store = ContextWindowStore(["c2"], "default")
        up = QueryPlan(
            [PatternOperator(EventMatch("A", "a")), ContextInitiation("c2")],
            name="up",
            context_name="default",
        )
        router = ContextAwareStreamRouter(
            {
                "default": CombinedQueryPlan([up], context_name="default"),
                "c2": make_plan("c2"),
            }
        )
        ctx = ExecutionContext(windows=store, now=1)
        outputs = router.route(batch(2), store, ctx)
        # c2 opened while the default plan ran, so c2's plan saw the batch
        assert [e.type_name for e in outputs].count("Out") == 2
        assert router.batches_routed == 2
        assert router.batches_suppressed == 0

    def test_replace_plan_rebuilds_the_table(self):
        store, router, ctx = self.setup_active_router()
        router.replace_plan("c1", make_plan("c1", "B"))
        assert router.route(batch(1), store, ctx) == []
        assert router.batches_uninterested == 1
        assert len(router.route([Event(B, 1, {"n": 0})], store, ctx)) == 1

    def test_remove_plan_rebuilds_the_table(self):
        store, router, ctx = self.setup_active_router()
        router.remove_plan("c1")
        assert router.route(batch(1), store, ctx) == []
        assert router.batches_routed == 1

    def test_wrap_plans_rebuilds_the_table(self):
        store, router, ctx = self.setup_active_router()
        seen = []

        class Recording:
            def __init__(self, plan):
                self._plan = plan

            def __getattr__(self, name):
                return getattr(self._plan, name)

            def execute(self, events, ctx):
                seen.append(len(events))
                return self._plan.execute(events, ctx)

        router.wrap_plans(lambda name, plan: Recording(plan))
        assert len(router.route(batch(2), store, ctx)) == 2
        assert seen == [2]

    def test_register_relayout_rebuilds_the_table(self):
        store, router, ctx = self.setup_active_router()
        # "a0" sorts first, so c1 and c2 move to new bits
        assert store.register_context("a0")
        assert len(router.route(batch(1), store, ctx)) == 1
        invocations = {
            name: router.plan_for(name).plans[0].operators[0].stats.invocations
            for name in ("c1", "c2")
        }
        assert invocations == {"c1": 2, "c2": 0}
        router.replace_plan("a0", make_plan("a0"))
        store.initiate("a0", 1)
        assert len(router.route(batch(1), store, ctx)) == 2

    def test_online_context_deploy_keeps_routing(self):
        def run(deploy):
            engine = CaesarEngine(deploy_model(), backend="serial")
            session = EngineSession(engine)
            outputs = session.feed([reading(0, 150), reading(10, 170)])
            if deploy:
                # sorts before "alert": the live alert bit moves
                engine.deploy_context("a_first")
            outputs += session.feed([reading(20, 160), reading(30, 50)])
            session.close()
            return [(e.type_name, e.timestamp) for e in outputs]

        expected = run(deploy=False)
        assert ("Alarm", 20) in expected
        assert run(deploy=True) == expected


READING = EventType.define("RtReading", value="int", sec="int")


def deploy_model():
    model = CaesarModel(default_context="normal")
    model.add_context("alert")
    model.add_query(parse_query(
        "INITIATE CONTEXT alert PATTERN RtReading r WHERE r.value > 100 "
        "CONTEXT normal", name="up"))
    model.add_query(parse_query(
        "TERMINATE CONTEXT alert PATTERN RtReading r WHERE r.value <= 100 "
        "CONTEXT alert", name="down"))
    model.add_query(parse_query(
        "DERIVE Alarm(r.value) PATTERN RtReading r CONTEXT alert",
        name="alarm"))
    return model


def reading(t, value):
    return Event(READING, t, {"value": value, "sec": t})


REPORT = EventType.define(
    "RtReport", subject="int", spike="int", move="int", sec="int"
)
PING = EventType.define("RtPing", subject="int")


def fall_model():
    """A spike with no movement within 15 s, only while at rest — the
    trailing negation ticks charge cost through ``advance_time``."""
    model = CaesarModel(default_context="rest")
    model.add_context("active")
    model.add_query(parse_query(
        "INITIATE CONTEXT active PATTERN RtReport r WHERE r.move > 8 "
        "CONTEXT rest", name="activate"))
    model.add_query(parse_query(
        "TERMINATE CONTEXT active PATTERN RtReport r WHERE r.move = 0 "
        "CONTEXT active", name="deactivate"))
    model.add_query(parse_query(
        "DERIVE FallWarning(s.subject, s.sec) "
        "PATTERN SEQ(RtReport s, NOT RtReport m) "
        "WHERE s.spike > 20 AND m.subject = s.subject AND m.move > 2 "
        "WITHIN 15 CONTEXT rest", name="fall"))
    model.add_query(parse_query(
        "DERIVE Busy(r.subject, r.sec) PATTERN RtReport r WHERE r.move > 3 "
        "CONTEXT active", name="busy"))
    return model


def fall_stream():
    """Per subject, minutes cycle through a quiet rest (the spike becomes a
    warning on a time tick: no plan consumes the pings that follow it), a
    rest whose spike movement cancels, and an active spell."""
    events = []
    for t in range(0, 360, 3):
        for subject in range(3):
            phase, offset = (t // 60 + subject) % 3, t % 60
            spike = 30 if phase < 2 and offset == 6 else 0
            if phase == 0 and offset > 6:
                events.append(Event(PING, t, {"subject": subject}))
                continue
            if phase == 0:
                move = 0
            elif phase == 1:
                move = 3 if offset == 12 else 0
            else:
                move = 9 if offset == 0 else 4 if offset < 57 else 0
            events.append(Event(REPORT, t, {
                "subject": subject, "spike": spike, "move": move, "sec": t,
            }))
    return EventStream(events)


def run_cost(backend, monkeypatch, observability=None):
    """Run the fall model; returns the engine (closed) and its report."""
    if observability is not None:
        monkeypatch.setenv("CAESAR_OBSERVABILITY", observability)
    engine = CaesarEngine(
        fall_model(), partition_by=lambda e: e["subject"], backend=backend
    )
    try:
        report = engine.run(fall_stream())
    finally:
        engine.close()
    return engine, report


def operator_cost(engine):
    """The cost units every operator of every live partition recorded."""
    total = 0.0
    for key in engine.partition_keys:
        runtime = engine._partitions[key]
        for router in (runtime.deriving_router, runtime.processing_router):
            total += sum(plan_cost(plan) for plan in router.all_plans())
        total += sum(op.stats.cost_units for op in runtime.preprocessors)
    return total


class TestChargedCost:
    """Operators charge their cost into the execution context; the routers'
    sum equals the sum of the operators' own stats."""

    @pytest.mark.parametrize("observability", [None, "trace"])
    def test_serial_backend(self, monkeypatch, observability):
        engine, report = run_cost("serial", monkeypatch, observability)
        assert report.outputs_by_type.get("FallWarning")
        assert report.outputs_by_type.get("Busy")
        assert report.cost_units == pytest.approx(operator_cost(engine), rel=1e-12)
        by_context = engine._cost_by_context()
        assert sum(by_context.values()) == pytest.approx(report.cost_units)

    def test_process_backend(self, monkeypatch):
        serial, expected = run_cost("serial", monkeypatch)
        _, report = run_cost(ProcessPoolBackend(max_workers=2), monkeypatch)
        assert report.outputs == expected.outputs
        # the workers hold the operators: compare with the serial run's
        assert report.cost_units == pytest.approx(operator_cost(serial), rel=1e-12)
