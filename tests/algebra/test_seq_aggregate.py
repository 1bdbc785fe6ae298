"""Online SEQ-match aggregation: operators, eligibility, and properties.

The hypothesis properties pit the incremental path against a *brute-force*
oracle written here from the SEQ semantics directly (enumerate every
strictly-time-increasing pair, group by completion timestamp) — not
against :class:`MatchAggregateProjection`, so a shared bug in the two
shipped paths cannot hide.  Streams include simultaneous and negative
timestamps and events missing aggregation attributes.

Event type names must be identifiers, so a ``"+"``-named *derived type*
is impossible by construction (asserted below) — but query *names* are
free-form strings and the workload fuser joins them with ``"+"`` when
labelling fused plans, so the sharing property deliberately uses names
containing ``"+"`` to prove the label is cosmetic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.aggregate import MatchAggregate
from repro.algebra.expressions import attr, const
from repro.algebra.operators import ExecutionContext
from repro.algebra.pattern import EventMatch, NegatedSpec, Sequence
from repro.algebra.seq_aggregate import (
    AggregateOutput,
    PatternAggregateOperator,
    online_aggregation_supported,
)
from repro.api import EngineConfig, create_engine
from repro.core.model import CaesarModel
from repro.core.windows import ContextWindowStore, WindowSpec
from repro.errors import PlanError, SchemaError
from repro.events.event import Event
from repro.events.stream import EventStream
from repro.events.types import EventType
from repro.language import parse_query
from repro.optimizer.sharing import (
    build_nonshared_workload,
    build_shared_workload,
)

TICK = EventType.define("SAggTick", v="int")
OUT = EventType.define("SAggOut", count="int", s="int", lo="int", hi="int")

RETENTION = 100_000  # beyond every generated time span: expiry never fires


def _ctx():
    return ExecutionContext(windows=ContextWindowStore([], "default"), now=0)


def pair_operator(**kwargs):
    return PatternAggregateOperator(
        Sequence((EventMatch("SAggTick", "a"), EventMatch("SAggTick", "b"))),
        (AggregateOutput(OUT, (
            MatchAggregate("count", "count"),
            MatchAggregate("s", "sum", "a", "v"),
            MatchAggregate("lo", "min", "b", "v"),
            MatchAggregate("hi", "max", "b", "v"),
        )),),
        retention=RETENTION,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# eligibility
# ---------------------------------------------------------------------------


class TestEligibility:
    SEQ = Sequence((EventMatch("A", "a"), EventMatch("B", "b")))

    def test_flat_sequence_and_single_match_supported(self):
        assert online_aggregation_supported(self.SEQ, None)
        assert online_aggregation_supported(EventMatch("A", "a"), None)

    def test_single_variable_conjuncts_supported(self):
        where = attr("v", "a").gt(const(3)) & attr("v", "b").le(const(9))
        assert online_aggregation_supported(self.SEQ, where)

    def test_negation_unsupported(self):
        negated = Sequence((
            EventMatch("A", "a"),
            NegatedSpec(EventMatch("B", "b")),
            EventMatch("C", "c"),
        ))
        assert not online_aggregation_supported(negated, None)

    def test_cross_variable_predicate_unsupported(self):
        where = attr("v", "a").lt(attr("v", "b"))
        assert not online_aggregation_supported(self.SEQ, where)

    def test_foreign_variable_predicate_unsupported(self):
        assert not online_aggregation_supported(
            self.SEQ, attr("v", "z").gt(const(0))
        )


class TestConstruction:
    def test_rejects_negation(self):
        negated = Sequence((
            EventMatch("SAggTick", "a"),
            NegatedSpec(EventMatch("SAggTick", "x")),
            EventMatch("SAggTick", "b"),
        ))
        with pytest.raises(PlanError, match="not eligible"):
            PatternAggregateOperator(
                negated,
                (AggregateOutput(OUT, (MatchAggregate("count", "count"),)),),
            )

    def test_rejects_cross_variable_predicate(self):
        with pytest.raises(PlanError, match="not eligible"):
            pair_operator(where=attr("v", "a").lt(attr("v", "b")))

    def test_rejects_empty_outputs(self):
        with pytest.raises(PlanError, match="at least one output"):
            PatternAggregateOperator(EventMatch("SAggTick", "a"), ())

    def test_rejects_nonpositive_retention(self):
        with pytest.raises(PlanError, match="retention"):
            PatternAggregateOperator(
                EventMatch("SAggTick", "a"),
                (AggregateOutput(OUT, (MatchAggregate("count", "count"),)),),
                retention=0,
            )

    def test_rejects_unknown_aggregate_variable(self):
        with pytest.raises(PlanError, match="unknown pattern variable"):
            PatternAggregateOperator(
                EventMatch("SAggTick", "a"),
                (AggregateOutput(OUT, (
                    MatchAggregate("s", "sum", "z", "v"),
                )),),
            )

    def test_aggregate_output_rejects_duplicate_names(self):
        with pytest.raises(PlanError, match="duplicate"):
            AggregateOutput(OUT, (
                MatchAggregate("count", "count"),
                MatchAggregate("count", "sum", "a", "v"),
            ))

    def test_aggregate_output_rejects_empty_columns(self):
        with pytest.raises(PlanError, match="at least one"):
            AggregateOutput(OUT, ())

    def test_plus_named_derived_type_is_impossible(self):
        # the fused-plan label joins output names with "+"; the schema
        # layer guarantees no real type name can collide with that
        with pytest.raises(SchemaError, match="invalid event type name"):
            EventType("Agg+Out")


# ---------------------------------------------------------------------------
# hand-computed evaluation
# ---------------------------------------------------------------------------


class TestEvaluation:
    def events(self, *values):
        return [
            Event(TICK, t + 1, {"v": v}) for t, v in enumerate(values)
        ]

    def test_pair_aggregates_by_completion_time(self):
        operator = pair_operator()
        out = operator.process(self.events(5, 7, 9), _ctx())
        assert [(e.timestamp, dict(e.payload)) for e in out] == [
            (2, {"count": 1, "s": 5, "lo": 7, "hi": 7}),
            (3, {"count": 2, "s": 12, "lo": 9, "hi": 9}),
        ]
        assert operator.matches_aggregated == 3

    def test_interval_start_is_earliest_contributor(self):
        operator = pair_operator()
        out = operator.process(self.events(5, 7), _ctx())
        assert out[0].time.start == 1
        assert out[0].timestamp == 2

    def test_simultaneous_events_never_pair(self):
        operator = pair_operator()
        events = [Event(TICK, 4, {"v": 1}), Event(TICK, 4, {"v": 2})]
        assert operator.process(events, _ctx()) == []

    @pytest.mark.parametrize("origin", [-2000, -1000, -150, 0, 500])
    def test_expiry_does_not_depend_on_the_epoch(self, origin):
        """Retention is relative to the newest event, so shifting a stream
        by a constant (negative timestamps included) changes nothing."""
        def count_operator():
            return PatternAggregateOperator(
                Sequence((EventMatch("SAggTick", "a"),
                          EventMatch("SAggTick", "b"))),
                (AggregateOutput(OUT, (MatchAggregate("count", "count"),)),),
                retention=300,
            )

        far = count_operator()
        far.process([Event(TICK, origin, {"v": 1})], _ctx())
        assert far.process([Event(TICK, origin + 1050, {"v": 2})], _ctx()) == []
        near = count_operator()
        near.process([Event(TICK, origin, {"v": 1})], _ctx())
        out = near.process([Event(TICK, origin + 100, {"v": 2})], _ctx())
        assert [e.payload["count"] for e in out] == [1]

    def test_missing_attribute_contributes_no_match(self):
        # the second event lacks the aggregation target entirely: the pair
        # (e1, e2) is unusable and must not surface in *any* column, count
        # included — the oracle's usability rule
        operator = pair_operator()
        events = [
            Event(TICK, 1, {"v": 5}),
            Event(TICK, 2, {}),
            Event(TICK, 3, {"v": 9}),
        ]
        out = operator.process(events, _ctx())
        assert [(e.timestamp, e.payload["count"]) for e in out] == [(3, 1)]

    def test_stage_predicates_gate_admission(self):
        operator = pair_operator(
            where=attr("v", "a").gt(const(4)) & attr("v", "b").gt(const(8))
        )
        out = operator.process(self.events(3, 5, 7, 9), _ctx())
        # admissible firsts: 5, 7; admissible seconds: 9
        assert [(e.timestamp, dict(e.payload)) for e in out] == [
            (4, {"count": 2, "s": 12, "lo": 9, "hi": 9}),
        ]

    def test_fused_outputs_share_one_pass(self):
        other = EventType.define("SAggOut2", n="int")
        operator = PatternAggregateOperator(
            Sequence((
                EventMatch("SAggTick", "a"), EventMatch("SAggTick", "b"),
            )),
            (
                AggregateOutput(OUT, (
                    MatchAggregate("count", "count"),
                    MatchAggregate("s", "sum", "a", "v"),
                    MatchAggregate("lo", "min", "b", "v"),
                    MatchAggregate("hi", "max", "b", "v"),
                )),
                AggregateOutput(other, (MatchAggregate("n", "count"),)),
            ),
            retention=RETENTION,
        )
        out = operator.process(self.events(5, 7), _ctx())
        assert [(e.type_name, e.timestamp) for e in out] == [
            ("SAggOut", 2), ("SAggOut2", 2),
        ]
        assert out[1].payload == {"n": 1}

    def test_snapshot_restore_resumes_identically(self):
        first, rest = self.events(5, 7, 9, 2, 8)[:2], \
            self.events(5, 7, 9, 2, 8)[2:]
        straight = pair_operator()
        straight.process(first, _ctx())
        snapshot = straight.snapshot_state()
        expected = straight.process(rest, _ctx())

        resumed = pair_operator()
        resumed.restore_state(snapshot)
        replayed = resumed.process(rest, _ctx())
        assert [(e.timestamp, dict(e.payload)) for e in replayed] == [
            (e.timestamp, dict(e.payload)) for e in expected
        ]

    def test_reset_state_clears_waiting_summaries(self):
        operator = pair_operator()
        operator.process(self.events(5, 7), _ctx())
        assert operator.state_size() > 0
        operator.reset_state()
        assert operator.state_size() == 0
        assert operator.process(self.events(9), _ctx()) == []


# ---------------------------------------------------------------------------
# hypothesis: online == brute force
# ---------------------------------------------------------------------------


PROP_MODEL_QUERY = (
    "DERIVE SAggOut(COUNT(*), SUM(a.v), MIN(b.v), MAX(b.v)) "
    "PATTERN SEQ(SAggTick a, SAggTick b) "
    "WHERE a.v > 3 AND b.v < 17 CONTEXT always"
)


def prop_model() -> CaesarModel:
    model = CaesarModel(default_context="always")
    model.add_query(parse_query(PROP_MODEL_QUERY, name="prop"))
    return model


def brute_force(events):
    """SEQ pair aggregation straight from the semantics: every pair with
    strictly increasing timestamps and admissible values, grouped by the
    completion (second) timestamp."""
    matches = [
        (a, b)
        for a in events
        for b in events
        if a.timestamp < b.timestamp
        and "v" in a and a["v"] > 3
        and "v" in b and b["v"] < 17
    ]
    groups: dict = {}
    for a, b in matches:
        groups.setdefault(b.timestamp, []).append((a, b))
    rows = []
    for t in sorted(groups):
        pairs = groups[t]
        rows.append((
            min(a.time.start for a, _ in pairs),
            t,
            {
                "count": len(pairs),
                "v": sum(a["v"] for a, _ in pairs),
                "v2": min(b["v"] for _, b in pairs),
                "v3": max(b["v"] for _, b in pairs),
            },
        ))
    return rows


@st.composite
def tick_streams(draw):
    times = sorted(draw(st.lists(
        st.integers(min_value=-40, max_value=120), min_size=0, max_size=30,
    )))
    events = []
    for t in times:
        if draw(st.booleans()):
            payload = {"v": draw(st.integers(min_value=-5, max_value=25))}
        else:
            payload = {}  # missing aggregation attribute
        events.append(Event(TICK, t, payload))
    return events


def run_mode(events, mode):
    engine = create_engine(prop_model(), EngineConfig(
        retention=RETENTION, aggregation=mode,
    ))
    report = engine.run(EventStream(iter(events)), track_outputs=True)
    return [
        (e.time.start, e.timestamp, dict(e.payload))
        for e in report.outputs
        if e.type_name == "SAggOut"
    ]


class TestOnlineEqualsBruteForce:
    @given(tick_streams())
    @settings(max_examples=60, deadline=None)
    def test_online_matches_oracle(self, events):
        assert run_mode(events, "online") == brute_force(events)

    @given(tick_streams())
    @settings(max_examples=30, deadline=None)
    def test_materialize_matches_oracle_too(self, events):
        assert run_mode(events, "materialize") == brute_force(events)


# ---------------------------------------------------------------------------
# hypothesis: shared == nonshared (aggregate-state fusion)
# ---------------------------------------------------------------------------


def fused_window_specs():
    """Identical-span windows carrying fusable aggregates whose query
    names contain '+': same pattern and predicate, different columns."""
    q_count = parse_query(
        "DERIVE FuseCount(COUNT(*)) "
        "PATTERN SEQ(SAggTick a, SAggTick b) WHERE a.v > 3",
        name="fuse+count")
    q_stats = parse_query(
        "DERIVE FuseStats(SUM(a.v), MAX(b.v)) "
        "PATTERN SEQ(SAggTick a, SAggTick b) WHERE a.v > 3",
        name="fuse+stats")
    return [
        WindowSpec("early", start=0, end=200, queries=(q_count,)),
        WindowSpec("late", start=0, end=200, queries=(q_stats,)),
    ]


def run_workload(builder, events):
    engine = create_engine(
        builder(fused_window_specs(), retention=RETENTION)
    )
    report = engine.run(EventStream(iter(events)), track_outputs=True)
    return sorted(
        (e.timestamp, e.type_name, tuple(sorted(e.payload.items())))
        for e in report.outputs
    )


class TestSharedStateParity:
    @given(tick_streams())
    @settings(max_examples=30, deadline=None)
    def test_fused_equals_separate(self, events):
        # attribute-total streams: fusion's union-of-targets admission
        # rule (see test_union_admission_is_the_fused_semantics) only
        # coincides with per-query admission when every event carries
        # every aggregation attribute, which real typed streams do
        events = [
            e if "v" in e else Event(TICK, e.timestamp, {"v": 7})
            for e in events
            if e.timestamp >= 0
        ]
        shared = run_workload(build_shared_workload, events)
        nonshared = run_workload(build_nonshared_workload, events)
        assert shared == nonshared

    def test_union_admission_is_the_fused_semantics(self):
        """A fused operator admits an event only if it carries *every*
        aggregation attribute of the union across fused outputs — so a
        count-only query fused with a stats query adopts the stats
        query's attribute requirement.  On schema-total streams (every
        typed event carries its attributes) this is unobservable; the
        parity property above therefore generates total streams."""
        events = [
            Event(TICK, 1, {"v": 5}),
            Event(TICK, 2, {}),  # missing the fused target b.v
        ]
        shared = run_workload(build_shared_workload, events)
        nonshared = run_workload(build_nonshared_workload, events)
        # standalone FuseCount needs no b.v: it counts the pair
        assert (2, "FuseCount", (("count", 1),)) in nonshared
        # the fused pass drops the pair for every output
        assert shared == []

    def test_fusion_actually_happened(self):
        workload = build_shared_workload(
            fused_window_specs(), retention=RETENTION
        )
        aggregate_ops = [
            op
            for unit in workload.units
            for op in unit.plan.operators
            if isinstance(op, PatternAggregateOperator)
        ]
        assert len(aggregate_ops) == 1
        assert [o.event_type.name for o in aggregate_ops[0].outputs] == [
            "FuseCount", "FuseStats",
        ]
        names = {unit.plan.name for unit in workload.units}
        assert any("fuse+count+fuse+stats" in name for name in names)
