"""Property test: workload sharing is semantics-preserving.

Shared execution derives each match exactly once; non-shared execution
derives it once per user window covering it.  So for every derived event,
the non-shared multiplicity must equal the number of covering windows whose
workload contains the producing query — and deduplicating the non-shared
output must yield exactly the shared output.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import attr
from repro.api import create_engine
from repro.algebra.pattern import EventMatch
from repro.core.queries import EventQuery, QueryAction
from repro.core.windows import WindowSpec
from repro.events.event import Event
from repro.events.stream import EventStream
from repro.events.types import EventType
from repro.optimizer.sharing import (
    build_nonshared_workload,
    build_shared_workload,
)

READING = EventType.define("Reading", value="int", sec="int")
OUT = EventType.define("Out", value="int", sec="int")


def make_query(threshold):
    return EventQuery(
        name=f"q{threshold}",
        action=QueryAction.DERIVE,
        pattern=EventMatch("Reading", "r"),
        where=attr("value", "r").gt(threshold),
        derive_type=OUT,
        derive_items=(
            ("value", attr("value", "r")),
            ("sec", attr("sec", "r")),
        ),
    )


@st.composite
def scenario(draw):
    window_count = draw(st.integers(min_value=1, max_value=5))
    specs = []
    thresholds = [0, 5, 10]
    for index in range(window_count):
        start = draw(st.integers(min_value=0, max_value=80))
        length = draw(st.integers(min_value=10, max_value=60))
        chosen = draw(
            st.sets(st.sampled_from(thresholds), min_size=1, max_size=3)
        )
        specs.append(
            WindowSpec(
                name=f"w{index}",
                start=start,
                end=start + length,
                queries=tuple(make_query(t) for t in sorted(chosen)),
            )
        )
    times = draw(
        st.lists(
            st.integers(min_value=0, max_value=150), min_size=0, max_size=40
        )
    )
    events = [
        Event(READING, t, {"value": (i * 7) % 20, "sec": t})
        for i, t in enumerate(sorted(times))
    ]
    return specs, events


def run(workload_builder, specs, events):
    engine = create_engine(workload_builder(specs))
    return engine.run(EventStream(events))


def event_key(event):
    return (event["value"], event["sec"])


class TestSharingEquivalence:
    @given(scenario())
    @settings(max_examples=100, deadline=None)
    def test_shared_equals_deduplicated_nonshared(self, data):
        """Same derivation *set*; shared multiplicity counts each distinct
        query once, regardless of how many windows carry it."""
        specs, events = data
        shared = run(build_shared_workload, specs, events)
        nonshared = run(build_nonshared_workload, specs, events)
        shared_counts = Counter(event_key(e) for e in shared.outputs)
        nonshared_keys = {event_key(e) for e in nonshared.outputs}
        assert set(shared_counts) == nonshared_keys
        for event in events:
            t, value = event.timestamp, event["value"]
            distinct_satisfied = {
                query.signature()
                for spec in specs
                if spec.covers(t)
                for query in spec.queries
                if value > _threshold_of(query)
            }
            same_key = sum(
                1 for e in events
                if e.timestamp == t and e["value"] == value
            )
            assert shared_counts.get((value, t), 0) == (
                len(distinct_satisfied) * same_key
            )

    @given(scenario())
    @settings(max_examples=100, deadline=None)
    def test_nonshared_multiplicity_counts_covering_windows(self, data):
        specs, events = data
        nonshared = run(build_nonshared_workload, specs, events)
        counts = Counter(event_key(e) for e in nonshared.outputs)
        for event in events:
            t, value = event.timestamp, event["value"]
            expected = 0
            for spec in specs:
                if not spec.covers(t):
                    continue
                expected += sum(
                    1
                    for query in spec.queries
                    if value > _threshold_of(query)
                )
            actual = counts.get((value, t), 0)
            # several events may share (value, t); aggregate per key
            same_key = sum(
                1 for e in events
                if e.timestamp == t and e["value"] == value
            )
            assert actual == expected * same_key

    @given(scenario())
    @settings(max_examples=100, deadline=None)
    def test_shared_never_does_more_work(self, data):
        specs, events = data
        shared = run(build_shared_workload, specs, events)
        nonshared = run(build_nonshared_workload, specs, events)
        assert shared.cost_units <= nonshared.cost_units + 1e-9


def _threshold_of(query):
    # the query's WHERE is attr > Constant(threshold)
    return query.where.right.value
