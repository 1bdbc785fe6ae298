"""Tests for shared execution of grouped context windows (Section 5.3)."""

from repro.algebra.expressions import attr
from repro.api import create_engine
from repro.algebra.pattern import EventMatch
from repro.core.queries import EventQuery, QueryAction
from repro.core.windows import WindowSpec
from repro.events.event import Event
from repro.events.stream import EventStream
from repro.events.types import EventType
from repro.optimizer.sharing import (
    ExecutionUnit,
    SharedWorkload,
    build_nonshared_workload,
    build_shared_workload,
    _merge_intervals,
)

A = EventType.define("A", n="int")
OUT = EventType.define("Out", n="int")


def query(name, threshold):
    return EventQuery(
        name=name,
        action=QueryAction.DERIVE,
        pattern=EventMatch("A", "a"),
        where=attr("n", "a").gt(threshold),
        derive_type=OUT,
        derive_items=(("n", attr("n", "a")),),
    )


Q_SHARED = query("q_shared", 5)
Q_A = query("q_a", 1)
Q_B = query("q_b", 2)

SPECS = [
    WindowSpec("w1", start=0, end=30, queries=(Q_SHARED, Q_A)),
    WindowSpec("w2", start=20, end=50, queries=(Q_SHARED, Q_B)),
]


class TestIntervalMerge:
    def test_empty(self):
        assert _merge_intervals([]) == ()

    def test_disjoint_kept(self):
        assert _merge_intervals([(0, 5), (10, 15)]) == ((0, 5), (10, 15))

    def test_touching_coalesce(self):
        assert _merge_intervals([(0, 5), (5, 10)]) == ((0, 10),)

    def test_overlapping_coalesce(self):
        assert _merge_intervals([(0, 8), (5, 10)]) == ((0, 10),)

    def test_unsorted_input(self):
        assert _merge_intervals([(10, 15), (0, 5)]) == ((0, 5), (10, 15))


def covering(workload, t):
    """The units whose half-open activation intervals contain ``t``."""
    return [
        unit
        for unit in workload.units
        if any(start <= t < end for start, end in unit.intervals)
    ]


class TestSharedWorkload:
    def test_one_plan_per_distinct_query(self):
        workload = build_shared_workload(SPECS)
        assert workload.plan_count == 3  # q_shared, q_a, q_b
        assert workload.shared

    def test_shared_query_active_over_union(self):
        workload = build_shared_workload(SPECS)
        shared_unit = next(
            u for u in workload.units if "q_shared" in u.query_names
        )
        # active [0, 30) ∪ [20, 50) = [0, 50), merged into one interval so
        # partial matches survive across the grouped window boundaries
        assert shared_unit.intervals == ((0, 50),)

    def test_window_specific_queries_scoped(self):
        workload = build_shared_workload(SPECS)
        unit_a = next(u for u in workload.units if "q_a" in u.query_names)
        assert unit_a.intervals == ((0, 30),)

    def test_active_units_lookup(self):
        workload = build_shared_workload(SPECS)
        names_at_25 = {
            name
            for unit in covering(workload, 25)
            for name in unit.query_names
        }
        assert names_at_25 == {"q_shared", "q_a", "q_b"}
        names_at_40 = {
            name
            for unit in covering(workload, 40)
            for name in unit.query_names
        }
        assert names_at_40 == {"q_shared", "q_b"}

    def test_span(self):
        assert build_shared_workload(SPECS).span() == (0, 50)

    def test_identical_queries_in_different_windows_share_one_plan(self):
        clone = query("q_shared_clone", 5)  # same signature as Q_SHARED
        specs = [
            WindowSpec("w1", start=0, end=30, queries=(Q_SHARED,)),
            WindowSpec("w2", start=20, end=50, queries=(clone,)),
        ]
        workload = build_shared_workload(specs)
        assert workload.plan_count == 1


class TestNonSharedWorkload:
    def test_one_plan_per_window_query_pair(self):
        workload = build_nonshared_workload(SPECS)
        assert workload.plan_count == 4  # 2 windows × 2 queries
        assert not workload.shared

    def test_duplicated_query_runs_twice_in_overlap(self):
        workload = build_nonshared_workload(SPECS)
        active = covering(workload, 25)
        shared_instances = [
            u for u in active if "q_shared" in u.query_names
        ]
        assert len(shared_instances) == 2


class TestExecutionUnit:
    def test_active_at(self):
        # the engine runs a unit exactly inside its half-open intervals
        unit = ExecutionUnit(
            plan=build_shared_workload(SPECS).units[0].plan,
            intervals=((0, 10), (20, 30)),
        )
        workload = SharedWorkload(units=[unit], grouped=[], shared=True)
        stream = EventStream(
            Event(A, t, {"n": 10}) for t in (0, 9, 10, 15, 20, 25, 30)
        )
        report = create_engine(workload).run(stream)
        assert [e.timestamp for e in report.outputs] == [0, 9, 20, 25]

    def test_total_active_length(self):
        unit = ExecutionUnit(
            plan=build_shared_workload(SPECS).units[0].plan,
            intervals=((0, 10), (20, 30)),
        )
        assert unit.total_active_length() == 20
