"""Tests for the CAESAR engine (Section 6)."""

import pytest

from repro.core.model import CaesarModel
from repro.events.event import Event
from repro.events.stream import EventStream
from repro.events.types import EventType
from repro.language import parse_query
from repro.api import EngineConfig, create_engine
from repro.runtime.engine import CaesarEngine
from repro.core.windows import WindowSpec
from repro.optimizer.sharing import build_shared_workload

READING = EventType.define("Reading", value="int", sec="int", zone="int")


def alert_model():
    model = CaesarModel(default_context="normal")
    model.add_context("alert")
    model.add_query(
        parse_query(
            "INITIATE CONTEXT alert PATTERN Reading r WHERE r.value > 100 "
            "CONTEXT normal",
            name="raise_alert",
        )
    )
    model.add_query(
        parse_query(
            "TERMINATE CONTEXT alert PATTERN Reading r WHERE r.value <= 100 "
            "CONTEXT alert",
            name="clear_alert",
        )
    )
    model.add_query(
        parse_query(
            "DERIVE Alarm(r.value, r.sec) PATTERN Reading r CONTEXT alert",
            name="alarm",
        )
    )
    return model


def reading(t, value, zone=0):
    return Event(READING, t, {"value": value, "sec": t, "zone": zone})


def ramp_stream(zone=0):
    values = [50, 80, 120, 150, 90, 60, 130, 40]
    return EventStream(reading(i * 10, v, zone) for i, v in enumerate(values))


class TestContextDerivation:
    def test_windows_follow_the_data(self):
        engine = CaesarEngine(alert_model())
        report = engine.run(ramp_stream())
        windows = report.windows_by_partition[None]
        spans = [(w.context_name, w.start, w.end) for w in windows]
        assert ("alert", 20, 40) in spans
        assert ("alert", 60, 70) in spans

    def test_alarms_only_during_alert(self):
        engine = CaesarEngine(alert_model())
        report = engine.run(ramp_stream())
        alarm_values = sorted(e["value"] for e in report.outputs)
        assert alarm_values == [120, 130, 150]

    def test_derivation_precedes_processing_same_timestamp(self):
        """The batch that raises a context is processed within it."""
        engine = CaesarEngine(alert_model())
        report = engine.run(EventStream([reading(0, 500)]))
        assert len(report.outputs) == 1

    def test_termination_batch_not_processed_in_old_context(self):
        engine = CaesarEngine(alert_model())
        report = engine.run(
            EventStream([reading(0, 500), reading(10, 50)])
        )
        # the t=10 reading terminates the alert; no alarm derived for it
        assert [e["value"] for e in report.outputs] == [500]


class TestSuspension:
    def test_suspended_plans_do_no_work(self):
        engine = CaesarEngine(alert_model())
        report = engine.run(
            EventStream([reading(t, 10) for t in range(0, 100, 10)])
        )
        assert report.outputs == []
        assert report.suppressed_batches > 0

    def test_report_summary_fields(self):
        engine = CaesarEngine(alert_model(), seconds_per_cost_unit=1e-3)
        report = engine.run(ramp_stream())
        assert report.events_processed == 8
        assert report.batches == 8
        assert report.cost_units > 0
        assert report.max_latency >= report.mean_latency >= 0
        assert "events=8" in report.summary()
        assert report.throughput > 0


class TestPartitioning:
    def test_partitions_have_independent_contexts(self):
        engine = CaesarEngine(
            alert_model(), partition_by=lambda e: e["zone"]
        )
        events = sorted(
            [reading(0, 500, zone=1), reading(0, 50, zone=2),
             reading(10, 500, zone=1), reading(10, 50, zone=2)],
            key=lambda e: e.timestamp,
        )
        report = engine.run(EventStream(events))
        # only zone 1 ever entered the alert context
        assert all(e["value"] == 500 for e in report.outputs)
        assert len(report.outputs) == 2
        zone1_windows = report.windows_by_partition[1]
        zone2_windows = report.windows_by_partition[2]
        assert any(w.context_name == "alert" for w in zone1_windows)
        assert all(w.context_name == "normal" for w in zone2_windows)


class TestLatencyModes:
    def test_cost_based_latency_is_deterministic(self):
        reports = []
        for _ in range(2):
            engine = CaesarEngine(alert_model(), seconds_per_cost_unit=1e-3)
            reports.append(engine.run(ramp_stream()))
        assert reports[0].max_latency == reports[1].max_latency
        assert reports[0].cost_units == reports[1].cost_units

    def test_wall_clock_mode(self):
        engine = CaesarEngine(alert_model())
        report = engine.run(ramp_stream())
        assert report.max_latency >= 0


class TestSharedWorkloadRun:
    """A :class:`SharedWorkload` on the engine: each unit's context is
    opened and closed by the schedule at its interval bounds."""

    def make_workload(self):
        query = parse_query(
            "DERIVE Alarm(r.value) PATTERN Reading r WHERE r.value > 0",
            name="q",
        )
        specs = [WindowSpec("w", start=20, end=50, queries=(query,))]
        return build_shared_workload(specs)

    @staticmethod
    def pairs_query():
        return parse_query(
            "DERIVE Pair(a.value, b.value) "
            "PATTERN SEQ(Reading a, Reading b) WHERE a.value = b.value",
            name="pairs",
        )

    def pairs_workload(self, *windows):
        query = self.pairs_query()
        return build_shared_workload([
            WindowSpec(f"w{index}", start=start, end=end, queries=(query,))
            for index, (start, end) in enumerate(windows)
        ])

    @staticmethod
    def pairs(report):
        return [
            (e.start_time, e.timestamp)
            for e in report.outputs
            if e.type_name == "Pair"
        ]

    def test_units_active_only_inside_intervals(self):
        engine = create_engine(self.make_workload())
        stream = EventStream(reading(t, t + 1) for t in range(0, 80, 10))
        report = engine.run(stream)
        derived_times = sorted(e.timestamp for e in report.outputs)
        assert derived_times == [20, 30, 40]
        assert report.routed_batches == 3
        assert report.suppressed_batches == 5

    def test_context_independent_mode_processes_everything(self):
        engine = create_engine(self.make_workload(), context_aware=False)
        stream = EventStream(reading(t, t + 1) for t in range(0, 80, 10))
        report = engine.run(stream)
        assert len(report.outputs) == 8

    def test_state_reset_on_deactivation(self):
        engine = create_engine(self.pairs_workload((0, 15), (30, 60)))
        # a=7 at t=10 (window 1); b=7 at t=40 (window 2) — the partial
        # match from window 1 must NOT pair with window 2's event; the
        # batch at t=20 closes window 1
        stream = EventStream([
            reading(10, 7), reading(20, 0), reading(40, 7), reading(50, 7)
        ])
        assert self.pairs(engine.run(stream)) == [(40, 50)]

    @pytest.mark.parametrize("context_aware", [True, False])
    def test_state_reset_across_a_silent_gap(self, context_aware):
        # no batch arrives between the two intervals, so the unit's window
        # is still open at t=40 and must be closed and reopened there
        engine = create_engine(
            self.pairs_workload((0, 15), (30, 60)),
            context_aware=context_aware,
        )
        stream = EventStream([reading(10, 7), reading(40, 7), reading(50, 7)])
        assert self.pairs(engine.run(stream)) == [(40, 50)]

    def test_context_independent_window_opening_discards_prior_state(self):
        # the context-independent baseline sees a@10 outside the window;
        # the schedule's initiation at t=30 must count as one, so the
        # pre-window partial match is dropped before b@30 is processed
        engine = create_engine(
            self.pairs_workload((20, 50)), context_aware=False
        )
        stream = EventStream([reading(10, 7), reading(30, 7)])
        assert self.pairs(engine.run(stream)) == []

    def test_partials_survive_a_grouped_window_split(self):
        # "w2" splits "w1" into grouped windows [0, 20) and [20, 30); the
        # pairs unit's intervals merge back to [0, 30), so its context stays
        # open across the split and a@10 still pairs with b@25
        alarm = parse_query(
            "DERIVE Alarm(r.value) PATTERN Reading r", name="alarm"
        )
        workload = build_shared_workload([
            WindowSpec("w1", start=0, end=30, queries=(self.pairs_query(),)),
            WindowSpec("w2", start=20, end=50, queries=(alarm,)),
        ])
        assert len(workload.grouped) == 3
        stream = EventStream([reading(10, 7), reading(25, 7)])
        assert self.pairs(create_engine(workload).run(stream)) == [(10, 25)]

    def test_engine_retention_is_the_workloads(self):
        query = parse_query(
            "DERIVE Alarm(r.value) PATTERN Reading r", name="q"
        )
        workload = build_shared_workload(
            [WindowSpec("w", start=0, end=10, queries=(query,))],
            retention=42,
        )
        engine = create_engine(workload, EngineConfig(retention=7))
        assert engine.retention == 42
