"""Tests for engine checkpoint/restore."""

import pytest

from repro.core.model import CaesarModel
from repro.errors import CheckpointMismatchError, RuntimeEngineError
from repro.events.event import Event
from repro.events.types import EventType
from repro.language import parse_query
from repro.linearroad.stats import segment_stats_aggregator
from repro.runtime.checkpoint import capture_checkpoint, restore_checkpoint
from repro.runtime.engine import CaesarEngine
from repro.runtime.session import EngineSession

READING = EventType.define("Reading", value="int", sec="int", zone="int")


def build_model():
    model = CaesarModel(default_context="normal")
    model.add_context("alert")
    model.add_query(parse_query(
        "INITIATE CONTEXT alert PATTERN Reading r WHERE r.value > 100 "
        "CONTEXT normal", name="up"))
    model.add_query(parse_query(
        "TERMINATE CONTEXT alert PATTERN Reading r WHERE r.value <= 100 "
        "CONTEXT alert", name="down"))
    # a stateful query: pairs of equal readings within the alert window
    model.add_query(parse_query(
        "DERIVE Pair(a.sec, b.sec) PATTERN SEQ(Reading a, Reading b) "
        "WHERE a.value = b.value CONTEXT alert", name="pairs"))
    model.add_query(parse_query(
        "DERIVE Alarm(r.value) PATTERN Reading r CONTEXT alert",
        name="alarm"))
    return model


def reading(t, value, zone=0):
    return Event(READING, t, {"value": value, "sec": t, "zone": zone})


VALUES = [50, 150, 170, 150, 90, 120, 120, 30]


def outputs_key(events):
    return sorted(
        (e.type_name, e.start_time, e.timestamp,
         str(sorted(e.payload.items())))
        for e in events
    )


class TestCheckpointRoundTrip:
    def test_resume_equals_uninterrupted_run(self):
        events = [reading(t * 10, v) for t, v in enumerate(VALUES)]
        split = 4  # mid-alert, with a live partial match

        # uninterrupted reference
        reference = EngineSession(CaesarEngine(build_model()))
        reference_outputs = reference.feed(events)

        # interrupted run: process the prefix, checkpoint, restore into a
        # brand-new engine, process the suffix
        first = EngineSession(CaesarEngine(build_model()))
        prefix_outputs = first.feed(events[:split])
        checkpoint = capture_checkpoint(first.engine)

        resumed_engine = CaesarEngine(build_model())
        restore_checkpoint(resumed_engine, checkpoint)
        second = EngineSession(resumed_engine)
        suffix_outputs = second.feed(events[split:])

        assert outputs_key(prefix_outputs + suffix_outputs) == outputs_key(
            reference_outputs
        )

    def test_checkpoint_is_replayable(self):
        """Restoring the same checkpoint twice yields identical behavior."""
        events = [reading(t * 10, v) for t, v in enumerate(VALUES)]
        split = 3
        base = EngineSession(CaesarEngine(build_model()))
        base.feed(events[:split])
        checkpoint = capture_checkpoint(base.engine)

        results = []
        for _ in range(2):
            engine = CaesarEngine(build_model())
            restore_checkpoint(engine, checkpoint)
            session = EngineSession(engine)
            results.append(outputs_key(session.feed(events[split:])))
        assert results[0] == results[1]

    def test_context_windows_survive(self):
        events = [reading(t * 10, v) for t, v in enumerate(VALUES[:3])]
        session = EngineSession(CaesarEngine(build_model()))
        session.feed(events)
        checkpoint = capture_checkpoint(session.engine)
        engine = CaesarEngine(build_model())
        restore_checkpoint(engine, checkpoint)
        store = engine.partition_store(None)
        assert store.active_contexts() == ("alert",)
        assert store.open_window("alert").start == 10

    def test_partitioned_checkpoint(self):
        events = []
        for t, v in enumerate(VALUES[:4]):
            events.append(reading(t * 10, v, zone=1))
            events.append(reading(t * 10, 10, zone=2))
        first = EngineSession(
            CaesarEngine(build_model(), partition_by=lambda e: e["zone"])
        )
        first.feed(events)
        checkpoint = capture_checkpoint(first.engine)
        engine = CaesarEngine(build_model(), partition_by=lambda e: e["zone"])
        restore_checkpoint(engine, checkpoint)
        assert engine.partition_store(1).active_contexts() == ("alert",)
        assert engine.partition_store(2).active_contexts() == ("normal",)

    def test_preprocessor_state_round_trips(self):
        from repro.linearroad.queries import (
            build_traffic_model,
            segment_partitioner,
        )
        from repro.linearroad.schema import POSITION_REPORT

        engine = CaesarEngine(
            build_traffic_model(),
            preprocessors=(segment_stats_aggregator(),),
            partition_by=segment_partitioner,
        )
        session = EngineSession(engine)
        session.feed([
            Event(POSITION_REPORT, 0, {
                "vid": 1, "sec": 0, "speed": 30, "xway": 0,
                "lane": "middle", "dir": 0, "seg": 0, "pos": 100,
            })
        ])
        checkpoint = capture_checkpoint(engine)
        engine2 = CaesarEngine(
            build_traffic_model(),
            preprocessors=(segment_stats_aggregator(),),
            partition_by=segment_partitioner,
        )
        restore_checkpoint(engine2, checkpoint)
        aggregate = engine2._partition((0, 0, 0)).preprocessors[0]
        assert aggregate.state_size() == 1


class TestCheckpointValidation:
    def test_version_checked(self):
        engine = CaesarEngine(build_model())
        with pytest.raises(RuntimeEngineError, match="version"):
            restore_checkpoint(engine, {"version": 99})

    def test_version_2_checkpoint_refused(self):
        """Version 2 plans ran every SEQ's WHERE in a Filter above the
        pattern: their snapshots map onto other operators and may hold
        partials the placed conjuncts would never have stored."""
        session = EngineSession(CaesarEngine(build_model()))
        session.feed([reading(t * 10, v) for t, v in enumerate(VALUES[:4])])
        checkpoint = capture_checkpoint(session.engine)
        assert checkpoint["version"] == 3
        checkpoint["version"] = 2
        with pytest.raises(
            RuntimeEngineError, match="unsupported checkpoint version: 2"
        ):
            restore_checkpoint(CaesarEngine(build_model()), checkpoint)

    def test_context_set_checked(self):
        engine = CaesarEngine(build_model())
        checkpoint = capture_checkpoint(engine)
        other = CaesarModel(default_context="normal")
        other.add_context("different")
        with pytest.raises(RuntimeEngineError, match="different contexts"):
            restore_checkpoint(CaesarEngine(other), checkpoint)

    def test_default_context_checked(self):
        engine = CaesarEngine(build_model())
        checkpoint = capture_checkpoint(engine)
        other = CaesarModel(default_context="idle")
        other.add_context("alert")
        other.add_context("normal")
        checkpoint["contexts"] = tuple(other.context_names)
        with pytest.raises(RuntimeEngineError, match="default context"):
            restore_checkpoint(CaesarEngine(other), checkpoint)

    @pytest.mark.parametrize("flag", ["context_aware", "optimize"])
    def test_engine_flag_mismatch_names_the_flag(self, flag):
        """A checkpoint is only valid for a structurally equivalent engine:
        restoring into one built with different ``context_aware``/
        ``optimize`` flags raises, and the message names the flag."""
        engine = CaesarEngine(build_model())
        checkpoint = capture_checkpoint(engine)
        other = CaesarEngine(build_model(), **{flag: False})
        with pytest.raises(CheckpointMismatchError, match=flag):
            restore_checkpoint(other, checkpoint)

    def test_mismatch_error_is_a_runtime_engine_error(self):
        assert issubclass(CheckpointMismatchError, RuntimeEngineError)


NEG_REPORT = EventType.define(
    "NegReport", subject="int", spike="int", move="int", sec="int"
)


def build_negation_model():
    """A model whose live state includes both partial SEQ matches and
    pending trailing-negation deadlines."""
    model = CaesarModel(default_context="rest")
    model.add_context("active")
    model.add_query(parse_query(
        "INITIATE CONTEXT active PATTERN NegReport r WHERE r.move > 5 "
        "CONTEXT rest", name="activate"))
    model.add_query(parse_query(
        "TERMINATE CONTEXT active PATTERN NegReport r WHERE r.move = 0 "
        "CONTEXT active", name="deactivate"))
    model.add_query(parse_query(
        "DERIVE FallWarning(s.subject, s.sec) "
        "PATTERN SEQ(NegReport s, NOT NegReport m) "
        "WHERE s.spike > 20 AND m.subject = s.subject AND m.move > 2 "
        "WITHIN 15 CONTEXT rest",
        name="fall"))
    model.add_query(parse_query(
        "DERIVE Spike(a.sec, b.sec) "
        "PATTERN SEQ(NegReport a, NegReport b) "
        "WHERE a.spike > 20 AND b.spike > 20 CONTEXT rest",
        name="spikes"))
    return model


class TestCheckpointPickling:
    def test_pickled_checkpoint_round_trips_live_pattern_state(self):
        """A checkpoint is picklable even when it carries partial SEQ
        matches and pending negation deadlines, and the unpickled copy
        restores to identical replay behavior."""
        import pickle

        def neg_report(t, spike=0, move=0):
            return Event(
                NEG_REPORT, t,
                {"subject": 1, "spike": spike, "move": move, "sec": t},
            )

        events = [
            neg_report(0, spike=30),   # fall candidate: pending deadline
            neg_report(5, spike=25),   # partial SEQ(a, b) match + candidate
            neg_report(20, move=0),    # past the 15s deadline: warnings fire
            neg_report(25, spike=40),  # second element of a Spike pair
        ]
        split = 2  # checkpoint while deadlines and partials are live

        reference = EngineSession(CaesarEngine(build_negation_model()))
        reference_outputs = reference.feed(events)

        first = EngineSession(CaesarEngine(build_negation_model()))
        prefix_outputs = first.feed(events[:split])
        checkpoint = pickle.loads(pickle.dumps(
            capture_checkpoint(first.engine)
        ))

        resumed = CaesarEngine(build_negation_model())
        restore_checkpoint(resumed, checkpoint)
        suffix_outputs = EngineSession(resumed).feed(events[split:])

        assert outputs_key(prefix_outputs + suffix_outputs) == outputs_key(
            reference_outputs
        )
        # the round trip preserved what matters: the deadline actually fired
        assert any(
            e.type_name == "FallWarning" for e in suffix_outputs
        )
        assert any(e.type_name == "Spike" for e in suffix_outputs)
