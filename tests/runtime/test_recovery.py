"""Tests for checkpoint autosave and crash recovery by suffix replay."""

import json
import threading

import pytest

from repro.core.model import CaesarModel
from repro.errors import FatalEngineError
from repro.events.event import Event
from repro.events.stream import EventStream
from repro.events.types import EventType
from repro.language import parse_query
from repro.runtime import (
    CaesarEngine,
    EngineSession,
    RecoveryManager,
    SupervisedEngine,
    outputs_to_rows,
    report_to_dict,
)
from repro.testing import inject_plan_fault

READING = EventType.define("RecReading", value="int", sec="int")


def build_model():
    model = CaesarModel(default_context="normal")
    model.add_context("alert")
    model.add_query(parse_query(
        "INITIATE CONTEXT alert PATTERN RecReading r WHERE r.value > 100 "
        "CONTEXT normal", name="up"))
    model.add_query(parse_query(
        "TERMINATE CONTEXT alert PATTERN RecReading r WHERE r.value <= 100 "
        "CONTEXT alert", name="down"))
    # stateful: partial SEQ matches must survive the checkpoint round trip
    model.add_query(parse_query(
        "DERIVE Pair(a.sec, b.sec) PATTERN SEQ(RecReading a, RecReading b) "
        "WHERE a.value = b.value CONTEXT alert", name="pairs"))
    model.add_query(parse_query(
        "DERIVE Alarm(r.value) PATTERN RecReading r CONTEXT alert",
        name="alarm"))
    return model


def reading(t, value):
    return Event(READING, t, {"value": value, "sec": t})


VALUES = [50, 150, 170, 150, 90, 120, 120, 30, 140, 150, 20, 130, 130, 60]


def events():
    return [reading(t * 10, v) for t, v in enumerate(VALUES)]


def crash_and_collect(manager, crash_at):
    """Run a supervised engine until an injected crash; returns the outputs
    it managed to emit before dying."""
    engine = SupervisedEngine(build_model(), recovery=manager)
    inject_plan_fault(
        engine, "alert", plan_name="alarm", at_times={crash_at}, crash=True
    )
    session = EngineSession(engine)
    emitted = []
    with pytest.raises(FatalEngineError):
        for event in events():
            emitted.extend(session.feed([event]))
    return emitted


class TestDeterministicRecovery:
    @pytest.mark.parametrize("crash_at", [30, 60, 90, 120])
    def test_restore_plus_replay_is_byte_identical(self, crash_at):
        """Acceptance: crash at an arbitrary timestamp, restore the latest
        checkpoint, replay the suffix — the concatenated rows are
        byte-identical to the uninterrupted run."""
        reference = CaesarEngine(build_model()).run(EventStream(events()))
        reference_bytes = json.dumps(
            outputs_to_rows(reference), sort_keys=True
        )

        manager = RecoveryManager(interval=25)
        emitted = crash_and_collect(manager, crash_at)

        fresh = SupervisedEngine(build_model(), recovery=manager)
        watermark, replayed = manager.recover_and_replay(fresh, events())
        assert watermark is not None and watermark < crash_at

        reconstructed = [
            e for e in emitted if e.timestamp <= watermark
        ] + replayed
        assert json.dumps(
            outputs_to_rows(reconstructed), sort_keys=True
        ) == reference_bytes

    def test_recovery_without_checkpoint_replays_everything(self):
        manager = RecoveryManager(interval=25)
        fresh = SupervisedEngine(build_model(), recovery=manager)
        watermark, replayed = manager.recover_and_replay(fresh, events())
        assert watermark is None
        reference = CaesarEngine(build_model()).run(EventStream(events()))
        assert outputs_to_rows(replayed) == outputs_to_rows(reference.outputs)


class TestAutosave:
    def test_checkpoints_every_interval(self):
        manager = RecoveryManager(interval=40)
        engine = SupervisedEngine(build_model(), recovery=manager)
        engine.run(EventStream(events()))
        # batches at t=0,10,...,130; autosaves at 0, 40, 80, 120
        assert manager.checkpoints_taken == 4
        assert manager.watermark == 120

    def test_history_bound_keeps_newest(self):
        manager = RecoveryManager(interval=10, history=2)
        engine = SupervisedEngine(build_model(), recovery=manager)
        engine.run(EventStream(events()))
        assert manager.checkpoints_taken == len(VALUES)
        assert manager.stored_checkpoints == 2
        assert manager.watermark == 130

    def test_counters_reach_report(self):
        manager = RecoveryManager(interval=40)
        engine = SupervisedEngine(build_model(), recovery=manager)
        report = engine.run(EventStream(events()))
        supervision = report_to_dict(report)["supervision"]
        assert supervision["checkpoints_taken"] == 4
        assert supervision["recovery_replays"] == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="interval"):
            RecoveryManager(interval=0)
        with pytest.raises(ValueError, match="history"):
            RecoveryManager(interval=10, history=0)


class TestFallbackRestore:
    def test_corrupt_newest_falls_back_to_older(self):
        manager = RecoveryManager(interval=25)
        crash_and_collect(manager, crash_at=90)
        assert manager.stored_checkpoints >= 2
        newest_watermark = manager.watermark
        # corrupt the newest snapshot beyond restorability
        manager._checkpoints[-1] = (newest_watermark, {"version": 99})

        fresh = SupervisedEngine(build_model(), recovery=manager)
        watermark = manager.recover(fresh)
        assert watermark is not None
        assert watermark < newest_watermark
        assert manager.invalid_checkpoints == 1

        # the fallback checkpoint still satisfies the determinism contract
        replayed = manager.replay(fresh, events())
        reference = CaesarEngine(build_model()).run(EventStream(events()))
        suffix_reference = [
            e for e in reference.outputs if e.timestamp > watermark
        ]
        assert outputs_to_rows(replayed) == outputs_to_rows(suffix_reference)

    def test_all_corrupt_returns_none(self):
        manager = RecoveryManager(interval=25)
        crash_and_collect(manager, crash_at=90)
        stored = manager.stored_checkpoints
        manager._checkpoints = [
            (w, {"version": 99}) for w, _ in manager._checkpoints
        ]
        fresh = SupervisedEngine(build_model(), recovery=manager)
        assert manager.recover(fresh) is None
        assert manager.invalid_checkpoints == stored
        assert manager.recovery_replays == 0


def shard_threads():
    return {
        thread for thread in threading.enumerate()
        if thread.name.startswith("caesar-shard-") and thread.is_alive()
    }


class TestReplayEndsItsRun:
    """``replay`` must end the backend run it opens; the thread backend's
    ``caesar-shard-*`` workers make a leaked run observable."""

    def test_replay_leaves_no_shard_threads(self):
        manager = RecoveryManager(interval=25)
        crash_and_collect(manager, 90)
        before = shard_threads()
        fresh = SupervisedEngine(build_model(), recovery=manager, backend="thread")
        watermark, replayed = manager.recover_and_replay(fresh, events())
        assert not shard_threads() - before
        reference = CaesarEngine(build_model()).run(EventStream(events()))
        assert outputs_to_rows(replayed) == outputs_to_rows(
            [e for e in reference.outputs if e.timestamp > watermark]
        )
