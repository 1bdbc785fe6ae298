"""Tests for online query/context deployment on a live engine.

The contract: ``deploy_query``/``retire_query``/``deploy_context`` splice
rebuilt plans into live partitions without losing surviving queries'
pattern state, and from its activation watermark onward a deployed query
behaves exactly as on an engine that had it from the start.
"""

import pytest

from repro.core.model import CaesarModel, ModelError
from repro.errors import RuntimeEngineError
from repro.events.event import Event
from repro.events.stream import EventStream
from repro.events.types import EventType
from repro.language import parse_query
from repro.runtime import (
    CaesarEngine,
    EngineSession,
    EngineService,
    SupervisedEngine,
    outputs_to_rows,
)

READING = EventType.define("OdReading", value="int", sec="int", zone="int")


def live_engine():
    # online deployment requires in-process partition state: pin serial
    # even under a fleet-wide CAESAR_BACKEND=process
    return CaesarEngine(build_model(), backend="serial")


def build_model():
    model = CaesarModel(default_context="normal")
    model.add_context("alert")
    model.add_query(parse_query(
        "INITIATE CONTEXT alert PATTERN OdReading r WHERE r.value > 100 "
        "CONTEXT normal", name="up"))
    model.add_query(parse_query(
        "TERMINATE CONTEXT alert PATTERN OdReading r WHERE r.value <= 100 "
        "CONTEXT alert", name="down"))
    model.add_query(parse_query(
        "DERIVE Alarm(r.value, r.sec) PATTERN OdReading r CONTEXT alert",
        name="alarm"))
    # a two-event sequence whose partial matches must survive a splice
    model.add_query(parse_query(
        "DERIVE Pair(a.sec, b.sec) PATTERN SEQ(OdReading a, OdReading b) "
        "WHERE a.value = b.value CONTEXT alert", name="pairs"))
    return model


def spike_query():
    return parse_query(
        "DERIVE Spike(r.value, r.sec) PATTERN OdReading r "
        "WHERE r.value > 160 CONTEXT alert", name="spike")


def reading(t, value, zone=0):
    return Event(READING, t, {"value": value, "sec": t, "zone": zone})


def by_zone(event):
    return event["zone"]


PREFIX = [reading(0, 50), reading(10, 150), reading(20, 170)]
SUFFIX = [reading(30, 170), reading(40, 120), reading(50, 30)]


class TestDeployQuery:
    def test_new_query_fires_from_activation_watermark(self):
        session = EngineSession(live_engine())
        session.feed(PREFIX)
        session.engine.deploy_query(spike_query())
        outputs = session.feed(SUFFIX)
        report = session.close()
        # the t=30 spike (value 170 > 160) is after the watermark: emitted
        assert "Spike" in report.outputs_by_type
        assert [e.timestamp for e in outputs if e.type_name == "Spike"] == [30]

    def test_partial_matches_survive_the_splice(self):
        # a=170@20 (before deploy) pairs with b=170@30 (after): the SEQ
        # plan's partial match must survive the plan swap
        session = EngineSession(live_engine())
        session.feed(PREFIX)
        session.engine.deploy_query(spike_query())
        outputs = session.feed(SUFFIX)
        session.close()
        assert any(e.type_name == "Pair" and e.timestamp == 30
                   for e in outputs)

    def test_duplicate_name_rejected_and_model_unchanged(self):
        engine = live_engine()
        session = EngineSession(engine)
        session.feed(PREFIX)
        with pytest.raises(ModelError):
            engine.deploy_query(parse_query(
                "DERIVE Alarm2(r.sec) PATTERN OdReading r CONTEXT alert",
                name="alarm"))
        # the engine keeps working under the unchanged model
        outputs = session.feed(SUFFIX)
        session.close()
        assert any(e.type_name == "Alarm" for e in outputs)

    def test_requires_local_state_backend(self):
        from repro.runtime import ProcessPoolBackend

        engine = CaesarEngine(
            build_model(),
            partition_by=by_zone,
            backend=ProcessPoolBackend(max_workers=2),
        )
        with pytest.raises(RuntimeEngineError, match="in-process"):
            engine.deploy_query(spike_query())


class TestRetireQuery:
    def test_retired_query_stops_firing_others_keep_state(self):
        session = EngineSession(live_engine())
        session.feed(PREFIX)
        session.engine.retire_query("alarm")
        outputs = session.feed(SUFFIX)
        report = session.close()
        assert not any(e.type_name == "Alarm" for e in outputs)
        # the surviving SEQ query still completes across the splice
        assert any(e.type_name == "Pair" and e.timestamp == 30
                   for e in outputs)
        assert report.outputs_by_type.get("Alarm") == 2  # prefix only

    def test_unknown_name_raises(self):
        engine = live_engine()
        with pytest.raises(ModelError, match="no query named"):
            engine.retire_query("nope")


class TestDeployContext:
    def test_context_then_queries_into_it(self):
        engine = live_engine()
        session = EngineSession(engine)
        session.feed(PREFIX)
        engine.deploy_context("audit")
        engine.deploy_query(parse_query(
            "INITIATE CONTEXT audit PATTERN OdReading r WHERE r.value > 150 "
            "CONTEXT alert", name="start_audit"))
        engine.deploy_query(parse_query(
            "DERIVE Audit(r.sec) PATTERN OdReading r CONTEXT audit",
            name="audit_trail"))
        outputs = session.feed(SUFFIX)
        session.close()
        assert any(e.type_name == "Audit" for e in outputs)

    def test_existing_bits_carry_over(self):
        engine = live_engine()
        session = EngineSession(engine)
        session.feed(PREFIX)  # alert active after value 150/170
        assert session.active_contexts() == ("alert",)
        engine.deploy_context("zz_late")
        assert session.active_contexts() == ("alert",)


class TestSupervisedSplice:
    def test_spliced_plans_stay_guarded(self):
        from repro.runtime.supervisor import _GuardedPlan

        engine = SupervisedEngine(
            build_model(), failure_threshold=1, cooldown=1000,
            backend="serial",
        )
        session = EngineSession(engine)
        session.feed(PREFIX)
        before = engine._partition(None).processing_router.plan_for("alert")
        assert isinstance(before, _GuardedPlan)
        engine.deploy_query(spike_query())
        after = engine._partition(None).processing_router.plan_for("alert")
        # a fresh guard around the fresh plan — but the same breaker, so
        # failure history survives the splice
        assert isinstance(after, _GuardedPlan)
        assert after is not before
        assert after._breaker is before._breaker
        session.feed(SUFFIX)
        report = session.close()
        assert report.outputs_by_type.get("Spike") == 1

    def test_deployment_still_works_supervised_end_to_end(self):
        expected = EngineSession(
            SupervisedEngine(build_model(), backend="serial")
        )
        expected.feed(PREFIX)
        expected.engine.deploy_query(spike_query())
        outputs = expected.feed(SUFFIX)
        expected.close()
        assert [e.timestamp for e in outputs if e.type_name == "Spike"] == [30]


class TestServiceDeployment:
    def test_matches_engine_with_query_from_watermark(self):
        # reference: run prefix, checkpoint, restore into an engine whose
        # model has the spike query, run suffix
        from repro.runtime import capture_checkpoint, restore_checkpoint

        base = live_engine()
        base.run(EventStream(PREFIX))
        checkpoint = capture_checkpoint(base)
        upgraded_model = build_model()
        upgraded_model.add_query(spike_query())
        reference = CaesarEngine(upgraded_model, backend="serial")
        restore_checkpoint(reference, checkpoint)
        ref_suffix = reference.run(EventStream(SUFFIX))

        service = EngineService(
            live_engine(), on_emit=lambda e: None
        )
        service.extend(PREFIX)
        watermark = service.deploy_query(spike_query())
        assert watermark == 20  # everything submitted before committed
        service.extend(SUFFIX)
        report = service.stop()
        suffix_rows = [
            row for row in outputs_to_rows(report) if row["time"] >= 30
        ]
        assert suffix_rows == outputs_to_rows(ref_suffix)

    def test_retire_through_service(self):
        service = EngineService(
            live_engine(), on_emit=lambda e: None
        )
        service.extend(PREFIX)
        watermark = service.retire_query("alarm")
        assert watermark == 20
        service.extend(SUFFIX)
        report = service.stop()
        assert report.outputs_by_type.get("Alarm") == 2

    def test_failed_op_propagates_and_service_survives(self):
        service = EngineService(
            live_engine(), on_emit=lambda e: None
        )
        service.extend(PREFIX)
        with pytest.raises(ModelError):
            service.retire_query("nope")
        service.extend(SUFFIX)
        report = service.stop()
        assert report.events_processed == len(PREFIX) + len(SUFFIX)
