"""Tests for the context-aware load shedder and its engine wiring."""

import multiprocessing

import pytest

from repro import (
    CaesarModel,
    EngineConfig,
    SheddingConfig,
    create_engine,
    parse_query,
)
from repro.api import SupervisionConfig
from repro.events import Event, EventStream, EventType
from repro.runtime import DeadLetterQueue, REASON_SHED
from repro.runtime.reporting import REPORT_SCHEMA_VERSION, report_to_dict
from repro.runtime.shedding import (
    DECISION_PROTECTED,
    LoadShedder,
    OverloadController,
    SHED_ENV_VAR,
    _PRESSURE_GRID,
    _unit_hash,
    event_value_key,
    resolve_shedding,
)

TRIGGER = EventType.define("ShedTrigger", level="int")
READING = EventType.define("ShedReading", value="int", sec="int")
KEEP = EventType.define("ShedKeep", value="int", sec="int")
NOISE = EventType.define("ShedNoise", n="int")


def build_model():
    """normal (default) consumes ShedKeep; alert consumes ShedReading;
    ShedTrigger drives the alert context; ShedNoise interests nobody."""
    model = CaesarModel(default_context="normal")
    model.add_context("normal")
    model.add_context("alert")
    model.add_query(parse_query(
        "INITIATE CONTEXT alert PATTERN ShedTrigger t "
        "WHERE t.level > 0 CONTEXT normal", name="raise_alert"))
    model.add_query(parse_query(
        "TERMINATE CONTEXT alert PATTERN ShedTrigger t "
        "WHERE t.level <= 0 CONTEXT alert", name="clear_alert"))
    model.add_query(parse_query(
        "DERIVE Heartbeat(k.value, k.sec) PATTERN ShedKeep k CONTEXT normal",
        name="heartbeat"))
    model.add_query(parse_query(
        "DERIVE Alarm(r.value, r.sec) PATTERN ShedReading r CONTEXT alert",
        name="alarm"))
    return model


def calm_stream(n=30):
    """No triggers: alert stays inactive, so readings are warm ballast."""
    events = []
    for t in range(n):
        events.append(Event(KEEP, t, {"value": t, "sec": t}))
        events.append(Event(READING, t, {"value": t, "sec": t}))
        events.append(Event(NOISE, t, {"n": t}))
    return events


def canon(report):
    return sorted(
        (e.type_name, e.timestamp, tuple(sorted(e.payload.items())))
        for e in report.outputs
    )


class TestResolve:
    def test_defaults_to_off(self, monkeypatch):
        monkeypatch.delenv(SHED_ENV_VAR, raising=False)
        assert resolve_shedding(None) is None

    @pytest.mark.parametrize("value", ["", "off", "0", "false", "none"])
    def test_off_values(self, value):
        assert resolve_shedding(value) is None

    @pytest.mark.parametrize("value", ["on", "1", "true", "enabled"])
    def test_on_values(self, value):
        assert resolve_shedding(value) == SheddingConfig()

    def test_env_var_consulted_when_unspecified(self, monkeypatch):
        monkeypatch.setenv(SHED_ENV_VAR, "on")
        assert resolve_shedding(None) == SheddingConfig()
        monkeypatch.setenv(SHED_ENV_VAR, "off")
        assert resolve_shedding(None) is None

    def test_bool_and_config_specs(self):
        assert resolve_shedding(True) == SheddingConfig()
        assert resolve_shedding(False) is None
        config = SheddingConfig(seed=5)
        assert resolve_shedding(config) is config
        assert resolve_shedding(SheddingConfig(enabled=False)) is None

    def test_kv_spec(self):
        config = resolve_shedding(
            "latency_target=2.5,cost_rate=40,seed=9,record_decisions=on"
        )
        assert config.latency_target == 2.5
        assert config.cost_rate == 40.0
        assert config.seed == 9
        assert config.record_decisions is True

    def test_kv_spec_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown"):
            resolve_shedding("latency=1.0")

    def test_kv_spec_rejects_bare_token(self):
        with pytest.raises(ValueError, match="key=value"):
            resolve_shedding("fast")

    def test_priorities_mapping_normalized(self):
        config = SheddingConfig(context_priorities={"b": 0.2, "a": 0.9})
        assert config.context_priorities == (("a", 0.9), ("b", 0.2))
        assert config.priority("a") == 0.9
        assert config.priority("missing") == 0.5

    def test_validation(self):
        with pytest.raises(ValueError, match="max_shed_fraction"):
            SheddingConfig(max_shed_fraction=1.5)
        with pytest.raises(ValueError, match="priority"):
            SheddingConfig(context_priorities={"x": 2.0})
        with pytest.raises(ValueError, match="fixed_pressure"):
            SheddingConfig(fixed_pressure=-0.1)


class TestController:
    def test_zero_pressure_under_target(self):
        controller = OverloadController(SheddingConfig(latency_target=1.0))
        assert controller.update(dt=1.0, latency=0.5, depth=None) == 0.0

    def test_pressure_rises_with_overshoot_and_integral(self):
        controller = OverloadController(SheddingConfig(latency_target=1.0))
        first = controller.update(dt=1.0, latency=1.5, depth=None)
        second = controller.update(dt=1.0, latency=1.5, depth=None)
        assert 0.0 < first < 1.0
        assert second > first  # the integral term accumulates

    def test_integral_is_clamped(self):
        config = SheddingConfig(latency_target=1.0, ki=0.5)
        controller = OverloadController(config)
        for _ in range(100):
            controller.update(dt=10.0, latency=100.0, depth=None)
        assert controller.integral <= 1.0 / config.ki

    def test_pressure_is_quantized(self):
        controller = OverloadController(SheddingConfig(latency_target=3.0))
        pressure = controller.update(dt=1.0, latency=3.7, depth=None)
        assert pressure == round(pressure * _PRESSURE_GRID) / _PRESSURE_GRID

    def test_depth_target(self):
        controller = OverloadController(SheddingConfig(depth_target=10))
        assert controller.update(dt=1.0, latency=None, depth=5) == 0.0
        assert controller.update(dt=1.0, latency=None, depth=40) > 0.0


class TestSampling:
    def test_unit_hash_is_deterministic_and_uniform_ish(self):
        values = [_unit_hash(2016, 42, i) for i in range(200)]
        assert values == [_unit_hash(2016, 42, i) for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.3 < sum(values) / len(values) < 0.7

    def test_event_value_key_matches_across_objects(self):
        a = Event(NOISE, 3, {"n": 7})
        b = Event(NOISE, 3, {"n": 7})
        assert a.event_id != b.event_id
        assert event_value_key(a) == event_value_key(b)


class TestClassification:
    def test_full_pressure_sheds_cold_and_warm_only(self):
        stream = calm_stream()
        off = create_engine(build_model()).run(EventStream(stream))
        engine = create_engine(
            build_model(),
            EngineConfig(shedding=SheddingConfig(
                fixed_pressure=1.0, record_decisions=True,
            )),
        )
        on = engine.run(EventStream(stream))
        assert on.shed_events > 0
        assert set(on.shed_by_class) <= {"cold", "warm"}
        assert on.shed_by_class.get("cold", 0) > 0
        assert on.shed_by_class.get("warm", 0) > 0
        # warm sheds are attributed to the interested context, cold to none
        assert set(on.shed_by_context) <= {"alert", "(none)"}
        # ShedKeep feeds the active default context: never shed
        shed_types = {key[0] for key in engine.shedder.shed_event_keys}
        assert "ShedKeep" not in shed_types
        assert "ShedTrigger" not in shed_types
        # and the outputs are identical anyway: warm readings feed a plan
        # that is suspended in the unshedded run too
        assert canon(on) == canon(off)

    def test_deriving_interest_forces_whole_batch_protection(self):
        """A same-timestamp trigger makes every context count as active."""
        stream = [
            Event(TRIGGER, 0, {"level": 1}),
            Event(READING, 0, {"value": 9, "sec": 0}),
        ]
        engine = create_engine(
            build_model(),
            EngineConfig(shedding=SheddingConfig(
                fixed_pressure=1.0, record_decisions=True,
            )),
        )
        report = engine.run(EventStream(stream))
        assert report.shed_events == 0
        assert report.protected_events == 2
        (_, codes), = engine.shedder.decisions
        assert set(codes) == {DECISION_PROTECTED}

    def test_active_context_events_protected_after_activation(self):
        """Once alert is active, readings are rung-3 protected."""
        stream = [Event(TRIGGER, 0, {"level": 1})]
        for t in range(1, 10):
            stream.append(Event(READING, t, {"value": t, "sec": t}))
        engine = create_engine(
            build_model(),
            EngineConfig(shedding=SheddingConfig(fixed_pressure=1.0)),
        )
        report = engine.run(EventStream(stream))
        assert report.shed_events == 0
        assert report.outputs_by_type.get("Alarm") == 9

    def test_retained_tick_keeps_partition_clock(self):
        """An all-sheddable batch retains one event as a tick."""
        stream = []
        for t in range(20):
            stream.append(Event(NOISE, t, {"n": t}))
        off = create_engine(build_model()).run(EventStream(stream))
        on = create_engine(
            build_model(),
            EngineConfig(shedding=SheddingConfig(
                fixed_pressure=1.0, max_shed_fraction=1.0,
            )),
        ).run(EventStream(stream))
        assert on.shed_ticks == 20  # one retained event per batch
        assert on.shed_events == 0  # every event became the tick
        assert canon(on) == canon(off)
        assert on.events_processed == off.events_processed

    def test_suspension_sheds_low_priority_active_context(self):
        stream = [Event(TRIGGER, 0, {"level": 1})]
        for t in range(1, 20):
            stream.append(Event(READING, t, {"value": t, "sec": t}))
            stream.append(Event(KEEP, t, {"value": t, "sec": t}))
        engine = create_engine(
            build_model(),
            EngineConfig(shedding=SheddingConfig(
                fixed_pressure=1.0,
                context_priorities={"alert": 0.1},
                suspend_below_priority=0.4,
            )),
        )
        off = create_engine(build_model()).run(EventStream(stream))
        assert off.outputs_by_type.get("Alarm") == 19
        report = engine.run(EventStream(stream))
        assert report.suspended_contexts == ("alert",)
        assert report.shed_by_class.get("suspended", 0) > 10
        assert report.shed_by_context.get("alert", 0) > 10
        # suspension deliberately sacrifices the low-value context's output
        assert report.outputs_by_type.get("Alarm", 0) < 19

    def test_suspension_off_by_default(self):
        stream = [Event(TRIGGER, 0, {"level": 1})]
        for t in range(1, 10):
            stream.append(Event(READING, t, {"value": t, "sec": t}))
        report = create_engine(
            build_model(),
            EngineConfig(shedding=SheddingConfig(
                fixed_pressure=1.0,
                context_priorities={"alert": 0.1},
            )),
        ).run(EventStream(stream))
        assert report.suspended_contexts == ()
        assert "suspended" not in report.shed_by_class


class TestDeterminism:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="process backend requires the fork start method",
    )
    @pytest.mark.parametrize("backend", ["process"])
    def test_digest_matches_serial(self, backend):
        stream = calm_stream()
        config = SheddingConfig(fixed_pressure=0.7, record_decisions=True)
        reports = {}
        for name in ("serial", backend):
            engine = create_engine(
                build_model(),
                EngineConfig(shedding=config, backend=name),
            )
            reports[name] = engine.run(EventStream(stream))
        assert (
            reports["serial"].shed_decision_digest
            == reports[backend].shed_decision_digest
        )
        assert reports["serial"].shed_events == reports[backend].shed_events

    def test_same_seed_same_digest_different_seed_differs(self):
        stream = calm_stream()

        def digest(seed):
            engine = create_engine(
                build_model(),
                EngineConfig(shedding=SheddingConfig(
                    fixed_pressure=0.7, seed=seed,
                )),
            )
            return engine.run(EventStream(stream)).shed_decision_digest

        assert digest(1) == digest(1)
        assert digest(1) != digest(2)

    def test_controller_driven_run_is_reproducible(self):
        stream = calm_stream(60)
        config = SheddingConfig(latency_target=0.5, cost_rate=2.0)

        def run():
            engine = create_engine(
                build_model(), EngineConfig(shedding=config)
            )
            return engine.run(EventStream(stream))

        first, second = run(), run()
        assert first.shed_decision_digest == second.shed_decision_digest
        assert first.shed_by_class == second.shed_by_class
        assert canon(first) == canon(second)


class TestWiring:
    def test_off_is_a_strict_noop(self, monkeypatch):
        monkeypatch.delenv(SHED_ENV_VAR, raising=False)
        engine = create_engine(build_model())
        assert engine.shedder is None
        report = engine.run(EventStream(calm_stream()))
        assert report.shed_events == 0
        assert report.shed_decision_digest == ""
        assert report_to_dict(report)["overload"]["decision_digest"] == ""

    def test_env_var_enables_passthrough_defaults(self, monkeypatch):
        monkeypatch.setenv(SHED_ENV_VAR, "on")
        engine = create_engine(build_model())
        assert engine.shedder is not None
        report = engine.run(EventStream(calm_stream()))
        # no targets configured: pressure stays zero, nothing sheds
        assert report.shed_events == 0
        assert report.protected_events + report.sampled_events > 0
        assert report.shed_decision_digest != ""

    def test_report_to_dict_overload_schema(self):
        engine = create_engine(
            build_model(),
            EngineConfig(shedding=SheddingConfig(fixed_pressure=1.0)),
        )
        data = report_to_dict(engine.run(EventStream(calm_stream())))
        assert REPORT_SCHEMA_VERSION >= 4
        assert data["schema_version"] == REPORT_SCHEMA_VERSION
        overload = data["overload"]
        assert overload["shed_events"] > 0
        assert overload["pressure_peak"] == 1.0
        assert overload["shed_by_class"]
        assert len(overload["decision_digest"]) == 32
        assert "dead_letter_dropped_by_reason" in data["supervision"]

    def test_metrics_visible_at_default_observability(self):
        engine = create_engine(
            build_model(),
            EngineConfig(
                shedding=SheddingConfig(fixed_pressure=1.0),
                observability="on",
            ),
        )
        engine.run(EventStream(calm_stream()))
        registry = engine.observability.registry
        shed = registry.counter(
            "caesar_shed_events_total", "", labels={"class": "cold"}
        )
        assert shed.value > 0
        protected = registry.counter("caesar_protected_events_total", "")
        assert protected.value > 0
        assert registry.gauge("caesar_shed_pressure", "").value == 1.0

    def test_queue_depth_gauge_registered_with_shedding_off(self):
        engine = create_engine(build_model(), observability="on")
        engine.run(EventStream(calm_stream()))
        gauge = engine.observability.registry.gauge("caesar_queue_depth", "")
        assert gauge is engine.instruments.queue_depth

    def test_shed_events_reach_the_dead_letter_queue(self):
        queue = DeadLetterQueue(capacity=4)
        engine = create_engine(
            build_model(),
            EngineConfig(
                shedding=SheddingConfig(fixed_pressure=1.0),
                supervision=SupervisionConfig(dead_letters=queue),
            ),
        )
        report = engine.run(EventStream(calm_stream()))
        assert report.shed_events > 4
        assert report.dead_lettered[REASON_SHED] == report.shed_events
        entries = queue.entries(reason=REASON_SHED)
        assert entries and "pressure" in entries[0].error
        # the bounded queue wrapped: drops are attributed per reason
        assert report.dead_letter_dropped_by_reason[REASON_SHED] == (
            report.shed_events - len(entries)
        )

    def test_dead_letter_opt_out(self):
        queue = DeadLetterQueue()
        engine = create_engine(
            build_model(),
            EngineConfig(
                shedding=SheddingConfig(
                    fixed_pressure=1.0, dead_letter=False,
                ),
                supervision=SupervisionConfig(dead_letters=queue),
            ),
        )
        report = engine.run(EventStream(calm_stream()))
        assert report.shed_events > 0
        assert len(queue.entries(reason=REASON_SHED)) == 0

    def test_session_runs_admission_control(self):
        from repro.runtime.session import EngineSession

        engine = create_engine(
            build_model(),
            EngineConfig(shedding=SheddingConfig(fixed_pressure=1.0)),
        )
        session = EngineSession(engine)
        session.feed(calm_stream())
        report = session.close()
        assert report.shed_events > 0
        assert report.shed_decision_digest != ""

    def test_shedder_rejected_for_shared_workloads(self):
        # a SharedWorkload runs with shedding off; the config is rejected
        # instead of silently ignored
        from repro.core.windows import WindowSpec
        from repro.optimizer.sharing import build_shared_workload

        workload = build_shared_workload(
            [WindowSpec(name="w", start=0, end=10)]
        )
        with pytest.raises(TypeError, match="shedding"):
            create_engine(
                workload,
                EngineConfig(shedding=SheddingConfig(fixed_pressure=1.0)),
            )
