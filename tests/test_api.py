"""Tests for the unified construction API and engine-surface consistency.

Covers the frozen config objects and ``create_engine`` dispatch, the
removed ``run()`` keyword aliases, report schema versioning, and the
strict backend resolution errors.
"""

import dataclasses

import pytest

from repro import EngineConfig, SupervisionConfig, create_engine
from repro.core.model import CaesarModel
from repro.core.windows import WindowSpec
from repro.errors import RuntimeEngineError, UnknownBackendError
from repro.events.event import Event
from repro.events.stream import EventStream
from repro.events.types import EventType
from repro.language import parse_query
from repro.optimizer.sharing import build_shared_workload
from repro.runtime import (
    CaesarEngine,
    REPORT_SCHEMA_VERSION,
    SerialBackend,
    SupervisedEngine,
    report_to_dict,
    resolve_backend,
)
from repro.runtime.backend import BACKEND_ENV_VAR
from repro.runtime.recovery import RecoveryManager

READING = EventType.define("ApiReading", value="int", sec="int")


def build_model():
    model = CaesarModel(default_context="normal")
    model.add_context("alert")
    model.add_query(parse_query(
        "INITIATE CONTEXT alert PATTERN ApiReading r WHERE r.value > 100 "
        "CONTEXT normal", name="up"))
    model.add_query(parse_query(
        "TERMINATE CONTEXT alert PATTERN ApiReading r WHERE r.value <= 100 "
        "CONTEXT alert", name="down"))
    model.add_query(parse_query(
        "DERIVE Alarm(r.value) PATTERN ApiReading r CONTEXT alert",
        name="alarm"))
    return model


def build_workload():
    query = parse_query(
        "DERIVE Alarm(r.value) PATTERN ApiReading r WHERE r.value > 0",
        name="q",
    )
    specs = [WindowSpec("w", start=0, end=100, queries=(query,))]
    return build_shared_workload(specs)


def small_stream():
    values = [50, 150, 150, 50, 150, 50]
    return EventStream(
        Event(READING, t * 10, {"value": v, "sec": t})
        for t, v in enumerate(values)
    )


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.context_aware is True
        assert config.optimize is True
        assert config.supervision is None
        assert config.supervision_config() is None

    def test_frozen(self):
        config = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.backend = "process"

    def test_supervision_normalisation(self):
        assert EngineConfig(supervision=True).supervision_config() == (
            SupervisionConfig()
        )
        assert EngineConfig(supervision=False).supervision_config() is None
        explicit = SupervisionConfig(failure_threshold=9)
        assert (
            EngineConfig(supervision=explicit).supervision_config()
            is explicit
        )

    def test_recovery_implies_supervision(self):
        config = EngineConfig(recovery=RecoveryManager(interval=50))
        assert config.supervision_config() == SupervisionConfig()

    def test_invalid_supervision_type(self):
        with pytest.raises(TypeError, match="supervision must be"):
            EngineConfig(supervision="yes").supervision_config()


class TestCreateEngine:
    def test_defaults_to_plain_engine(self):
        engine = create_engine(build_model())
        assert type(engine) is CaesarEngine

    def test_supervision_selects_supervised_engine(self):
        engine = create_engine(
            build_model(), EngineConfig(supervision=True)
        )
        assert isinstance(engine, SupervisedEngine)
        engine = create_engine(
            build_model(),
            EngineConfig(supervision=SupervisionConfig(failure_threshold=7)),
        )
        assert engine.failure_threshold == 7

    def test_overrides_replace_config_fields(self):
        base = EngineConfig(retention=100)
        engine = create_engine(build_model(), base, retention=50)
        assert engine.retention == 50
        assert base.retention == 100  # base config untouched

    def test_backend_spec_passthrough(self):
        backend = SerialBackend()
        engine = create_engine(build_model(), EngineConfig(backend=backend))
        assert engine.backend is backend

    def test_rejects_non_config(self):
        with pytest.raises(TypeError, match="must be an EngineConfig"):
            create_engine(build_model(), {"backend": "serial"})

    def test_shared_workload_builds_scheduled_engine(self):
        engine = create_engine(build_workload())
        assert isinstance(engine, CaesarEngine)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("supervision", True),
            ("recovery", True),
            ("preprocessors", (object(),)),
            ("on_context_transition", print),
            ("shedding", True),
        ],
    )
    def test_shared_workload_rejects_unsupported_field(self, field, value):
        with pytest.raises(TypeError, match=f"EngineConfig.{field}"):
            create_engine(build_workload(), **{field: value})

    def test_shared_workload_rejects_supervision(self):
        with pytest.raises(TypeError, match="does not apply"):
            create_engine(build_workload(), EngineConfig(supervision=True))

    def test_created_engine_runs(self):
        engine = create_engine(build_model())
        report = engine.run(small_stream())
        assert report.events_processed == 6


class TestRunKwargRemoval:
    def test_removed_kwarg_raises_naming_replacement(self):
        engine = create_engine(build_model())
        with pytest.raises(TypeError, match="use 'track_outputs'"):
            engine.run(small_stream(), collect_outputs=False)

    def test_shared_workload_engine_removed_kwarg(self):
        engine = create_engine(build_workload())
        with pytest.raises(TypeError, match="use 'track_outputs'"):
            engine.run(small_stream(), keep_outputs=False)

    def test_unknown_kwarg_raises_type_error(self):
        engine = create_engine(build_model())
        with pytest.raises(TypeError, match="unexpected keyword"):
            engine.run(small_stream(), bogus=True)

    def test_error_names_the_engine_class(self):
        engine = create_engine(build_model())
        with pytest.raises(TypeError, match="CaesarEngine"):
            engine.run(small_stream(), keep_outputs=True)


class TestCreateEngineOverrideValidation:
    def test_unknown_override_lists_valid_fields(self):
        with pytest.raises(TypeError, match="retention"):
            create_engine(build_model(), EngineConfig(), retenshun=50)

    def test_unknown_override_names_the_offender(self):
        with pytest.raises(TypeError, match="bogus_knob"):
            create_engine(build_model(), bogus_knob=1)


class TestEngineConfigTyping:
    def test_recovery_true_builds_default_manager(self):
        manager = EngineConfig(recovery=True).recovery_manager()
        assert isinstance(manager, RecoveryManager)
        assert manager.interval == EngineConfig.DEFAULT_RECOVERY_INTERVAL

    def test_recovery_false_and_none_disable(self):
        assert EngineConfig(recovery=False).recovery_manager() is None
        assert EngineConfig().recovery_manager() is None
        assert EngineConfig(recovery=False).supervision_config() is None

    def test_recovery_explicit_instance_passes_through(self):
        manager = RecoveryManager(interval=25)
        assert EngineConfig(recovery=manager).recovery_manager() is manager

    def test_recovery_invalid_type(self):
        with pytest.raises(TypeError, match="recovery must be"):
            EngineConfig(recovery="often").recovery_manager()

    def test_aggregation_mode_validated_by_engine(self):
        with pytest.raises(RuntimeEngineError, match="aggregation mode"):
            create_engine(build_model(), aggregation="sideways")


class TestReportSchema:
    def test_schema_version_in_dict(self):
        engine = create_engine(build_model())
        report = engine.run(small_stream())
        d = report_to_dict(report)
        assert d["schema_version"] == REPORT_SCHEMA_VERSION
        assert REPORT_SCHEMA_VERSION >= 2


class TestBackendResolutionErrors:
    def test_unknown_spec_lists_valid_names(self):
        # "thread" named a backend that was removed; it is unknown now
        for spec in ("quantum", "thread"):
            with pytest.raises(UnknownBackendError) as excinfo:
                resolve_backend(spec)
            message = str(excinfo.value)
            assert spec in message
            assert "backend spec" in message
            assert "['process', 'processes', 'serial']" in message

    def test_unknown_env_var_names_the_source(self, monkeypatch):
        for value in ("gpu", "thread"):
            monkeypatch.setenv(BACKEND_ENV_VAR, value)
            with pytest.raises(UnknownBackendError, match=BACKEND_ENV_VAR):
                resolve_backend(None)

    def test_error_is_both_runtime_and_value_error(self):
        with pytest.raises(ValueError):
            resolve_backend("quantum")
        with pytest.raises(RuntimeEngineError):
            resolve_backend("quantum")
