"""Tests for the sharded parallel execution backends.

The contract under test: whatever backend executes the stream
transactions, the report — outputs, windows, cost accounting, supervision
counters — is identical to a serial run, because outputs are merged in the
scheduler's deterministic transaction order and each partition is pinned to
one shard worker.  The same holds when the engine is driven from a thread
other than the caller's, as ``EngineService``'s feeder thread drives it.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import CaesarModel
from repro.errors import RuntimeEngineError
from repro.events.event import Event
from repro.events.stream import EventStream
from repro.events.types import EventType
from repro.language import parse_query
from repro.runtime import (
    BACKENDS,
    CaesarEngine,
    DeadLetterQueue,
    ExecutionBackend,
    ProcessPoolBackend,
    REASON_PLAN_FAULT,
    SerialBackend,
    SupervisedEngine,
    outputs_to_rows,
    report_to_dict,
    resolve_backend,
)
from repro.runtime.backend import BACKEND_ENV_VAR, default_worker_count
from repro.testing import InjectedFaultError, inject_plan_fault

READING = EventType.define("BkReading", value="int", seg="int", sec="int")


def build_model():
    model = CaesarModel(default_context="normal")
    model.add_context("alert")
    model.add_query(parse_query(
        "INITIATE CONTEXT alert PATTERN BkReading r WHERE r.value > 100 "
        "CONTEXT normal", name="up"))
    model.add_query(parse_query(
        "TERMINATE CONTEXT alert PATTERN BkReading r WHERE r.value <= 100 "
        "CONTEXT alert", name="down"))
    model.add_query(parse_query(
        "DERIVE Norm(r.sec) PATTERN BkReading r CONTEXT normal",
        name="norm"))
    model.add_query(parse_query(
        "DERIVE Alarm(r.value) PATTERN BkReading r CONTEXT alert",
        name="alarm"))
    return model


def reading(t, value, seg=0):
    return Event(READING, t, {"value": value, "seg": seg, "sec": t})


def by_segment(event):
    return event["seg"]


def multi_partition_stream(segments=8, steps=12):
    events = []
    for t in range(steps):
        for seg in range(segments):
            value = 150 if (t + seg) % 4 == 0 else 50
            events.append(reading(t * 10, value, seg=seg))
    return EventStream(events)


def run_with(backend, *, stream=None, model=None):
    engine = CaesarEngine(
        model if model is not None else build_model(),
        partition_by=by_segment,
        seconds_per_cost_unit=1e-6,
        backend=backend,
    )
    return engine.run(stream if stream is not None else multi_partition_stream())


def comparable(report):
    """Everything in the report except wall-clock, backend identity and
    transport diagnostics (which describe *how* events moved, not what the
    run computed — inherently backend-specific)."""
    d = report_to_dict(report)
    for key in ("wall_seconds", "throughput", "backend", "transport"):
        d.pop(key)
    return d


def on_thread(fn, *args):
    """Call ``fn`` on a fresh worker thread and return its result here, or
    re-raise here whatever it raised."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result()


class TestResolveBackend:
    def test_instance_passes_through(self):
        backend = ProcessPoolBackend(max_workers=2)
        assert resolve_backend(backend) is backend

    def test_names_and_aliases(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("process"), ProcessPoolBackend)
        assert isinstance(resolve_backend("PROCESS"), ProcessPoolBackend)

    def test_none_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_none_consults_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        assert isinstance(resolve_backend(None), ProcessPoolBackend)

    def test_unknown_name_raises(self):
        with pytest.raises(RuntimeEngineError, match="unknown execution"):
            resolve_backend("gpu")

    def test_registry_names(self):
        assert set(BACKENDS) == {"serial", "process", "processes"}

    def test_worker_count_bounds(self):
        assert 2 <= default_worker_count() <= 8
        with pytest.raises(ValueError, match="max_workers"):
            ProcessPoolBackend(max_workers=0)


class TestThreadEquivalence:
    """A run on a worker thread reports exactly what a run on the calling
    thread does."""

    def test_identical_to_serial_on_multi_partition_stream(self):
        serial = run_with("serial")
        threaded = on_thread(run_with, "serial")
        assert outputs_to_rows(threaded) == outputs_to_rows(serial)
        assert comparable(threaded) == comparable(serial)
        assert threaded.backend == "serial"

    def test_engine_reusable_across_runs(self):
        engine = CaesarEngine(
            build_model(),
            partition_by=by_segment,
            seconds_per_cost_unit=1e-6,
            backend="serial",
        )
        first = on_thread(engine.run, multi_partition_stream())
        second = engine.run(multi_partition_stream())
        third = on_thread(engine.run, multi_partition_stream())
        assert comparable(first) == comparable(second) == comparable(third)

    def test_error_propagates_deterministically(self):
        engine = CaesarEngine(
            build_model(),
            partition_by=by_segment,
            backend="serial",
        )
        inject_plan_fault(engine, "alert", at_times={50})
        with pytest.raises(InjectedFaultError, match="t=50"):
            on_thread(engine.run, multi_partition_stream())
        with pytest.raises(InjectedFaultError, match="t=50"):
            engine.run(multi_partition_stream())


fork_available = "fork" in __import__("multiprocessing").get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available, reason="process backend requires the fork start method"
)


@needs_fork
class TestProcessEquivalence:
    def test_identical_to_serial_on_multi_partition_stream(self):
        serial = run_with("serial")
        forked = run_with(ProcessPoolBackend(max_workers=2))
        assert outputs_to_rows(forked) == outputs_to_rows(serial)
        assert comparable(forked) == comparable(serial)
        assert forked.backend == "process"

    def test_single_worker_shard(self):
        forked = run_with(ProcessPoolBackend(max_workers=1))
        assert comparable(forked) == comparable(run_with("serial"))

    def test_more_workers_than_partitions(self):
        stream = multi_partition_stream(segments=2)
        serial = run_with("serial", stream=stream)
        forked = run_with(ProcessPoolBackend(max_workers=3), stream=stream)
        assert comparable(forked) == comparable(serial)

    @settings(max_examples=20, deadline=None)
    @given(
        values=st.lists(
            st.tuples(st.integers(0, 200), st.integers(0, 5)),
            min_size=1,
            max_size=40,
        )
    )
    def test_property_serial_process_equivalence(self, values):
        events = [
            reading(t * 10, value, seg=seg)
            for t, (value, seg) in enumerate(values)
        ]
        serial = run_with("serial", stream=EventStream(events))
        backend = ProcessPoolBackend(max_workers=2)
        try:
            forked = run_with(backend, stream=EventStream(events))
        finally:
            backend.close()
        assert outputs_to_rows(forked) == outputs_to_rows(serial)
        assert comparable(forked) == comparable(serial)

    def test_rejects_recovery(self):
        from repro.runtime import RecoveryManager

        engine = SupervisedEngine(
            build_model(),
            partition_by=by_segment,
            recovery=RecoveryManager(interval=10),
            backend=ProcessPoolBackend(max_workers=2),
        )
        with pytest.raises(RuntimeEngineError, match="checkpoint autosave"):
            engine.run(multi_partition_stream())

    def test_rejects_context_transition_callbacks(self):
        engine = CaesarEngine(
            build_model(),
            partition_by=by_segment,
            on_context_transition=lambda *a: None,
            backend=ProcessPoolBackend(max_workers=2),
        )
        with pytest.raises(RuntimeEngineError, match="on_context_transition"):
            engine.run(multi_partition_stream())

    def test_worker_error_propagates(self):
        engine = CaesarEngine(
            build_model(),
            partition_by=by_segment,
            backend=ProcessPoolBackend(max_workers=2),
        )
        inject_plan_fault(engine, "alert", at_times={50})
        with pytest.raises(InjectedFaultError, match="t=50"):
            engine.run(multi_partition_stream())


@needs_fork
class TestProcessPoolLifecycle:
    """The pool outlives a run: spawn once per engine, reuse, close()."""

    def test_pool_reused_across_consecutive_runs(self):
        backend = ProcessPoolBackend(max_workers=2)
        engine = CaesarEngine(
            build_model(),
            partition_by=by_segment,
            seconds_per_cost_unit=1e-6,
            backend=backend,
        )
        try:
            first = engine.run(multi_partition_stream())
            first_pids = backend.worker_pids
            assert len(first_pids) == 2
            second = engine.run(multi_partition_stream())
            assert backend.worker_pids == first_pids  # same workers, no refork
            assert comparable(second) == comparable(first)
            assert outputs_to_rows(second) == outputs_to_rows(first)
            assert comparable(first) == comparable(run_with("serial"))
        finally:
            engine.close()

    def test_close_is_idempotent_and_engine_stays_usable(self):
        backend = ProcessPoolBackend(max_workers=2)
        engine = CaesarEngine(
            build_model(),
            partition_by=by_segment,
            seconds_per_cost_unit=1e-6,
            backend=backend,
        )
        first = engine.run(multi_partition_stream())
        engine.close()
        assert backend.worker_pids == ()
        engine.close()  # idempotent
        try:
            again = engine.run(multi_partition_stream())  # respawns the pool
            assert comparable(again) == comparable(first)
        finally:
            engine.close()

    def test_failed_pool_is_scrapped(self):
        backend = ProcessPoolBackend(max_workers=2)
        engine = CaesarEngine(
            build_model(),
            partition_by=by_segment,
            backend=backend,
        )
        inject_plan_fault(engine, "alert", at_times={50})
        with pytest.raises(InjectedFaultError):
            engine.run(multi_partition_stream())
        assert backend.worker_pids == ()  # diverged workers must not linger

    def test_shared_memory_transport_is_the_default(self):
        backend = ProcessPoolBackend(max_workers=2)
        try:
            report = run_with(backend)
        finally:
            backend.close()
        assert report.batches_shm > 0
        assert report.batches_pickled_fallback == 0
        assert report.transport_bytes_out > 0
        assert report.transport_bytes_in > 0

    def test_tiny_ring_falls_back_to_pipe_pickling(self):
        serial = run_with("serial")
        backend = ProcessPoolBackend(max_workers=2, ring_bytes=16)
        try:
            report = run_with(backend)
        finally:
            backend.close()
        assert report.batches_shm == 0
        assert report.batches_pickled_fallback > 0
        # slower lane, identical answers
        assert comparable(report) == comparable(serial)
        assert outputs_to_rows(report) == outputs_to_rows(serial)

    def test_env_selected_backend_falls_back_for_incompatible_engine(
        self, monkeypatch
    ):
        # A fleet-wide CAESAR_BACKEND=process must not break engines that
        # are structurally serial; an *explicit* process backend still
        # raises (covered by TestProcessEquivalence).
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        engine = CaesarEngine(
            build_model(),
            partition_by=by_segment,
            seconds_per_cost_unit=1e-6,
            on_context_transition=lambda *a: None,
        )
        report = engine.run(multi_partition_stream())
        assert report.backend == "serial"
        assert comparable(report) == comparable(run_with("serial"))

    def test_workers_env_override(self, monkeypatch):
        from repro.runtime.backend import WORKERS_ENV_VAR

        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert default_worker_count() == 3
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        with pytest.raises(RuntimeEngineError, match=WORKERS_ENV_VAR):
            default_worker_count()
        monkeypatch.setenv(WORKERS_ENV_VAR, "lots")
        with pytest.raises(RuntimeEngineError, match=WORKERS_ENV_VAR):
            default_worker_count()
        monkeypatch.delenv(WORKERS_ENV_VAR)
        assert default_worker_count() >= 2


class TestSupervisedParallel:
    def test_thread_backend_plan_faults_match_serial(self):
        # supervised on a worker thread; the dead letters are read back on
        # the calling thread, as callers of a running EngineService do
        def supervised():
            engine = SupervisedEngine(
                build_model(),
                partition_by=by_segment,
                seconds_per_cost_unit=1e-6,
                failure_threshold=1,
                cooldown=40,
                backend="serial",
            )
            inject_plan_fault(engine, "alert", at_times={20, 30})
            return engine, engine.run(multi_partition_stream())

        serial_engine, serial = supervised()
        threaded_engine, threaded = on_thread(supervised)
        assert serial.plan_failures > 0
        assert comparable(threaded) == comparable(serial)
        assert (
            threaded_engine.dead_letters.counts_by_reason
            == serial_engine.dead_letters.counts_by_reason
        )

    @needs_fork
    def test_process_backend_absorbs_worker_dead_letters(self):
        def supervised(backend):
            engine = SupervisedEngine(
                build_model(),
                partition_by=by_segment,
                seconds_per_cost_unit=1e-6,
                failure_threshold=1,
                cooldown=40,
                backend=backend,
            )
            inject_plan_fault(engine, "alert", at_times={20, 30})
            return engine, engine.run(multi_partition_stream())

        serial_engine, serial = supervised("serial")
        forked_engine, forked = supervised(ProcessPoolBackend(max_workers=2))
        assert serial.plan_failures > 0
        assert comparable(forked) == comparable(serial)
        # the workers' dead-letter entries were absorbed into the parent
        assert forked_engine.dead_letters.total == serial_engine.dead_letters.total
        assert (
            forked_engine.dead_letters.counts_by_reason
            == serial_engine.dead_letters.counts_by_reason
        )


class TestLinearRoadEquivalence:
    """The acceptance bar: byte-identical reports on a Linear Road stream
    with at least 8 partitions (unidirectional road segments)."""

    @pytest.fixture(scope="class")
    def setup(self):
        from repro.linearroad.generator import LinearRoadConfig, generate_stream
        from repro.linearroad.queries import (
            build_traffic_model,
            segment_partitioner,
        )

        config = LinearRoadConfig(
            num_roads=2, segments_per_road=4, duration_minutes=6, seed=7
        )
        events = list(generate_stream(config))
        partitions = {segment_partitioner(e) for e in events}
        assert len(partitions) >= 8
        return build_traffic_model, segment_partitioner, events

    def _run(self, setup, backend):
        build, partitioner, events = setup
        engine = CaesarEngine(
            build(),
            partition_by=partitioner,
            seconds_per_cost_unit=1e-6,
            backend=backend,
        )
        return engine.run(EventStream(events))

    def test_thread_matches_serial(self, setup):
        serial = self._run(setup, "serial")
        threaded = on_thread(self._run, setup, "serial")
        assert outputs_to_rows(threaded) == outputs_to_rows(serial)
        assert comparable(threaded) == comparable(serial)

    @needs_fork
    def test_process_matches_serial(self, setup):
        serial = self._run(setup, "serial")
        forked = self._run(setup, ProcessPoolBackend(max_workers=2))
        assert outputs_to_rows(forked) == outputs_to_rows(serial)
        assert comparable(forked) == comparable(serial)


class TestBackendReporting:
    def test_report_names_backend(self):
        assert run_with("serial").backend == "serial"
        assert report_to_dict(run_with("serial"))["backend"] == "serial"

    def test_environment_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        engine = CaesarEngine(build_model(), partition_by=by_segment)
        assert isinstance(engine.backend, ProcessPoolBackend)

    def test_abstract_backend_refuses_execution(self):
        with pytest.raises(NotImplementedError):
            ExecutionBackend().execute(0, [], None)
