"""Tests for incremental sessions across threads and on the process backend.

``EngineSession`` drives the engine's configured backend exactly like
``run()``: worker shards see the same transactions, fan-in happens at
``close()``, and the pool survives across sessions on the same engine.  A
session may be fed on one thread and closed on another, as
``EngineService`` hands it between its feeder thread and the caller.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.model import CaesarModel
from repro.events.event import Event
from repro.events.stream import EventStream
from repro.events.types import EventType
from repro.language import parse_query
from repro.runtime import (
    CaesarEngine,
    EngineSession,
    ProcessPoolBackend,
    outputs_to_rows,
    report_to_dict,
)

READING = EventType.define("SbReading", value="int", seg="int", sec="int")


def build_model():
    model = CaesarModel(default_context="normal")
    model.add_context("alert")
    model.add_query(parse_query(
        "INITIATE CONTEXT alert PATTERN SbReading r WHERE r.value > 100 "
        "CONTEXT normal", name="up"))
    model.add_query(parse_query(
        "TERMINATE CONTEXT alert PATTERN SbReading r WHERE r.value <= 100 "
        "CONTEXT alert", name="down"))
    model.add_query(parse_query(
        "DERIVE Alarm(r.value, r.sec) PATTERN SbReading r CONTEXT alert",
        name="alarm"))
    return model


def reading(t, value, seg=0):
    return Event(READING, t, {"value": value, "seg": seg, "sec": t})


def by_segment(event):
    return event["seg"]


def multi_partition_events(segments=4, steps=10):
    events = []
    for t in range(steps):
        for seg in range(segments):
            value = 150 if (t + seg) % 3 == 0 else 50
            events.append(reading(t * 10, value, seg=seg))
    return events


def comparable(report):
    d = report_to_dict(report)
    for key in ("wall_seconds", "throughput", "backend", "transport"):
        d.pop(key)
    return d


def session_report(backend, events, chunk=7):
    engine = CaesarEngine(
        build_model(),
        partition_by=by_segment,
        seconds_per_cost_unit=1e-6,
        backend=backend,
    )
    # chunk=7 deliberately misaligns with the 4-events-per-timestamp
    # stream; frontier mode keeps the split timestamp in one transaction
    session = EngineSession(engine, eager=False)
    for start in range(0, len(events), chunk):
        session.feed(events[start:start + chunk])
    report = session.close()
    engine.close()
    return report


def one_shot(events):
    return CaesarEngine(
        build_model(),
        partition_by=by_segment,
        seconds_per_cost_unit=1e-6,
    ).run(EventStream(events))


class TestThreadSession:
    def test_chunked_matches_one_shot(self):
        events = multi_partition_events()
        expected = one_shot(events)
        engine = CaesarEngine(
            build_model(),
            partition_by=by_segment,
            seconds_per_cost_unit=1e-6,
            backend="serial",
        )
        session = EngineSession(engine, eager=False)
        with ThreadPoolExecutor(max_workers=1) as feeder:
            for start in range(0, len(events), 7):
                feeder.submit(session.feed, events[start:start + 7]).result()
        report = session.close()
        assert report.backend == "serial"
        assert outputs_to_rows(report) == outputs_to_rows(expected)
        assert comparable(report) == comparable(expected)

    def test_double_close_is_idempotent(self):
        session = EngineSession(CaesarEngine(
            build_model(), partition_by=by_segment, backend="serial"
        ))
        session.feed(multi_partition_events())
        with ThreadPoolExecutor(max_workers=1) as closer:
            first = closer.submit(session.close).result()
        assert session.close() is first


fork_available = "fork" in __import__("multiprocessing").get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available, reason="process backend requires the fork start method"
)


@needs_fork
class TestProcessSession:
    def test_chunked_matches_one_shot_with_worker_fan_in(self):
        events = multi_partition_events()
        expected = one_shot(events)
        report = session_report(ProcessPoolBackend(max_workers=2), events)
        assert report.backend == "process"
        # fan-in at close(): worker-held windows and counters all arrive
        assert outputs_to_rows(report) == outputs_to_rows(expected)
        assert comparable(report) == comparable(expected)

    def test_pool_reused_across_sessions(self):
        backend = ProcessPoolBackend(max_workers=2)
        engine = CaesarEngine(
            build_model(),
            partition_by=by_segment,
            seconds_per_cost_unit=1e-6,
            backend=backend,
        )
        events = multi_partition_events()
        try:
            first_session = EngineSession(engine)
            first_session.feed(events)
            first = first_session.close()
            first_pids = backend.worker_pids
            assert len(first_pids) == 2
            second_session = EngineSession(engine)
            second_session.feed(events)
            second = second_session.close()
            assert backend.worker_pids == first_pids  # no refork
            assert comparable(second) == comparable(first)
        finally:
            engine.close()

    def test_double_close_is_idempotent(self):
        backend = ProcessPoolBackend(max_workers=2)
        engine = CaesarEngine(
            build_model(), partition_by=by_segment, backend=backend
        )
        try:
            session = EngineSession(engine)
            session.feed(multi_partition_events())
            first = session.close()
            assert session.close() is first
        finally:
            engine.close()
