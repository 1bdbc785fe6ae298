"""Whole-report parity between every way of driving an engine.

``run()``, ``EngineSession`` (eager and frontier mode) and
``EngineService`` all step the same ``RunState`` driver and get their
report from its ``finish()``, so their reports must agree on *every*
``EngineReport`` field, not just the ones a test author remembered:
the comparison iterates ``dataclasses.fields`` so a field added later
cannot drift silently (``matches_aggregated`` once did — a session
reported 0 where ``run()`` reported the real count).
"""

import dataclasses

import pytest

from repro.difftest.scenarios import SCENARIOS, get_scenario
from repro.events.stream import EventStream
from repro.runtime import CaesarEngine, EngineService, EngineSession
from repro.runtime.engine import EngineReport

#: measured on the wall clock, so never equal between two executions
WALL_CLOCK_FIELDS = {"wall_seconds"}
#: deterministic only under the cost-unit latency model
LATENCY_FIELDS = {"max_latency", "mean_latency"}


def make_engine(scenario, seconds_per_cost_unit):
    return CaesarEngine(
        scenario.build_model(),
        partition_by=scenario.partition_by,
        retention=scenario.retention,
        seconds_per_cost_unit=seconds_per_cost_unit,
    )


def transaction_chunks(events, parts=3):
    """Split at timestamp boundaries (eager sessions commit per call)."""
    cuts = [len(events) * k // parts for k in range(1, parts)]
    chunks, start = [], 0
    for cut in cuts:
        while 0 < cut < len(events) and (
            events[cut].timestamp == events[cut - 1].timestamp
        ):
            cut += 1
        if cut > start:
            chunks.append(events[start:cut])
            start = cut
    chunks.append(events[start:])
    return chunks


def via_run(engine, events):
    return engine.run(EventStream(events))


def via_eager_session(engine, events):
    session = EngineSession(engine)
    for chunk in transaction_chunks(events):
        session.feed(chunk)
    return session.close()


def via_frontier_session(engine, events):
    # fixed-size chunks cut timestamps in half on purpose: the frontier
    # hold must reassemble each transaction across feed() calls
    session = EngineSession(engine, eager=False)
    for start in range(0, len(events), 7):
        session.feed(events[start:start + 7])
    return session.close()


def via_service(engine, events):
    service = EngineService(engine, queue_size=64, on_emit=lambda e: None)
    try:
        service.extend(events)
    finally:
        report = service.stop()
    return report


DRIVERS = {
    "session-eager": via_eager_session,
    "session-frontier": via_frontier_session,
    "service": via_service,
}


@pytest.mark.parametrize("seconds_per_cost_unit", [None, 1e-6])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
def test_every_report_field_matches_run(
    scenario_name, driver, seconds_per_cost_unit
):
    scenario = get_scenario(scenario_name)
    events = scenario.make_events(7, 0.5)
    reference_engine = make_engine(scenario, seconds_per_cost_unit)
    engine = make_engine(scenario, seconds_per_cost_unit)
    try:
        expected = via_run(reference_engine, events)
        actual = DRIVERS[driver](engine, events)
    finally:
        reference_engine.close()
        engine.close()

    skipped = set(WALL_CLOCK_FIELDS)
    if seconds_per_cost_unit is None:
        skipped |= LATENCY_FIELDS
    compared = [
        f.name for f in dataclasses.fields(EngineReport)
        if f.name not in skipped
    ]
    assert expected.events_processed == len(events)  # nothing went late
    mismatched = {
        name: (getattr(expected, name), getattr(actual, name))
        for name in compared
        if getattr(expected, name) != getattr(actual, name)
    }
    assert not mismatched


def test_threshold_scenario_exercises_the_aggregation_counters():
    # the parity above is vacuous for a counter that is zero everywhere
    scenario = get_scenario("threshold")
    engine = make_engine(scenario, None)
    report = via_eager_session(engine, scenario.make_events(7, 0.5))
    assert report.matches_aggregated > 0
