"""Shared setup for the Figure 14 workload-sharing experiments.

The experiments execute a *scheduled* workload: user-defined context
windows with known bounds carrying (partially identical) query workloads,
run either shared — the grouping algorithm splits overlapping windows and
each distinct query executes once (Section 5.3) — or non-shared, with one
plan instance per (window, query) pair.

Each window carries ``shared_queries`` queries with identical work
signatures across windows (sharable) plus one window-specific query (never
sharable), matching the paper's setups where overlapping context windows
hold partially identical workloads (Figure 7).
"""

from __future__ import annotations

from repro.api import EngineConfig, create_engine
from repro.core.windows import WindowSpec
from repro.events.stream import EventStream
from repro.language import parse_query
from repro.linearroad.generator import LinearRoadConfig, generate_stream
from repro.optimizer.sharing import (
    SharedWorkload,
    build_nonshared_workload,
    build_shared_workload,
)


def lr_event_stream(duration_seconds: int, *, seed: int = 53) -> EventStream:
    """A steady position-report stream (no scheduled regimes needed — a
    workload's units are activated by time, not by context derivation)."""
    config = LinearRoadConfig(
        num_roads=1,
        segments_per_road=2,
        duration_minutes=max(1, duration_seconds // 60),
        cars_clear=8,
        ramp_start_fraction=1.0,  # constant rate isolates the sharing effect
        seed=seed,
    )
    return generate_stream(config)


def shared_query(index: int):
    """Query ``index`` of the sharable workload (same in every window)."""
    threshold = 20 + 3 * index
    return parse_query(
        f"DERIVE Shared{index}(p.vid, p.sec) PATTERN PositionReport p "
        f"WHERE p.speed > {threshold}",
        name=f"shared_{index}",
    )


def window_specific_query(window_index: int):
    return parse_query(
        f"DERIVE Own{window_index}(p.vid, p.sec) PATTERN PositionReport p "
        f"WHERE p.vid > {window_index}",
        name=f"own_{window_index}",
    )


def make_window_specs(
    *,
    count: int,
    length: int,
    stride: int,
    shared_queries: int,
    start_offset: int = 0,
    with_specific: bool = False,
) -> list[WindowSpec]:
    """``count`` windows of ``length`` seconds, consecutive starts ``stride``
    apart (overlap = length - stride when positive).

    With ``with_specific`` each window additionally carries one query only
    it holds (never sharable) — the Figure 14(c) setup, where the *shared
    fraction* of the workload is the variable.
    """
    shared = tuple(shared_query(i) for i in range(shared_queries))
    specs = []
    for index in range(count):
        start = start_offset + index * stride
        queries = shared
        if with_specific:
            queries = shared + (window_specific_query(index),)
        specs.append(
            WindowSpec(
                name=f"w{index}",
                start=start,
                end=start + length,
                queries=queries,
            )
        )
    return specs


def run_workload(
    workload: SharedWorkload,
    stream: EventStream,
    *,
    seconds_per_cost_unit: float | None = None,
):
    engine = create_engine(
        workload, EngineConfig(seconds_per_cost_unit=seconds_per_cost_unit)
    )
    return engine.run(stream, track_outputs=False)


def run_pair(specs, stream_factory, *, seconds_per_cost_unit=None):
    shared_report = run_workload(
        build_shared_workload(specs),
        stream_factory(),
        seconds_per_cost_unit=seconds_per_cost_unit,
    )
    nonshared_report = run_workload(
        build_nonshared_workload(specs),
        stream_factory(),
        seconds_per_cost_unit=seconds_per_cost_unit,
    )
    return shared_report, nonshared_report
