"""Tier-1 regression: restore-mid-stream equals straight-through, exactly.

An 8-partition Linear Road run is split at a stream-transaction boundary;
the prefix runs on one engine, a checkpoint is captured, restored into a
fresh engine, and the suffix replayed there.  The concatenated outputs
must be *byte-identical* to the uninterrupted run — same events in the
same order, same windows, same deterministic counters.  Checkpoints need
partition state in the engine process, so the serial backend is the one
that takes them.
"""

import pytest

from repro.api import EngineConfig, create_engine
from repro.difftest.harness import _transaction_boundary
from repro.events.stream import EventStream
from repro.linearroad.generator import (
    LinearRoadConfig,
    generate_stream,
    paper_timeline_schedules,
)
from repro.linearroad.queries import build_traffic_model, segment_partitioner
from repro.runtime.checkpoint import capture_checkpoint, restore_checkpoint

SEGMENTS = 8


@pytest.fixture(scope="module")
def events():
    config = paper_timeline_schedules(
        LinearRoadConfig(
            num_roads=1,
            segments_per_road=SEGMENTS,
            duration_minutes=4,
            seed=13,
        )
    )
    stream = list(generate_stream(config))
    # the run must actually span 8 partitions for the test to mean anything
    partitions = {segment_partitioner(e) for e in stream}
    assert len(partitions) >= SEGMENTS
    return stream


def run_config(backend):
    return EngineConfig(
        backend=backend,
        partition_by=segment_partitioner,
        retention=120,
    )


def event_bytes(outputs):
    """The exact, order-sensitive identity of an output sequence."""
    return [
        (e.start_time, e.timestamp, e.type_name, sorted(e.payload.items()))
        for e in outputs
    ]


def window_bytes(report):
    return {
        repr(partition): [
            (w.context_name, w.start, w.end) for w in windows
        ]
        for partition, windows in report.windows_by_partition.items()
    }


@pytest.mark.parametrize("backend", ["serial"])
def test_restore_mid_stream_is_byte_identical(events, backend):
    straight = create_engine(build_traffic_model(), run_config(backend))
    straight_report = straight.run(EventStream(events))
    assert straight_report.outputs, "run derived nothing; test is vacuous"

    cut = _transaction_boundary(events, 0.5)
    first = create_engine(build_traffic_model(), run_config(backend))
    prefix_report = first.run(EventStream(events[:cut]))
    checkpoint = capture_checkpoint(first)

    second = create_engine(build_traffic_model(), run_config(backend))
    restore_checkpoint(second, checkpoint)
    suffix_report = second.run(EventStream(events[cut:]))

    resumed_outputs = prefix_report.outputs + suffix_report.outputs
    assert event_bytes(resumed_outputs) == event_bytes(
        straight_report.outputs
    )
    assert window_bytes(suffix_report) == window_bytes(straight_report)
    assert (
        prefix_report.events_processed + suffix_report.events_processed
        == straight_report.events_processed
    )
    by_type = dict(prefix_report.outputs_by_type)
    for name, count in suffix_report.outputs_by_type.items():
        by_type[name] = by_type.get(name, 0) + count
    assert by_type == straight_report.outputs_by_type


@pytest.mark.parametrize("backend", ["serial"])
def test_resume_via_env_selected_backend(events, backend, monkeypatch):
    """The same contract holds when the backend comes from CAESAR_BACKEND
    (the deployment path) rather than an explicit config."""
    monkeypatch.setenv("CAESAR_BACKEND", backend)
    straight = create_engine(build_traffic_model(), run_config(None))
    straight_report = straight.run(EventStream(events))

    cut = _transaction_boundary(events, 0.3)
    first = create_engine(build_traffic_model(), run_config(None))
    prefix_report = first.run(EventStream(events[:cut]))
    second = create_engine(build_traffic_model(), run_config(None))
    restore_checkpoint(second, capture_checkpoint(first))
    suffix_report = second.run(EventStream(events[cut:]))

    assert event_bytes(prefix_report.outputs + suffix_report.outputs) == (
        event_bytes(straight_report.outputs)
    )
    assert window_bytes(suffix_report) == window_bytes(straight_report)
