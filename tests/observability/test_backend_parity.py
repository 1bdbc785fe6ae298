"""Cross-backend metric parity: the deterministic projection is identical.

The contract mirrors the report-parity guarantee of the execution
backends: every counter marked deterministic — batches, events, outputs,
cost units, routing decisions, GC activity — fans in from shard workers
to byte-identical values, whichever backend ran the stream.  Wall-clock
histograms and point-in-time gauges are outside the projection.
"""

import json

import pytest

from repro.runtime import (
    CaesarEngine,
    ProcessPoolBackend,
    SerialBackend,
    SupervisedEngine,
    report_to_dict,
)

from tests.observability.conftest import (
    build_model,
    by_segment,
    multi_partition_stream,
)

BACKENDS = {
    "serial": lambda: SerialBackend(),
    "process": lambda: ProcessPoolBackend(max_workers=2),
}


def deterministic_snapshot(backend, engine_class=CaesarEngine):
    engine = engine_class(
        build_model(),
        partition_by=by_segment,
        seconds_per_cost_unit=1e-6,
        backend=backend,
        observability="on",
    )
    report = engine.run(multi_partition_stream())
    snapshot = engine.observability.registry.snapshot(deterministic_only=True)
    return report, json.dumps(snapshot, sort_keys=True)


class TestMetricParity:
    def test_deterministic_snapshot_identical_across_backends(self):
        results = {
            name: deterministic_snapshot(factory())
            for name, factory in BACKENDS.items()
        }
        _, serial = results["serial"]
        for name, (_, snapshot) in results.items():
            assert snapshot == serial, f"{name} diverged from serial"

    def test_parity_snapshot_is_nontrivial(self):
        _, snapshot = deterministic_snapshot(SerialBackend())
        values = json.loads(snapshot)
        assert values["caesar_events_total"] > 0
        assert values["caesar_cost_units_total"] > 0
        assert values["caesar_gc_runs_total"] >= 0

    def test_supervised_parity(self):
        results = {
            name: deterministic_snapshot(
                factory(), engine_class=SupervisedEngine
            )
            for name, factory in BACKENDS.items()
        }
        _, serial = results["serial"]
        for name, (_, snapshot) in results.items():
            assert snapshot == serial, f"{name} diverged from serial"

    def test_reports_remain_identical_too(self):
        reports = {}
        for name, factory in BACKENDS.items():
            report, _ = deterministic_snapshot(factory())
            d = report_to_dict(report)
            # transport is a diagnostic of *how* events moved (shm frames,
            # pipe bytes), inherently backend-specific — not part of the
            # deterministic parity surface, like wall time.
            for key in ("wall_seconds", "throughput", "backend", "transport"):
                d.pop(key, None)
            reports[name] = d
        assert reports["serial"] == reports["process"]

    def test_linear_road_parity(self):
        from repro.linearroad.generator import (
            LinearRoadConfig,
            generate_stream,
            paper_timeline_schedules,
        )
        from repro.linearroad.queries import (
            build_traffic_model,
            segment_partitioner,
        )

        config = paper_timeline_schedules(
            LinearRoadConfig(
                num_roads=4, segments_per_road=2, duration_minutes=8, seed=7
            )
        )
        snapshots = {}
        for name, factory in BACKENDS.items():
            engine = CaesarEngine(
                build_traffic_model(),
                partition_by=segment_partitioner,
                retention=120,
                backend=factory(),
                observability="on",
            )
            engine.run(generate_stream(config))
            assert len(engine.observability.registry.snapshot()) > 0
            snapshots[name] = json.dumps(
                engine.observability.registry.snapshot(
                    deterministic_only=True
                ),
                sort_keys=True,
            )
        assert snapshots["serial"] == snapshots["process"]

    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    def test_trace_spans_fan_in(self, backend_name):
        engine = CaesarEngine(
            build_model(),
            partition_by=by_segment,
            backend=BACKENDS[backend_name](),
            observability="trace",
        )
        engine.run(multi_partition_stream())
        names = {s["name"] for s in engine.observability.recorder.spans()}
        assert names >= {"batch", "transaction", "plan"}
