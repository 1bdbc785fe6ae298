"""Sharded parallel execution: the serial vs. the process backend.

Not a paper figure: CAESAR's per-partition state (context bit vector, plan
instances) makes partitions semantically independent, and the execution
backends exploit that by pinning each partition to one shard worker.  This
benchmark measures wall-clock throughput of the same multi-partition
workload under each backend, plus the determinism guarantee (identical
outputs) that makes the comparison honest.

Speedup expectations are hardware-dependent: the process backend forks
true parallel workers but pays event transport per dispatch.  Workers are
pinned at ``max_workers=2``, the setting the backend decision rule in
``docs/benchmarks.md`` is stated at; the numbers recorded there state the
core count they were measured on.
"""

import os

import pytest

from benchmarks.common import FigureTable
from repro.events.event import Event
from repro.events.stream import EventStream
from repro.events.types import EventType
from repro.core.model import CaesarModel
from repro.language import parse_query
from repro.runtime import (
    CaesarEngine,
    ProcessPoolBackend,
    SerialBackend,
)

WORKERS = 2

needs_fork = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="process backend requires fork",
)

READING = EventType.define("ParReading", value="int", sec="int", zone="int")


def build_model(queries=4):
    model = CaesarModel(default_context="normal")
    model.add_context("alert")
    model.add_query(parse_query(
        "INITIATE CONTEXT alert PATTERN ParReading r WHERE r.value > 800 "
        "CONTEXT normal", name="up"))
    model.add_query(parse_query(
        "TERMINATE CONTEXT alert PATTERN ParReading r WHERE r.value < 100 "
        "CONTEXT alert", name="down"))
    for index in range(queries):
        model.add_query(parse_query(
            f"DERIVE Out{index}(r.value) PATTERN ParReading r "
            f"WHERE r.value > {index * 100} CONTEXT alert",
            name=f"q{index}"))
    return model


def build_stream(events=4000, partitions=8):
    return EventStream(
        Event(
            READING,
            index // partitions,
            {
                "value": (index * 37) % 1000,
                "sec": index // partitions,
                "zone": index % partitions,
            },
        )
        for index in range(events)
    )


def run_backend(backend, stream):
    engine = CaesarEngine(
        build_model(), partition_by=lambda e: e["zone"], backend=backend
    )
    return engine.run(stream, track_outputs=False)


class TestParallelBackends:
    def test_serial_baseline(self, benchmark):
        stream = build_stream()
        report = benchmark(lambda: run_backend(SerialBackend(), stream))
        assert len(report.windows_by_partition) == 8
        table = FigureTable(
            "Parallel", "execution backend throughput", "backend"
        )
        table.add("serial", events_per_sec=report.throughput)
        table.show()

    @needs_fork
    def test_process_backend(self, benchmark):
        stream = build_stream()
        report = benchmark(
            lambda: run_backend(ProcessPoolBackend(max_workers=WORKERS), stream)
        )
        assert len(report.windows_by_partition) == 8
        table = FigureTable(
            "Parallel", "execution backend throughput", "backend"
        )
        table.add(f"process[{WORKERS}]", events_per_sec=report.throughput)
        table.show()

    @needs_fork
    def test_backends_agree_on_outputs(self, benchmark):
        """The determinism contract, asserted where the numbers are made."""
        stream = build_stream(events=1000)
        serial = run_backend(SerialBackend(), stream)

        def check():
            forked = run_backend(ProcessPoolBackend(max_workers=WORKERS), stream)
            assert forked.cost_units == serial.cost_units
            return forked

        forked = benchmark(check)
        assert (
            forked.outputs_by_type == serial.outputs_by_type
        ), "parallel outputs diverged from serial"


def main():
    """Standalone entry point: ``make bench-parallel``.

    Each backend is measured twice on the same engine: the *cold* run pays
    any worker spawn cost, the *warm* run is what a long-lived engine sees
    (for the process backend the persistent pool and primed type
    directories make this the representative number).  The header records
    the environment — speedups are meaningless without the core count.
    """
    import multiprocessing
    import platform
    import time

    cores = os.cpu_count() or 1
    print(
        f"# bench_parallel environment: nproc={cores} "
        f"cpython={platform.python_version()} "
        f"platform={platform.system().lower()}"
    )
    stream = build_stream(events=8000, partitions=8)
    table = FigureTable(
        "Parallel",
        f"execution backend throughput ({cores} cores, 8 partitions)",
        "backend",
    )
    serial_report = None
    serial_elapsed = None
    backends = [("serial", SerialBackend)]
    if "fork" in multiprocessing.get_all_start_methods():
        backends.append(
            (
                f"process[{WORKERS}]",
                lambda: ProcessPoolBackend(max_workers=WORKERS),
            )
        )
    for name, factory in backends:
        engine = CaesarEngine(
            build_model(), partition_by=lambda e: e["zone"], backend=factory()
        )
        started = time.perf_counter()
        report = engine.run(stream, track_outputs=False)
        cold_elapsed = time.perf_counter() - started
        started = time.perf_counter()
        warm_report = engine.run(stream, track_outputs=False)
        warm_elapsed = time.perf_counter() - started
        engine.close()
        print(
            f"# {name}: backend={report.backend} "
            f"shm_batches={warm_report.batches_shm} "
            f"pickled_fallback={warm_report.batches_pickled_fallback} "
            f"bytes_out={warm_report.transport_bytes_out} "
            f"bytes_in={warm_report.transport_bytes_in}"
        )
        if serial_report is None:
            serial_report = report
            serial_elapsed = min(cold_elapsed, warm_elapsed)
            speedup = 1.0
        else:
            for candidate in (report, warm_report):
                assert candidate.cost_units == serial_report.cost_units
                assert (
                    candidate.outputs_by_type == serial_report.outputs_by_type
                )
            speedup = serial_elapsed / warm_elapsed
        table.add(
            name,
            events_per_sec=report.events_processed / cold_elapsed,
            warm_events_per_sec=warm_report.events_processed / warm_elapsed,
            warm_speedup_vs_serial=speedup,
        )
    table.show()


if __name__ == "__main__":
    main()
