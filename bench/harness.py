"""Passes over a workload: closed loop, open loop (paced), and the reference.

One *pass* drives a fresh system under test with the workload's whole input
once and returns what a user would have seen: wall and CPU time, every
emission with its receive time, and what failed.

* closed loop ("saturate"): the next event is offered as soon as the system
  accepts the previous one — ``run()`` for the batch workload, one producer
  blocked only by backpressure for the services;
* open loop ("paced"): event *i* is due at ``start + i / rate`` whether or
  not the system keeps up; latency is counted from the due time, so a stall
  is charged to every event behind it, and how late the generator itself
  ran is reported alongside.

The load generator is this process: one producer thread (the caller) plus,
for the TCP workload, one subscriber thread — two connections at most.
"""

from __future__ import annotations

import bisect
import json
import os
import re
import resource
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.api import create_engine
from repro.events.stream import EventStream
from repro.net.client import ServeClient, ServeClientError
from repro.net.protocol import encode_event, event_row
from repro.runtime.service import EngineService
from repro.runtime.session import EngineSession

from bench.workloads import QUEUE_SIZE, Inputs, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: environment variables that change engine behaviour; cleared before any
#: engine is built or server spawned so every run measures the defaults
ENGINE_ENV_VARS = (
    "CAESAR_BACKEND",
    "CAESAR_OBSERVABILITY",
    "CAESAR_SHED",
    "CAESAR_COLUMNAR",
    "CAESAR_WORKERS",
)

#: a paced pass whose ingestion queue is still this full when the last
#: event is sent is running above the sustainable rate
BACKLOG_LIMIT = QUEUE_SIZE // 2

#: ... or whose last events (median of the final 5 %) were offered this far
#: behind schedule because backpressure had stalled the producer
SEND_LATE_LIMIT_MS = 100.0

#: protocol lines per ``sendall`` in the TCP closed-loop pass
SEND_BLOCK_LINES = 64

#: the generator alone (no program attached) must hold its schedule this
#: tightly, or the paced latencies are flagged as the generator's
GENERATOR_LATE_LIMIT_MS = 5.0


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def clear_engine_env() -> None:
    for name in ENGINE_ENV_VARS:
        os.environ.pop(name, None)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count of a metric's repetitions."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


@dataclass
class PassResult:
    """What one pass over the workload's inputs produced."""

    events: int
    wall_s: float
    cpu_s: float
    #: emissions in wire form, in the order they were received
    lines: list[str]
    #: per emission (services) or per stream batch (batch workload)
    latencies_ms: list[float] = field(default_factory=list)
    #: events refused, lost, late or dead-lettered, and control ops that
    #: raised — emission mismatches are added by the caller's check
    failed: int = 0
    ops: int = 0
    #: how late the generator offered each event (paced passes)
    late_ms: list[float] = field(default_factory=list)
    #: ingestion backlog, in events, when the last event was sent
    backlog_end: int = 0
    control_op_ms: list[float] = field(default_factory=list)
    #: process spawn -> "listening on" (TCP workload only)
    setup_s: float | None = None
    report: object = None
    #: in-process passes: the engine in its end state, and what the
    #: session's reorder buffer saw
    engine: object = None
    reordered_events: int = 0
    late_events: int = 0
    #: TCP passes: the server process, until ``finish_tcp_pass`` reaped it
    server: object = None
    #: traced ``repro serve`` child: the file its tracer wrote
    child_trace: dict | None = None


def kept_up(result: PassResult) -> bool:
    """Did a paced pass hold its rate?  Not if the ingestion backlog was
    still growing when the last event went out, or if backpressure had
    pushed that event far behind its schedule."""
    tail = result.late_ms[-max(1, len(result.late_ms) // 20):]
    return (
        result.backlog_end < BACKLOG_LIMIT
        and statistics.median(tail) < SEND_LATE_LIMIT_MS
    )


def build_engine(workload: Workload):
    """Query text -> ready-to-ingest engine (what ``setup_s`` times)."""
    return create_engine(workload.build_model(), workload.engine_config())


def emission_mismatches(got: list[str], expected: list[str]) -> int:
    """Emissions missing from or extra to the reference; a pure reordering
    of an otherwise equal multiset counts once."""
    if got == expected:
        return 0
    got_counts, expected_counts = Counter(got), Counter(expected)
    missing = sum((expected_counts - got_counts).values())
    extra = sum((got_counts - expected_counts).values())
    return (missing + extra) or 1


def outcome(
    metrics: dict, inputs: Inputs, expected: list[str],
    passes: list[PassResult], mismatched: int, extra_failed: int = 0,
) -> dict:
    """One workload's result: metrics plus the attempted/failed tally.

    ``mismatched`` (emissions that disagree with the reference) decides
    ``correct`` and, like ``extra_failed``, counts as failed operations.
    """
    return {
        "correct": mismatched == 0,
        "attempted": sum(
            r.events + r.ops + len(expected) for r in passes
        ),
        "failed": sum(r.failed for r in passes) + mismatched + extra_failed,
        "metrics": metrics,
        "inputs": {
            "events": len(inputs.events),
            "ops": len(inputs.ops),
            "emissions": len(expected),
            "stream_digest": inputs.digest,
        },
    }


# ---------------------------------------------------------------------------
# reference computations (untimed)
# ---------------------------------------------------------------------------


def reference_lines(workload: Workload, inputs: Inputs) -> tuple[list[str], object]:
    """The emissions the workload must produce, computed synchronously.

    Batch, TCP and aggregation workloads: a one-shot ``run()`` of the same
    model over the same stream.  ``pam_ops_mix``: a synchronous frontier
    session fed the same arrival order with the same control ops at the
    same positions — no queue, no feeder thread.
    """
    engine = build_engine(workload)
    try:
        if not inputs.ops and not workload.max_delay:
            report = engine.run(EventStream(inputs.events))
            return [encode_event(e) for e in report.outputs], report
        session = EngineSession(
            engine, max_delay=workload.max_delay, eager=False
        )
        query = workload.deploy_query()
        outputs = []
        start = 0
        for position, kind in inputs.ops:
            outputs.extend(session.feed(inputs.events[start:position]))
            outputs.extend(session.flush())
            if kind == "deploy":
                engine.deploy_query(query)
            else:
                engine.retire_query(query.name)
            start = position
        outputs.extend(session.feed(inputs.events[start:]))
        outputs.extend(session.flush())
        report = session.close()
        if session.late_events:
            raise AssertionError(
                f"reference pass saw {session.late_events} late events: "
                "the op script displaces events across a control op"
            )
        return [encode_event(e) for e in outputs], report
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# pacing
# ---------------------------------------------------------------------------


def _due_lookup(events) -> tuple[list, list[int]]:
    """For latency: sorted distinct timestamps, and for each the arrival
    index of the last event whose timestamp is <= it."""
    last_index: dict = {}
    for index, event in enumerate(events):
        last_index[event.timestamp] = index
    times = sorted(last_index)
    indices = []
    running = -1
    for t in times:
        running = max(running, last_index[t])
        indices.append(running)
    return times, indices


def _emission_latencies_ms(
    events, start: float, rate: float, emissions: list[tuple[float, object]]
) -> list[float]:
    """Wall time from the scheduled send of the last input event whose
    timestamp is <= the emission's commit timestamp until it was received."""
    times, indices = _due_lookup(events)
    latencies = []
    for received, stream_time in emissions:
        slot = bisect.bisect_right(times, stream_time) - 1
        due = start + indices[max(slot, 0)] / rate
        latencies.append((received - due) * 1000.0)
    return latencies


def _uncommitted(events, watermark) -> int:
    """Events sent but not yet committed at stream time ``watermark``.

    The two newest timestamps' events are left out.  The newest
    transaction stays open until a newer event arrives: frontier, not
    backlog.  The one before it could only start when the newest one's
    first event arrived and is being processed while the rest of the
    newest is still on the wire: work in progress, not backlog either (a
    Linear Road transaction is up to 800 events, more than the limit).
    """
    times, indices = _due_lookup(events)
    slot = bisect.bisect_right(times, watermark) - 1 if watermark is not None else -1
    committed = indices[slot] + 1 if slot >= 0 else 0
    closable = indices[-3] + 1 if len(indices) > 2 else 0
    return max(0, closable - committed)


def _sleep_until(due: float) -> float:
    """Sleep until ``due``; how late (ms) the caller resumes."""
    now = time.perf_counter()
    if now < due:
        time.sleep(due - now)
        now = time.perf_counter()
    return (now - due) * 1000.0


def generator_dry_run_late_p99_ms(rate: float, seconds: float = 0.25) -> float:
    """How late the pacing loop runs with nothing attached to it.

    Best of three: one scheduler stall on a shared box is not the
    generator being too slow for the rate."""
    return min(_dry_run_late_p99_ms(rate, seconds) for _ in range(3))


def _dry_run_late_p99_ms(rate: float, seconds: float) -> float:
    start = time.perf_counter()
    late = [
        _sleep_until(start + index / rate)
        for index in range(int(rate * seconds))
    ]
    return percentile(late, 99)


# ---------------------------------------------------------------------------
# batch workload: one-shot run()
# ---------------------------------------------------------------------------


class _StampedStream:
    """Stands in for an ``EventStream``: stamps the clock whenever ``run()``
    pulls the next stream batch, i.e. when the previous one has committed."""

    def __init__(self, stream: EventStream):
        self._stream = stream
        self.stamps: list[float] = []

    def batches(self):
        stamp, clock = self.stamps.append, time.perf_counter
        for batch in self._stream.batches():
            stamp(clock())
            yield batch
        stamp(clock())


def batch_pass(
    workload: Workload, inputs: Inputs, *, track_outputs: bool = False
) -> PassResult:
    """``engine.run()`` over the whole stream on a fresh engine.

    The batch analogue of emission latency is the time from handing a
    stream batch (one timestamp's events) to the engine until its results
    are committed and the engine asks for the next one.
    """
    engine = build_engine(workload)
    try:
        stream = _StampedStream(EventStream(inputs.events))
        cpu_before = time.process_time()
        started = time.perf_counter()
        report = engine.run(stream, track_outputs=track_outputs)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_before
    finally:
        engine.close()
    stamps = stream.stamps
    return PassResult(
        events=len(inputs.events),
        wall_s=wall,
        cpu_s=cpu,
        lines=[encode_event(e) for e in report.outputs],
        latencies_ms=[
            (after - before) * 1000.0
            for before, after in zip(stamps, stamps[1:])
        ],
        failed=len(inputs.events) - report.events_processed,
        report=report,
        engine=engine,
    )


# ---------------------------------------------------------------------------
# in-process service workloads
# ---------------------------------------------------------------------------


class _EmissionLog:
    """The service's ``on_emit`` target: receive time, commit time, event."""

    def __init__(self) -> None:
        self.emissions: list[tuple[float, object, object]] = []
        self.session = None

    def record(self, event) -> None:
        # the session watermark is the timestamp of the transaction
        # whose commit released this emission
        self.emissions.append(
            (time.perf_counter(), self.session.watermark, event)
        )


def service_pass(
    workload: Workload, inputs: Inputs, *, rate: float | None = None
) -> PassResult:
    """The whole input through a fresh in-process ``EngineService``."""
    events = inputs.events
    ops = dict(inputs.ops)
    query = workload.deploy_query() if ops else None
    engine = build_engine(workload)
    log = _EmissionLog()
    clock = time.perf_counter
    service = EngineService(
        engine,
        max_delay=workload.max_delay,
        queue_size=QUEUE_SIZE,
        on_emit=log.record,
        track_outputs=False,
    )
    log.session = service.session
    emissions = log.emissions
    result = PassResult(events=len(events), wall_s=0.0, cpu_s=0.0, lines=[])
    submit = service.submit
    late = result.late_ms
    try:
        cpu_before = time.process_time()
        started = clock()
        for index, event in enumerate(events):
            if ops and index in ops:
                _control_op(service, ops[index], query, result)
            if rate is not None:
                late.append(_sleep_until(started + index / rate))
            submit(event)
        result.backlog_end = service.queue_depth
        report = service.stop()
        result.wall_s = clock() - started
        result.cpu_s = time.process_time() - cpu_before
    except BaseException:
        if not service.stopped:
            service.stop(drain=False)
        raise
    finally:
        engine.close()
    result.report = report
    result.engine = engine
    result.reordered_events = service.session.reordered_events
    result.late_events = service.session.late_events
    result.lines = [encode_event(event) for _, _, event in emissions]
    result.failed += (
        len(events) - report.events_processed
        + service.dropped_events
        + sum(report.dead_lettered.values())
    )
    if rate is not None:
        result.latencies_ms = _emission_latencies_ms(
            events, started, rate, [(at, t) for at, t, _ in emissions]
        )
    return result


def _control_op(service, kind: str, query, result: PassResult) -> None:
    started = time.perf_counter()
    try:
        if kind == "deploy":
            service.deploy_query(query, timeout=60)
        else:
            service.retire_query(query.name, timeout=60)
    except Exception as error:  # counted, the pass carries on
        print(f"control op {kind} failed: {error!r}", file=sys.stderr)
        result.failed += 1
    result.ops += 1
    result.control_op_ms.append((time.perf_counter() - started) * 1000.0)


# ---------------------------------------------------------------------------
# TCP workload: a `repro serve` child process
# ---------------------------------------------------------------------------


def wire_lines(inputs: Inputs) -> list[str]:
    """The seq-tagged protocol line of every input event."""
    lines = []
    for seq, event in enumerate(inputs.events):
        row = event_row(event)
        row["seq"] = seq
        lines.append(json.dumps(row, default=str))
    return lines


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


#: every server spawned and not yet reaped
_LIVE_SERVERS: list["ServeProcess"] = []


class ServeProcess:
    """A ``repro serve --listen`` child, from spawn to reaped exit."""

    def __init__(self, *, trace_path: str | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        serve_args = [
            "serve", "--scenario", "traffic", "--listen", "127.0.0.1:0",
            "--queue-size", str(QUEUE_SIZE), "--summary",
        ]
        if trace_path is None:
            command = [sys.executable, "-m", "repro"] + serve_args
        else:
            child = os.path.join(ROOT, "bench", "serve_child.py")
            command = [sys.executable, child, trace_path] + serve_args
        self.trace_path = trace_path
        self.stderr: str | None = None
        self.cpu_s = 0.0
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            env=env,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        _LIVE_SERVERS.append(self)
        announcement = self.proc.stderr.readline()
        self.setup_s = time.perf_counter() - started
        match = re.match(r"listening on ([\d.]+):(\d+)", announcement)
        if not match:
            self.proc.kill()
            self.reap()
            raise RuntimeError(
                "repro serve did not announce a port: "
                f"{announcement!r} {self.stderr!r}"
            )
        self.host, self.port = match.group(1), int(match.group(2))

    def reap(self) -> None:
        """Wait for the exit (killing a server that will not go) and
        account the child's CPU.  Idempotent.

        ``RUSAGE_CHILDREN`` grows by exactly this child's usage when it
        is waited for, whatever other children are still running.  The
        server idles about a second in its own shutdown after the last
        emission, so callers reap it late, off the measured path.
        """
        if self.stderr is not None:
            return
        before = _children_cpu_s()
        try:
            _, self.stderr = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            _, self.stderr = self.proc.communicate()
        self.cpu_s = _children_cpu_s() - before
        _LIVE_SERVERS.remove(self)


def stop_resource_tracker() -> None:
    """Stop :mod:`multiprocessing`'s resource tracker and wait for it.

    Creating a shared-memory segment (``ProcessPoolBackend``'s rings)
    starts the tracker as a child of this process.  Left alone it only
    notices this process's exit afterwards and so outlives it; every
    segment is unlinked and every worker joined by the time this is
    called, so it has nothing left to track.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def stop_all_processes() -> None:
    """Every way out of the benchmark ends here: no process it started
    is running, or unreaped, when it exits."""
    for server in list(_LIVE_SERVERS):
        server.proc.kill()
        server.reap()
    stop_resource_tracker()


def request_drain(client: ServeClient) -> None:
    """Start a server's graceful drain through the protocol's ``stop`` op.

    The op is the wire equivalent of SIGTERM and takes the same drain
    path; the signal itself is not used because a SIGTERM sent while the
    server is busy was seen to be swallowed now and then (the main thread
    stays parked in ``stopper.wait()``, the drain never starts), which
    would hang a pass rather than measure it.
    """
    client.stop_server()
    client.close_write()


def serve_startup() -> tuple[float, float]:
    """Spawn a server and drain it at once: ``(setup_s, cpu_s)``.

    The CPU a server burns without seeing a single event is subtracted
    from a pass's child CPU, so ``cpu_us_per_event`` counts ingestion."""
    server = ServeProcess()
    try:
        with ServeClient(server.host, server.port) as client:
            request_drain(client)
            server.reap()
    finally:
        server.proc.kill()
        server.reap()
    return server.setup_s, server.cpu_s


def tcp_pass(
    inputs: Inputs,
    lines: list[str],
    *,
    rate: float | None = None,
    trace_path: str | None = None,
) -> PassResult:
    """The whole input over one producer connection into a fresh server,
    emissions collected on one subscriber connection, graceful drain.

    Returns when the subscriber has seen EOF — every emission is in.
    The server process is still shutting down then;
    :func:`finish_tcp_pass` reaps it and fills in what only the exit
    tells (CPU, the processed-event count, the child's trace).
    """
    events = inputs.events
    clock = time.perf_counter
    result = PassResult(events=len(events), wall_s=0.0, cpu_s=0.0, lines=[])
    received: list[tuple[float, str]] = []
    finished: list[float] = []
    server = ServeProcess(trace_path=trace_path)
    result.setup_s = server.setup_s
    result.server = server
    subscriber = producer = None
    try:
        # the connect budget doubles as the socket's read timeout: a
        # subscriber must outwait the quietest stretch of a pass
        subscriber = ServeClient(server.host, server.port, connect_timeout=120)
        subscriber.subscribe()

        def collect() -> None:
            for line in subscriber.emission_lines():
                received.append((clock(), line))
            finished.append(clock())

        collector = threading.Thread(target=collect, name="bench-subscriber")
        collector.start()
        producer = ServeClient(server.host, server.port)
        # the load generator must put each line on the wire when it is due:
        # with Nagle on, the kernel holds single lines back until the
        # server's (delayed) ACK and delivers them in 40 ms bursts
        producer._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send = producer.send_line
        late = result.late_ms
        started = clock()
        if rate is None:
            # closed loop: a throughput-minded producer writes blocks, not
            # lines; sendall still parks on TCP backpressure
            for offset in range(0, len(lines), SEND_BLOCK_LINES):
                send("\n".join(lines[offset:offset + SEND_BLOCK_LINES]))
        else:
            for index, line in enumerate(lines):
                late.append(_sleep_until(started + index / rate))
                send(line)
            # the reply arrives once the server has read every line sent;
            # its watermark says how far the engine has committed
            try:
                watermark = producer.ping().get("watermark")
                result.backlog_end = _uncommitted(events, watermark)
            except ServeClientError as error:
                print(f"server rejected input: {error}", file=sys.stderr)
                result.failed += 1
        request_drain(producer)
        collector.join(timeout=120)
        if collector.is_alive() or not finished:
            raise RuntimeError("subscriber saw no EOF after the drain")
        result.wall_s = finished[0] - started
    except BaseException:
        server.proc.kill()
        server.reap()
        raise
    finally:
        for client in (producer, subscriber):
            if client is not None:
                client.close()
    result.lines = [line for _, line in received]
    if rate is not None:
        result.latencies_ms = _emission_latencies_ms(
            events,
            started,
            rate,
            [(at, json.loads(line)["time"]) for at, line in received],
        )
    return result


def finish_tcp_pass(result: PassResult) -> PassResult:
    """Reap a TCP pass's server and account what its exit reports."""
    server = result.server
    server.reap()
    result.cpu_s = server.cpu_s
    summary = re.search(r"events=(\d+)", server.stderr)
    processed = int(summary.group(1)) if summary else 0
    result.failed += result.events - processed
    if server.proc.returncode != 0:
        print(server.stderr, file=sys.stderr)
        result.failed = max(result.failed, result.events)
    if server.trace_path is not None and os.path.exists(server.trace_path):
        with open(server.trace_path, encoding="utf-8") as handle:
            result.child_trace = json.load(handle)
    return result


def peak_rss_mb(*, children: bool) -> float:
    """``ru_maxrss`` (KiB on Linux) of this process or its reaped children."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
