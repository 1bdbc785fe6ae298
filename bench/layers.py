"""The traced run: per-layer metrics (``--trace 1``).

Spans come from :mod:`bench.trace` wrappers installed around each layer's
entry point for the duration of one pass; counts come from the pass's
``EngineReport`` and metrics registry at the same boundaries; a few layers
are driven directly over the workload's own inputs (wire codec, batch
codec, checkpoint capture/restore, the process backend's transport).

Every workload reports every per-layer metric; a layer a workload does not
touch reports zero.
"""

from __future__ import annotations

import os
import pickle
import time
from contextlib import contextmanager

from repro.api import create_engine
from repro.core.windows import WindowSpec
from repro.events.batch import EventBatch, TypeDirectory
from repro.events.stream import EventStream
from repro.net.protocol import TypeResolver, encode_event, parse_line
from repro.optimizer.apply import OptimizationRules, optimize_combined
from repro.optimizer.planner import build_combined_plans, build_plans_for_queries
from repro.optimizer.sharing import build_shared_workload
from repro.runtime.backend import ProcessPoolBackend
from repro.runtime.baseline import ContextIndependentEngine
from repro.runtime.checkpoint import capture_checkpoint, restore_checkpoint
from repro.runtime.reporting import report_to_dict

from bench import harness, trace
from bench.harness import percentile, spread
from bench.workloads import Inputs, Workload

OUT_DIR = os.path.join(harness.ROOT, ".bench_out")

#: ``service.sustainable_rate_eps``: the frozen paced rate times these,
#: each step a short paced pass on a fresh system
LADDER = (0.5, 1.0, 1.5, 2.0, 2.5)
LADDER_STEP_SECONDS = 1.0
#: events of the short ``ProcessPoolBackend(max_workers=2)`` slice
PROCESS_SLICE_EVENTS = 3000


@contextmanager
def traced(*, net: bool = False):
    tracer = trace.Tracer()
    trace.install(tracer, net=net)
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _layer(view: dict, name: str, field: str = "self_ms") -> float:
    return view["layers"].get(name, {}).get(field, 0.0)


def _registry_value(registry: dict, name: str) -> float:
    """Sum of one instrument over its label sets (snapshot keys are
    ``name`` or ``name{labels}``)."""
    return sum(
        value
        for key, value in registry.items()
        if (key == name or key.startswith(name + "{"))
        and isinstance(value, (int, float))
    )


def _prefix(inputs: Inputs, count: int) -> Inputs:
    events = inputs.events[:count]
    return Inputs(events, [op for op in inputs.ops if op[0] < len(events)])


# ---------------------------------------------------------------------------
# direct drives
# ---------------------------------------------------------------------------


def _drive_optimizer(workload: Workload, metrics: dict) -> None:
    model = workload.build_model()
    config = workload.engine_config()
    queries = model.to_query_set()
    started = time.perf_counter()
    plans = build_plans_for_queries(
        queries, retention=config.retention, aggregation=config.aggregation
    )
    rules = OptimizationRules.from_spec(config.optimize)
    combined = [
        optimize_combined(c, rules) for c in build_combined_plans(plans)
    ]
    metrics["optimizer.plan_ms"] = (time.perf_counter() - started) * 1000.0
    metrics["optimizer.plans"] = sum(len(c.plans) for c in combined)
    # one user window per context carrying its processing queries: what
    # the sharing optimizer would fuse
    by_context: dict[str, list] = {}
    for query in queries:
        if query.is_processing:
            for context in query.contexts or (model.default_context,):
                by_context.setdefault(context, []).append(query)
    specs = [
        WindowSpec(name, start=0, end=1, queries=tuple(members))
        for name, members in by_context.items()
    ]
    shared = build_shared_workload(specs, retention=config.retention)
    metrics["optimizer.shared_groups"] = sum(
        1 for unit in shared.units if len(unit.query_names) > 1
    )


def _drive_batch_codec(inputs: Inputs, metrics: dict) -> None:
    """``EventBatch.encode``/``decode`` over the input's stream batches."""
    batches = [list(b) for b in EventStream(
        sorted(inputs.events, key=lambda e: e.timestamp)
    ).batches()]
    encode_dir, decode_dir = TypeDirectory(), TypeDirectory()
    encode_s = decode_s = 0.0
    size = columnar = events = 0
    for batch in batches:
        before = time.perf_counter()
        encoded = EventBatch.encode(batch, encode_dir)
        encode_s += time.perf_counter() - before
        encoded.commit()
        before = time.perf_counter()
        decoded = EventBatch.decode(encoded.data, decode_dir)
        decode_s += time.perf_counter() - before
        if len(decoded) != len(batch):
            raise AssertionError("EventBatch round trip lost events")
        size += len(encoded.data)
        columnar += encoded.stats.columnar
        events += encoded.stats.events
    metrics["batch.encode_us_per_event"] = encode_s / events * 1e6
    metrics["batch.decode_us_per_event"] = decode_s / events * 1e6
    metrics["batch.bytes_per_event"] = size / events
    metrics["batch.columnar_share"] = columnar / events


def _drive_wire_codec(wire: list[str], expected: list[str], metrics: dict) -> None:
    """``parse_line`` over the input lines, ``encode_event`` over the
    reference emissions (decoded back to events first)."""
    resolver = TypeResolver()
    before = time.perf_counter()
    for line in wire:
        parse_line(line, resolver)
    metrics["net.parse_line_us_per_event"] = (
        (time.perf_counter() - before) / len(wire) * 1e6
    )
    emitted = [parse_line(line, resolver).event for line in expected]
    before = time.perf_counter()
    for event in emitted:
        encode_event(event)
    metrics["net.encode_event_us_per_emission"] = (
        (time.perf_counter() - before) / max(len(emitted), 1) * 1e6
    )


def _drive_process_backend(workload: Workload, inputs: Inputs, metrics: dict) -> None:
    """A short counted slice under ``ProcessPoolBackend(max_workers=2)``:
    transport counts only — two workers on two cores say nothing about
    wall-clock scaling."""
    events = inputs.events[:PROCESS_SLICE_EVENTS]
    engine = create_engine(
        workload.build_model(),
        workload.engine_config(),
        backend=ProcessPoolBackend(max_workers=2),
    )
    try:
        report = engine.run(EventStream(events), track_outputs=False)
    finally:
        engine.close()
        # the rings' resource tracker would outlive this process
        harness.stop_resource_tracker()
    metrics["backend.proc_transport_bytes_per_event"] = (
        (report.transport_bytes_out + report.transport_bytes_in) / len(events)
    )
    metrics["backend.proc_batches_shm"] = report.batches_shm
    metrics["backend.proc_pickled_fallback"] = report.batches_pickled_fallback


def _drive_context_independent(
    workload: Workload, inputs: Inputs, expected: list[str], cost: float,
    metrics: dict,
) -> int:
    """The same stream through the paper's baseline: exact-repeat cost
    counts, and an independent check of the emissions."""
    config = workload.engine_config()
    engine = ContextIndependentEngine(
        workload.build_model(),
        retention=config.retention,
        partition_by=config.partition_by,
    )
    report = engine.run(EventStream(inputs.events))
    metrics["engine.cost_units_ci"] = report.cost_units
    metrics["engine.context_win_ratio"] = report.cost_units / cost
    return harness.emission_mismatches(
        sorted(encode_event(e) for e in report.outputs), sorted(expected)
    )


def _drive_checkpoint(workload: Workload, engine, metrics: dict) -> None:
    """``capture_checkpoint`` on a pass's end state, restored into a
    fresh engine (the model has to match: replay the net deploys)."""
    checkpoint = capture_checkpoint(engine)
    metrics["checkpoint.bytes"] = len(pickle.dumps(checkpoint))
    fresh = create_engine(engine.model, workload.engine_config())
    before = time.perf_counter()
    restore_checkpoint(fresh, checkpoint)
    metrics["checkpoint.restore_ms"] = (time.perf_counter() - before) * 1000.0
    fresh.close()


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def run_traced(workload: Workload, seed: int, seconds: float, scale: float) -> dict:
    """Every per-layer metric of one workload.

    ``seconds`` is not used to size this run: it makes one untraced and
    one traced closed-loop pass, one traced paced pass, the rate ladder
    and the direct drives, each of fixed size.
    """
    metrics = dict.fromkeys(
        (m["name"] for m in harness.load_contract()["per_layer"]), 0.0
    )
    inputs = workload.make_inputs(seed, scale)
    tcp = workload.kind == "tcp"
    os.makedirs(OUT_DIR, exist_ok=True)
    child_trace = os.path.join(OUT_DIR, f"serve-{workload.name}-{seed}.json")
    wire = harness.wire_lines(inputs) if tcp else None

    def one_pass(pass_inputs=inputs, rate=None, trace_path=None):
        if workload.kind == "batch":
            return harness.batch_pass(workload, pass_inputs, track_outputs=True)
        if tcp:
            lines = wire[: len(pass_inputs.events)]
            return harness.finish_tcp_pass(harness.tcp_pass(
                pass_inputs, lines, rate=rate, trace_path=trace_path
            ))
        return harness.service_pass(workload, pass_inputs, rate=rate)

    expected, reference = harness.reference_lines(workload, inputs)
    checked = []

    # tracing off, then the same pass traced: the ratio is the overhead
    untraced = one_pass()
    checked.append(untraced)
    with traced() as tracer:
        harness.build_engine(workload).close()  # language.parse spans
        setup_view = tracer.view()
        closed = one_pass(trace_path=child_trace)
        view = closed.child_trace if tcp else tracer.view()
        captures = tracer.durations_ms("checkpoint.capture")
        if not tcp:
            tracer.dump(
                os.path.join(OUT_DIR, f"trace-{workload.name}-{seed}.json"),
                workload=workload.name, seed=seed,
            )
    checked.append(closed)
    metrics["trace.overhead_ratio"] = closed.wall_s / untraced.wall_s

    metrics["language.parse_ms"] = _layer(setup_view, "language.parse", "total_ms")
    metrics["language.queries"] = _layer(setup_view, "language.parse", "count")
    _drive_optimizer(workload, metrics)

    if tcp:
        report = view["report"]
        registry = view["registry"]
    else:
        report = report_to_dict(closed.report)
        registry = closed.engine.observability.registry.snapshot()
    events = len(inputs.events)
    transactions = (
        _registry_value(registry, "caesar_transactions_total")
        or _layer(view, "backend.execute", "count")
    )
    metrics["engine.run_self_ms"] = _layer(view, "engine.run")
    metrics["engine.transactions"] = transactions
    metrics["engine.events_per_transaction"] = events / max(transactions, 1)
    metrics["engine.cost_units"] = report["cost_units"]
    routed = report["routed_batches"]
    suppressed = report["suppressed_batches"]
    uninterested = report["interest_suppressed_batches"]
    metrics["router.route_ms"] = (
        _layer(view, "router.route") + _layer(view, "router.advance_time")
    )
    metrics["router.route_calls"] = _layer(view, "router.route", "count")
    metrics["router.routed_batches"] = routed
    metrics["router.suppressed_batches"] = suppressed
    metrics["router.interest_suppressed_batches"] = uninterested
    metrics["router.suppression_ratio"] = (suppressed + uninterested) / max(
        routed + suppressed + uninterested, 1
    )
    counts = view["counts"]
    metrics["filter.process_ms"] = _layer(view, "filter.process")
    metrics["filter.events_in"] = counts.get("filter.process.in", 0)
    metrics["filter.events_out"] = counts.get("filter.process.out", 0)
    metrics["projection.process_ms"] = _layer(view, "projection.process")
    metrics["context_ops.process_ms"] = _layer(view, "context_ops.process")
    windows = [w for ws in report["windows"].values() for w in ws]
    metrics["context_ops.transitions"] = len(windows) + sum(
        1 for w in windows if w["end"] is not None
    )
    metrics["pattern.process_ms"] = _layer(view, "pattern.process")
    metrics["pattern.events_in"] = counts.get("pattern.process.in", 0)
    metrics["pattern.matches_out"] = counts.get("pattern.process.out", 0)
    metrics["pattern.state_size_peak"] = counts.get("pattern.state_size_peak", 0)
    metrics["seq_aggregate.process_ms"] = _layer(view, "seq_aggregate.process")
    for key in ("matches_aggregated", "matches_materialized"):
        metrics["seq_aggregate." + key] = view["objects"].get(
            "seq_aggregate." + key, 0
        )
    metrics["gc.collect_ms"] = _layer(view, "gc.collect")
    metrics["gc.collected"] = report["gc_collected"]
    metrics["session.feed_self_ms"] = _layer(view, "session.feed")
    metrics["session.reordered_events"] = closed.reordered_events
    metrics["session.late_events"] = closed.late_events
    metrics["reorder.push_ms"] = _layer(view, "reorder.push")
    metrics["service.submit_wait_ms"] = _layer(view, "service.submit", "total_ms")
    metrics["service.emit_cb_ms"] = _layer(
        view, "net.emit" if tcp else "service.emit_cb", "total_ms"
    )
    metrics["backend.execute_ms"] = _layer(view, "backend.execute")
    supervision = report["supervision"]
    metrics["checkpoint.count"] = supervision["checkpoints_taken"]
    if captures:
        metrics["checkpoint.capture_ms_p50"] = percentile(captures, 50)
        _drive_checkpoint(workload, closed.engine, metrics)

    if tcp:
        metrics["net.resequence_push_us_per_event"] = (
            _layer(view, "net.resequence_push") * 1000.0 / events
        )
        metrics["net.resequence_pending_max"] = counts.get(
            "net.resequence_pending_max", 0
        )
        metrics["net.send_blocked_ms"] = _layer(view, "net.emit")
        metrics["net.bytes_in_per_event"] = (
            _registry_value(registry, "caesar_net_bytes_in_total") / events
        )
        metrics["net.bytes_out_per_emission"] = _registry_value(
            registry, "caesar_net_bytes_out_total"
        ) / max(len(expected), 1)
        metrics["net.rejected_lines"] = _registry_value(
            registry, "caesar_net_rejected_lines_total"
        )
        _drive_wire_codec(wire, expected, metrics)
    _drive_batch_codec(inputs, metrics)

    mismatched = 0
    if workload.kind == "batch":
        _drive_process_backend(workload, inputs, metrics)
        mismatched += _drive_context_independent(
            workload, inputs, expected, reference.cost_units, metrics
        )

    # -- open loop: one traced paced pass, then the rate ladder ------------
    # (a backlog under tracing is reported, not failed: the spans' cost
    # is the benchmark's, not the program's)
    if workload.paced_rate_eps:
        rate = float(workload.paced_rate_eps)
        with traced() as tracer:
            paced = one_pass(rate=rate, trace_path=child_trace)
            paced_view = paced.child_trace if tcp else tracer.view()
        checked.append(paced)
        depths = paced_view["samples"].get("service.queue_depth", [0])
        metrics["service.queue_depth_p50"] = percentile(depths, 50)
        metrics["service.queue_depth_max"] = max(depths)
        metrics["service.backlog_end"] = paced.backlog_end
        metrics["service.emit_latency_p99_ms"] = percentile(paced.latencies_ms, 99)
        metrics["service.emit_latency_max_ms"] = max(paced.latencies_ms)
        metrics["service.generator_late_p99_ms"] = percentile(paced.late_ms, 99)
        if paced.control_op_ms:
            metrics["service.control_op_ms_p50"] = percentile(
                paced.control_op_ms, 50
            )
        for factor in LADDER:
            step_rate = rate * factor
            step = _prefix(inputs, int(step_rate * LADDER_STEP_SECONDS))
            if harness.kept_up(one_pass(step, rate=step_rate)):
                metrics["service.sustainable_rate_eps"] = step_rate

    mismatched += sum(
        harness.emission_mismatches(result.lines, expected)
        for result in checked
    )
    return harness.outcome(
        {name: spread([value]) for name, value in metrics.items()},
        inputs, expected, checked, mismatched,
    )
