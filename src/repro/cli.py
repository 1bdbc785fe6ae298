"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``describe-traffic``   print the Linear Road CAESAR model (textual Figure 1)
``describe-pam``       print the PAM CAESAR model
``dot-traffic``        print the traffic model as a Graphviz digraph
``dot-pam``            print the PAM model as a Graphviz digraph
``run-traffic``        run the traffic scenario and print the report
``run-pam``            run the health-monitoring scenario and print the report
``validate-traffic``   run the traffic scenario and validate its outputs
``parse``              parse a CAESAR query from the argument and dump it
``stats``              run a scenario with observability on and dump metrics
``diff``               differential correctness harness (see docs/difftest.md)
``serve``              long-lived streaming service: line-delimited JSON
                       events on stdin, derived events on stdout, graceful
                       drain on EOF/SIGTERM, online deployment ops; with
                       ``--listen HOST:PORT`` / ``--http HOST:PORT`` the
                       same protocol is served over TCP / HTTP instead
                       (see ``repro.net``)
"""

from __future__ import annotations

import argparse
import sys

from repro.core.viz import to_dot, to_text
from repro.errors import CaesarError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CAESAR: context-aware event stream analytics "
        "(EDBT 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("describe-traffic", help="print the traffic model")
    sub.add_parser("describe-pam", help="print the PAM model")
    sub.add_parser("dot-traffic", help="traffic model as Graphviz DOT")
    sub.add_parser("dot-pam", help="PAM model as Graphviz DOT")

    run_traffic = sub.add_parser("run-traffic", help="run the traffic scenario")
    run_traffic.add_argument("--roads", type=int, default=1)
    run_traffic.add_argument("--segments", type=int, default=3)
    run_traffic.add_argument("--minutes", type=int, default=12)
    run_traffic.add_argument("--seed", type=int, default=7)
    run_traffic.add_argument(
        "--baseline", action="store_true",
        help="use the context-independent engine",
    )

    run_pam = sub.add_parser("run-pam", help="run the PAM scenario")
    run_pam.add_argument("--subjects", type=int, default=4)
    run_pam.add_argument("--minutes", type=int, default=12)
    run_pam.add_argument("--seed", type=int, default=5)
    run_pam.add_argument("--baseline", action="store_true")

    validate = sub.add_parser(
        "validate-traffic",
        help="run the traffic scenario and validate outputs against an "
        "independent recomputation (the Linear Road correctness bar)",
    )
    validate.add_argument("--roads", type=int, default=1)
    validate.add_argument("--segments", type=int, default=2)
    validate.add_argument("--minutes", type=int, default=12)
    validate.add_argument("--seed", type=int, default=7)

    parse_cmd = sub.add_parser("parse", help="parse one CAESAR query")
    parse_cmd.add_argument("query", help="the query text")

    stats = sub.add_parser(
        "stats",
        help="run a scenario with observability enabled and print metrics",
    )
    stats.add_argument(
        "--scenario", choices=("traffic", "pam"), default="traffic"
    )
    stats.add_argument("--roads", type=int, default=1)
    stats.add_argument("--segments", type=int, default=3)
    stats.add_argument("--subjects", type=int, default=4)
    stats.add_argument("--minutes", type=int, default=12)
    stats.add_argument("--seed", type=int, default=7)
    stats.add_argument(
        "--backend", default=None,
        help="execution backend (serial | process)",
    )
    stats.add_argument(
        "--format", choices=("human", "prometheus", "json"), default="human"
    )
    stats.add_argument(
        "--trace", metavar="FILE", default=None,
        help="also record trace spans and write Chrome trace JSON to FILE",
    )
    stats.add_argument(
        "--timeline", action="store_true",
        help="append the ASCII context timeline after the metrics",
    )

    diff = sub.add_parser(
        "diff",
        help="run the differential correctness harness: pairs of "
        "configurations that must agree (optimizer on/off, context-aware "
        "vs baseline, backends, checkpoint/restore, reordered arrival)",
    )
    diff.add_argument(
        "--scenario",
        choices=("traffic", "pam", "threshold", "all"),
        default="all",
        help="workload to diff (default: all)",
    )
    diff.add_argument(
        "--axis",
        choices=("optimizer", "context", "backend", "checkpoint",
                 "reorder", "shed", "aggregate", "service", "all"),
        default="all",
        help="equivalence axis to check (default: all)",
    )
    diff.add_argument("--seed", type=int, default=7)
    diff.add_argument(
        "--scale", type=float, default=1.0,
        help="stream length multiplier (CI uses a small budget like 0.5)",
    )
    diff.add_argument(
        "--inject-divergence", action="store_true",
        help="drop one event from one side to prove the harness catches "
        "and minimizes a real disagreement (exits non-zero)",
    )
    diff.add_argument(
        "--no-shrink", action="store_true",
        help="report the first divergence without ddmin-minimizing "
        "the failing stream",
    )

    serve = sub.add_parser(
        "serve",
        help="long-lived streaming service: line-delimited JSON events on "
        "stdin, derived events on stdout; {\"op\": \"deploy\"|\"retire\"} "
        "lines manage queries online; drains gracefully on EOF/SIGTERM",
    )
    serve.add_argument(
        "--scenario",
        choices=("traffic", "pam", "threshold"),
        default="traffic",
        help="model + partitioner + type registry to serve (default: traffic)",
    )
    serve.add_argument(
        "--max-delay", type=float, default=0,
        help="out-of-order tolerance in stream time units (older events "
        "are dead-lettered as late)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=1024,
        help="ingestion queue bound; a full queue blocks stdin reading "
        "(backpressure)",
    )
    serve.add_argument(
        "--summary", action="store_true",
        help="print the final report summary to stderr on exit",
    )
    serve.add_argument(
        "--listen", metavar="HOST:PORT", default=None,
        help="serve the line protocol over TCP instead of stdin; "
        "PORT 0 picks an ephemeral port (announced on stderr)",
    )
    serve.add_argument(
        "--http", metavar="HOST:PORT", default=None,
        help="also serve HTTP: POST /events (NDJSON), GET /healthz, "
        "GET /metrics (Prometheus text)",
    )
    serve.add_argument(
        "--read-timeout", type=float, default=300.0,
        help="per-connection idle bound in seconds for --listen "
        "(0 disables)",
    )
    return parser


def _cmd_describe_traffic() -> int:
    from repro.linearroad.queries import build_traffic_model

    print(to_text(build_traffic_model()))
    return 0


def _cmd_describe_pam() -> int:
    from repro.pam.queries import build_pam_model

    print(to_text(build_pam_model()))
    return 0


def _cmd_dot_traffic() -> int:
    from repro.linearroad.queries import build_traffic_model

    print(to_dot(build_traffic_model(), name="traffic"))
    return 0


def _cmd_dot_pam() -> int:
    from repro.pam.queries import build_pam_model

    print(to_dot(build_pam_model(), name="pam"))
    return 0


def _cmd_run_traffic(args: argparse.Namespace) -> int:
    from repro.linearroad.generator import (
        LinearRoadConfig,
        generate_stream,
        paper_timeline_schedules,
    )
    from repro.linearroad.queries import (
        build_traffic_model,
        segment_partitioner,
    )
    from repro.runtime.baseline import ContextIndependentEngine
    from repro.runtime.engine import CaesarEngine

    config = paper_timeline_schedules(
        LinearRoadConfig(
            num_roads=args.roads,
            segments_per_road=args.segments,
            duration_minutes=args.minutes,
            seed=args.seed,
        )
    )
    engine_class = (
        ContextIndependentEngine if args.baseline else CaesarEngine
    )
    engine = engine_class(
        build_traffic_model(),
        partition_by=segment_partitioner,
        retention=120,
    )
    report = engine.run(generate_stream(config))
    print(report.summary())
    print("outputs:", dict(sorted(report.outputs_by_type.items())))
    return 0


def _cmd_run_pam(args: argparse.Namespace) -> int:
    from repro.pam.generator import PamConfig, generate_pam_stream
    from repro.pam.queries import build_pam_model, subject_partitioner
    from repro.runtime.baseline import ContextIndependentEngine
    from repro.runtime.engine import CaesarEngine

    config = PamConfig(
        num_subjects=args.subjects,
        duration_minutes=args.minutes,
        seed=args.seed,
    )
    engine_class = (
        ContextIndependentEngine if args.baseline else CaesarEngine
    )
    engine = engine_class(
        build_pam_model(), partition_by=subject_partitioner, retention=60
    )
    report = engine.run(generate_pam_stream(config))
    print(report.summary())
    print("outputs:", dict(sorted(report.outputs_by_type.items())))
    return 0


def _cmd_validate_traffic(args: argparse.Namespace) -> int:
    from repro.linearroad.generator import (
        LinearRoadConfig,
        generate_stream,
        paper_timeline_schedules,
    )
    from repro.linearroad.queries import (
        build_traffic_model,
        segment_partitioner,
    )
    from repro.linearroad.validation import validate_report
    from repro.runtime.engine import CaesarEngine

    config = paper_timeline_schedules(
        LinearRoadConfig(
            num_roads=args.roads,
            segments_per_road=args.segments,
            duration_minutes=args.minutes,
            seed=args.seed,
        )
    )
    engine = CaesarEngine(
        build_traffic_model(),
        partition_by=segment_partitioner,
        retention=120,
    )
    report = engine.run(generate_stream(config))
    result = validate_report(generate_stream(config), report)
    print(result.summary())
    return 0 if result.passed else 1


def _cmd_parse(args: argparse.Namespace) -> int:
    from repro.language import parse_query
    from repro.optimizer.planner import build_query_plan
    from repro.optimizer.pushdown import push_context_windows_down

    query = parse_query(args.query, name="cli")
    print(query)
    context = query.contexts[0] if query.contexts else "default"
    plan = push_context_windows_down(build_query_plan(query, context))
    print()
    print(plan.describe())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.api import EngineConfig, create_engine
    from repro.observability import (
        Observability,
        chrome_trace,
        render_stats,
        to_json_snapshot,
        to_prometheus,
    )
    from repro.runtime.reporting import render_timeline

    if args.scenario == "traffic":
        from repro.linearroad.generator import (
            LinearRoadConfig,
            generate_stream,
            paper_timeline_schedules,
        )
        from repro.linearroad.queries import (
            build_traffic_model,
            segment_partitioner,
        )

        scenario_config = paper_timeline_schedules(
            LinearRoadConfig(
                num_roads=args.roads,
                segments_per_road=args.segments,
                duration_minutes=args.minutes,
                seed=args.seed,
            )
        )
        model = build_traffic_model()
        partitioner = segment_partitioner
        stream = generate_stream(scenario_config)
        retention = 120
    else:
        from repro.pam.generator import PamConfig, generate_pam_stream
        from repro.pam.queries import build_pam_model, subject_partitioner

        scenario_config = PamConfig(
            num_subjects=args.subjects,
            duration_minutes=args.minutes,
            seed=args.seed,
        )
        model = build_pam_model()
        partitioner = subject_partitioner
        stream = generate_pam_stream(scenario_config)
        retention = 60

    observability = Observability(detailed=True, tracing=args.trace is not None)
    engine = create_engine(
        model,
        EngineConfig(
            backend=args.backend,
            observability=observability,
            partition_by=partitioner,
            retention=retention,
        ),
    )
    report = engine.run(stream)

    if args.format == "prometheus":
        print(to_prometheus(observability.registry), end="")
    elif args.format == "json":
        print(json.dumps(to_json_snapshot(observability), indent=2))
    else:
        print(report.summary())
        print()
        print(render_stats(observability.registry, title=args.scenario))
    if args.timeline:
        print()
        print(render_timeline(report))
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write(chrome_trace(observability.recorder))
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.difftest import AXES, comparisons_for, get_scenario, run_comparison

    scenario_names = (
        ("traffic", "pam", "threshold")
        if args.scenario == "all"
        else (args.scenario,)
    )
    axes = AXES if args.axis == "all" else (args.axis,)
    failures = 0
    checks = 0
    for name in scenario_names:
        scenario = get_scenario(name)
        events = scenario.make_events(args.seed, args.scale)
        print(
            f"[{name}] {scenario.description}: {len(events)} events "
            f"(seed={args.seed}, scale={args.scale})"
        )
        for axis in axes:
            for comparison in comparisons_for(scenario, axis):
                checks += 1
                result = run_comparison(
                    scenario,
                    comparison,
                    events,
                    shrink=not args.no_shrink,
                    inject_divergence=args.inject_divergence,
                )
                status = "ok" if result.passed else "DIVERGED"
                print(f"  {axis:10s} {comparison.label:24s} {status}")
                if not result.passed:
                    failures += 1
                    indent = "    "
                    print(indent + result.divergence.describe().replace(
                        "\n", "\n" + indent))
                    if result.minimized is not None:
                        print(
                            f"{indent}minimized failing stream "
                            f"({len(result.minimized)} of "
                            f"{result.events_run} events):"
                        )
                        for event in result.minimized:
                            print(f"{indent}  {event!r}")
    verdict = "diverged" if failures else "agreed"
    print(f"{checks} comparisons, {failures} diverged -> {verdict}")
    return 1 if failures else 0


class _Shutdown(Exception):
    """SIGTERM/SIGINT during ``serve`` — triggers the graceful drain."""


def _parse_hostport(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise CaesarError(f"expected HOST:PORT, got {value!r}")
    return host or "127.0.0.1", int(port)


def _serve_stdin(service, resolver) -> None:
    """The stdin transport of the serve line protocol.

    Lines are decoded by the same ``parse_line`` and ops applied by the
    same ``apply_op`` as on TCP and HTTP; replies — op acknowledgements
    and coded errors for rejected lines — go to stderr as the protocol's
    JSON reply lines, and ingestion continues after a rejected line.
    Returns on EOF or an inline ``{"op": "stop"}``.
    """
    from repro.net.protocol import (
        ERR_BAD_OP,
        ProtocolError,
        apply_op,
        error_reply,
        ok_reply,
        parse_line,
    )

    for line in sys.stdin:
        if not line.strip():
            continue
        try:
            parsed = parse_line(line, resolver)
        except ProtocolError as err:
            print(err.reply(), file=sys.stderr)
            continue
        if parsed.kind == "event":
            # unguarded: a stopped or crashed service ends the loop
            # instead of being reported line after line
            service.submit(parsed.event)
            continue
        try:
            reply = ok_reply(**apply_op(service, parsed.op, resolver.types))
        except ProtocolError as err:
            reply = err.reply()
        except CaesarError as err:  # a deploy/retire the engine refused
            reply = error_reply(ERR_BAD_OP, str(err))
        print(reply, file=sys.stderr)
        if parsed.op["op"] == "stop":
            return


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: one service, one protocol, a transport per flag.

    Without ``--listen``/``--http`` the protocol is read from stdin.
    With them it runs until SIGTERM/SIGINT or an inline ``{"op":
    "stop"}``; bound addresses are announced on stderr as ``listening on
    H:P`` / ``http on H:P`` so callers can bind to port 0 and discover.
    Every mode drains gracefully and (with ``--summary``) reports to
    stderr.
    """
    import signal
    import threading

    from repro.api import EngineConfig, create_engine
    from repro.difftest.scenarios import get_scenario
    from repro.net import NetServer, TypeResolver, encode_event, scenario_types
    from repro.runtime.service import EngineService

    scenario = get_scenario(args.scenario)
    engine = create_engine(
        scenario.build_model(),
        EngineConfig(
            partition_by=scenario.partition_by,
            retention=scenario.retention,
        ),
    )
    resolver = TypeResolver(scenario_types(args.scenario))
    emit_sinks: list = []

    def emit_stdout(event):
        sys.stdout.write(encode_event(event) + "\n")
        sys.stdout.flush()

    def emit(event):
        for sink in emit_sinks:
            sink(event)

    service = EngineService(
        engine,
        max_delay=args.max_delay,
        queue_size=args.queue_size,
        on_emit=emit,
    )
    server = None
    front = None

    def on_signal(signum, frame):  # pragma: no cover - signal timing
        raise _Shutdown()

    # handlers go in before the bound addresses are announced: a client
    # that reads the announcement may send SIGTERM immediately, and the
    # default handler would kill the process instead of draining
    previous = {
        sig: signal.signal(sig, on_signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        try:
            if args.listen:
                host, port = _parse_hostport(args.listen)
                server = NetServer(
                    service,
                    host=host,
                    port=port,
                    types=resolver,
                    read_timeout=args.read_timeout or None,
                )
                emit_sinks.append(server.emit)
                bound = server.start()
                print(f"listening on {bound[0]}:{bound[1]}", file=sys.stderr)
            else:
                # no subscription channel: emissions go to stdout
                emit_sinks.append(emit_stdout)
            if args.http:
                from repro.net.http import HttpFrontEnd

                host, port = _parse_hostport(args.http)
                front = HttpFrontEnd(
                    service,
                    host=host,
                    port=port,
                    resolve_type=resolver,
                    sequencer=(
                        server.sequencer if server is not None else None
                    ),
                )
                bound = front.start()
                print(f"http on {bound[0]}:{bound[1]}", file=sys.stderr)
            sys.stderr.flush()
            if server is None and front is None:
                _serve_stdin(service, resolver)
            else:
                stopper = (
                    server.stopped
                    if server is not None
                    else threading.Event()
                )
                stopper.wait()
                print("stop requested, draining", file=sys.stderr)
        except _Shutdown:
            print("signal received, draining", file=sys.stderr)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        if front is not None:
            front.shutdown()
        if server is not None:
            report = server.shutdown(drain=True)
        else:
            report = service.stop()
        engine.close()
    if args.summary:
        print(report.summary(), file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "describe-traffic":
            return _cmd_describe_traffic()
        if args.command == "describe-pam":
            return _cmd_describe_pam()
        if args.command == "dot-traffic":
            return _cmd_dot_traffic()
        if args.command == "dot-pam":
            return _cmd_dot_pam()
        if args.command == "run-traffic":
            return _cmd_run_traffic(args)
        if args.command == "run-pam":
            return _cmd_run_pam(args)
        if args.command == "validate-traffic":
            return _cmd_validate_traffic(args)
        if args.command == "parse":
            return _cmd_parse(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "diff":
            return _cmd_diff(args)
        if args.command == "serve":
            return _cmd_serve(args)
    except CaesarError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover - argparse enforces the command set


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
