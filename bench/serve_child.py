"""Traced ``repro serve``: the CLI with the benchmark's spans installed.

Usage: ``python bench/serve_child.py TRACE_FILE serve [serve args...]``.
Runs ``repro.cli.main`` unchanged after wrapping the layers' entry points
(:mod:`bench.trace`), and when the server has drained writes the spans,
the final engine report and the metrics registry to ``TRACE_FILE``.
"""

import os
import sys


def main(argv: list[str]) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[0:1] = [root, os.path.join(root, "src")]

    from bench import trace
    from repro import cli
    from repro.net.server import NetServer
    from repro.runtime.reporting import report_to_dict

    trace_path, cli_args = argv[1], argv[2:]
    tracer = trace.Tracer()
    servers = []
    original_start = NetServer.start

    def start(server):
        servers.append(server)
        return original_start(server)

    NetServer.start = start
    trace.install(tracer, net=True)
    code = cli.main(cli_args)
    extra = {}
    if servers:
        server = servers[0]
        # shutdown is idempotent: after the drain it returns the report
        report = server.shutdown()
        registry = server.service.engine.observability.registry
        extra = {
            "report": report_to_dict(report) if report is not None else None,
            "registry": registry.snapshot(),
        }
    tracer.dump(trace_path, **extra)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
