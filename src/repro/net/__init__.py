"""Network ingestion front ends for the streaming service.

``repro serve`` reads the line protocol on stdin; this package defines
that protocol and puts it on the network:

* :mod:`repro.net.protocol` — the line protocol itself, shared by all
  three transports (line parsing, the control-op dispatcher, replies,
  the limit-enforcing :class:`~repro.net.protocol.LineReader`);
* :mod:`repro.net.server` — the TCP server
  (:class:`~repro.net.server.NetServer`): many concurrent producers,
  backpressure via TCP flow control, emission subscriptions, graceful
  drain;
* :mod:`repro.net.http` — the HTTP front end
  (:class:`~repro.net.http.HttpFrontEnd`, imported on first use: it costs
  MBs of RSS): ``POST /events``, ``GET /healthz``, ``GET /metrics``;
* :mod:`repro.net.client` — :class:`~repro.net.client.ServeClient`,
  a thin producer/subscriber client.
"""

from repro.net.client import ServeClient, ServeClientError
from repro.net.protocol import (
    DEFAULT_MAX_LINE_BYTES,
    LineReader,
    LineTooLong,
    ProtocolError,
    TypeResolver,
    apply_op,
    encode_event,
    event_row,
    parse_line,
    scenario_types,
)
from repro.net.server import NetServer, Resequencer

__all__ = [
    "DEFAULT_MAX_LINE_BYTES",
    "HttpFrontEnd",
    "LineReader",
    "LineTooLong",
    "NetServer",
    "ProtocolError",
    "Resequencer",
    "ServeClient",
    "ServeClientError",
    "TypeResolver",
    "apply_op",
    "encode_event",
    "event_row",
    "parse_line",
    "scenario_types",
]


def __getattr__(name: str):
    if name == "HttpFrontEnd":
        from repro.net.http import HttpFrontEnd

        return HttpFrontEnd
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
