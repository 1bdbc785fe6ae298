"""The line protocol spoken by every ingestion front end.

One message per ``\\n``-terminated line, each a JSON object.  There is one
language and three *transports* for it — ``repro serve``'s stdin, the TCP
server (:mod:`repro.net.server`) and ``POST /events``
(:mod:`repro.net.http`).  A transport only moves lines and replies: every
line is decoded by :func:`parse_line`, every control op is applied by
:func:`apply_op`, every emission is encoded by :func:`encode_event`.

* an **event**: ``{"type": ..., "time": ..., "payload": {...}}``, plus
  an optional ``"seq"`` (see below);
* a **control op**: ``{"op": "deploy" | "retire" | "ping" | "stop", ...}``
  (plus ``"subscribe"``, which only a connection-oriented transport can
  honour and therefore lives in the TCP server).

Replies (ops and errors only — accepted events are not acknowledged,
their acknowledgement is the TCP window) are JSON lines too:
``{"ok": true, "op": ..., ...}`` or ``{"ok": false, "error": <code>,
"message": ...}`` with a machine-readable error code.  TCP writes them
to the connection, stdin mode to stderr, HTTP folds them into the
response body.

**Sequenced ingestion.**  Events may carry a monotonically increasing
global sequence number ``"seq"``.  The server reassembles the total
order across any number of concurrent producer connections before
feeding the service (see :class:`~repro.net.server.Resequencer`), which
is what makes N-client ingestion byte-identical to a one-shot ``run()``
over the original stream.  Events without ``seq`` are submitted in
arrival order — the session's reorder buffer then provides the usual
bounded out-of-order tolerance.

:class:`LineReader` is the socket transports' reader: an incremental
reader that enforces the max-line limit *while reading* (an oversized
line is discarded up to its terminating newline and reported, it is never
buffered whole), so a misbehaving producer cannot balloon server memory.
"""

from __future__ import annotations

import json
import socket
from typing import Callable

from repro.errors import CaesarError
from repro.events.event import Event
from repro.events.types import EventType
from repro.language import parse_query

#: Default ceiling for one protocol line (1 MiB) — far above any sane
#: event, far below anything that could hurt the server.
DEFAULT_MAX_LINE_BYTES = 1 << 20

#: Error codes carried by structured error replies.
ERR_PARSE = "parse"  # line is not a JSON object
ERR_BAD_EVENT = "bad-event"  # object is malformed as an event
ERR_BAD_OP = "bad-op"  # op exists but its arguments are invalid
ERR_UNKNOWN_OP = "unknown-op"  # op name not in the protocol
ERR_OVERSIZED = "oversized"  # line exceeded the max-line limit
ERR_TIMEOUT = "timeout"  # connection idle past the read timeout
ERR_UNAVAILABLE = "unavailable"  # service stopped or failed


class ProtocolError(CaesarError):
    """A protocol violation with a machine-readable reply code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code

    def reply(self) -> str:
        return error_reply(self.code, str(self))


class LineTooLong(ProtocolError):
    """A line exceeded the max-line limit (already discarded)."""

    def __init__(self, limit: int):
        super().__init__(
            ERR_OVERSIZED, f"line exceeds the {limit}-byte limit"
        )
        self.limit = limit


class ParsedLine:
    """One decoded protocol line: an event (with optional seq) or an op."""

    __slots__ = ("kind", "event", "seq", "op")

    def __init__(self, kind, *, event=None, seq=None, op=None):
        self.kind = kind  # "event" | "op"
        self.event = event
        self.seq = seq
        self.op = op


class TypeResolver:
    """Get-or-create event types by name over a scenario registry.

    Unknown names become fresh schemaless :class:`EventType` instances —
    the network cannot know a scenario's whole type universe up front,
    and a supervised engine's schema validation still applies downstream.
    """

    def __init__(self, types: dict[str, EventType] | None = None):
        self.types = dict(types or {})

    def __call__(self, name: str) -> EventType:
        event_type = self.types.get(name)
        if event_type is None:
            event_type = EventType(name)
            self.types[name] = event_type
        return event_type


def parse_line(text: str, resolve_type: Callable[[str], EventType]) -> ParsedLine:
    """Decode one protocol line; raises :class:`ProtocolError` on garbage."""
    try:
        message = json.loads(text)
    except ValueError as err:
        raise ProtocolError(ERR_PARSE, f"invalid JSON: {err}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            ERR_PARSE, f"expected a JSON object, got {type(message).__name__}"
        )
    if "op" in message:
        if not isinstance(message["op"], str):
            raise ProtocolError(ERR_BAD_OP, "op name must be a string")
        return ParsedLine("op", op=message)
    try:
        type_name = message["type"]
        time = message["time"]
    except KeyError as err:
        raise ProtocolError(
            ERR_BAD_EVENT, f"event line is missing the {err.args[0]!r} field"
        ) from None
    if not isinstance(type_name, str):
        raise ProtocolError(ERR_BAD_EVENT, "event type must be a string")
    if isinstance(time, bool) or not isinstance(time, (int, float)):
        raise ProtocolError(ERR_BAD_EVENT, "event time must be a number")
    payload = message.get("payload", {})
    if not isinstance(payload, dict):
        raise ProtocolError(ERR_BAD_EVENT, "event payload must be an object")
    seq = message.get("seq")
    if seq is not None and (isinstance(seq, bool) or not isinstance(seq, int)):
        raise ProtocolError(ERR_BAD_EVENT, "event seq must be an integer")
    event = Event(resolve_type(type_name), time, payload)
    return ParsedLine("event", event=event, seq=seq)


def apply_op(service, message: dict, types: dict | None = None) -> dict:
    """Apply one control op to ``service``; returns its ok-reply fields.

    The one op dispatcher behind every transport.  ``stop`` is only
    acknowledged here — ending the serving loop is the transport's own
    business once the reply is out.  Raises :class:`ProtocolError` for
    unknown ops and malformed arguments; deployment failures propagate as
    the service raised them.
    """
    op = message["op"]
    if op == "deploy":
        query = parse_query(
            str(message.get("query", "")),
            name=str(message.get("name", "deployed")),
            types=types,
        )
        watermark = service.deploy_query(query)
        return {"op": op, "name": query.name, "watermark": watermark}
    if op == "retire":
        name = message.get("name")
        if not isinstance(name, str):
            raise ProtocolError(ERR_BAD_OP, "retire needs a query 'name'")
        watermark = service.retire_query(name)
        return {"op": op, "name": name, "watermark": watermark}
    if op == "ping":
        return {
            "op": op,
            "watermark": service.session.watermark,
            "emitted": service.emitted_events,
        }
    if op == "stop":
        return {"op": op}
    raise ProtocolError(ERR_UNKNOWN_OP, f"unknown op {op!r}")


def event_row(event: Event) -> dict:
    """The wire shape of an emitted event (also `repro serve`'s stdout)."""
    return {
        "type": event.type_name,
        "time": event.timestamp,
        "payload": dict(event.payload),
    }


def encode_event(event: Event) -> str:
    """One emission line (no trailing newline).

    ``default=str`` keeps exotic payload values (Decimal, tuples used as
    keys upstream) emittable — the wire favors delivery over round-trip
    fidelity for non-JSON-native types, exactly like ``repro serve``'s
    stdout."""
    return json.dumps(event_row(event), default=str)


def ok_reply(**fields) -> str:
    return json.dumps({"ok": True, **fields})


def error_reply(code: str, message: str) -> str:
    return json.dumps({"ok": False, "error": code, "message": message})


def scenario_types(scenario_name: str) -> dict[str, EventType]:
    """The declared event types of a servable scenario, by name."""
    if scenario_name == "traffic":
        from repro.linearroad.schema import type_registry

        return type_registry()
    if scenario_name == "pam":
        from repro.pam.schema import type_registry

        return type_registry()
    from repro.difftest.scenarios import DIFF_READING

    return {DIFF_READING.name: DIFF_READING}


class LineReader:
    """Incremental, limit-enforcing line reader over a socket.

    ``readline()`` returns the next decoded line without its newline, or
    ``None`` at EOF.  A line longer than ``max_line_bytes`` raises
    :class:`LineTooLong` *after* discarding input through its
    terminating newline, so the connection can resynchronize and keep
    serving subsequent lines.  ``socket.timeout`` from the underlying
    socket propagates (the per-connection read timeout).
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        on_bytes: Callable[[int], None] | None = None,
    ):
        if max_line_bytes <= 0:
            raise ValueError(
                f"max_line_bytes must be positive, got {max_line_bytes}"
            )
        self._sock = sock
        self._max = max_line_bytes
        self._on_bytes = on_bytes
        self._buffer = bytearray()
        self._eof = False
        #: discarding the remainder of an oversized line until newline
        self._skipping = False

    def _recv(self) -> bool:
        chunk = self._sock.recv(65536)
        if not chunk:
            self._eof = True
            return False
        if self._on_bytes is not None:
            self._on_bytes(len(chunk))
        self._buffer.extend(chunk)
        return True

    def readline(self) -> str | None:
        while True:
            if self._skipping:
                cut = self._buffer.find(b"\n")
                if cut >= 0:
                    del self._buffer[: cut + 1]
                    self._skipping = False
                else:
                    del self._buffer[:]
                    if self._eof or not self._recv():
                        return None
                    continue
            cut = self._buffer.find(b"\n")
            if cut >= 0:
                if cut > self._max:
                    del self._buffer[: cut + 1]
                    raise LineTooLong(self._max)
                line = self._buffer[:cut]
                del self._buffer[: cut + 1]
                return line.decode("utf-8", errors="replace")
            if len(self._buffer) > self._max:
                del self._buffer[:]
                self._skipping = True
                raise LineTooLong(self._max)
            if self._eof:
                if self._buffer:  # final unterminated line
                    line = self._buffer.decode("utf-8", errors="replace")
                    del self._buffer[:]
                    return line
                return None
            if not self._recv():
                continue  # EOF path drains the remainder above
