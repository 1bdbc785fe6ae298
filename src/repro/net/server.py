"""TCP line-protocol ingestion server on top of :class:`EngineService`.

One accept thread, one thread per producer connection.  The design goal
is that **the service's bounded-queue backpressure reaches the
producers as TCP flow control**: a connection thread blocks in
``service.submit`` while the ingestion queue is full, therefore stops
reading its socket, therefore the kernel receive window fills, therefore
the producer's ``send`` blocks.  No protocol-level pacing, no dropped
events — the queue bound *is* the admission contract, end to end.

Per-connection protections (`docs/architecture.md` §11.5):

* a **read timeout** — an idle producer is told (structured error
  reply) and disconnected instead of pinning a thread forever;
* a **max-line limit** — an oversized line is discarded while being
  read (never buffered whole), answered with an ``oversized`` error
  reply, and the connection keeps serving subsequent lines;
* **structured error replies** for garbage lines, malformed events and
  unknown ops (``{"ok": false, "error": <code>, "message": ...}``),
  counted under ``caesar_net_rejected_lines_total{reason=...}``.

Emissions flow the other way: a connection that sends
``{"op": "subscribe"}`` becomes an emission sink and receives every
derived event as a JSON line the moment its stream transaction commits.

:meth:`NetServer.shutdown` with ``drain=True`` (the SIGTERM path) stops
accepting, gives connected producers a grace period to finish and
disconnect, flushes the resequencer and the service (final emissions
still reach subscribers), and returns the full
:class:`~repro.runtime.engine.EngineReport`.
"""

from __future__ import annotations

import heapq
import socket
import threading
import time
from typing import Callable, TYPE_CHECKING

from repro.errors import CaesarError
from repro.events.event import Event
from repro.net.protocol import (
    DEFAULT_MAX_LINE_BYTES,
    ERR_BAD_OP,
    ERR_TIMEOUT,
    ERR_UNAVAILABLE,
    LineReader,
    ParsedLine,
    ProtocolError,
    TypeResolver,
    apply_op,
    encode_event,
    error_reply,
    ok_reply,
    parse_line,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import EngineReport
    from repro.runtime.service import EngineService


class Resequencer:
    """Reassembles a global total order from concurrent producers.

    Producers tag events with a dense, monotonically increasing ``seq``
    (assigned once, at the original stream) and may then shard the
    stream across any number of connections: each connection pushes its
    events here, and the service receives them in exact ``seq`` order.
    A connection that runs more than ``max_ahead`` events ahead of the
    lowest missing sequence number is parked (its socket stops being
    read — TCP backpressure), bounding the reassembly buffer.

    :meth:`flush` (drain path) releases whatever is buffered in ``seq``
    order even across gaps — a crashed producer cannot hold the
    shutdown hostage.
    """

    def __init__(
        self,
        submit: Callable[[Event], None],
        *,
        start: int = 0,
        max_ahead: int = 65536,
        pending_gauge=None,
    ):
        if max_ahead < 1:
            raise ValueError(f"max_ahead must be >= 1, got {max_ahead}")
        self._submit = submit
        self._next = start
        self._max_ahead = max_ahead
        self._heap: list[tuple[int, int, Event]] = []
        self._tie = 0  # keeps heap comparisons off Event objects
        self._cond = threading.Condition()
        self._closing = False
        self._gauge = pending_gauge

    @property
    def pending(self) -> int:
        with self._cond:
            return len(self._heap)

    def push(self, seq: int, event: Event) -> None:
        """Hand over event number ``seq``; delivers every newly
        consecutive event to the service before returning."""
        with self._cond:
            if seq < self._next:
                raise ProtocolError(
                    ERR_BAD_OP,
                    f"seq {seq} was already delivered (next is {self._next})",
                )
            while (
                seq - self._next > self._max_ahead and not self._closing
            ):
                self._cond.wait(timeout=1.0)
            self._tie += 1
            heapq.heappush(self._heap, (seq, self._tie, event))
            while self._heap and self._heap[0][0] == self._next:
                _, _, ready = heapq.heappop(self._heap)
                self._submit(ready)
                self._next += 1
            self._cond.notify_all()
            if self._gauge is not None:
                self._gauge.set(len(self._heap))

    def flush(self) -> None:
        """Release everything buffered, in ``seq`` order, gaps included."""
        with self._cond:
            self._closing = True
            while self._heap:
                seq, _, event = heapq.heappop(self._heap)
                self._submit(event)
                self._next = seq + 1
            self._cond.notify_all()
            if self._gauge is not None:
                self._gauge.set(0)

    def close(self) -> None:
        """Unpark waiting producers (shutdown begins)."""
        with self._cond:
            self._closing = True
            self._cond.notify_all()


class _Connection:
    """Per-connection state: socket, write lock, role flags."""

    __slots__ = ("sock", "address", "write_lock", "subscriber", "closed")

    def __init__(self, sock: socket.socket, address):
        self.sock = sock
        self.address = address
        self.write_lock = threading.Lock()
        self.subscriber = False
        self.closed = False


class _CloseConnection(Exception):
    """Internal: end this connection's serving loop."""


class NetServer:
    """A line-protocol TCP front end for an :class:`EngineService`.

    Construct the service with ``on_emit=<server>.emit`` (or build the
    server first and pass its bound :meth:`emit`) so committed
    derivations are broadcast to subscriber connections.

    Parameters
    ----------
    service:
        The engine service to front.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (``address``
        reports the bound one).
    types:
        Scenario type registry for decoding event lines (unknown names
        get fresh schemaless types).
    max_line_bytes, read_timeout:
        Per-connection frame limit and idle bound.  ``read_timeout=None``
        disables the idle bound.
    max_ahead:
        Resequencer window for ``seq``-tagged events.
    drain_grace:
        Seconds :meth:`shutdown(drain=True)` waits for connected
        producers to finish before force-closing them.
    """

    def __init__(
        self,
        service: "EngineService",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        types: dict | None = None,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        read_timeout: float | None = 300.0,
        max_ahead: int = 65536,
        drain_grace: float = 10.0,
    ):
        self.service = service
        self._host = host
        self._port = port
        self.resolve_type = (
            types if callable(types) else TypeResolver(types)
        )
        self._max_line_bytes = max_line_bytes
        self._read_timeout = read_timeout
        self._drain_grace = drain_grace
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._threads: list[threading.Thread] = []
        self._connections: set[_Connection] = set()
        self._subscribers: list[_Connection] = []
        self._conn_lock = threading.Lock()
        self._closing = False
        self._shutdown_lock = threading.Lock()
        self._report: "EngineReport | None" = None
        #: set once a shutdown was requested (an inline ``stop`` op or
        #: :meth:`request_shutdown`); ``repro serve`` waits on it
        self.stopped = threading.Event()

        registry = service.engine.observability.registry
        self._connections_total = registry.counter(
            "caesar_net_connections_total",
            "Producer connections accepted by the TCP front end",
            deterministic=False,
        )
        self._connections_open = registry.gauge(
            "caesar_net_connections_open",
            "Currently open TCP connections",
        )
        self._subscribers_gauge = registry.gauge(
            "caesar_net_subscribers",
            "Connections subscribed to the emission stream",
        )
        self._bytes_in = registry.counter(
            "caesar_net_bytes_in_total",
            "Bytes received by the network front ends",
            deterministic=False,
        )
        self._bytes_out = registry.counter(
            "caesar_net_bytes_out_total",
            "Bytes sent by the network front ends (replies + emissions)",
            deterministic=False,
        )
        self._events_in = registry.counter(
            "caesar_net_events_total",
            "Events accepted over the network",
            deterministic=False,
        )
        self._rejected = {
            reason: registry.counter(
                "caesar_net_rejected_lines_total",
                "Protocol lines rejected with a structured error reply",
                labels={"reason": reason},
                deterministic=False,
            )
            for reason in (
                "parse", "bad-event", "bad-op", "unknown-op",
                "oversized", "timeout", "unavailable",
            )
        }
        self.sequencer = Resequencer(
            service.submit,
            max_ahead=max_ahead,
            pending_gauge=registry.gauge(
                "caesar_net_resequence_pending",
                "Seq-tagged events buffered awaiting their predecessors",
            ),
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, listen, spawn the accept loop; returns the bound address."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(128)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="caesar-net-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("server not started")
        host, port = self._listener.getsockname()[:2]
        return host, port

    def request_shutdown(self) -> None:
        """Ask the owner loop (``repro serve``) to drain and exit."""
        self.stopped.set()

    def shutdown(self, *, drain: bool = True) -> "EngineReport | None":
        """Stop accepting, retire connections, stop the service.

        ``drain=True``: producers still connected get ``drain_grace``
        seconds to finish and disconnect; everything read so far — plus
        whatever the resequencer holds — is processed, final emissions
        are broadcast to subscribers, and the full engine report is
        returned.  ``drain=False`` force-closes everything and discards
        the queues.  Idempotent.
        """
        with self._shutdown_lock:
            if self._closing:
                return self._report
            self._closing = True
        if self._listener is not None:
            # closing alone does not wake a thread blocked in accept()
            _shutdown_read(self._listener)
            _silently_close(self._listener)
        self.sequencer.close()
        with self._conn_lock:
            connections = list(self._connections)
        if drain:
            # wake pure subscribers' read loops without touching their
            # write side — they must stay open for the final emissions
            for conn in connections:
                if conn.subscriber:
                    _shutdown_read(conn.sock)
            deadline = time.monotonic() + self._drain_grace
            for thread in list(self._threads):
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
            for conn in connections:
                if not conn.subscriber:
                    self._close_connection(conn)  # stragglers past grace
            for thread in list(self._threads):
                thread.join(timeout=1.0)
            try:
                self.sequencer.flush()
            except CaesarError:
                # a stopped/crashed service rejects the tail; stop()
                # below surfaces the authoritative error
                pass
        else:
            for conn in connections:
                self._close_connection(conn)
        try:
            self._report = self.service.stop(drain=drain)
        finally:
            with self._conn_lock:
                remaining = list(self._connections)
            for conn in remaining:
                self._close_connection(conn)
            if self._accept_thread is not None:
                self._accept_thread.join(timeout=1.0)
            self.stopped.set()
        return self._report

    # ------------------------------------------------------------------
    # accepting / serving
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, address = self._listener.accept()
            except OSError:  # listener closed: shutdown
                return
            if self._closing:
                _silently_close(sock)
                return
            conn = _Connection(sock, address)
            with self._conn_lock:
                self._connections.add(conn)
            self._connections_total.inc()
            self._connections_open.set(len(self._connections))
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"caesar-net-conn-{address[1]}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: _Connection) -> None:
        sock = conn.sock
        sock.settimeout(self._read_timeout)
        reader = LineReader(
            sock,
            max_line_bytes=self._max_line_bytes,
            on_bytes=self._bytes_in.inc,
        )
        try:
            # The loop deliberately does not poll the closing flag: a
            # graceful drain *wants* already-sent lines to be read until
            # the client disconnects (EOF) — stragglers past the grace
            # period are force-closed, which surfaces here as OSError.
            while True:
                try:
                    line = reader.readline()
                except ProtocolError as err:  # oversized, already resynced
                    self._reject(conn, err)
                    continue
                except socket.timeout:
                    self._rejected["timeout"].inc()
                    self._send(conn, error_reply(
                        ERR_TIMEOUT,
                        f"no data for {self._read_timeout}s, closing",
                    ))
                    return
                except OSError:
                    return  # force-closed during shutdown
                if line is None:
                    return  # client EOF
                if not line.strip():
                    continue
                self._handle_line(conn, line)
        except _CloseConnection:
            pass
        finally:
            # a draining subscriber keeps its socket open: the final
            # emissions are written after service.stop() flushes, and
            # shutdown() closes it last
            if not (conn.subscriber and self._closing):
                self._close_connection(conn)

    def _handle_line(self, conn: _Connection, line: str) -> None:
        try:
            parsed = parse_line(line, self.resolve_type)
        except ProtocolError as err:
            self._reject(conn, err)
            return
        if parsed.kind == "event":
            try:
                if parsed.seq is not None:
                    self.sequencer.push(parsed.seq, parsed.event)
                else:
                    self.service.submit(parsed.event)
            except ProtocolError as err:  # regressed seq
                self._reject(conn, err)
                return
            except CaesarError as err:  # service stopped or crashed
                self._rejected["unavailable"].inc()
                self._send(conn, error_reply(ERR_UNAVAILABLE, str(err)))
                raise _CloseConnection() from None
            self._events_in.inc()
            return
        self._handle_op(conn, parsed)

    def _handle_op(self, conn: _Connection, parsed: ParsedLine) -> None:
        message = parsed.op
        try:
            if message["op"] == "subscribe":
                # the one op that needs a connection to stay attached to
                self._add_subscriber(conn)
                fields = {"op": "subscribe"}
            else:
                fields = apply_op(
                    self.service,
                    message,
                    getattr(self.resolve_type, "types", None),
                )
        except ProtocolError as err:
            self._reject(conn, err)
            return
        except CaesarError as err:
            # deploy/retire failures (parse errors, unknown queries, a
            # stopped service) are reported on the wire, not fatal
            self._reject(conn, ProtocolError(ERR_BAD_OP, str(err)))
            return
        self._send(conn, ok_reply(**fields))
        if fields["op"] == "stop":
            self.request_shutdown()

    # ------------------------------------------------------------------
    # emissions
    # ------------------------------------------------------------------

    def emit(self, event: Event) -> None:
        """Broadcast one derived event to every subscriber (the
        service's ``on_emit`` target)."""
        with self._conn_lock:
            subscribers = list(self._subscribers)
        if not subscribers:
            return
        data = (encode_event(event) + "\n").encode("utf-8")
        for conn in subscribers:
            try:
                with conn.write_lock:
                    conn.sock.sendall(data)
                self._bytes_out.inc(len(data))
            except OSError:
                self._drop_subscriber(conn)

    def _add_subscriber(self, conn: _Connection) -> None:
        conn.subscriber = True
        # subscribers are write-mostly: the idle bound no longer applies
        conn.sock.settimeout(None)
        with self._conn_lock:
            if conn not in self._subscribers:
                self._subscribers.append(conn)
            self._subscribers_gauge.set(len(self._subscribers))

    def _drop_subscriber(self, conn: _Connection) -> None:
        with self._conn_lock:
            if conn in self._subscribers:
                self._subscribers.remove(conn)
            self._subscribers_gauge.set(len(self._subscribers))
        self._close_connection(conn)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _send(self, conn: _Connection, line: str) -> None:
        data = (line + "\n").encode("utf-8")
        try:
            with conn.write_lock:
                conn.sock.sendall(data)
            self._bytes_out.inc(len(data))
        except OSError:
            raise _CloseConnection() from None

    def _reject(self, conn: _Connection, err: ProtocolError) -> None:
        counter = self._rejected.get(err.code)
        if counter is not None:
            counter.inc()
        self._send(conn, err.reply())

    def _close_connection(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        _silently_close(conn.sock)
        with self._conn_lock:
            self._connections.discard(conn)
            if conn in self._subscribers:
                self._subscribers.remove(conn)
            self._connections_open.set(len(self._connections))
            self._subscribers_gauge.set(len(self._subscribers))


def _silently_close(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:  # pragma: no cover - close races are benign
        pass


def _shutdown_read(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RD)
    except OSError:  # pragma: no cover - already gone
        pass
