"""HTTP ingestion + observability front end.

Three routes, deliberately few:

* ``POST /events`` — an NDJSON body of protocol lines (events with
  optional ``seq``, plus ``deploy``/``retire`` ops).  Each line is
  accepted or rejected independently; the JSON response carries
  ``{"accepted": N, "rejected": M, "errors": [...]}`` with the first
  few structured errors.  Submission blocks on the service's bounded
  queue, so a flooded engine slows HTTP producers down instead of
  buffering their bodies' worth of events in memory.
* ``GET /healthz`` — liveness plus the service's key signals
  (watermark, queue depth, emitted count); ``500`` once the feeder has
  failed, ``503`` after stop.
* ``GET /metrics`` — the engine's whole registry in Prometheus text
  exposition format v0.0.4 straight from
  :func:`repro.observability.exporters.to_prometheus`, including the
  ``caesar_service_*`` gauges and the ``caesar_net_*`` transport
  instruments.

Implementation: stdlib ``ThreadingHTTPServer`` — one thread per
request, no extra dependencies, good enough for a scrape target and a
convenience ingest path (bulk ingestion belongs on the TCP protocol,
which has real backpressure end to end).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING

from repro.errors import CaesarError, RuntimeEngineError
from repro.net.protocol import (
    DEFAULT_MAX_LINE_BYTES,
    ERR_BAD_OP,
    ERR_OVERSIZED,
    ERR_UNKNOWN_OP,
    ProtocolError,
    TypeResolver,
    apply_op,
    parse_line,
)
from repro.net.server import Resequencer
from repro.observability.exporters import to_prometheus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.service import EngineService

#: Default bound for one ``POST /events`` body (8 MiB).
DEFAULT_MAX_BODY_BYTES = 8 << 20

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class HttpFrontEnd:
    """An HTTP server bound to one :class:`EngineService`.

    Parameters mirror :class:`~repro.net.server.NetServer`; pass the
    TCP server's ``resolve_type`` and ``sequencer`` when both front
    ends serve the same service so ``seq`` numbering and type identity
    stay coherent across transports.
    """

    def __init__(
        self,
        service: "EngineService",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        types: dict | None = None,
        resolve_type=None,
        sequencer: Resequencer | None = None,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ):
        self.service = service
        self.resolve_type = resolve_type or TypeResolver(types)
        self.sequencer = sequencer or Resequencer(service.submit)
        self.max_line_bytes = max_line_bytes
        self.max_body_bytes = max_body_bytes
        self.registry = service.engine.observability.registry
        self._requests = {
            path: self.registry.counter(
                "caesar_net_http_requests_total",
                "HTTP requests served, by route",
                labels={"path": path},
                deterministic=False,
            )
            for path in ("/events", "/healthz", "/metrics", "other")
        }
        self._bytes_in = self.registry.counter(
            "caesar_net_bytes_in_total",
            "Bytes received by the network front ends",
            deterministic=False,
        )
        self._rejected = self.registry.counter(
            "caesar_net_rejected_lines_total",
            "Protocol lines rejected with a structured error reply",
            labels={"reason": "http"},
            deterministic=False,
        )
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.front = self
        self._thread: threading.Thread | None = None

    def start(self) -> tuple[str, int]:
        # shutdown() waits for the loop's next poll: 50 ms, not the 0.5 s default
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            args=(0.05,),
            name="caesar-net-http",
            daemon=True,
        )
        self._thread.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return host, port

    def shutdown(self) -> None:
        """Stop serving HTTP.  Does not stop the service — the owner
        (``repro serve`` or the TCP server) does that exactly once."""
        if self._thread is not None:  # shutdown() waits for a running loop
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
        self._httpd.server_close()

    # ------------------------------------------------------------------
    # route bodies (called from handler threads)
    # ------------------------------------------------------------------

    def ingest(self, body: str) -> dict:
        accepted = 0
        rejected = 0
        errors: list[dict] = []

        def reject(code: str, message: str) -> None:
            nonlocal rejected
            rejected += 1
            self._rejected.inc()
            if len(errors) < 5:
                errors.append({"error": code, "message": message})

        for line in body.splitlines():
            if not line.strip():
                continue
            if len(line.encode("utf-8")) > self.max_line_bytes:
                reject(
                    ERR_OVERSIZED,
                    f"line exceeds the {self.max_line_bytes}-byte limit",
                )
                continue
            try:
                parsed = parse_line(line, self.resolve_type)
                if parsed.kind == "event":
                    if parsed.seq is not None:
                        self.sequencer.push(parsed.seq, parsed.event)
                    else:
                        self.service.submit(parsed.event)
                else:
                    self._apply_op(parsed.op)
            except ProtocolError as err:
                reject(err.code, str(err))
            except RuntimeEngineError:
                raise  # stopped/crashed service: the whole request fails
            except CaesarError as err:
                reject(ERR_BAD_OP, str(err))
            else:
                accepted += 1
        return {"accepted": accepted, "rejected": rejected, "errors": errors}

    def _apply_op(self, message: dict) -> None:
        if message["op"] not in ("deploy", "retire"):
            raise ProtocolError(
                ERR_UNKNOWN_OP,
                f"op {message['op']!r} is not available over HTTP",
            )
        apply_op(
            self.service, message, getattr(self.resolve_type, "types", None)
        )

    def health(self) -> tuple[int, dict]:
        service = self.service
        if service.error is not None:
            return 500, {"status": "error", "error": str(service.error)}
        if service.stopped:
            return 503, {"status": "stopped"}
        return 200, {
            "status": "ok",
            "watermark": service.session.watermark,
            "queue_depth": service.queue_depth,
            "emitted": service.emitted_events,
        }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "caesar-serve"

    @property
    def front(self) -> HttpFrontEnd:
        return self.server.front

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging belongs to /metrics, not stderr

    def _count(self, path: str) -> None:
        counters = self.front._requests
        counters.get(path, counters["other"]).inc()

    def _respond(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _respond_json(self, status: int, payload: dict) -> None:
        self._respond(
            status,
            (json.dumps(payload) + "\n").encode("utf-8"),
            "application/json",
        )

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            self._count("/healthz")
            status, payload = self.front.health()
            self._respond_json(status, payload)
        elif self.path == "/metrics":
            self._count("/metrics")
            text = to_prometheus(self.front.registry)
            self._respond(
                200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE
            )
        else:
            self._count("other")
            self._respond_json(404, {"error": f"no route {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/events":
            self._count("other")
            self._respond_json(404, {"error": f"no route {self.path!r}"})
            return
        self._count("/events")
        length = self.headers.get("Content-Length")
        if length is None:
            self._respond_json(411, {"error": "Content-Length required"})
            return
        length = int(length)
        if length > self.front.max_body_bytes:
            self._respond_json(413, {
                "error": f"body exceeds {self.front.max_body_bytes} bytes"
            })
            return
        body = self.rfile.read(length)
        self.front._bytes_in.inc(len(body))
        try:
            result = self.front.ingest(body.decode("utf-8", errors="replace"))
        except RuntimeEngineError as err:
            self._respond_json(503, {"error": str(err)})
            return
        self._respond_json(200, result)
