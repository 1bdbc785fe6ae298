"""In-process tests for the HTTP front end (:class:`HttpFrontEnd`)."""

import json
import socket
import time
import urllib.error
import urllib.request

from repro.difftest.scenarios import get_scenario
from repro.net.http import HttpFrontEnd
from repro.net.protocol import scenario_types
from repro.runtime import CaesarEngine, EngineService


def build_service():
    scenario = get_scenario("threshold")
    engine = CaesarEngine(
        scenario.build_model(),
        partition_by=scenario.partition_by,
        retention=scenario.retention,
    )
    return EngineService(engine, on_emit=lambda e: None)


def start_front():
    service = build_service()
    front = HttpFrontEnd(service, types=scenario_types("threshold"))
    host, port = front.start()
    return service, front, f"http://{host}:{port}"


def get(url):
    try:
        response = urllib.request.urlopen(url, timeout=30)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))
    return response.status, json.loads(response.read().decode("utf-8"))


def post_events(base, body):
    request = urllib.request.Request(
        f"{base}/events", data=body.encode("utf-8"), method="POST"
    )
    try:
        response = urllib.request.urlopen(request, timeout=30)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))
    return response.status, json.loads(response.read().decode("utf-8"))


def event_line(t, value, seq=None):
    message = {
        "type": "DiffReading",
        "time": t,
        "payload": {"value": value, "sec": t, "zone": 0},
    }
    if seq is not None:
        message["seq"] = seq
    return json.dumps(message)


class TestPostEvents:
    def test_ndjson_body_with_per_line_accounting(self):
        service, front, base = start_front()
        body = "\n".join([
            event_line(0, 5),
            "",  # blank lines are skipped, not rejected
            "utter garbage",
            event_line(10, 15),
            '{"type": "DiffReading"}',  # missing time
            json.dumps({"op": "noop"}),
        ]) + "\n"
        status, result = post_events(base, body)
        assert status == 200
        assert result["accepted"] == 2
        assert result["rejected"] == 3
        codes = [e["error"] for e in result["errors"]]
        assert codes == ["parse", "bad-event", "unknown-op"]
        report = service.stop()
        front.shutdown()
        assert report.events_processed == 2

    def test_seq_tagged_lines_are_resequenced(self):
        service, front, base = start_front()
        # sent out of order, delivered in order
        status, result = post_events(base, "\n".join([
            event_line(10, 15, seq=1),
            event_line(0, 5, seq=0),
        ]) + "\n")
        assert status == 200
        assert result["accepted"] == 2
        report = service.stop()
        front.shutdown()
        assert report.events_processed == 2

    def test_deploy_op_in_body(self):
        service, front, base = start_front()
        status, result = post_events(base, json.dumps({
            "op": "deploy",
            "name": "spike",
            "query": "DERIVE Spike(r.value, r.sec) PATTERN DiffReading r "
                     "WHERE r.value > 18 CONTEXT alert",
        }) + "\n")
        assert status == 200
        assert result == {"accepted": 1, "rejected": 0, "errors": []}
        service.stop()
        front.shutdown()

    def test_stopped_service_returns_503(self):
        service, front, base = start_front()
        service.stop()
        status, result = post_events(base, event_line(0, 5) + "\n")
        assert status == 503
        front.shutdown()

    def test_missing_content_length_is_411(self):
        service, front, base = start_front()
        host, port = front.address
        sock = socket.create_connection((host, port), timeout=30)
        sock.sendall(
            b"POST /events HTTP/1.1\r\nHost: x\r\n"
            b"Connection: close\r\n\r\n"
        )
        head = sock.makefile("rb").readline()
        assert b"411" in head
        sock.close()
        service.stop()
        front.shutdown()

    def test_oversized_body_is_413(self):
        service = build_service()
        front = HttpFrontEnd(service, max_body_bytes=64)
        host, port = front.start()
        status, result = post_events(
            f"http://{host}:{port}", event_line(0, 5) * 10 + "\n"
        )
        assert status == 413
        service.stop()
        front.shutdown()


class TestHealthz:
    def test_ok_then_stopped(self):
        service, front, base = start_front()
        status, payload = get(f"{base}/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert {"watermark", "queue_depth", "emitted"} <= set(payload)
        service.stop()
        status, payload = get(f"{base}/healthz")
        assert status == 503
        assert payload["status"] == "stopped"
        front.shutdown()

    def test_unknown_route_is_404(self):
        service, front, base = start_front()
        status, _ = get(f"{base}/nope")
        assert status == 404
        service.stop()
        front.shutdown()


def metric_value(text, name):
    """The value of an unlabelled sample in Prometheus exposition text."""
    for line in text.splitlines():
        if line.startswith(f"{name} "):
            return float(line.rpartition(" ")[2])
    raise AssertionError(f"/metrics missing {name}")


class TestMetrics:
    def test_prometheus_text_exposes_service_and_net_families(self):
        service, front, base = start_front()
        post_events(base, event_line(0, 5) + "\n")
        response = urllib.request.urlopen(f"{base}/metrics", timeout=30)
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode("utf-8")
        for family in (
            "caesar_service_queue_depth",
            "caesar_service_watermark",
            "caesar_net_http_requests_total",
            "caesar_net_bytes_in_total",
            "caesar_net_rejected_lines_total",
        ):
            assert family in text, f"/metrics missing {family}"
        # every sample line is NAME{LABELS} VALUE or NAME VALUE
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name, line
            float(value)  # valid exposition: parseable sample value
        service.stop()
        front.shutdown()

    def test_reorder_buffer_families_after_a_reordered_feed(self):
        scenario = get_scenario("threshold")
        engine = CaesarEngine(
            scenario.build_model(),
            partition_by=scenario.partition_by,
            retention=scenario.retention,
        )
        service = EngineService(engine, on_emit=lambda e: None, max_delay=10)
        front = HttpFrontEnd(service, types=scenario_types("threshold"))
        host, port = front.start()
        base = f"http://{host}:{port}"
        # 20 then 15 is reordered within the bound; 2 is late (watermark 10)
        lines = [event_line(t, 5) for t in (0, 20, 15, 2, 40)]
        status, result = post_events(base, "\n".join(lines) + "\n")
        assert (status, result["accepted"]) == (200, 5)
        # the feeder thread pushes the events asynchronously; the last
        # push (40) leaves one event held, newer than the watermark (30)
        deadline = time.monotonic() + 30
        while True:
            text = urllib.request.urlopen(f"{base}/metrics", timeout=30).read()
            text = text.decode("utf-8")
            held = metric_value(text, "caesar_reorder_pending")
            late = metric_value(text, "caesar_reorder_late_total")
            if (held, late) == (1, 1) or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert (held, late) == (1, 1)
        assert metric_value(text, "caesar_reorder_reordered_total") == 1
        service.stop()
        front.shutdown()


class TestShutdown:
    def test_shutdown_is_prompt_and_stops_the_accept_thread(self):
        """The accept loop polls every 50 ms; with the stdlib's 0.5 s
        ``serve_forever`` default this shutdown would take about 0.45 s."""
        service, front, base = start_front()
        try:
            assert get(f"{base}/healthz")[0] == 200
            time.sleep(0.05)
            started = time.perf_counter()
            front.shutdown()
            assert time.perf_counter() - started < 0.3
            assert not front._thread.is_alive()
            with socket.socket() as probe:
                assert probe.connect_ex(front.address) != 0
        finally:
            service.stop()

    def test_shutdown_without_start(self):
        service = build_service()
        front = HttpFrontEnd(service)
        front.shutdown()
        service.stop()


def test_line_protocol_imports_no_http_stack():
    """The HTTP stack loads only when an HTTP front end is asked for."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, repro, repro.net.protocol, repro.runtime.service\n"
        "assert 'http.server' not in sys.modules, 'eager http.server'\n"
        "assert 'repro.net.http' not in sys.modules\n"
        "from repro.net import HttpFrontEnd\n"
        "assert HttpFrontEnd.__module__ == 'repro.net.http'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)
