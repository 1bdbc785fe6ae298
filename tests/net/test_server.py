"""In-process tests for the TCP front end (:class:`NetServer`).

The contracts under test: N concurrent seq-tagged producers yield
emissions byte-identical to a one-shot ``run()``; a slow feeder stops
the server from reading (backpressure, not buffering); garbage and
oversized lines get structured replies without killing the connection;
idle producers are timed out; drain shutdown returns the full report.
"""

import json
import socket
import threading
import time

import pytest

from repro.difftest.scenarios import get_scenario
from repro.events.stream import EventStream
from repro.net.client import ServeClient, ServeClientError
from repro.net.protocol import ProtocolError, encode_event, scenario_types
from repro.net.server import NetServer, Resequencer
from repro.runtime import CaesarEngine, EngineService
from repro.runtime.service import _Op


def build_engine():
    scenario = get_scenario("threshold")
    return CaesarEngine(
        scenario.build_model(),
        partition_by=scenario.partition_by,
        retention=scenario.retention,
    )


def start_server(**server_kwargs):
    """An EngineService + NetServer pair wired for emission broadcast."""
    holder = {}
    service = EngineService(
        build_engine(),
        on_emit=lambda event: holder["server"].emit(event),
        queue_size=server_kwargs.pop("queue_size", 1024),
    )
    server = NetServer(
        service,
        types=scenario_types("threshold"),
        **server_kwargs,
    )
    holder["server"] = server
    host, port = server.start()
    return server, host, port


def one_shot_lines(events):
    report = build_engine().run(EventStream(list(events)))
    return [encode_event(e) for e in report.outputs]


class TestResequencer:
    def test_reassembles_total_order(self):
        scenario = get_scenario("threshold")
        events = scenario.make_events(7, 0.1)
        delivered = []
        seq = Resequencer(delivered.append)
        # push shards interleaved out of order: evens first, then odds
        for i in range(0, len(events), 2):
            seq.push(i, events[i])
        for i in range(1, len(events), 2):
            seq.push(i, events[i])
        assert delivered == list(events)
        assert seq.pending == 0

    def test_regressed_seq_is_rejected(self):
        delivered = []
        seq = Resequencer(delivered.append)
        scenario = get_scenario("threshold")
        events = scenario.make_events(7, 0.1)
        seq.push(0, events[0])
        with pytest.raises(ProtocolError):
            seq.push(0, events[1])
        assert delivered == [events[0]]

    def test_flush_releases_across_gaps(self):
        delivered = []
        seq = Resequencer(delivered.append)
        scenario = get_scenario("threshold")
        events = scenario.make_events(7, 0.1)
        seq.push(0, events[0])
        seq.push(5, events[5])  # 1-4 missing
        seq.push(3, events[3])
        assert delivered == [events[0]]
        seq.flush()
        assert delivered == [events[0], events[3], events[5]]


class TestMultiClientIngest:
    NUM_CLIENTS = 3

    def test_concurrent_seq_tagged_clients_match_one_shot_run(self):
        scenario = get_scenario("threshold")
        events = scenario.make_events(7, 0.3)
        expected = one_shot_lines(events)
        assert expected, "scenario produced no emissions to compare"

        server, host, port = start_server()
        subscriber = ServeClient(host, port)
        subscriber.subscribe()
        emitted = []
        collector = threading.Thread(
            target=lambda: emitted.extend(subscriber.emission_lines()),
            daemon=True,
        )
        collector.start()

        clients = [
            ServeClient(host, port) for _ in range(self.NUM_CLIENTS)
        ]

        def produce(client, offset):
            for i in range(offset, len(events), self.NUM_CLIENTS):
                client.send_event_obj(events[i], seq=i)
            client.close_write()

        threads = [
            threading.Thread(target=produce, args=(c, i), daemon=True)
            for i, c in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()

        report = server.shutdown(drain=True)
        collector.join(timeout=30)
        assert not collector.is_alive(), "subscriber saw no EOF on drain"
        for client in clients:
            client.close()
        subscriber.close()
        assert emitted == expected
        assert report.events_processed == len(events)
        assert server.sequencer.pending == 0

    def test_shutdown_is_idempotent(self):
        server, _, _ = start_server()
        report = server.shutdown(drain=True)
        assert report is server.shutdown(drain=True)


class TestBackpressure:
    def test_slow_feeder_stops_socket_reads(self):
        server, host, port = start_server(queue_size=1)
        service = server.service
        # park the feeder: the server can accept at most one event (into
        # the queue) before its connection thread blocks in submit
        entered = threading.Event()
        gate = threading.Event()

        def park():
            entered.set()
            gate.wait()

        service._queue.put(_Op(park))
        assert entered.wait(timeout=5)

        total = 5000
        client = ServeClient(host, port)

        def produce():
            for i in range(total):
                client.send_event("DiffReading", 0,
                                  {"value": 5, "sec": 0, "zone": 0})
            client.close_write()

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        time.sleep(0.5)
        # accepted events stalled: one in the queue, one blocked in submit
        assert server._events_in.value <= 2
        gate.set()
        producer.join(timeout=60)
        assert not producer.is_alive()
        report = server.shutdown(drain=True)
        client.close()
        assert report.events_processed == total


class TestProtocolEnforcement:
    def send_and_reply(self, sock, reader, line):
        sock.sendall(line.encode("utf-8") + b"\n")
        return json.loads(reader.readline())

    def test_garbage_and_oversized_get_replies_connection_survives(self):
        server, host, port = start_server(max_line_bytes=200)
        sock = socket.create_connection((host, port), timeout=30)
        reader = sock.makefile("r", encoding="utf-8")

        reply = self.send_and_reply(sock, reader, "this is not json")
        assert reply == {
            "ok": False, "error": "parse",
            "message": reply["message"],
        }
        reply = self.send_and_reply(sock, reader, "x" * 500)
        assert reply["error"] == "oversized"
        reply = self.send_and_reply(sock, reader, '{"op": "noop"}')
        assert reply["error"] == "unknown-op"
        # the connection still works: a valid event then a ping round-trip
        sock.sendall(json.dumps({
            "type": "DiffReading", "time": 0,
            "payload": {"value": 5, "sec": 0, "zone": 0},
        }).encode("utf-8") + b"\n")
        reply = self.send_and_reply(sock, reader, '{"op": "ping"}')
        assert reply["ok"] is True
        assert server._events_in.value == 1
        assert server._rejected["parse"].value == 1
        assert server._rejected["oversized"].value == 1
        assert server._rejected["unknown-op"].value == 1
        # the reader holds the descriptor too: close both, or the server
        # never sees EOF and waits out the drain grace
        reader.close()
        sock.close()
        server.shutdown(drain=True)

    def test_idle_connection_times_out(self):
        server, host, port = start_server(read_timeout=0.3)
        sock = socket.create_connection((host, port), timeout=30)
        reader = sock.makefile("r", encoding="utf-8")
        reply = json.loads(reader.readline())  # sent after the idle bound
        assert reply["error"] == "timeout"
        assert reader.readline() == ""  # then the server closes
        sock.close()
        server.shutdown(drain=True)

    def test_regressed_seq_is_reported(self):
        server, host, port = start_server()
        client = ServeClient(host, port)
        client.send_event("DiffReading", 0,
                          {"value": 5, "sec": 0, "zone": 0}, seq=0)
        client.send_event("DiffReading", 1,
                          {"value": 5, "sec": 1, "zone": 0}, seq=0)
        with pytest.raises(ServeClientError, match="bad-op"):
            client.ping()  # the error reply arrives before the pong
        client.close()
        server.shutdown(drain=True)


class TestOps:
    def test_deploy_retire_round_trip(self):
        server, host, port = start_server()
        client = ServeClient(host, port)
        reply = client.deploy(
            "DERIVE Spike(r.value, r.sec) PATTERN DiffReading r "
            "WHERE r.value > 18 CONTEXT alert",
            name="spike",
        )
        assert reply["name"] == "spike"
        assert "watermark" in reply
        assert client.retire("spike")["ok"] is True
        with pytest.raises(ServeClientError, match="bad-op"):
            client.retire("never-deployed")
        client.close()
        server.shutdown(drain=True)

    def test_stop_op_requests_shutdown(self):
        server, host, port = start_server()
        client = ServeClient(host, port)
        assert client.stop_server()["ok"] is True
        assert server.stopped.wait(timeout=10)
        client.close()
        server.shutdown(drain=True)
