"""Round-trip smoke tests for the ``repro serve`` command.

A serve process reads line-delimited JSON events on stdin and writes
derived events to stdout as they commit; the emitted set must match a
one-shot ``run()`` over the same stream.
"""

import json
import os
import signal
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def event_line(t, value, zone=0):
    return json.dumps({
        "type": "DiffReading",
        "time": t,
        "payload": {"value": value, "sec": t, "zone": zone},
    })


EVENTS = [(0, 5), (10, 15), (20, 12), (30, 19), (40, 2), (50, 17)]


def expected_rows():
    from repro.difftest.scenarios import DIFF_READING, get_scenario
    from repro.events.event import Event
    from repro.events.stream import EventStream
    from repro.runtime import CaesarEngine

    scenario = get_scenario("threshold")
    engine = CaesarEngine(
        scenario.build_model(),
        partition_by=scenario.partition_by,
        retention=scenario.retention,
    )
    report = engine.run(EventStream([
        Event(DIFF_READING, t, {"value": v, "sec": t, "zone": 0})
        for t, v in EVENTS
    ]))
    return [
        {"type": e.type_name, "time": e.timestamp, "payload": e.payload}
        for e in report.outputs
    ]


def serve(stdin_text, *args, timeout=60):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("CAESAR_BACKEND", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--scenario", "threshold",
         *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def emitted(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line]


def replies(stderr):
    """The protocol's JSON reply lines among whatever else is on stderr."""
    return [
        json.loads(line) for line in stderr.splitlines()
        if line.startswith("{")
    ]


#: lines the protocol rejects, with the reply code each must draw; on
#: stdin they are reported on stderr and ingestion carries on, exactly
#: like on the TCP and HTTP transports
MALFORMED = [
    ("not json", "parse"),
    ("[1, 2]", "parse"),
    (json.dumps({"time": 1}), "bad-event"),
    (json.dumps({"type": "DiffReading", "time": "soon"}), "bad-event"),
    (json.dumps({"op": "frobnicate"}), "unknown-op"),
    (json.dumps({"op": "retire"}), "bad-op"),
]


class TestServeRoundTrip:
    def test_emissions_match_one_shot_run(self):
        lines = [event_line(t, v) for t, v in EVENTS]
        # one malformed line between every two events
        for index, (text, _code) in enumerate(MALFORMED):
            lines.insert(2 * index + 1, text)
        lines.append(json.dumps({"op": "stop"}))
        proc = serve("\n".join(lines) + "\n", "--summary")
        assert proc.returncode == 0, proc.stderr
        assert emitted(proc.stdout) == expected_rows()
        assert "events=" in proc.stderr  # --summary report on stderr
        errors = [r for r in replies(proc.stderr) if not r["ok"]]
        assert [r["error"] for r in errors] == [c for _t, c in MALFORMED]

    def test_eof_drains_gracefully(self):
        lines = [event_line(t, v) for t, v in EVENTS]
        proc = serve("\n".join(lines) + "\n")
        assert proc.returncode == 0, proc.stderr
        assert emitted(proc.stdout) == expected_rows()

    def test_online_deploy_round_trip(self):
        lines = [event_line(t, v) for t, v in EVENTS[:3]]
        lines.append(json.dumps({
            "op": "deploy",
            "name": "spike",
            "query": "DERIVE Spike(r.value, r.sec) PATTERN DiffReading r "
                     "WHERE r.value > 18 CONTEXT alert",
        }))
        lines.extend(event_line(t, v) for t, v in EVENTS[3:])
        lines.append(json.dumps({"op": "stop"}))
        proc = serve("\n".join(lines) + "\n")
        assert proc.returncode == 0, proc.stderr
        assert {
            "ok": True, "op": "deploy", "name": "spike", "watermark": 20
        } in replies(proc.stderr)
        spikes = [row for row in emitted(proc.stdout) if row["type"] == "Spike"]
        assert [row["time"] for row in spikes] == [30]

    def test_sigterm_drains_and_exits_cleanly(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("CAESAR_BACKEND", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--scenario",
             "threshold"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            for t, v in EVENTS:
                proc.stdin.write(event_line(t, v) + "\n")
            proc.stdin.flush()
            time.sleep(1.0)  # let the feeder commit what it can
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, err
        assert "draining" in err
        # graceful drain: everything submitted before the signal commits
        assert emitted(out) == expected_rows()
