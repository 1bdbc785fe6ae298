"""Regression tests for :class:`EngineService` lifecycle edge cases.

Each test here pins one previously-hanging or masking behavior:

* a feeder crash must resolve every pending control op (no waiter may
  block forever on ``op.done``);
* a feeder crash / erroring ``stop()`` must terminate the ``outputs()``
  iterator and surface the error to the consumer;
* ``__exit__`` must let the in-flight exception win over a stored
  feeder error (chained, not masked);
* ``submit`` racing ``stop`` must either raise or be processed —
  never silently dropped;
* a run that dies mid-feed must still end its backend run — no
  ``caesar-shard-*`` worker thread may outlive ``stop()``.
"""

import threading
import time

import pytest

from repro.errors import RuntimeEngineError
from repro.language import parse_query
from repro.runtime import CaesarEngine, EngineService, EngineSession
from repro.runtime.service import _Op
from repro.testing import InjectedFaultError, inject_plan_fault

from tests.service.test_service import build_model, reading


def crashing_events():
    """Initiate the alert context, then trip the t=20 fault when the
    t=30 arrival closes the t=20 frontier batch."""
    return [reading(0, 150), reading(20, 160), reading(30, 90)]


def faulty_service(**kwargs):
    engine = CaesarEngine(build_model())
    inject_plan_fault(engine, "alert", at_times={20})
    return EngineService(engine, **kwargs)


def wait_for_crash(service, timeout=10.0):
    deadline = time.monotonic() + timeout
    while service.error is None:
        assert time.monotonic() < deadline, "feeder did not crash"
        time.sleep(0.005)


DEPLOY = "DERIVE Extra(r.value, r.sec) PATTERN SvReading r CONTEXT alert"


class TestFeederCrashResolvesOps:
    def test_op_pending_behind_crash_is_failed(self):
        service = faulty_service(on_emit=lambda e: None)
        # park the feeder so the crashing events and the op provably sit
        # in the queue together before any of them is processed
        entered = threading.Event()
        gate = threading.Event()

        def park():
            entered.set()
            gate.wait()

        service._queue.put(_Op(park))
        assert entered.wait(timeout=5)
        service.extend(crashing_events())

        result = {}

        def deploy():
            try:
                service.deploy_query(
                    parse_query(DEPLOY, name="extra"), timeout=30
                )
            except BaseException as exc:
                result["error"] = exc

        waiter = threading.Thread(target=deploy)
        waiter.start()
        # the op must be queued behind the crash before the gate opens
        for _ in range(500):
            with service._queue.mutex:
                if any(isinstance(i, _Op) for i in service._queue.queue):
                    break
            time.sleep(0.01)
        gate.set()
        waiter.join(timeout=10)
        assert not waiter.is_alive(), "deploy_query hung after feeder crash"
        assert isinstance(result["error"], InjectedFaultError)
        with pytest.raises(InjectedFaultError):
            service.stop()

    def test_ops_after_crash_fail_fast(self):
        service = faulty_service(on_emit=lambda e: None)
        service.extend(crashing_events())
        wait_for_crash(service)
        with pytest.raises(InjectedFaultError):
            service.deploy_query(parse_query(DEPLOY, name="extra"), timeout=30)
        with pytest.raises(InjectedFaultError):
            service.submit(reading(40, 50))
        with pytest.raises(InjectedFaultError):
            service.stop()


class TestCrashTerminatesOutputs:
    def test_consumer_sees_feeder_error(self):
        service = faulty_service()
        result = {}

        def consume():
            try:
                for _ in service.outputs():
                    pass
            except BaseException as exc:
                result["error"] = exc

        consumer = threading.Thread(target=consume)
        consumer.start()
        service.extend(crashing_events())
        wait_for_crash(service)
        consumer.join(timeout=10)
        assert not consumer.is_alive(), "outputs() hung after feeder crash"
        assert isinstance(result["error"], InjectedFaultError)

    def test_erroring_stop_still_terminates_outputs(self):
        service = faulty_service()
        result = {}

        def consume():
            try:
                for _ in service.outputs():
                    pass
            except BaseException as exc:
                result["error"] = exc

        consumer = threading.Thread(target=consume)
        consumer.start()
        service.extend(crashing_events())
        with pytest.raises(InjectedFaultError):
            service.stop()
        consumer.join(timeout=10)
        assert not consumer.is_alive(), "outputs() hung across erroring stop"
        assert isinstance(result["error"], InjectedFaultError)


class TestExitDoesNotMask:
    def test_in_flight_exception_wins_over_feeder_error(self):
        with pytest.raises(ValueError, match="original failure") as excinfo:
            with faulty_service(on_emit=lambda e: None) as service:
                service.extend(crashing_events())
                wait_for_crash(service)
                raise ValueError("original failure")
        # the suppressed feeder error stays inspectable on the chain
        assert isinstance(excinfo.value.__context__, InjectedFaultError)
        # and keeps surfacing from explicit stop() calls
        with pytest.raises(InjectedFaultError):
            service.stop()

    def test_clean_service_passthrough(self):
        with pytest.raises(ValueError, match="original failure"):
            with EngineService(
                CaesarEngine(build_model()), on_emit=lambda e: None
            ) as service:
                service.submit(reading(0, 150))
                raise ValueError("original failure")
        assert service.error is None


class TestSubmitStopRace:
    def test_accepted_submissions_are_never_dropped(self):
        # all events share one timestamp: none can be dead-lettered as
        # late, so every accepted submission must be processed
        service = EngineService(
            CaesarEngine(build_model()), on_emit=lambda e: None
        )
        per_thread = 200
        accepted = [0] * 4

        def produce(slot: int) -> None:
            for _ in range(per_thread):
                try:
                    service.submit(reading(0, 50))
                except RuntimeEngineError:
                    return
                accepted[slot] += 1

        producers = [
            threading.Thread(target=produce, args=(slot,))
            for slot in range(len(accepted))
        ]
        for thread in producers:
            thread.start()
        time.sleep(0.01)  # let the race actually overlap the stop
        report = service.stop()
        for thread in producers:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert report.events_processed == sum(accepted)
        assert service.dropped_events == 0

    def test_submit_after_stop_raises_not_drops(self):
        service = EngineService(
            CaesarEngine(build_model()), on_emit=lambda e: None
        )
        report = service.stop()
        with pytest.raises(RuntimeEngineError, match="stopped"):
            service.submit(reading(0, 50))
        assert report.events_processed == 0
        assert service.dropped_events == 0


def shard_threads():
    return {
        thread for thread in threading.enumerate()
        if thread.name.startswith("caesar-shard-") and thread.is_alive()
    }


def count_end_runs(backend):
    """Wrap ``backend.end_run`` so the test can count its calls."""
    calls = []
    original = backend.end_run

    def end_run(engine):
        calls.append(engine)
        original(engine)

    backend.end_run = end_run
    return calls


class TestCrashedRunReleasesBackendWorkers:
    """A run that dies mid-feed must still reach ``backend.end_run``.

    Only the thread backend makes the leak observable (its ``begin_run``
    spawns the ``caesar-shard-*`` threads that ``end_run`` joins; the
    serial backend's ``end_run`` is a no-op), so it is pinned explicitly.
    """

    def test_stop_after_feeder_crash_leaves_no_shard_threads(self):
        before = shard_threads()
        engine = CaesarEngine(build_model(), backend="thread")
        ended = count_end_runs(engine.backend)
        inject_plan_fault(engine, "alert", at_times={20})
        service = EngineService(engine, on_emit=lambda e: None)
        assert shard_threads() - before, "the run never spawned its shards"
        service.extend(crashing_events())
        with pytest.raises(InjectedFaultError):
            service.stop()
        assert not shard_threads() - before
        # the run is aborted exactly once; stop() stays idempotent and
        # keeps re-raising the stored error
        with pytest.raises(InjectedFaultError):
            service.stop()
        assert len(ended) == 1

    def test_crashing_emit_callback_aborts_the_run_too(self):
        # the session is healthy here — the feeder dies in the owner's
        # callback — so only stop() can end the run
        before = shard_threads()
        engine = CaesarEngine(build_model(), backend="thread")
        ended = count_end_runs(engine.backend)

        def on_emit(event):
            raise ValueError("sink is down")

        service = EngineService(engine, on_emit=on_emit)
        service.extend([reading(0, 150), reading(10, 160), reading(20, 90)])
        with pytest.raises(ValueError, match="sink is down"):
            service.stop()
        assert not shard_threads() - before
        assert len(ended) == 1

    def test_raising_feed_aborts_the_session_once(self):
        before = shard_threads()
        engine = CaesarEngine(build_model(), backend="thread")
        ended = count_end_runs(engine.backend)
        inject_plan_fault(engine, "alert", at_times={20})
        session = EngineSession(engine)
        with pytest.raises(InjectedFaultError):
            session.feed(crashing_events())
        assert not shard_threads() - before
        # the session is dead: every later call re-raises the same error
        with pytest.raises(InjectedFaultError):
            session.feed([reading(40, 50)])
        with pytest.raises(InjectedFaultError):
            session.close()
        session.abort()
        assert len(ended) == 1
