"""Long-lived streaming service mode (library extension).

:class:`EngineService` turns an engine into a continuously ingesting
service: producers :meth:`~EngineService.submit` events into a bounded
queue (blocking when it is full — backpressure that slows the producer
down instead of growing memory, complementing the load shedder's admission
control which keeps working on stream-time pressure unchanged), a feeder
thread drains the queue through an :class:`~repro.runtime.session.EngineSession`,
and derived events are emitted *as their stream transactions commit* — via
an ``on_emit`` callback or the :meth:`~EngineService.outputs` iterator —
not only in the end-of-run report.

The service adds a queue and a thread, not a run loop: the session steps
the same :class:`~repro.runtime.engine.RunState` driver as a one-shot
``run()`` and :meth:`~EngineService.stop` returns the report its
``finish`` builds.  The session runs in frontier mode (``eager=False``):
a timestamp's batch stays open until a strictly newer timestamp arrives,
so events of one logical transaction may be submitted one at a time and
still execute as one transaction — which is what makes continuous
ingestion byte-identical to a one-shot ``run()`` over the same stream
(the difftest ``service`` axis enforces this).  A feeder crash aborts the
run (the backend's workers are released); :meth:`~EngineService.stop`
then re-raises the stored error on every call.

Online deployment — :meth:`~EngineService.deploy_query`,
:meth:`~EngineService.retire_query`, :meth:`~EngineService.deploy_context`
— is serialized through the same queue: the operation takes effect after
every previously submitted event has committed, and returns that
activation watermark.  Outputs of the new query from the watermark onward
match a from-scratch engine that had the query all along (enforced by
test against a checkpoint-restored reference).

Periodic live snapshots come for free: a supervised engine with a
:class:`~repro.runtime.recovery.RecoveryManager` autosaves at watermark
boundaries because every driver step ends in the engine's
``_on_batch_end`` hook.

Service gauges (queue depth, watermark, watermark lag, emit latency) are
registered on the engine's metrics registry under ``caesar_service_*``.
"""

from __future__ import annotations

import queue as _queue
import threading
import time as _time
from typing import Callable, Iterable, Iterator, TYPE_CHECKING

from repro.errors import RuntimeEngineError
from repro.events.event import Event
from repro.events.timebase import TimePoint
from repro.runtime.session import EngineSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import CaesarEngine, EngineReport

#: sentinel closing the feeder loop (graceful drain)
_STOP = object()


class _Finish:
    """Terminates the :meth:`EngineService.outputs` iterator.

    Carries the feeder error when the service died instead of stopping:
    a blocked consumer must wake up and see the failure, not wait on an
    emission queue nobody will ever feed again.
    """

    __slots__ = ("error",)

    def __init__(self, error: BaseException | None = None):
        self.error = error


#: sentinel terminating the outputs iterator after a clean stop
_DONE = _Finish()


class _Op:
    """A control operation serialized through the event queue."""

    __slots__ = ("apply", "done", "result", "error")

    def __init__(self, apply: Callable[[], object]):
        self.apply = apply
        self.done = threading.Event()
        self.result: object = None
        self.error: BaseException | None = None


class EngineService:
    """Continuous ingestion with live emission and online deployment.

    Parameters
    ----------
    engine:
        The engine to serve.  Must use an in-process (serial or thread)
        backend when online deployment is exercised.
    max_delay:
        Out-of-order tolerance forwarded to the underlying session's
        reorder buffer; older events are dead-lettered as late.
    queue_size:
        Bound of the ingestion queue; a full queue blocks :meth:`submit`
        (backpressure).
    on_emit:
        Optional callback invoked with each derived event as it is
        emitted (from the feeder thread).  Without one, consume
        :meth:`outputs` instead.
    track_outputs:
        As in ``run()``: also accumulate derived events on the report.
    """

    def __init__(
        self,
        engine: "CaesarEngine",
        *,
        max_delay: TimePoint = 0,
        queue_size: int = 1024,
        on_emit: Callable[[Event], None] | None = None,
        track_outputs: bool = True,
    ):
        self.engine = engine
        self.session = EngineSession(
            engine,
            max_delay=max_delay,
            eager=False,
            track_outputs=track_outputs,
        )
        self.on_emit = on_emit
        self.emitted_events = 0
        self._queue: _queue.Queue = _queue.Queue(maxsize=queue_size)
        self._emitted: _queue.Queue | None = (
            _queue.Queue() if on_emit is None else None
        )
        self._error: BaseException | None = None
        self._report: "EngineReport | None" = None
        self._stopping = False
        #: serializes the alive-check-then-enqueue step of ``submit`` and
        #: ``_control`` against ``stop`` marking the service stopped: an
        #: ingestion call either lands strictly ahead of the ``_STOP``
        #: sentinel (and is processed) or raises — never silently dropped
        self._gate = threading.Lock()
        #: events discarded without processing: queued behind a feeder
        #: crash, or still queued at a ``stop(drain=False)``
        self.dropped_events = 0
        self._emissions_closed = False
        registry = engine.observability.registry
        self._queue_gauge = registry.gauge(
            "caesar_service_queue_depth",
            "Events buffered in the service ingestion queue",
        )
        self._watermark_gauge = registry.gauge(
            "caesar_service_watermark",
            "Stream time of the service's last committed transaction",
        )
        self._lag_gauge = registry.gauge(
            "caesar_service_watermark_lag",
            "Stream-time distance between the newest submitted event and "
            "the service watermark",
        )
        self._emit_latency = registry.histogram(
            "caesar_service_emit_seconds",
            "Wall seconds from submission to emission of the batch that "
            "produced a derived event",
        )
        self._feeder = threading.Thread(
            target=self._feed_loop, name="caesar-service-feeder", daemon=True
        )
        self._feeder.start()

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def submit(self, event: Event, *, timeout: float | None = None) -> None:
        """Enqueue one event; blocks while the queue is full (backpressure).

        Raises the stored feeder error after a crash, and
        :class:`~repro.errors.RuntimeEngineError` after :meth:`stop` —
        a submission that does not raise is guaranteed to be processed
        (the check-then-enqueue step is serialized against ``stop``).
        """
        with self._gate:
            self._check_alive()
            self._queue.put((event, _time.perf_counter()), timeout=timeout)
            if self._error is not None:
                # the feeder died while (or just before) we enqueued: our
                # event would sit unprocessed forever.  Resolve the queue
                # (dropping it, counted) and surface the error instead of
                # silently losing the submission.
                self._fail_queued()
                raise self._error
        self._queue_gauge.set(self._queue.qsize())

    def extend(self, events: Iterable[Event]) -> None:
        """Enqueue many events (same backpressure per event)."""
        for event in events:
            self.submit(event)

    def _check_alive(self) -> None:
        if self._error is not None:
            raise self._error
        if self._stopping:
            raise RuntimeEngineError("service is stopped")

    # ------------------------------------------------------------------
    # online deployment
    # ------------------------------------------------------------------

    def deploy_query(self, query, *, timeout: float | None = None):
        """Deploy a query on the live engine; returns its activation
        watermark (stream time of the last transaction committed under the
        old model — the new query sees everything strictly after it)."""
        return self._control(
            lambda: self.engine.deploy_query(query), timeout=timeout
        )

    def retire_query(self, name: str, *, timeout: float | None = None):
        """Retire a query from the live engine; returns the watermark."""
        return self._control(
            lambda: self.engine.retire_query(name), timeout=timeout
        )

    def deploy_context(self, name: str, *, timeout: float | None = None):
        """Declare a new context type on the live engine."""
        return self._control(
            lambda: self.engine.deploy_context(name), timeout=timeout
        )

    def _control(self, apply: Callable[[], object], *, timeout=None):
        """Run a deployment op after everything already submitted commits.

        Never blocks forever: if the feeder thread dies, every queued op —
        including this one — is failed with the stored error (either by
        the dying feeder's :meth:`_fail_queued` sweep or by our own
        post-enqueue re-check, whichever observes the crash).
        """
        op = _Op(apply)
        with self._gate:
            self._check_alive()
            self._queue.put(op)
            if self._error is not None:
                self._fail_queued()
        if not op.done.wait(timeout):
            raise RuntimeEngineError("deployment operation timed out")
        if op.error is not None:
            raise op.error
        return op.result

    # ------------------------------------------------------------------
    # feeder thread
    # ------------------------------------------------------------------

    def _feed_loop(self) -> None:
        try:
            while True:
                item = self._queue.get()
                self._queue_gauge.set(self._queue.qsize())
                if item is _STOP:
                    self._emit(self.session.flush(), None)
                    return
                if isinstance(item, _Op):
                    self._run_op(item)
                    continue
                event, submitted = item
                self._emit(self.session.feed([event]), submitted)
                self._refresh_gauges()
        except BaseException as exc:  # surfaced on submit/stop/outputs
            # Order matters: the error must be visible before the queue is
            # swept, so an ingestion call racing this crash either sees the
            # error up front or finds its just-enqueued item resolved by
            # the sweep (or by its own post-enqueue re-check).
            self._error = exc
            self._fail_queued()
            self._finish_emissions(exc)

    def _fail_queued(self) -> None:
        """Resolve everything still queued after a feeder crash.

        Pending control ops are failed with the stored error (their
        waiters wake up instead of hanging forever); queued events are
        discarded and counted in :attr:`dropped_events`.  Draining also
        frees queue slots, unblocking producers parked in a full-queue
        ``put`` so their own error re-check can run.  Idempotent — the
        dying feeder and any number of racing producers may all sweep.
        """
        error = self._error
        while True:
            try:
                item = self._queue.get_nowait()
            except _queue.Empty:
                return
            if isinstance(item, _Op):
                item.error = error
                item.done.set()
            elif item is not _STOP:
                self.dropped_events += 1

    def _finish_emissions(self, error: BaseException | None) -> None:
        """Terminate the :meth:`outputs` iterator (once)."""
        if self._emitted is None or self._emissions_closed:
            return
        self._emissions_closed = True
        self._emitted.put(_DONE if error is None else _Finish(error))

    def _run_op(self, op: _Op) -> None:
        try:
            # close the frontier first: events submitted before the op
            # must commit under the pre-op model
            self._emit(self.session.flush(), None)
            op.apply()
            op.result = self.session.watermark
        except BaseException as exc:
            op.error = exc
        finally:
            op.done.set()

    def _emit(self, outputs: list[Event], submitted: float | None) -> None:
        if not outputs:
            return
        if submitted is not None:
            self._emit_latency.observe(_time.perf_counter() - submitted)
        for event in outputs:
            self.emitted_events += 1
            if self.on_emit is not None:
                self.on_emit(event)
            else:
                self._emitted.put(event)

    def _refresh_gauges(self) -> None:
        watermark = self.session.watermark
        newest = self.session.now
        if watermark is not None:
            self._watermark_gauge.set(float(watermark))
            if newest is not None:
                self._lag_gauge.set(float(newest) - float(watermark))

    # ------------------------------------------------------------------
    # consumption / lifecycle
    # ------------------------------------------------------------------

    @property
    def error(self) -> BaseException | None:
        """The feeder thread's stored crash, if any (read-only)."""
        return self._error

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has been requested or has completed."""
        return self._stopping or self._report is not None

    @property
    def queue_depth(self) -> int:
        """Events and ops currently buffered in the ingestion queue."""
        return self._queue.qsize()

    def outputs(self) -> Iterator[Event]:
        """Iterate derived events as they are emitted.

        Terminates after :meth:`stop`; if the feeder thread died, raises
        its error instead of blocking forever.  Only available without an
        ``on_emit`` callback (one consumer owns the emission stream).
        """
        if self._emitted is None:
            raise RuntimeEngineError(
                "an on_emit callback consumes this service's emissions"
            )
        while True:
            item = self._emitted.get()
            if isinstance(item, _Finish):
                if item.error is not None:
                    raise item.error
                return
            yield item

    def stop(self, *, drain: bool = True) -> "EngineReport":
        """Stop the service and return the final report.

        ``drain=True`` (graceful, the SIGTERM path) processes everything
        already submitted; ``drain=False`` discards events still queued.
        Idempotent — repeated calls return the same report.
        """
        if self._report is not None:
            return self._report
        with self._gate:
            # under the gate: no submit/_control can pass its alive check
            # and enqueue behind the _STOP sentinel anymore
            self._stopping = True
        if not drain:
            try:
                while True:
                    item = self._queue.get_nowait()
                    if isinstance(item, _Op):
                        item.error = RuntimeEngineError("service stopped")
                        item.done.set()
                    elif item is not _STOP:
                        self.dropped_events += 1
            except _queue.Empty:
                pass
        if self._feeder.is_alive():
            self._queue.put(_STOP)
        self._feeder.join()
        self._queue_gauge.set(0)
        if self._error is not None:
            # the feeder's crash path already failed queued ops and
            # terminated the outputs iterator with this error; re-raising
            # here (every call, for idempotency) surfaces it to stoppers.
            # The run is dead either way: end it so the backend's workers
            # do not outlive the service (a no-op when the session's own
            # failing step already did).
            self.session.abort()
            self._finish_emissions(self._error)
            raise self._error
        try:
            self._report = self.session.close()
        except BaseException as exc:
            # a crash in the final close must not strand the outputs()
            # consumer either
            self._error = exc
            self._finish_emissions(exc)
            raise
        self._finish_emissions(None)
        return self._report

    close = stop

    def __enter__(self) -> "EngineService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.stop()
            return
        try:
            self.stop(drain=False)
        except BaseException as stop_error:
            # the in-flight exception triggered this exit and must win;
            # a feeder error raised by stop() here would mask it.  The
            # suppressed error stays inspectable via the chained context
            # and keeps surfacing from later stop() calls.
            if stop_error is not exc:
                exc.__context__ = stop_error
