"""Incremental execution sessions (library extension).

:meth:`CaesarEngine.run` consumes a complete stream; long-running services
feed events as they arrive.  :class:`EngineSession` wraps an engine with an
incremental interface::

    session = EngineSession(engine)
    alarms = session.feed(batch_of_events)   # events as they arrive
    ...
    report = session.close()                 # final metrics

A session owns no run loop of its own: it opens the same
:class:`~repro.runtime.engine.RunState` that :meth:`CaesarEngine.run`
drives, calls its ``step`` once per released timestamp and its ``finish``
on :meth:`~EngineSession.close`.  What the session adds is only what is
genuinely incremental — the reorder buffer, the frontier hold
(``eager=False``) and late accounting.  The engine's configured execution
backend drives the run, so process-sharded engines feed incrementally
too; a step that raises aborts the run (the backend's workers are
released) and the session keeps re-raising that error.

Late arrivals are no longer an error: events flow through a
:class:`~repro.runtime.reorder.ReorderBuffer` with the session's
``max_delay`` bound, and events older than the watermark (or older than a
timestamp whose transaction already committed) are counted in
:attr:`EngineSession.late_events` and diverted to the engine's dead-letter
queue under the ``late`` reason when one is attached.

The invariant the difftest ``service`` axis enforces — feeding a stream
in chunks is byte-identical to one ``run()`` over the whole stream — is
therefore a statement about reordering and the frontier hold, not about
two loops kept in sync.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import RuntimeEngineError
from repro.events.event import Event
from repro.events.timebase import TimePoint
from repro.runtime.engine import CaesarEngine, EngineReport, RunState
from repro.runtime.reorder import ReorderBuffer


class EngineSession:
    """A stateful, incremental run of a :class:`CaesarEngine`.

    Parameters
    ----------
    engine:
        The engine to drive.  As with ``run()``, a session on a previously
        used engine starts from a clean slate unless the engine was just
        restored from a checkpoint.
    max_delay:
        Bounded out-of-order tolerance: events may arrive up to
        ``max_delay`` stream-time units late and are reordered before
        processing; older ones are dead-lettered as late.  ``0`` (default)
        keeps the strict in-order contract but demotes violations from an
        exception to late accounting.
    eager:
        With ``eager=True`` (default) every event released by the reorder
        buffer is processed before :meth:`feed` returns.  With
        ``eager=False`` the newest timestamp's batch is held until a
        strictly newer timestamp arrives, so equal-timestamp events split
        across calls still form one stream transaction — the mode
        :class:`~repro.runtime.service.EngineService` feeds single events
        with.
    track_outputs:
        As in ``run()``: accumulate derived events on the final report.
    """

    def __init__(
        self,
        engine: CaesarEngine,
        *,
        max_delay: TimePoint = 0,
        eager: bool = True,
        track_outputs: bool = True,
    ):
        self.engine = engine
        self.eager = eager
        self.late_events = 0
        self._state = RunState(engine, track_outputs=track_outputs)
        self._reorder = ReorderBuffer(max_delay, on_late=self._record_late)
        self._reorder.bind_metrics(engine.observability.registry)
        #: released-but-unprocessed events, sorted by construction (the
        #: reorder buffer releases in timestamp order)
        self._pending: list[Event] = []
        self._last_fed: TimePoint | None = None
        self._last_processed: TimePoint | None = None
        self._closed = False
        #: the exception that aborted the run, re-raised by later calls
        self._error: BaseException | None = None
        self._report: EngineReport | None = None

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------

    def feed(self, events: Iterable[Event]) -> list[Event]:
        """Process the next events; returns the derivations they released.

        Events within one call may span several timestamps; each distinct
        timestamp forms its own stream transactions.  Arrival may be out
        of order within the session's ``max_delay`` bound; older events
        are dead-lettered as late instead of raising.
        """
        self._check_open()
        for event in events:
            self._last_fed = event.timestamp
            self._pending.extend(self._reorder.push(event))
        return self._drain_pending()

    def flush(self) -> list[Event]:
        """Release and process everything the reorder buffer still holds."""
        self._check_open()
        self._pending.extend(self._reorder.flush())
        return self._drain_pending(final=True)

    def _check_open(self) -> None:
        if self._error is not None:
            raise self._error
        if self._closed:
            raise RuntimeEngineError("session is closed")

    def _record_late(self, event: Event) -> None:
        self.late_events += 1
        dead_letters = getattr(self.engine, "dead_letters", None)
        if dead_letters is not None:
            dead_letters.record_late(event)

    def _drain_pending(self, *, final: bool = False) -> list[Event]:
        pending = self._pending
        if not pending:
            return []
        if not self.eager and not final:
            # hold the frontier timestamp's batch open: equal-timestamp
            # events arriving in later calls must join its transaction
            frontier = pending[-1].timestamp
            if pending[0].timestamp == frontier:
                return []
        else:
            frontier = None
        outputs: list[Event] = []
        self._pending = []
        index = 0
        while index < len(pending):
            t = pending[index].timestamp
            if frontier is not None and t == frontier:
                self._pending = pending[index:]
                break
            end = index
            while end < len(pending) and pending[end].timestamp == t:
                end += 1
            batch = pending[index:end]
            index = end
            if self._last_processed is not None and t <= self._last_processed:
                # the transaction for t already committed — a closed
                # timestamp cannot be reopened, so these count as late
                # even though the reorder bound admitted them
                for event in batch:
                    self._record_late(event)
                continue
            try:
                outputs.extend(self._state.step(t, batch))
            except BaseException as exc:
                self._error = exc
                self.abort()
                raise
            self._last_processed = t
        return outputs

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def now(self) -> TimePoint | None:
        """Timestamp of the most recently fed event."""
        return self._last_fed

    @property
    def watermark(self) -> TimePoint | None:
        """Timestamp of the most recently committed stream transaction."""
        return self._last_processed

    @property
    def reordered_events(self) -> int:
        """Events the reorder buffer released out of arrival order."""
        return self._reorder.reordered_events

    def active_contexts(self, partition=None) -> tuple[str, ...]:
        """Currently active contexts of a partition (for dashboards)."""
        return self.engine._partition(partition).store.active_contexts()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> EngineReport:
        """Finish the session and return the accumulated report.

        Flushes the reorder buffer and finishes the run — the report is
        built by the same :meth:`RunState.finish` as ``run()``'s, so
        ``repro stats`` and the difftest axes see chunked and one-shot
        execution identically.  Idempotent: a second call returns the same
        report; after a failed step it re-raises that step's error.
        """
        if self._report is not None:
            return self._report
        self.flush()
        self._closed = True
        self._report = self._state.finish()
        return self._report

    def abort(self) -> None:
        """End the run without a report, releasing the backend's workers.

        For owners that cannot continue (a crashed service feeder).
        Idempotent, and a no-op once the session closed or aborted.
        """
        if not self._closed:
            self._closed = True
            self._state.abort()
