"""Dead-letter queue for events the engine cannot (or must not) process.

Production CEP deployments never let a malformed event abort the stream:
events that fail schema validation, arrive later than the reorder bound, or
belong to a quarantined plan are diverted to a *dead-letter queue* — a
bounded buffer carrying, for each entry, the event itself, the reason it was
diverted, the error that caused it (if any) and the stream timestamp at
which it happened.  Operators drain the queue offline to diagnose producers
or replay repaired events.

The queue is bounded: beyond ``capacity`` the *oldest* entries are evicted
(the newest failures are the ones an operator investigates first) and every
eviction is counted in :attr:`DeadLetterQueue.dropped`, so accounting never
lies about loss.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.events.event import Event
from repro.events.timebase import TimePoint

#: An event violated its declared schema.
REASON_SCHEMA = "schema"
#: An event arrived later than the reorder buffer's bound.
REASON_LATE = "late"
#: An event was withheld from a plan quarantined by its circuit breaker.
REASON_QUARANTINED = "quarantined"
#: An event batch triggered a plan exception (the fault itself).
REASON_PLAN_FAULT = "plan_fault"
#: An event was dropped by the load shedder under overload.
REASON_SHED = "shed"


@dataclass(frozen=True)
class DeadLetterEntry:
    """One diverted event: what, why, and when (in stream time)."""

    event: Event
    reason: str
    error: str | None
    timestamp: TimePoint


class DeadLetterQueue:
    """A bounded queue of diverted events with per-reason accounting.

    Parameters
    ----------
    capacity:
        Maximum number of retained entries; older entries are evicted (and
        counted in :attr:`dropped`) once it is exceeded.  ``capacity`` only
        bounds retention — the per-reason counters keep counting.
    """

    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: deque[DeadLetterEntry] = deque()
        #: guards the entry deque and counters: ``engine.dead_letters`` is
        #: public and may be read while an ``EngineService`` feeder writes
        self._lock = threading.Lock()
        #: total entries ever enqueued, by reason (evictions do not subtract)
        self.counts_by_reason: dict[str, int] = {}
        #: entries evicted because the queue was full
        self.dropped = 0
        #: evictions broken down by the *evicted* entry's reason, so loss
        #: of ``shed`` vs ``late`` vs ``quarantined`` entries stays
        #: distinguishable even after the queue wrapped
        self.dropped_by_reason: dict[str, int] = {}
        self._registry = None
        self._reason_counters: dict[str, object] = {}
        self._dropped_counter = None
        self._pending_gauge = None

    def bind_metrics(self, registry) -> None:
        """Mirror queue activity into a metrics registry.

        Reason counters are bumped at :meth:`put` time — inside whichever
        worker diverted the event, fanning in through the registry's worker
        delta — so :meth:`absorb` deliberately leaves them alone (the
        worker already counted its own puts).  The occupancy gauge tracks
        the *retained* entries of this queue instance.
        """
        self._registry = registry
        self._reason_counters = {}
        self._dropped_counter = registry.counter(
            "caesar_dead_letters_dropped_total",
            "Dead-letter entries evicted because the queue was full",
        )
        self._pending_gauge = registry.gauge(
            "caesar_dead_letters_pending",
            "Dead-letter entries currently retained",
        )

    def _reason_counter(self, reason: str):
        counter = self._reason_counters.get(reason)
        if counter is None:
            counter = self._registry.counter(
                "caesar_dead_letters_total",
                "Events diverted to the dead-letter queue",
                labels={"reason": reason},
            )
            self._reason_counters[reason] = counter
        return counter

    def put(
        self,
        event: Event,
        *,
        reason: str,
        error: Exception | str | None = None,
        timestamp: TimePoint | None = None,
    ) -> DeadLetterEntry:
        """Divert one event; returns the recorded entry."""
        entry = DeadLetterEntry(
            event=event,
            reason=reason,
            error=None if error is None else str(error),
            timestamp=event.timestamp if timestamp is None else timestamp,
        )
        with self._lock:
            self._entries.append(entry)
            self.counts_by_reason[reason] = (
                self.counts_by_reason.get(reason, 0) + 1
            )
            evicted = len(self._entries) > self.capacity
            if evicted:
                oldest = self._entries.popleft()
                self.dropped += 1
                self.dropped_by_reason[oldest.reason] = (
                    self.dropped_by_reason.get(oldest.reason, 0) + 1
                )
            pending = len(self._entries)
        if self._registry is not None:
            self._reason_counter(reason).inc()
            if evicted:
                self._dropped_counter.inc()
            self._pending_gauge.set(pending)
        return entry

    def absorb(
        self,
        entries: Iterable[DeadLetterEntry],
        *,
        dropped: int = 0,
        dropped_by_reason: dict[str, int] | None = None,
    ) -> None:
        """Merge entries recorded by a shard worker in another process.

        Unlike :meth:`put` the entries already carry their reason/error, so
        they are appended verbatim (still honouring the capacity bound) and
        the per-reason counters are bumped to match.  ``dropped`` /
        ``dropped_by_reason`` add evictions the worker's own bounded queue
        already performed.
        """
        evictions = 0
        with self._lock:
            for entry in entries:
                self._entries.append(entry)
                self.counts_by_reason[entry.reason] = (
                    self.counts_by_reason.get(entry.reason, 0) + 1
                )
                if len(self._entries) > self.capacity:
                    oldest = self._entries.popleft()
                    self.dropped += 1
                    self.dropped_by_reason[oldest.reason] = (
                        self.dropped_by_reason.get(oldest.reason, 0) + 1
                    )
                    evictions += 1
            self.dropped += dropped
            for reason, count in (dropped_by_reason or {}).items():
                self.dropped_by_reason[reason] = (
                    self.dropped_by_reason.get(reason, 0) + count
                )
            pending = len(self._entries)
        if self._registry is not None:
            # The worker that recorded these entries already counted them
            # (its registry delta fans in); only absorb-time evictions are
            # new activity of *this* side.
            if evictions:
                self._dropped_counter.inc(evictions)
            self._pending_gauge.set(pending)

    def record_late(self, event: Event) -> DeadLetterEntry:
        """Divert a too-late event (:data:`REASON_LATE`).

        Signature-compatible with :class:`~repro.runtime.reorder.ReorderBuffer`'s
        ``on_late`` callback, so a buffer can feed the queue directly::

            buffer = ReorderBuffer(max_delay=60, on_late=dlq.record_late)
        """
        return self.put(
            event,
            reason=REASON_LATE,
            error=f"event at t={event.timestamp} arrived after the reorder bound",
        )

    # ------------------------------------------------------------------
    # inspection / draining
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DeadLetterEntry]:
        return iter(self._entries)

    @property
    def total(self) -> int:
        """Total events ever dead-lettered (including later-evicted ones)."""
        return sum(self.counts_by_reason.values())

    def entries(self, *, reason: str | None = None) -> list[DeadLetterEntry]:
        """Retained entries, optionally restricted to one reason."""
        if reason is None:
            return list(self._entries)
        return [e for e in self._entries if e.reason == reason]

    def drain(self) -> list[DeadLetterEntry]:
        """Remove and return all retained entries (counters are kept)."""
        drained = list(self._entries)
        self._entries.clear()
        if self._pending_gauge is not None:
            self._pending_gauge.set(0)
        return drained

    def summary(self) -> dict:
        """A JSON-friendly accounting snapshot."""
        return {
            "retained": len(self._entries),
            "dropped": self.dropped,
            "dropped_by_reason": dict(self.dropped_by_reason),
            "by_reason": dict(self.counts_by_reason),
        }
