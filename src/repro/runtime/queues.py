"""Event distributor and per-partition event queues (Section 6.1, storage
layer).

The event distributor buffers incoming events into per-partition queues
(one partition per unidirectional road segment in the traffic use case) and
tracks its *progress*: the largest timestamp it has fully distributed.  The
time-driven scheduler waits for the distributor's progress to pass ``t``
before executing the transactions of time ``t`` (Section 6.2, "Correct
Context Management").
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable

from repro.events.event import Event
from repro.events.timebase import TimePoint

PartitionKey = Hashable
Partitioner = Callable[[Event], PartitionKey]


def single_partition(event: Event) -> PartitionKey:
    """The default partitioner: everything in one partition."""
    return None


class EventDistributor:
    """Buffers events into per-partition FIFO queues.

    ``progress`` is the largest timestamp ``t`` such that all events with
    timestamps ``<= t`` have been enqueued — for an in-order stream this is
    simply the last distributed timestamp.
    """

    def __init__(self, partitioner: Partitioner = single_partition):
        self._partitioner = partitioner
        self._queues: dict[PartitionKey, deque[Event]] = {}
        self.progress: TimePoint = -1
        self.distributed = 0
        #: events returned by :meth:`take_exactly` that were *older* than the
        #: requested timestamp — stragglers a correct scheduler never leaves
        #: behind, surfaced here instead of silently stranded or conflated
        self.stranded_taken = 0

    def distribute(self, events: Iterable[Event]) -> None:
        for event in events:
            key = self._partitioner(event)
            self._queues.setdefault(key, deque()).append(event)
            self.progress = max(self.progress, event.timestamp)
            self.distributed += 1

    @property
    def partitions(self) -> tuple[PartitionKey, ...]:
        return tuple(self._queues)

    def pending(self, key: PartitionKey) -> int:
        queue = self._queues.get(key)
        return len(queue) if queue else 0

    def total_pending(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def take_until(self, key: PartitionKey, t: TimePoint) -> list[Event]:
        """Dequeue all events of a partition with timestamps ``<= t``."""
        queue = self._queues.get(key)
        if not queue:
            return []
        taken: list[Event] = []
        while queue and queue[0].timestamp <= t:
            taken.append(queue.popleft())
        return taken

    def take_exactly(self, key: PartitionKey, t: TimePoint) -> list[Event]:
        """Dequeue the events of a partition with timestamp exactly ``t``.

        Events older than ``t`` at the queue head would indicate a scheduler
        bug (they should have been taken by an earlier transaction), so they
        are also returned rather than silently stranded — but unlike
        :meth:`take_until` they are *distinguished*: each one is counted in
        :attr:`stranded_taken`.  Events newer than ``t`` stay queued.
        """
        taken = self.take_until(key, t)
        for event in taken:
            if event.timestamp < t:
                self.stranded_taken += 1
        return taken
