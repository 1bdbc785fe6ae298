"""Tests for the event distributor and per-partition queues (Section 6.1)."""

from repro.events.event import Event
from repro.events.types import EventType
from repro.runtime.queues import EventDistributor, single_partition

TICK = EventType.define("Tick", seg="int")


def tick(t, seg=0):
    return Event(TICK, t, {"seg": seg})


class TestSinglePartition:
    def test_default_partitioner(self):
        assert single_partition(tick(0)) is None

    def test_distribute_and_take(self):
        distributor = EventDistributor()
        distributor.distribute([tick(0), tick(1), tick(2)])
        assert distributor.progress == 2
        assert distributor.distributed == 3
        taken = distributor.take_until(None, 1)
        assert [e.timestamp for e in taken] == [0, 1]
        assert distributor.pending(None) == 1

    def test_take_from_unknown_partition(self):
        assert EventDistributor().take_until("nope", 10) == []


class TestPartitioned:
    def test_partitioning_by_key(self):
        distributor = EventDistributor(lambda e: e["seg"])
        distributor.distribute([tick(0, seg=1), tick(0, seg=2), tick(1, seg=1)])
        assert set(distributor.partitions) == {1, 2}
        assert distributor.pending(1) == 2
        assert distributor.pending(2) == 1

    def test_take_preserves_order_within_partition(self):
        distributor = EventDistributor(lambda e: e["seg"])
        distributor.distribute([tick(0, seg=1), tick(5, seg=1), tick(9, seg=1)])
        taken = distributor.take_until(1, 5)
        assert [e.timestamp for e in taken] == [0, 5]

    def test_total_pending(self):
        distributor = EventDistributor(lambda e: e["seg"])
        distributor.distribute([tick(0, seg=1), tick(0, seg=2)])
        assert distributor.total_pending() == 2
        distributor.take_until(1, 99)
        assert distributor.total_pending() == 1

    def test_progress_tracks_max_timestamp(self):
        distributor = EventDistributor(lambda e: e["seg"])
        assert distributor.progress == -1
        distributor.distribute([tick(7, seg=1)])
        assert distributor.progress == 7


class TestTakeExactly:
    def test_takes_only_requested_timestamp(self):
        distributor = EventDistributor()
        distributor.distribute([tick(5), tick(5), tick(9)])
        taken = distributor.take_exactly(None, 5)
        assert [e.timestamp for e in taken] == [5, 5]
        assert distributor.pending(None) == 1
        assert distributor.stranded_taken == 0

    def test_stranded_older_events_distinguished(self):
        """Events older than t at the queue head are returned (never
        silently stranded) but counted separately — they indicate a
        scheduler bug, not normal same-timestamp work."""
        distributor = EventDistributor()
        distributor.distribute([tick(1), tick(2), tick(5)])
        taken = distributor.take_exactly(None, 5)
        assert [e.timestamp for e in taken] == [1, 2, 5]
        assert distributor.stranded_taken == 2

    def test_newer_events_stay_queued(self):
        distributor = EventDistributor()
        distributor.distribute([tick(5), tick(7)])
        taken = distributor.take_exactly(None, 5)
        assert [e.timestamp for e in taken] == [5]
        assert distributor.pending(None) == 1
