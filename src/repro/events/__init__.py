"""Event substrate: typed events, interval timestamps, ordered streams.

This package implements the preliminaries of Section 2 of the paper: a time
domain of non-negative rationals, typed events with schemas, and in-order
event streams that the CAESAR operators consume.
"""

from repro.events.timebase import TimeInterval, interval_contains, intervals_overlap
from repro.events.types import AttributeSpec, EventSchema, EventType
from repro.events.event import Event
from repro.events.stream import EventStream, StreamBatch, merge_streams
from repro.events.batch import (
    BatchStats,
    EventBatch,
    TypeDirectory,
)

__all__ = [
    "AttributeSpec",
    "BatchStats",
    "Event",
    "EventBatch",
    "EventSchema",
    "EventStream",
    "EventType",
    "StreamBatch",
    "TimeInterval",
    "TypeDirectory",
    "interval_contains",
    "intervals_overlap",
    "merge_streams",
]
