"""Columnar event batches: the process backend's shared-memory wire codec.

:class:`EventBatch` packs all events of one timestamp into one contiguous
buffer: a pickled header (layout, object lanes) followed by 8-byte-aligned
raw ``int64``/``float64`` column buffers.  ``decode`` reads columns as
zero-copy :class:`memoryview` casts straight out of the source buffer —
typically a :mod:`multiprocessing.shared_memory` ring segment — so the only
per-value work on the receiving side is rebuilding the event objects
themselves, never a pickle round-trip of their payloads.
:func:`build_view` is the columnar decomposition the encoder works from.

Regularity rules — what lands in typed columns vs the object lane:

* an event is **regular** if it is a plain :class:`Event` (no subclass),
  underived, with a point occurrence time, and its payload keys match the
  first-seen key tuple of its type; anything else (match events, complex
  events, interval times, heterogeneous payloads) rides the pickled
  **object lane** unchanged;
* a column is typed ``int64``/``float64`` only when *every* value is
  exactly ``int`` (within 64-bit range, ``bool`` excluded) or exactly
  ``float`` — mixed or exotic columns fall back to a pickled object
  column.  Exact-type checks keep decoded payloads bit-identical to the
  originals, which the backend-parity contract depends on.
"""

from __future__ import annotations

import pickle
import struct
from array import array
from dataclasses import dataclass, field
from typing import Sequence

from repro.events.event import Event, rehydrate_event
from repro.events.timebase import TimeInterval
from repro.events.types import EventType


# ---------------------------------------------------------------------------
# columnar view
# ---------------------------------------------------------------------------


@dataclass
class TypeSegment:
    """The regular events of one type: positions plus payload columns."""

    event_type: EventType
    #: payload key order, fixed by the first event of the type in the batch
    keys: tuple[str, ...]
    #: original batch positions of the segment's events
    indices: list[int] = field(default_factory=list)
    #: attribute name → values, aligned with :attr:`indices`
    columns: dict[str, list] = field(default_factory=dict)
    #: point timestamps, aligned with :attr:`indices`
    times: list = field(default_factory=list)


@dataclass
class BatchView:
    """Columnar decomposition of one batch: typed segments + object lane."""

    n: int
    regular: list[TypeSegment]
    #: original positions of events that defied columnarization
    irregular: list[int]


def build_view(events: Sequence[Event]) -> BatchView:
    """Decompose a batch into per-type segments and the irregular lane."""
    segments: dict[EventType, TypeSegment] = {}
    irregular: list[int] = []
    for index, event in enumerate(events):
        if (
            type(event) is not Event
            or event.derived_from
            or not event.time.is_point
        ):
            irregular.append(index)
            continue
        payload = event._payload
        segment = segments.get(event.event_type)
        if segment is None:
            keys = tuple(payload)
            segment = TypeSegment(
                event.event_type, keys, columns={key: [] for key in keys}
            )
            segments[event.event_type] = segment
        elif tuple(payload) != segment.keys:
            irregular.append(index)
            continue
        segment.indices.append(index)
        segment.times.append(event.time.start)
        for key in segment.keys:
            segment.columns[key].append(payload[key])
    return BatchView(len(events), list(segments.values()), irregular)


# ---------------------------------------------------------------------------
# wire codec
# ---------------------------------------------------------------------------

_MAGIC = b"CAEB"
_PREFIX = struct.Struct("<4sI")  # magic, pickled-header length
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def _column_kind(values: list) -> str:
    """``'q'`` (int64) / ``'d'`` (float64) / ``'obj'`` for one column.

    Exact-type checks: ``bool`` is not an int column value, ``int`` never
    rides a float column — decoded values must compare *and* type-match
    the originals for backend parity.
    """
    first = type(values[0])
    if first is int:
        for value in values:
            if type(value) is not int or not (
                _INT64_MIN <= value <= _INT64_MAX
            ):
                return "obj"
        return "q"
    if first is float:
        for value in values:
            if type(value) is not float:
                return "obj"
        return "d"
    return "obj"


class TypeDirectory:
    """Shared event-type id assignment for one encoder/decoder link.

    The process backend keeps one directory per worker pipe: a type is
    pickled once, in the header of the first batch that carries it, and
    referenced by integer id afterwards.  Ids are assigned in commit
    order on the encoding side and registration order on the decoding
    side; because batches traverse the pipe FIFO and every committed
    batch is decoded, the two stay in lockstep.
    """

    __slots__ = ("_ids", "_types")

    def __init__(self):
        self._ids: dict[EventType, int] = {}
        self._types: list[EventType] = []

    def __len__(self) -> int:
        return len(self._types)

    def lookup(self, event_type: EventType) -> int | None:
        return self._ids.get(event_type)

    def add(self, event_type: EventType) -> int:
        type_id = len(self._types)
        self._types.append(event_type)
        self._ids[event_type] = type_id
        return type_id

    def get(self, type_id: int) -> EventType:
        return self._types[type_id]


@dataclass(frozen=True)
class BatchStats:
    """How one encoded batch split across the columnar and object lanes."""

    events: int
    columnar: int
    object_lane: int
    object_columns: int


class EventBatch:
    """One batch encoded for the wire.

    ``data`` is the contiguous buffer; ``new_types`` lists the event types
    the encoding assumed to be first-sighted on this link — the caller
    must :meth:`commit` them to the shared :class:`TypeDirectory` once the
    batch is actually shipped (and must *not* when it falls back to plain
    pickling, or the decoder's directory would drift).
    """

    __slots__ = ("data", "stats", "new_types", "_directory")

    def __init__(self, data, stats, new_types, directory):
        self.data = data
        self.stats = stats
        self.new_types = new_types
        self._directory = directory

    def commit(self) -> None:
        """Register this batch's first-seen types with the directory."""
        if self._directory is not None:
            for _type_id, event_type in self.new_types:
                self._directory.add(event_type)

    @classmethod
    def encode(
        cls,
        events: Sequence[Event],
        directory: TypeDirectory | None = None,
    ) -> "EventBatch":
        """Pack a batch: pickled header + aligned raw column buffers.

        Layout: ``<4s magic><u32 header length><pickled header><pad to
        8><int64/float64 buffers, each 8-aligned>``.  Object columns and
        irregular events travel inside the header pickle.
        """
        view = build_view(events)

        raw_buffers: list[array] = []
        raw_offset = 0
        object_columns = 0

        def add_buffer(kind: str, values: list) -> tuple[int, int]:
            nonlocal raw_offset
            buffer = array(kind, values)
            offset = raw_offset
            raw_buffers.append(buffer)
            raw_offset += len(buffer) * 8
            return offset, len(values)

        new_types: list[tuple[int, EventType]] = []
        tentative: dict[EventType, int] = {}
        base = len(directory) if directory is not None else 0

        def type_id_of(event_type: EventType) -> int:
            type_id = (
                directory.lookup(event_type) if directory is not None else None
            )
            if type_id is None:
                type_id = tentative.get(event_type)
            if type_id is None:
                type_id = base + len(tentative)
                tentative[event_type] = type_id
                new_types.append((type_id, event_type))
            return type_id

        segments_meta = []
        columnar = 0
        for segment in view.regular:
            columnar += len(segment.indices)
            columns_meta = []
            for key in segment.keys:
                values = segment.columns[key]
                kind = _column_kind(values)
                if kind == "obj":
                    object_columns += 1
                    columns_meta.append((key, "obj", values))
                else:
                    columns_meta.append((key, kind, add_buffer(kind, values)))
            times = segment.times
            first = times[0]
            if all(t == first for t in times):
                time_meta = ("u", first)
            else:
                kind = _column_kind(times)
                if kind == "obj":
                    time_meta = ("obj", times)
                else:
                    time_meta = (kind, add_buffer(kind, times))
            segments_meta.append(
                (
                    type_id_of(segment.event_type),
                    len(segment.indices),
                    segment.keys,
                    add_buffer("q", segment.indices),
                    time_meta,
                    columns_meta,
                )
            )

        header = {
            "n": view.n,
            "new_types": new_types,
            "segments": segments_meta,
            "irregular": [(index, events[index]) for index in view.irregular],
        }
        header_bytes = pickle.dumps(header, protocol=_PICKLE_PROTOCOL)
        region_start = _aligned(_PREFIX.size + len(header_bytes))
        data = bytearray(region_start + raw_offset)
        _PREFIX.pack_into(data, 0, _MAGIC, len(header_bytes))
        data[_PREFIX.size : _PREFIX.size + len(header_bytes)] = header_bytes
        position = region_start
        for buffer in raw_buffers:
            nbytes = len(buffer) * 8
            data[position : position + nbytes] = buffer.tobytes()
            position += nbytes
        stats = BatchStats(
            events=view.n,
            columnar=columnar,
            object_lane=len(view.irregular),
            object_columns=object_columns,
        )
        return cls(bytes(data), stats, new_types, directory)

    @staticmethod
    def decode(buf, directory: TypeDirectory | None = None) -> list[Event]:
        """Rebuild the batch from an encoded buffer.

        ``buf`` is any bytes-like object — typically a memoryview into a
        shared-memory ring, read in place without an intermediate copy.
        Events come back equal to the originals (fresh ``event_id``\\ s, as
        with pickling) in their original order.
        """
        view = memoryview(buf)
        magic, header_length = _PREFIX.unpack_from(view, 0)
        if magic != _MAGIC:
            raise ValueError(f"not an encoded event batch (magic {magic!r})")
        header = pickle.loads(
            view[_PREFIX.size : _PREFIX.size + header_length]
        )
        if directory is None:
            directory = TypeDirectory()
        for _type_id, event_type in header["new_types"]:
            directory.add(event_type)
        region = _aligned(_PREFIX.size + header_length)

        def buffer_of(kind: str, descriptor: tuple[int, int]):
            offset, count = descriptor
            start = region + offset
            return view[start : start + count * 8].cast(kind)

        out: list = [None] * header["n"]
        for (
            type_id,
            count,
            keys,
            index_descriptor,
            time_meta,
            columns_meta,
        ) in header["segments"]:
            event_type = directory.get(type_id)
            indices = buffer_of("q", index_descriptor)
            time_kind = time_meta[0]
            if time_kind == "u":
                interval = TimeInterval.point(time_meta[1])
                times = None
            elif time_kind == "obj":
                times = time_meta[1]
            else:
                times = buffer_of(time_kind, time_meta[1])
            columns = [
                payload if kind == "obj" else buffer_of(kind, payload)
                for _key, kind, payload in columns_meta
            ]
            for row in range(count):
                payload = {
                    key: column[row] for key, column in zip(keys, columns)
                }
                if times is not None:
                    interval = TimeInterval.point(times[row])
                out[indices[row]] = rehydrate_event(
                    event_type, interval, payload
                )
        for index, event in header["irregular"]:
            out[index] = event
        return out


def _aligned(position: int) -> int:
    """Round up to the next 8-byte boundary."""
    return (position + 7) & ~7
